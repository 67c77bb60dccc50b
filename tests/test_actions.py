import json
import math
import os
import random
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import bimanual_icl

from bimanual_icl.actions import (
    BimanualAction,
    ContinuousPose,
    DEFAULT_BOUNDS,
    DiscreteAction,
    WorkspaceBounds,
    _euler_xyz,
    bin_rotation,
    devoxelize,
    discretize_pose,
    unbin_rotation,
    voxelize,
)
from bimanual_icl.errors import GimbalWarning, OutOfWorkspace, RangeError

IDENTITY_QUAT = (0.0, 0.0, 0.0, 1.0)


def quat_from_euler(x, y, z):
    return tuple(Rotation.from_euler("XYZ", [x, y, z], degrees=True).as_quat())


def scipy_bins(quaternion):
    """Reference binning: scipy's intrinsic-xyz Euler angles, binned as bin_rotation does."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # scipy's own gimbal-lock warning
        angles = Rotation.from_quat(quaternion).as_euler("XYZ", degrees=True)
    bins = []
    for a in angles:
        a = a % 360.0
        if a >= 360.0:
            a = 0.0
        bins.append(min(int(math.floor(a / 5.0 + 1e-9)), 71))
    return tuple(bins)


def _normalized(q):
    norm = math.sqrt(sum(c * c for c in q))
    return tuple(c / norm for c in q)


unit_quaternions = (
    st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 4)
    .filter(lambda q: sum(c * c for c in q) > 1e-2)
    .map(_normalized)
)
rotation_bins = st.tuples(*[st.integers(0, 71)] * 3)


class TestVoxelize:
    def test_lower_bound_maps_to_zero(self):
        assert voxelize((-0.3, -0.5, 0.6)) == (0, 0, 0)

    def test_upper_bound_maps_to_99(self):
        assert voxelize((0.7, 0.5, 1.6)) == (99, 99, 99)

    def test_midpoint(self):
        assert voxelize((0.2, 0.0, 1.1)) == (49, 49, 49)

    def test_rejects_out_of_bounds(self):
        with pytest.raises(OutOfWorkspace):
            voxelize((0.71, 0.0, 1.0))
        with pytest.raises(OutOfWorkspace):
            voxelize((0.0, -0.51, 1.0))

    def test_range_and_monotonicity(self):
        rng = random.Random(7)
        for _ in range(2000)        :
            p = [rng.uniform(lo, hi) for lo, hi in zip(DEFAULT_BOUNDS.min, DEFAULT_BOUNDS.max)]
            v = voxelize(p)
            assert all(0 <= c <= 99 for c in v)
            bumped = [min(hi, c + 1e-4) for c, hi in zip(p, DEFAULT_BOUNDS.max)]
            assert all(a <= b for a, b in zip(v, voxelize(bumped)))

    def test_custom_bounds(self):
        bounds = WorkspaceBounds(min=(0.0, 0.0, 0.0), max=(1.0, 2.0, 4.0))
        assert voxelize((1.0, 2.0, 4.0), bounds) == (99, 99, 99)
        assert voxelize((0.5, 1.0, 2.0), bounds) == (49, 49, 49)


class TestDevoxelize:
    def test_cell_center_at_origin(self):
        assert devoxelize((0, 0, 0)) == pytest.approx((-0.295, -0.495, 0.605))

    def test_cell_center_at_top(self):
        assert devoxelize((99, 99, 99)) == pytest.approx((0.695, 0.495, 1.595))

    def test_rejects_out_of_range(self):
        with pytest.raises(RangeError):
            devoxelize((100, 0, 0))
        with pytest.raises(RangeError):
            devoxelize((0, -1, 0))
        with pytest.raises(RangeError):
            devoxelize((1.5, 0, 0))

    def test_round_trip_on_subgrid(self):
        for x in range(10):
            for y in range(10):
                for z in range(10):
                    assert voxelize(devoxelize((x, y, z))) == (x, y, z)

    def test_round_trip_holds_through_voxel_49(self):
        # The floor-by-99 quantizer and /100 cell centers agree exactly on
        # the lower half of the grid.
        for v in range(50):
            assert voxelize(devoxelize((v, v, v))) == (v, v, v)

    def test_reconstruction_error_bounds(self):
        # Quantizer cells are span/99 wide but centers advance by span/100,
        # so the per-cell error envelope is (k + 50.5)/9900 of the span,
        # peaking just under 0.015 at the top of the grid.
        rng = random.Random(3)
        for _ in range(5000):
            p = [rng.uniform(lo, hi) for lo, hi in zip(DEFAULT_BOUNDS.min, DEFAULT_BOUNDS.max)]
            back = devoxelize(voxelize(p))
            for orig, rec, cell, lo, hi in zip(
                p, back, voxelize(p), DEFAULT_BOUNDS.min, DEFAULT_BOUNDS.max
            ):
                frac_err = abs(rec - orig) / (hi - lo)
                assert frac_err <= (cell + 50.5) / 9900 + 1e-12
                assert frac_err <= 0.015 + 1e-12


class TestRotationBinning:
    def test_identity_is_zero_bins(self):
        assert bin_rotation(IDENTITY_QUAT) == (0, 0, 0)

    def test_exact_five_degrees_about_x(self):
        assert bin_rotation(quat_from_euler(5, 0, 0)) == (1, 0, 0)

    def test_negative_angle_wraps(self):
        assert bin_rotation(quat_from_euler(0, 0, -2.5))[2] == 71

    def test_gimbal_warning_near_90_pitch(self):
        with pytest.warns(GimbalWarning):
            bin_rotation(quat_from_euler(0, 90, 0))

    def test_rejects_non_unit_quaternion(self):
        with pytest.raises(ValueError):
            bin_rotation((0.0, 0.0, 0.0, 0.9))

    @pytest.mark.parametrize("quaternion", [
        (math.nan, 0.0, 0.0, 1.0),
        (0.0, 0.0, 0.0, math.inf),
        (-math.inf, 0.0, 0.0, 0.0),
    ])
    def test_rejects_non_finite_quaternion(self, quaternion):
        with pytest.raises(ValueError, match="not within 1e-6 of 1"):
            bin_rotation(quaternion)

    @settings(max_examples=300)
    @given(unit_quaternions)
    @example(quat_from_euler(10, 20, 30))
    @example(tuple(-c for c in quat_from_euler(10, 20, 30)))
    @example(quat_from_euler(0, 90, 0))
    @example(quat_from_euler(40, -90, 25))
    @example((0.0, math.sqrt(0.5), 0.0, math.sqrt(0.5)))
    @example((0.0, -math.sqrt(0.5), 0.0, math.sqrt(0.5)))
    @example(quat_from_euler(5, 0, 0))
    @example(quat_from_euler(5, 10, 15))
    @example(quat_from_euler(-5, 0, 355))
    @example(quat_from_euler(180, 85, -180))
    @example(quat_from_euler(0, 80, 240))  # bins differ unless normalized as scipy does
    @example(quat_from_euler(20, -90 + math.degrees(5e-8), 30))  # inside scipy's 1e-7 lock band
    @pytest.mark.filterwarnings("ignore::bimanual_icl.errors.GimbalWarning")
    def test_bins_match_scipy(self, quaternion):
        negated = tuple(-c for c in quaternion)
        assert bin_rotation(quaternion) == scipy_bins(quaternion)
        assert bin_rotation(negated) == scipy_bins(negated)

    @settings(max_examples=300)
    @given(unit_quaternions)
    @example(quat_from_euler(2.5, 7.5, 42.5))  # math.hypot and C's hypot round apart here
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_angles_match_scipy_bit_for_bit(self, quaternion):
        # Equal bits keep the bins equal even for an angle on a bin edge.
        norm = math.sqrt(sum(c * c for c in quaternion))
        expected = Rotation.from_quat(quaternion).as_euler("XYZ")
        assert _euler_xyz(*(c / norm for c in quaternion)) == tuple(expected)

    def test_concurrent_calls_leave_warning_filters_alone(self):
        # Muting a warning with warnings.catch_warnings() inside bin_rotation
        # races between threads and can leave the mute behind for good.
        quaternions = [quat_from_euler(10 * i, 20, 30) for i in range(8)]

        def work(q):
            for _ in range(300):
                bin_rotation(q)

        before = list(warnings.filters)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(q,)) for q in quaternions]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert warnings.filters == before
        with pytest.warns(GimbalWarning):
            bin_rotation(quat_from_euler(0, 90, 0))


class TestRotationUnbinning:
    def test_bin_centers(self):
        angles = Rotation.from_quat(unbin_rotation((0, 0, 0))).as_euler("XYZ", degrees=True)
        assert angles == pytest.approx((2.5, 2.5, 2.5))
        angles = Rotation.from_quat(unbin_rotation((71, 71, 71))).as_euler("XYZ", degrees=True)
        assert tuple(a % 360 for a in angles) == pytest.approx((357.5, 357.5, 357.5))

    def test_rejects_out_of_range(self):
        with pytest.raises(RangeError):
            unbin_rotation((72, 0, 0))

    @pytest.mark.parametrize("bins", [(3.7, True, 0), (3.7, 0, 0), (0, True, 0), (0, 0, 2.0)])
    def test_rejects_non_integer_bins(self, bins):
        with pytest.raises(RangeError):
            unbin_rotation(bins)

    @given(rotation_bins)
    @example((0, 0, 0))
    @example((71, 71, 71))
    @example((0, 17, 0))
    @example((0, 18, 0))
    @example((35, 36, 37))
    def test_matches_scipy(self, bins):
        centers = [(r + 0.5) * 5.0 for r in bins]
        expected = Rotation.from_euler("XYZ", centers, degrees=True).as_quat()
        assert np.allclose(unbin_rotation(bins), expected, rtol=0.0, atol=1e-15)

    def test_round_trip_on_canonical_pitch_band(self):
        # Euler xyz angles are recoverable only when the pitch lies in the
        # canonical [-90, 90] band: pitch bins 0-17 and 54-71.
        rng = random.Random(11)
        pitch_bins = list(range(0, 18)) + list(range(54, 72))
        for _ in range(1000):
            bins = (rng.randrange(72), rng.choice(pitch_bins), rng.randrange(72))
            assert bin_rotation(unbin_rotation(bins)) == bins

    def test_exhaustive_pitch_band_oracle(self):
        # Brute-force every bin triple (vectorized) and verify the identity
        # holds exactly on the canonical band and only there.
        bins = np.arange(72)
        centers = (bins + 0.5) * 5.0
        grid = np.stack(np.meshgrid(centers, centers, centers, indexing="ij"), axis=-1)
        grid = grid.reshape(-1, 3)
        back = Rotation.from_euler("XYZ", grid, degrees=True).as_euler("XYZ", degrees=True)
        back = np.mod(back, 360.0)
        back[back >= 360.0] = 0.0
        rebinned = np.minimum(np.floor(back / 5.0 + 1e-9).astype(int), 71)
        original = np.floor(grid / 5.0).astype(int)
        ok = (rebinned == original).all(axis=1).reshape(72, 72, 72)
        pitch_ok = ok.all(axis=(0, 2))
        expected = np.zeros(72, dtype=bool)
        expected[0:18] = True
        expected[54:72] = True
        assert (pitch_ok == expected).all()


class TestDiscretizePose:
    def test_bounds_min_identity_open(self):
        pose = ContinuousPose(position=(-0.3, -0.5, 0.6), orientation=IDENTITY_QUAT, gripper=1.0)
        action = discretize_pose(pose)
        assert action == DiscreteAction(voxel=(0, 0, 0), rot=(0, 0, 0), gripper=1)

    def test_gripper_threshold(self):
        pose = ContinuousPose(position=(0.0, 0.0, 1.0), orientation=IDENTITY_QUAT, gripper=0.49)
        assert discretize_pose(pose).gripper == 0
        pose = ContinuousPose(position=(0.0, 0.0, 1.0), orientation=IDENTITY_QUAT, gripper=0.5)
        assert discretize_pose(pose).gripper == 1

    def test_midpoint_with_yaw(self):
        pose = ContinuousPose(
            position=(0.2, 0.0, 1.1), orientation=quat_from_euler(0, 0, 5), gripper=0.0
        )
        action = discretize_pose(pose)
        assert action.voxel == (49, 49, 49)
        assert action.rot == (0, 0, 1)
        assert action.gripper == 0

    def test_deterministic_across_threads(self):
        pose = ContinuousPose(
            position=(0.11, -0.22, 1.33), orientation=quat_from_euler(10, 20, 30), gripper=0.7
        )
        results = []
        lock = threading.Lock()

        def work():
            value = discretize_pose(pose)
            with lock:
                results.append(value)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1
        assert results[0] == discretize_pose(pose)


class TestActionTypes:
    def test_discrete_action_validates_components(self):
        with pytest.raises(RangeError):
            DiscreteAction(voxel=(100, 0, 0), rot=(0, 0, 0), gripper=1)
        with pytest.raises(RangeError):
            DiscreteAction(voxel=(0, 0, 0), rot=(72, 0, 0), gripper=1)
        with pytest.raises(RangeError):
            DiscreteAction(voxel=(0, 0, 0), rot=(0, 0, 0), gripper=2)

    @pytest.mark.parametrize("fields", [
        {"voxel": (1.5, 0, 0)},
        {"voxel": (True, 0, 0)},
        {"rot": (0, 2.0, 0)},
        {"gripper": True},
        {"gripper": 1.0},
        {"gripper": np.float64(0.0)},
    ])
    def test_discrete_action_rejects_non_integers(self, fields):
        with pytest.raises(RangeError):
            DiscreteAction(**{"voxel": (0, 0, 0), "rot": (0, 0, 0), "gripper": 1, **fields})

    def test_numpy_integers_accepted(self):
        action = DiscreteAction(voxel=(np.int64(1), np.int32(2), 3),
                                rot=(np.uint8(4), 5, 6), gripper=np.int64(1))
        assert action == DiscreteAction(voxel=(1, 2, 3), rot=(4, 5, 6), gripper=1)

    def test_from_tuple_does_not_truncate(self):
        with pytest.raises(RangeError):
            DiscreteAction.from_tuple((1.9, 0, 0, 0, 0, 0, 1))
        demo_row = json.loads("[52.7, 49, 40, 36, 36, 0, 1, 20, 60, 40, 36, 36, 0, 1]")
        with pytest.raises(RangeError):
            BimanualAction.from_tuple(demo_row)

    def test_tuple_round_trip(self):
        action = DiscreteAction(voxel=(1, 2, 3), rot=(4, 5, 6), gripper=1)
        assert DiscreteAction.from_tuple(action.as_tuple()) == action
        pair = BimanualAction(right=action, left=DiscreteAction.from_tuple((9, 8, 7, 6, 5, 4, 0)))
        assert BimanualAction.from_tuple(pair.as_tuple()) == pair
        assert pair.as_tuple()[:7] == action.as_tuple()

    def test_bounds_invariant(self):
        with pytest.raises(ValueError):
            WorkspaceBounds(min=(0.0, 0.0, 1.0), max=(1.0, 1.0, 1.0))

    def test_pose_invariants(self):
        with pytest.raises(ValueError):
            ContinuousPose(position=(0, 0, 0), orientation=(0, 0, 0, 1.1), gripper=0.5)
        with pytest.raises(ValueError):
            ContinuousPose(position=(0, 0, 0), orientation=IDENTITY_QUAT, gripper=1.5)

    @pytest.mark.parametrize("orientation", [
        (math.nan, 0.0, 0.0, 1.0),
        (0.0, math.inf, 0.0, 0.0),
        (0.0, 0.0, -math.inf, 1.0),
    ])
    def test_pose_rejects_non_finite_orientation(self, orientation):
        with pytest.raises(ValueError, match="not within 1e-6 of 1"):
            ContinuousPose(position=(0, 0, 0), orientation=orientation, gripper=0.5)


@pytest.mark.parametrize("module", ["bimanual_icl", "bimanual_icl.cli"])
def test_import_does_not_load_scipy(module):
    src = str(Path(bimanual_icl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
