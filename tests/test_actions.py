import itertools
import json
import math
import os
import random
import re
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
    ARM_OFFSET,
    GRIPPER,
    ContinuousPose,
    WORKSPACE_MAX,
    WORKSPACE_MIN,
    _euler_xyz,
    bin_rotation,
    check_action,
    devoxelize,
    discretize_pose,
    nearest_voxel,
    unbin_rotation,
    voxelize,
)
from bimanual_icl.demos import demonstration_from_dict
from bimanual_icl.errors import (GimbalWarning, OutOfWorkspace, ParseFailure, RangeError,
                                 RangeViolation)
from bimanual_icl.prompts import parse_completion

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
            p = [rng.uniform(lo, hi) for lo, hi in zip(WORKSPACE_MIN, WORKSPACE_MAX)]
            v = voxelize(p)
            assert all(0 <= c <= 99 for c in v)
            bumped = [min(hi, c + 1e-4) for c, hi in zip(p, WORKSPACE_MAX)]
            assert all(a <= b for a, b in zip(v, voxelize(bumped)))


def devoxelize_by_formula(voxel):
    """``devoxelize`` without its table: each component checked, then its cell center."""
    for v in voxel:
        if not (isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < 100):
            raise RangeError(f"voxel component {v} outside [0, 99]")
    return tuple(lo + (v + 0.5) / 100 * (hi - lo)
                 for v, lo, hi in zip(voxel, WORKSPACE_MIN, WORKSPACE_MAX))


def nearest_voxel_by_formula(position):
    """The experts' encoder as it read numpy rows: round(frac * 100 - 0.5), clamped."""
    out = []
    for p, lo, hi in zip(np.asarray(position, dtype=float), WORKSPACE_MIN, WORKSPACE_MAX):
        frac = (p - lo) / (hi - lo)
        out.append(min(99, max(0, int(round(frac * 100.0 - 0.5)))))
    return tuple(out)


def _result(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # the type and message must match too
        return type(exc), str(exc)
    return value, [type(c) for c in value]


class TestGridOwner:
    """``devoxelize``'s centre table and ``nearest_voxel``, its inverse on the grid."""

    @pytest.mark.parametrize("axis", range(3))
    def test_table_holds_the_formulas_centre_for_every_index(self, axis):
        for v in range(100):
            voxel = tuple(v if a == axis else 99 - v for a in range(3))
            assert _result(devoxelize, voxel) == _result(devoxelize_by_formula, voxel)
            assert [type(c) for c in devoxelize(voxel)] == [float] * 3

    def test_other_components_give_the_formulas_values_or_range_error(self):
        components = (0, 57, 99, -1, 100, True, False, 1.5, 2.0, float("nan"), "5",
                      np.int64(40), np.uint8(7), np.int32(99), np.int64(100), np.int64(-1),
                      np.bool_(True), np.float64(3.0))
        raised = 0
        for voxel in itertools.product(components, repeat=3):
            expected = _result(devoxelize_by_formula, voxel)
            assert _result(devoxelize, voxel) == expected, voxel
            assert _result(devoxelize, list(voxel)) == expected, voxel
            raised += expected[0] is RangeError
        assert 0 < raised < len(components) ** 3
        for voxel in [(1, 2), (1, 2, 3, 4), (), np.array([1, 2, 3]), np.array([5, 99, 100])]:
            assert _result(devoxelize, voxel) == _result(devoxelize_by_formula, voxel)

    def test_nearest_voxel_inverts_devoxelize(self):
        for v in range(100):
            for voxel in [(v, v, v), (v, 99 - v, (37 * v) % 100)]:
                assert nearest_voxel(devoxelize(voxel)) == voxel
                assert nearest_voxel(np.array(devoxelize(voxel))) == voxel

    @settings(max_examples=300)
    @given(st.tuples(*[st.floats(-3.0, 4.0)] * 3))
    @example((-0.301, -1.0, -9.4))  # below the box on every axis
    @example((0.701, 1.0, 11.6))  # above it
    @example((-0.301, 0.0, 1.601))  # below, inside and above
    def test_nearest_voxel_is_the_old_encoder_and_clamps_outside_the_box(self, position):
        expected = nearest_voxel_by_formula(position)
        assert nearest_voxel(position) == nearest_voxel(np.array(position)) == expected
        assert all(type(c) is int for c in nearest_voxel(np.array(position)))


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
            p = [rng.uniform(lo, hi) for lo, hi in zip(WORKSPACE_MIN, WORKSPACE_MAX)]
            back = devoxelize(voxelize(p))
            for orig, rec, cell, lo, hi in zip(
                p, back, voxelize(p), WORKSPACE_MIN, WORKSPACE_MAX
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
        assert discretize_pose(pose) == (0, 0, 0, 0, 0, 0, 1)

    def test_gripper_threshold(self):
        pose = ContinuousPose(position=(0.0, 0.0, 1.0), orientation=IDENTITY_QUAT, gripper=0.49)
        assert discretize_pose(pose)[GRIPPER] == 0
        pose = ContinuousPose(position=(0.0, 0.0, 1.0), orientation=IDENTITY_QUAT, gripper=0.5)
        assert discretize_pose(pose)[GRIPPER] == 1

    def test_midpoint_with_yaw(self):
        pose = ContinuousPose(
            position=(0.2, 0.0, 1.1), orientation=quat_from_euler(0, 0, 5), gripper=0.0
        )
        assert discretize_pose(pose) == (49, 49, 49, 0, 0, 1, 0)

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


VALID_ARM = (1, 2, 3, 4, 5, 6, 1)

# One arm's values that every entry point rejects, with the RangeError message.
OUT_OF_RANGE = [
    ((100, 0, 0, 0, 0, 0, 1), "voxel component 100 outside [0, 99]"),
    ((0, -1, 0, 0, 0, 0, 1), "voxel component -1 outside [0, 99]"),
    ((0, 0, 0, 72, 0, 0, 1), "rotation bin 72 outside [0, 71]"),
    ((0, 0, 0, 0, 0, 0, 2), "gripper bit 2 not in {0, 1}"),
]
NOT_INTEGERS = [
    ((1.5, 0, 0, 0, 0, 0, 1), "voxel component 1.5 outside [0, 99]"),
    ((1.9, 0, 0, 0, 0, 0, 1), "voxel component 1.9 outside [0, 99]"),  # not truncated
    ((True, 0, 0, 0, 0, 0, 1), "voxel component True outside [0, 99]"),
    ((0, 0, 0, 0, 2.0, 0, 1), "rotation bin 2.0 outside [0, 71]"),
    ((0, 0, 0, 0, 0, 0, True), "gripper bit True not in {0, 1}"),
    ((0, 0, 0, 0, 0, 0, 1.0), "gripper bit 1.0 not in {0, 1}"),
    ((0, 0, 0, 0, 0, 0, np.float64(0.0)), "gripper bit 0.0 not in {0, 1}"),
]


def _both_arms(bad):
    """The bad arm as the right arm, then as the left, of a 14-int action."""
    return [bad + VALID_ARM, VALID_ARM + bad]


class TestCheckAction:
    @pytest.mark.parametrize("bad, message", OUT_OF_RANGE + NOT_INTEGERS)
    def test_rejects_with_the_range_message(self, bad, message):
        with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
            check_action(bad, arity=7)
        for values in _both_arms(bad):
            with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
                check_action(values)

    @pytest.mark.parametrize("values, arity", [(VALID_ARM, 14), (VALID_ARM * 2, 7),
                                               (VALID_ARM[:6], 7), (VALID_ARM * 2 + (0,), 14)])
    def test_rejects_wrong_arity(self, values, arity):
        with pytest.raises(RangeError, match=f"^expected {arity} components, got {len(values)}$"):
            check_action(values, arity)

    def test_numpy_integers_accepted(self):
        values = (np.int64(1), np.int32(2), 3, np.uint8(4), 5, 6, np.int64(1))
        assert check_action(values, arity=7) == VALID_ARM
        assert check_action(list(VALID_ARM) + list(values)) == VALID_ARM * 2

    def test_returns_the_values_as_a_tuple(self):
        right, left = VALID_ARM, (9, 8, 7, 6, 5, 4, 0)
        action = check_action(list(right + left))
        assert action == right + left
        for arm, base in ARM_OFFSET.items():
            assert action[base:base + 7] == {"right": right, "left": left}[arm]
        assert action[ARM_OFFSET["left"] + GRIPPER] == 0

    @pytest.mark.parametrize("bad, message", OUT_OF_RANGE)
    def test_parse_completion_gives_the_same_message(self, bad, message):
        with pytest.raises(RangeViolation, match=f"^{re.escape(message)}$"):
            parse_completion(json.dumps([list(bad)]), arity=7)
        for values in _both_arms(bad):
            with pytest.raises(RangeViolation, match=f"^{re.escape(message)}$"):
                parse_completion(json.dumps([list(values)]), arity=14)

    @pytest.mark.parametrize("bad, message", NOT_INTEGERS)
    def test_parse_completion_reads_no_non_integer_row(self, bad, message):
        with pytest.raises(ParseFailure):
            parse_completion(json.dumps([list(bad)]), arity=7)

    def test_parse_completion_accepts_in_range_rows(self):
        text = json.dumps([list(VALID_ARM), [0, 0, 0, 0, 0, 0, 0], [99, 99, 99, 71, 71, 71, 1]])
        assert parse_completion(text, arity=7)[-1] == (99, 99, 99, 71, 71, 71, 1)

    @pytest.mark.parametrize("bad, message", OUT_OF_RANGE + NOT_INTEGERS)
    def test_demo_loader_gives_the_same_message(self, bad, message):
        for values in _both_arms(bad):
            payload = json.loads(json.dumps({"observation": {}, "actions": [list(values)]}))
            with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
                demonstration_from_dict(payload)

    def test_demo_loader_rejects_wrong_arity(self):
        with pytest.raises(RangeError, match="^expected 14 components, got 7$"):
            demonstration_from_dict({"observation": {}, "actions": [list(VALID_ARM)]})


def _reference_is_integer(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def reference_check_action(values, arity=14):
    """The per-arm check that the one-pass check_action replaced: each arm's
    voxels, then its rotation bins, then its gripper bit."""
    values = tuple(values)
    if len(values) != arity:
        raise RangeError(f"expected {arity} components, got {len(values)}")
    for base in range(0, arity, 7):
        for what, limit, part in (("voxel component", 100, values[base:base + 3]),
                                  ("rotation bin", 72, values[base + 3:base + 6])):
            for v in part:
                if not _reference_is_integer(v) or not 0 <= v < limit:
                    raise RangeError(f"{what} {v} outside [0, {limit - 1}]")
        bit = values[base + 6]
        if not _reference_is_integer(bit) or bit not in (0, 1):
            raise RangeError(f"gripper bit {bit} not in {{0, 1}}")
    return values


def _check_outcome(check, values, arity):
    """check's returned values with their types, or its error's class and message."""
    try:
        result = check(values, arity)
    except Exception as exc:  # noqa: BLE001 - the class and message are compared
        return type(exc), str(exc)
    return [(type(v), v) for v in result]


# mostly in-range components, so a bad one can sit anywhere in the action
_check_components = st.one_of(
    st.integers(0, 1),
    st.integers(-3, 120),
    st.integers(-3, 120).map(np.int64),
    st.integers(0, 120).map(np.uint8),
    st.booleans(),
    st.floats(-3, 120, allow_nan=False),
)


class TestCheckActionAgreesWithThePerArmCheck:
    @settings(max_examples=400)
    @given(values=st.lists(_check_components, max_size=15), arity=st.sampled_from([7, 14]),
           as_list=st.booleans())
    def test_same_values_or_same_error(self, values, arity, as_list):
        values = values if as_list else tuple(values)
        assert (_check_outcome(check_action, values, arity)
                == _check_outcome(reference_check_action, values, arity))

    @settings(max_examples=400)
    @given(arity=st.sampled_from([7, 14]), data=st.data())
    def test_one_bad_component_anywhere(self, arity, data):
        values = [data.draw(st.integers(0, 1)) for _ in range(arity)]
        position = data.draw(st.integers(0, arity - 1))
        values[position] = data.draw(_check_components)
        assert (_check_outcome(check_action, values, arity)
                == _check_outcome(reference_check_action, values, arity))


class TestPose:
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
