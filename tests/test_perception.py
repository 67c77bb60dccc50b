import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimanual_icl.bench import benchmark_clouds
from bimanual_icl.errors import EmptyObject, OutOfWorkspace
from bimanual_icl.perception import (
    MaskedCloud,
    Observation,
    _voxel_downsample,
    build_observation,
    centroid_error,
    extract_centroid,
    observation_l1,
)


def cloud(camera, name, points):
    return MaskedCloud(camera_id=camera, object_name=name, points=np.array(points, dtype=float))


class TestExtractCentroid:
    def test_identical_single_points_agree_across_strategies(self):
        q = (0.12, -0.07, 0.93)
        clouds = [cloud("a", "obj", [q]), cloud("b", "obj", [q])]
        for strategy in ("standard", "concat", "prune"):
            assert extract_centroid(clouds, strategy=strategy) == pytest.approx(q)

    def test_weighted_vs_unweighted_mean(self):
        clouds = [
            cloud("a", "obj", [(0.0, 0.0, 0.0)] * 100),
            cloud("b", "obj", [(1.0, 1.0, 1.0)]),
        ]
        assert extract_centroid(clouds, strategy="standard") == pytest.approx((0.5, 0.5, 0.5))
        assert extract_centroid(clouds, strategy="concat") == pytest.approx(
            (1 / 101, 1 / 101, 1 / 101)
        )

    def test_prune_collapses_duplicates(self):
        clouds = [
            cloud("a", "obj", [(0.0, 0.0, 0.0)] * 100),
            cloud("b", "obj", [(1.0, 1.0, 1.0)]),
        ]
        assert extract_centroid(clouds, strategy="prune", voxel_size=0.02) == pytest.approx(
            (0.5, 0.5, 0.5)
        )

    def test_prune_invariant_to_duplicates_in_occupied_cells(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0.0, 0.3, size=(60, 3))
        base = [cloud("a", "obj", pts)]
        duplicated = [cloud("a", "obj", np.concatenate([pts, pts[10:20] + 1e-5]))]
        a = extract_centroid(base, strategy="prune")
        b = extract_centroid(duplicated, strategy="prune")
        assert a == pytest.approx(b, abs=1e-4)

    def test_all_strategies_agree_on_identical_camera_sets(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.2, 0.2, size=(50, 3))
        clouds = [cloud("a", "obj", pts), cloud("b", "obj", pts)]
        results = [extract_centroid(clouds, strategy=s) for s in ("standard", "concat", "prune")]
        for r in results[1:]:
            assert r == pytest.approx(results[0])

    def test_empty_cameras_are_skipped(self):
        clouds = [cloud("a", "obj", []), cloud("b", "obj", [(0.5, 0.5, 0.5)])]
        assert extract_centroid(clouds, strategy="standard") == pytest.approx((0.5, 0.5, 0.5))

    def test_all_empty_raises(self):
        with pytest.raises(EmptyObject):
            extract_centroid([cloud("a", "obj", []), cloud("b", "obj", [])])

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            extract_centroid([cloud("a", "obj", [(0, 0, 0)])], strategy="median")


def _voxel_downsample_unique(points, voxel_size):
    """Reference for ``_voxel_downsample``: cells grouped by ``np.unique(axis=0)``."""
    cells = np.floor(points / voxel_size).astype(np.int64)
    _, inverse = np.unique(cells, axis=0, return_inverse=True)
    n_cells = inverse.max() + 1
    sums = np.zeros((n_cells, 3))
    np.add.at(sums, inverse, points)
    counts = np.bincount(inverse, minlength=n_cells).astype(float)
    return sums / counts[:, None]


@st.composite
def _clouds(draw):
    """(N, 3) clouds: spread over spans up to 1e9 m, one point, one cell, heavy duplication."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    voxel_size = draw(st.sampled_from((0.005, 0.02, 0.1)))
    kind = draw(st.sampled_from(("spread", "one_point", "one_cell", "duplicated")))
    n = draw(st.integers(min_value=1, max_value=300))
    span = draw(st.sampled_from((0.01, 0.3, 10.0, 1e4, 1e9)))
    offset = draw(st.floats(min_value=-1e3, max_value=1e3))
    if kind == "one_point":
        points = rng.uniform(-span, span, size=(1, 3))
    elif kind == "one_cell":
        corner = np.floor(rng.uniform(-span, span, size=3) / voxel_size) * voxel_size
        points = corner + rng.uniform(0.1, 0.9, size=(n, 3)) * voxel_size
        offset = 0.0
    elif kind == "duplicated":
        distinct = rng.uniform(-span, span, size=(draw(st.integers(1, 5)), 3))
        points = distinct[rng.integers(0, len(distinct), size=n)]
    else:
        points = rng.uniform(-span, span, size=(n, 3))
    return points + offset, voxel_size


class TestVoxelDownsampleMatchesUnique:
    @settings(max_examples=300)
    @given(case=_clouds())
    def test_byte_identical(self, case):
        points, voxel_size = case
        fast = _voxel_downsample(points, voxel_size)
        slow = _voxel_downsample_unique(points, voxel_size)
        assert fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()


class TestBuildObservation:
    def test_empty_mapping(self):
        obs = build_observation({})
        assert obs.entries == {}

    def test_midpoint_object(self):
        clouds = {"box": [cloud("a", "box", [(0.2, 0.0, 1.1)])]}
        obs = build_observation(clouds)
        assert obs.entries == {"box": (49, 49, 49)}

    def test_order_follows_input(self):
        mk = lambda name, x: [cloud("a", name, [(x, 0.0, 1.1)])]
        names = ["zeta", "alpha", "mid"]
        clouds = {n: mk(n, 0.1 + 0.05 * i) for i, n in enumerate(names)}
        obs = build_observation(clouds)
        assert list(obs.entries) == names

    def test_permutation_equivariance(self):
        mk = lambda name, x: [cloud("a", name, [(x, 0.0, 1.1)])]
        clouds = {n: mk(n, 0.1 + 0.03 * i) for i, n in enumerate("abcd")}
        obs = build_observation(clouds)
        reordered = {k: clouds[k] for k in reversed(list(clouds))}
        obs_r = build_observation(reordered)
        assert list(obs_r.entries) == list(reversed(list(obs.entries)))
        assert obs_r.entries == {k: obs.entries[k] for k in obs_r.entries}

    def test_errors_carry_object_name(self):
        with pytest.raises(EmptyObject, match="ghost"):
            build_observation({"ghost": [cloud("a", "ghost", [])]})
        with pytest.raises(OutOfWorkspace, match="runaway"):
            build_observation({"runaway": [cloud("a", "runaway", [(5.0, 0.0, 1.0)])]})

    def test_noisy_multicamera_centroid_within_two_voxels(self):
        # Monte-Carlo: box-surface sampling with sigma=0.005 per camera.
        rng = np.random.default_rng(123)
        for _ in range(100):
            center = rng.uniform((0.1, -0.2, 0.9), (0.4, 0.2, 1.3))
            clouds = {"obj": benchmark_clouds(rng, center, sigma=0.005)}
            obs = build_observation(clouds, strategy="prune")
            voxel_err = np.abs(np.array(obs.entries["obj"]) - np.array([
                np.floor((c - lo) / (hi - lo) * 99)
                for c, lo, hi in zip(center, (-0.3, -0.5, 0.6), (0.7, 0.5, 1.6))
            ]))
            assert voxel_err.max() <= 2


class TestCentroidError:
    def test_zero_for_identical(self):
        assert centroid_error((0.1, 0.2, 0.3), (0.1, 0.2, 0.3)) == 0.0

    def test_three_four_five(self):
        assert centroid_error((0, 0, 0), (0.03, 0.04, 0.0)) == pytest.approx(5.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            centroid_error((np.nan, 0, 0), (0, 0, 0))

    def test_strategy_error_ordering_on_benchmark(self):
        rng = np.random.default_rng(7)
        sums = {"standard": 0.0, "concat": 0.0, "prune": 0.0}
        for _ in range(100):
            center = rng.uniform(0.2, 0.4, size=3)
            clouds = benchmark_clouds(rng, center)
            for strategy in sums:
                sums[strategy] += centroid_error(
                    extract_centroid(clouds, strategy=strategy), center
                )
        assert sums["prune"] <= sums["concat"] <= sums["standard"]


class TestObservationL1:
    def test_partner_excluded_and_sum(self):
        a = Observation(entries={"x": (1, 2, 3), "y": (5, 5, 5)})
        b = Observation(entries={"x": (2, 2, 3), "y": (5, 8, 5)})
        assert observation_l1(a, b) == 1 + 3
        assert observation_l1(a.with_partner("leader_arm", []), b) == 4

    def test_partner_key_validation(self):
        obs = Observation(entries={})
        with pytest.raises(ValueError):
            obs.with_partner("other_arm", [])
