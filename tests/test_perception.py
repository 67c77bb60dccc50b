import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bimanual_icl.actions import voxelize
from bimanual_icl.errors import EmptyObject, OutOfWorkspace
from bimanual_icl.perception import (
    _DENSE_CELLS_PER_POINT,
    MaskedCloud,
    _voxel_downsample,
    build_observation,
    extract_centroid,
    nearest_demo_index,
    observation_l1,
    observe_groups,
)
from doubles import benchmark_clouds, centroid_error


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
        fast, owner = _voxel_downsample(points, voxel_size)
        assert not owner.any()
        slow = _voxel_downsample_unique(points, voxel_size)
        assert fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()


class TestVoxelDownsamplePerOwner:
    @settings(max_examples=200)
    @given(case=_clouds(), n_owners=st.integers(min_value=1, max_value=4),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_each_owner_as_if_alone(self, case, n_owners, seed):
        points, voxel_size = case
        owner = np.random.default_rng(seed).integers(0, n_owners, size=len(points))
        representatives, rep_owner = _voxel_downsample(points, voxel_size, owner)
        assert (np.diff(rep_owner) >= 0).all()
        for group in range(n_owners):
            alone, _ = _voxel_downsample(points[owner == group], voxel_size)
            assert representatives[rep_owner == group].tobytes() == alone.tobytes()


def _voxel_downsample_unique_owned(points, voxel_size, owner):
    """``_voxel_downsample_unique`` with the owner as the leading key column."""
    keys = np.column_stack((owner, np.floor(points / voxel_size).astype(np.int64)))
    cells, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    sums = np.zeros((len(cells), 3))
    np.add.at(sums, inverse, points)
    return sums / np.bincount(inverse, minlength=len(cells))[:, None], cells[:, 0]


@st.composite
def _binning_cases(draw):
    """Points of up to 20 owners (numbered from 0 to 3 up) in a key box of a drawn
    shape, with as many points as put the box's cell count on the drawn side of the
    dense-binning bound. The box's corners are occupied, so its shape is the one
    drawn; which path bins the points is not observable, only that both agree."""
    dense = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n_owners = draw(st.integers(min_value=1, max_value=20))
    spans = draw(st.tuples(*[st.integers(min_value=1, max_value=12)] * 3))
    cells = n_owners * spans[0] * spans[1] * spans[2]
    bound = cells // _DENSE_CELLS_PER_POINT  # fewer points than this bins sparsely
    if dense:
        n = draw(st.integers(min_value=max(2, -(-cells // _DENSE_CELLS_PER_POINT)),
                             max_value=max(2, -(-cells // _DENSE_CELLS_PER_POINT)) + 300))
    else:
        assume(bound >= 3)
        n = draw(st.integers(min_value=2, max_value=min(400, bound - 1)))
    corner = rng.integers(-60, 60, size=3)
    key_cells = corner + rng.integers(0, spans, size=(n, 3))
    first_owner = draw(st.integers(min_value=0, max_value=3))
    owner = first_owner + rng.integers(0, n_owners, size=n)
    key_cells[0], key_cells[1] = corner, corner + np.array(spans) - 1
    owner[0], owner[1] = first_owner, first_owner + n_owners - 1
    voxel_size = draw(st.sampled_from((0.02, 0.005)))
    points = (key_cells + rng.uniform(0.1, 0.9, size=(n, 3))) * voxel_size
    assert (n_owners * np.prod(spans) <= _DENSE_CELLS_PER_POINT * n) == dense
    return points, voxel_size, owner


class TestVoxelDownsampleDenseAndSparse:
    @settings(max_examples=300)
    @given(case=_binning_cases())
    def test_matches_unique_and_each_owner_alone(self, case):
        points, voxel_size, owner = case
        representatives, rep_owner = _voxel_downsample(points, voxel_size, owner)
        expected, expected_owner = _voxel_downsample_unique_owned(points, voxel_size, owner)
        assert representatives.tobytes() == expected.tobytes()
        assert rep_owner.tolist() == expected_owner.tolist()
        for group in range(owner.max() + 1):
            alone, _ = _voxel_downsample(points[owner == group], voxel_size)
            assert representatives[rep_owner == group].tobytes() == alone.tobytes()

    def test_a_box_wider_than_int64_is_binned(self):
        """Finite points at +-1e17 span 10**19 cells of 0.02 on each axis, past
        int64: they are binned as the reference bins them, and a scene of them is
        outside the workspace."""
        points = np.array([[-1e17] * 3, [1e17] * 3, [1e17] * 3, [0.2, 0.0, 1.0]])
        owner = np.array([0, 0, 1, 1])
        representatives, rep_owner = _voxel_downsample(points, 0.02, owner)
        expected, expected_owner = _voxel_downsample_unique_owned(points, 0.02, owner)
        assert representatives.tobytes() == expected.tobytes()
        assert rep_owner.tolist() == expected_owner.tolist()
        assert extract_centroid([cloud("a", "obj", points[:2])], strategy="prune") == (0, 0, 0)
        with pytest.raises(OutOfWorkspace, match="object 'e0'"):
            observe_groups(points, owner, [("e0", "obj"), ("e1", "item")])


def build_observation_per_object(object_clouds):
    """Reference for the fused ``build_observation``: one object at a time."""
    entries = {}
    for name, clouds in object_clouds.items():
        try:
            entries[name] = voxelize(extract_centroid(clouds))
        except (EmptyObject, OutOfWorkspace) as exc:
            raise type(exc)(f"object {name!r}: {exc}") from exc
    return entries


@st.composite
def _scenes(draw):
    """Scenes of 1-5 objects around one spot: a spread of 0 puts every point of
    every object in one cell; a camera may be empty or hold a single point."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    center = rng.uniform((-0.25, -0.45, 0.65), (0.65, 0.45, 1.55))
    spread = draw(st.sampled_from((0.0, 0.005, 0.03, 0.3)))
    scene = {}
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        name = f"obj{i}"
        scene[name] = [
            cloud(f"cam{c}", name, center + rng.normal(0.0, spread, size=(n, 3)))
            for c, n in enumerate(draw(st.lists(st.sampled_from((0, 1, 7, 60, 60)),
                                                min_size=1, max_size=3)))
        ]
    return scene


def _outcome(fn, scene):
    try:
        return fn(scene)
    except (EmptyObject, OutOfWorkspace) as exc:
        return type(exc), str(exc)


class TestBuildObservationFused:
    @settings(max_examples=300)
    @given(scene=_scenes())
    def test_equals_per_object_extraction(self, scene):
        assert _outcome(build_observation, scene) == _outcome(build_observation_per_object, scene)

    def test_first_failing_object_is_named(self):
        ok = [cloud("a", "ok", [(0.2, 0.0, 1.1)])]
        ghost = [cloud("a", "ghost", []), cloud("b", "ghost", [])]
        runaway = [cloud("a", "runaway", [(5.0, 0.0, 1.0)])]
        with pytest.raises(EmptyObject, match="^object 'ghost': no points for object 'ghost'"):
            build_observation({"ok": ok, "ghost": ghost, "runaway": runaway})
        with pytest.raises(OutOfWorkspace, match="^object 'runaway': position"):
            build_observation({"ok": ok, "runaway": runaway, "ghost": ghost})
        with pytest.raises(EmptyObject, match="^object 'nothing': .*'<unknown>'"):
            build_observation({"ok": ok, "nothing": []})


class TestBuildObservation:
    def test_empty_mapping(self):
        obs = build_observation({})
        assert obs == {}

    def test_midpoint_object(self):
        clouds = {"box": [cloud("a", "box", [(0.2, 0.0, 1.1)])]}
        obs = build_observation(clouds)
        assert obs == {"box": (49, 49, 49)}

    def test_order_follows_input(self):
        mk = lambda name, x: [cloud("a", name, [(x, 0.0, 1.1)])]
        names = ["zeta", "alpha", "mid"]
        clouds = {n: mk(n, 0.1 + 0.05 * i) for i, n in enumerate(names)}
        obs = build_observation(clouds)
        assert list(obs) == names

    def test_permutation_equivariance(self):
        mk = lambda name, x: [cloud("a", name, [(x, 0.0, 1.1)])]
        clouds = {n: mk(n, 0.1 + 0.03 * i) for i, n in enumerate("abcd")}
        obs = build_observation(clouds)
        reordered = {k: clouds[k] for k in reversed(list(clouds))}
        obs_r = build_observation(reordered)
        assert list(obs_r) == list(reversed(list(obs)))
        assert obs_r == {k: obs[k] for k in obs_r}

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
            obs = build_observation(clouds)
            voxel_err = np.abs(np.array(obs["obj"]) - np.array([
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
        a = {"x": (1, 2, 3), "y": (5, 5, 5)}
        b = {"x": (2, 2, 3), "y": (5, 8, 5)}
        assert observation_l1(a, b) == 1 + 3
        assert observation_l1(a, b) == 4


def _reference_l1(a: dict, b: dict) -> int:
    """The definition observation_l1 had before it indexed the components."""
    total = 0
    for name, va in a.items():
        vb = b.get(name)
        if vb is None:
            continue
        total += sum(abs(x - y) for x, y in zip(va, vb))
    return total


class _Demo:
    def __init__(self, observation):
        self.observation = observation


# Three names and coordinates 0-3: objects go missing on either side and
# distances tie often; an empty observation shares no object with any other.
_voxels = st.tuples(*[st.integers(0, 3)] * 3)
_observations = st.dictionaries(st.sampled_from(["ball", "cup", "box"]), _voxels)


class TestNearestDemoAgreesWithTheZippedSum:
    @given(_observations, st.lists(_observations, min_size=1, max_size=8))
    @example({}, [{"ball": (1, 1, 1)}, {}])
    @example({"ball": (1, 1, 1)}, [{"ball": (2, 1, 1)}, {"ball": (1, 2, 1)}, {"cup": (0, 0, 0)}])
    @settings(max_examples=300)
    def test_same_distances_and_index(self, obs, demo_observations):
        for other in demo_observations:
            assert observation_l1(obs, other) == _reference_l1(obs, other)
        distances = [_reference_l1(obs, other) for other in demo_observations]
        expected = distances.index(min(distances))  # ties go to the lowest index
        demos = [_Demo(other) for other in demo_observations]
        assert nearest_demo_index(demos, obs) == expected
