import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimanual_icl.actions import voxelize
from bimanual_icl.bench import (
    DEFAULT_TASKS,
    SCENE_CHUNK,
    EpisodeResult,
    ObjectSpec,
    _box_tables,
    execute,
    scripted_expert,
    spawn,
    spawn_many,
    synthetic_clouds,
)
from bimanual_icl.runner import generate_dataset, stable_seed
from doubles import benchmark_clouds, sample_box_surface


def act(voxel, g):
    return (*voxel, 36, 36, 0, g)


class TestSpawn:
    @pytest.mark.parametrize("name", sorted(DEFAULT_TASKS))
    def test_same_seed_same_world(self, name):
        task = DEFAULT_TASKS[name]
        w1, w2 = spawn(task, seed=7), spawn(task, seed=7)
        for obj in w1.positions:
            np.testing.assert_array_equal(w1.positions[obj], w2.positions[obj])
        assert w1.observation == w2.observation

    @pytest.mark.parametrize("name", sorted(DEFAULT_TASKS))
    def test_objects_within_spawn_regions(self, name):
        task = DEFAULT_TASKS[name]
        for seed in range(20):
            world = spawn(task, seed=seed)
            for spec in task.objects:
                voxel = voxelize(world.positions[spec.name])
                for v, (lo, hi) in zip(voxel, spec.region):
                    assert lo <= v <= hi

    @pytest.mark.parametrize("name", sorted(DEFAULT_TASKS))
    def test_observation_names_in_spec_order(self, name):
        task = DEFAULT_TASKS[name]
        world = spawn(task, seed=0)
        assert list(world.observation) == [o.name for o in task.objects]


class TestScriptedExpert:
    @pytest.mark.parametrize("name", sorted(DEFAULT_TASKS))
    def test_expert_succeeds_on_100_seeds(self, name):
        task = DEFAULT_TASKS[name]
        for seed in range(100):
            world = spawn(task, seed=seed)
            demo = scripted_expert(task, world)
            result = execute(world, demo.actions)
            assert result.success, f"{name} seed {seed}: {result.reason}"

    @pytest.mark.parametrize("name", sorted(DEFAULT_TASKS))
    def test_expert_has_at_least_two_keyframes(self, name):
        task = DEFAULT_TASKS[name]
        world = spawn(task, seed=3)
        assert len(scripted_expert(task, world).actions) >= 2

    @pytest.mark.parametrize("name", sorted(DEFAULT_TASKS))
    def test_expert_scores_five_against_own_batch(self, name):
        from bimanual_icl.judge import score_plan

        task = DEFAULT_TASKS[name]
        batch = [scripted_expert(task, spawn(task, seed=s)) for s in range(10)]
        for demo in batch:
            verdict = score_plan(demo.actions, batch, demo.observation)
            assert verdict.score == 5, (name, verdict.reasons)


class TestExecute:
    def test_empty_motion_plan_no_contact(self):
        task = DEFAULT_TASKS["lift_sym"]
        world = spawn(task, seed=1)
        first = scripted_expert(task, world).actions[0]
        result = execute(world, [first] * 4)  # hover, grippers never close
        assert not result.success
        assert result.reason == "no_contact"

    def test_single_grasp_on_symmetric_task(self):
        task = DEFAULT_TASKS["lift_sym"]
        world = spawn(task, seed=2)
        demo = scripted_expert(task, world).actions
        one_armed = [a[:7] + act(a[7:10], 1) for a in demo]  # left never closes
        result = execute(world, one_armed)
        assert not result.success
        assert result.reason == "single_grasp"

    def test_symmetric_object_needs_both_arms_to_move(self):
        task = DEFAULT_TASKS["lift_sym"]
        world = spawn(task, seed=2)
        demo = scripted_expert(task, world).actions
        one_armed = [a[:7] + act(a[7:10], 1) for a in demo]
        result = execute(world, one_armed)
        np.testing.assert_allclose(result.final_positions["tray"], world.positions["tray"])

    def test_success_invariant_to_appended_noops(self):
        task = DEFAULT_TASKS["handover"]
        world = spawn(task, seed=5)
        demo = scripted_expert(task, world).actions
        base = execute(world, demo)
        padded = execute(world, tuple(demo) + (demo[-1],) * 3)
        assert base.success and padded.success
        assert base.final_positions == padded.final_positions

    def test_execute_is_deterministic_and_pure(self):
        task = DEFAULT_TASKS["drawer_item"]
        world = spawn(task, seed=9)
        demo = scripted_expert(task, world).actions
        spawned = {name: pos.copy() for name, pos in world.positions.items()}
        r1 = execute(world, demo)
        r2 = execute(world, demo)
        assert r1.success == r2.success
        assert r1.final_positions == r2.final_positions
        assert world.positions.keys() == spawned.keys()
        for name, pos in spawned.items():
            np.testing.assert_array_equal(world.positions[name], pos)

    def test_accepts_raw_tuples(self):
        task = DEFAULT_TASKS["lift_sym"]
        world = spawn(task, seed=1)
        demo = scripted_expert(task, world).actions
        result = execute(world, [list(a) for a in demo])  # rows as decoded from JSON
        assert result.success

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            EpisodeResult(success=True, final_positions={}, reason="oops")
        with pytest.raises(ValueError):
            EpisodeResult(success=False, final_positions={}, reason="")


class TestDrawerSequencing:
    def test_unopened_drawer_fails(self):
        task = DEFAULT_TASKS["drawer_item"]
        world = spawn(task, seed=4)
        demo = scripted_expert(task, world).actions
        no_pull = [a[:7] + act(demo[1][7:10], a[13]) for a in demo]
        result = execute(world, no_pull)
        assert not result.success
        assert result.reason in ("drawer_closed", "missed_target")


class TestTaskDocuments:
    def test_coupling_classes_covered(self):
        couplings = {t.coupling for t in DEFAULT_TASKS.values()}
        assert couplings == {"symmetric", "asymmetric", "loose"}

    def test_region_validation(self):
        with pytest.raises(ValueError):
            ObjectSpec(name="x", region=((0, 120), (0, 9), (0, 9)))


class TestBenchmarkClouds:
    def test_two_cameras_dense_and_sparse(self):
        rng = np.random.default_rng(0)
        clouds = benchmark_clouds(rng, (0.2, 0.0, 1.1))
        assert [c.camera_id for c in clouds] == ["dense", "sparse"]
        assert len(clouds[0].points) > 10 * len(clouds[1].points)


class TestSpawnOutputPinned:
    """sha256 digests of spawn and cloud-sampler outputs, recorded from the
    per-point reference implementations; a faster sampler or downsample
    must reproduce them byte for byte."""

    def test_spawn_observations(self):
        h = hashlib.sha256()
        for name in sorted(DEFAULT_TASKS):
            for seed in range(100):
                world = spawn(DEFAULT_TASKS[name], seed=seed)
                entries = [[k, list(v)] for k, v in world.observation.items()]
                h.update(json.dumps([name, seed, entries]).encode())
        assert h.hexdigest() == SPAWN_DIGEST

    def test_synthetic_clouds(self):
        h = hashlib.sha256()
        for seed in range(5):
            for half_extent in ((0.12, 0.05, 0.02), (0.015, 0.015, 0.015), (0.02, 0.02, 0.002)):
                rng = np.random.default_rng(seed)
                spec = ObjectSpec(name="obj", region=((0, 99),) * 3, half_extent=half_extent)
                clouds = synthetic_clouds(rng, (spec,), np.array([(0.1, -0.2, 0.9)]))["obj"]
                for cloud in clouds:
                    h.update(cloud.points.tobytes())
        assert h.hexdigest() == SYNTHETIC_CLOUDS_DIGEST

    def test_benchmark_clouds(self):
        h = hashlib.sha256()
        for seed in range(5):
            for cloud in benchmark_clouds(np.random.default_rng(seed), (0.2, 0.0, 1.1)):
                h.update(cloud.points.tobytes())
        assert h.hexdigest() == BENCHMARK_CLOUDS_DIGEST


class TestStoreOutputPinned:
    """sha256 of the default 100-demo stores (dataset seed 1234), recorded before
    stores were built in chunked array passes: observations and actions."""

    def test_generated_stores(self):
        h = hashlib.sha256()
        for name in sorted(DEFAULT_TASKS):
            for demo in generate_dataset(name, 100, 1234):
                entries = [[k, list(v)] for k, v in demo.observation.items()]
                h.update(json.dumps([name, entries, demo.actions]).encode())
        assert h.hexdigest() == STORE_DIGEST


def assert_same_world(world, alone):
    assert world.observation == alone.observation
    assert list(world.positions) == list(alone.positions)
    for name, position in alone.positions.items():
        assert world.positions[name].tobytes() == position.tobytes()


class TestStorePathEqualsSpawn:
    """The store path builds scenes in chunks; each world must be ``spawn``'s."""

    @pytest.mark.parametrize("name", sorted(DEFAULT_TASKS))
    def test_every_store_world(self, name):
        task = DEFAULT_TASKS[name]
        seeds = [stable_seed(name, "store", 1234, k) for k in range(100)]
        worlds = list(spawn_many(task, seeds))
        assert len(worlds) == len(seeds)
        for seed, world in zip(seeds, worlds):
            assert_same_world(world, spawn(task, seed))

    @pytest.mark.parametrize("count", [0, 1, SCENE_CHUNK, 2 * SCENE_CHUNK + 2])
    def test_chunk_edges(self, count):
        task = DEFAULT_TASKS["dual_targets"]
        seeds = [7 * k + 3 for k in range(count)]
        worlds = list(spawn_many(task, seeds))
        assert len(worlds) == count
        for seed, world in zip(seeds, worlds):
            assert_same_world(world, spawn(task, seed))

    @pytest.mark.parametrize("count", [0, 1, 2 * SCENE_CHUNK + 2])
    def test_generated_store_equals_per_scene_experts(self, count):
        task = DEFAULT_TASKS["handover"]
        expected = [scripted_expert(task, spawn(task, stable_seed("handover", "store", 9, k)))
                    for k in range(count)]
        assert generate_dataset("handover", count, 9) == expected


def test_store_build_memory_is_bounded():
    """``dual_targets`` has the most objects, so the largest chunks. The traced peak
    of its 100-scene store measured 1.31 MiB at 5 scenes per chunk and grows by
    about 0.2 MiB per scene in a chunk (1.41 MiB at 6, 1.64 at 7, 2.31 at 10). The
    1.5 MiB budget fails a chunk of 7 scenes or more, before the benchmark's peak
    RSS would show it."""
    generate_dataset("dual_targets", 1, 1234)  # per-task tables are built once
    tracemalloc.start()
    try:
        generate_dataset("dual_targets", 100, 1234)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20, f"store build peaked at {peak / 2**20:.2f} MiB"


def sample_box_surface_loop(rng, center, half_extent, n, sigma, face_weights=None):
    """Per-point reference for ``sample_box_surface``: same draws, one row at a time."""
    hx, hy, hz = half_extent
    if face_weights is None:
        weights = np.array([hy * hz, hy * hz, hx * hz, hx * hz, hx * hy, hx * hy], dtype=float)
    else:
        weights = np.asarray(face_weights, dtype=float)
    faces = rng.choice(6, size=n, p=weights / weights.sum())
    u = rng.uniform(-1.0, 1.0, size=n)
    v = rng.uniform(-1.0, 1.0, size=n)
    pts = np.empty((n, 3))
    axis = faces // 2
    sign = np.where(faces % 2 == 0, 1.0, -1.0)
    half = np.array([hx, hy, hz])
    for i in range(n):
        a = axis[i]
        others = [j for j in range(3) if j != a]
        pts[i, a] = sign[i] * half[a]
        pts[i, others[0]] = u[i] * half[others[0]]
        pts[i, others[1]] = v[i] * half[others[1]]
    return np.asarray(center) + pts + rng.normal(0.0, sigma, size=(n, 3))


_extents = st.floats(min_value=1e-4, max_value=2.0)
_face_weights = st.one_of(
    st.none(),
    st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=6, max_size=6),
    st.lists(st.sampled_from((0.0, 0.0, 0.05, 1.0, 7.0)), min_size=6, max_size=6)
    .filter(lambda w: sum(w) > 0),
)


class TestSampleBoxSurfaceMatchesLoop:
    @settings(max_examples=300)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=0, max_value=400),
           half_extent=st.tuples(_extents, _extents, _extents),
           center=st.tuples(*[st.floats(min_value=-2.0, max_value=2.0)] * 3),
           sigma=st.sampled_from((0.0, 0.002, 0.005)),
           face_weights=_face_weights)
    def test_byte_identical(self, seed, n, half_extent, center, sigma, face_weights):
        fast = sample_box_surface(np.random.default_rng(seed), center, half_extent, n, sigma,
                                   face_weights=face_weights)
        slow = sample_box_surface_loop(np.random.default_rng(seed), center, half_extent, n,
                                        sigma, face_weights=face_weights)
        assert fast.shape == slow.shape == (n, 3)
        assert fast.tobytes() == slow.tobytes()


@pytest.mark.parametrize("weights", [
    (1.0, -0.5, 1.0, 1.0, 1.0, 1.0),
    (-1.0,) * 6,
    (1.0, float("nan"), 1.0, 1.0, 1.0, 1.0),
    (0.0,) * 6,
    (float("inf"), 1.0, 1.0, 1.0, 1.0, 1.0),
    (1.0,) * 5,
])
def test_invalid_face_weights_raise(weights):
    with pytest.raises(ValueError, match="face weights"):
        sample_box_surface(np.random.default_rng(0), (0.0, 0.0, 1.0), (0.1, 0.1, 0.1), 10, 0.0,
                           face_weights=weights)


@pytest.mark.parametrize("half_extent", [
    (0.0, 0.0, 0.1),
    (-0.1, 0.1, 0.1),
    (float("nan"), 0.1, 0.1),
    (float("inf"), 0.1, 0.1),
])
def test_a_box_without_face_areas_to_draw_from_raises(half_extent):
    with pytest.raises(ValueError, match="no face areas"):
        _box_tables(half_extent)


SPAWN_DIGEST = "2fcd6217cdc6181186f9b9ca9fb015eb435e3ff65146c489ad39da253f550d64"
SYNTHETIC_CLOUDS_DIGEST = "42d6d648eca391506894e788f1db7a602031c7703183848493c8707e7ed597be"
STORE_DIGEST = "5939a15163fafc6ea525d354c892874f8190f18e730719517fa11d538bc4cb62"
BENCHMARK_CLOUDS_DIGEST = "2155d5e053cc8233887d529c9135b43fb506006655674581ce135f2c786c3a96"
