"""``bench.execute`` pinned to its recorded results and to the plain numpy loop
it replaced, which is kept below as the reference."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimanual_icl.actions import (ARM_OFFSET, GRIPPER, WORKSPACE_MAX, WORKSPACE_MIN, devoxelize,
                                  nearest_voxel)
from bimanual_icl.bench import (
    DEFAULT_TASKS,
    GRASP_RADIUS,
    EpisodeResult,
    execute,
    scripted_expert,
    spawn,
)


def execute_reference(world, plan):
    """``execute`` as one numpy array per gripper and ``np.mean`` per held object."""
    plan = tuple(plan)
    if not plan:
        return EpisodeResult(False, dict(world.positions), reason="empty_plan")

    positions = {k: v.copy() for k, v in world.positions.items()}
    grippers = {}
    prev_bits = {}
    holders = {name: {} for name in positions}
    attach_events = []

    for step, action in enumerate(plan):
        for arm, base in ARM_OFFSET.items():
            grippers[arm] = np.asarray(devoxelize(action[base:base + 3]))
        for name, held in holders.items():
            if not held:
                continue
            if name in world.task.bimanual_objects and len(held) < 2:
                continue
            positions[name] = np.mean(
                [grippers[arm] + offset for arm, offset in held.items()], axis=0
            )
        for arm, base in ARM_OFFSET.items():
            bit = action[base + GRIPPER]
            was = prev_bits.get(arm, 1)
            if bit == 1:
                for held in holders.values():
                    held.pop(arm, None)
            elif was == 1:
                grabbed = _nearest_graspable_reference(world, positions, grippers[arm])
                if grabbed is not None:
                    name, anchor_offset = grabbed
                    holders[name][arm] = anchor_offset
                    attach_events.append((step, arm, name))
            prev_bits[arm] = bit

    reason = world.task.outcome(world, positions, attach_events)
    if reason and not attach_events:
        reason = "no_contact"
    final = {name: tuple(pos) for name, pos in positions.items()}
    return EpisodeResult(success=reason is None, final_positions=final, reason=reason or "")


def _nearest_graspable_reference(world, positions, gripper_pos):
    best, best_dist = None, None
    span = np.asarray([hi - lo for lo, hi in zip(WORKSPACE_MIN, WORKSPACE_MAX)])
    for spec in world.task.objects:
        if not spec.graspable:
            continue
        for offset in spec.grasp_offsets:
            offset_world = np.asarray(offset) / 100.0 * span
            point = positions[spec.name] + offset_world
            dist = float(np.linalg.norm(point - gripper_pos))
            if dist <= GRASP_RADIUS + 1e-9 and (best_dist is None or dist < best_dist):
                best, best_dist = (spec.name, -offset_world), dist
    return best


def recording_world(name, seed):
    """``spawn``'s world whose outcome test also records what it was handed."""
    seen = []
    task = DEFAULT_TASKS[name]

    def outcome(world, positions, attach_events):
        types = {k: (type(v).__name__, np.asarray(v).dtype.str) for k, v in positions.items()}
        seen.append((list(attach_events), types))
        return task.outcome(world, positions, attach_events)

    world = spawn(task, seed)
    return dataclasses.replace(world, task=dataclasses.replace(task, outcome=outcome)), seen


def fingerprint(result, seen):
    """Everything a result and its outcome call carry, as JSON plus position bytes."""
    finals = [[name, [type(c).__name__ for c in pos], np.array(pos, dtype=float).tobytes().hex()]
              for name, pos in result.final_positions.items()]
    return json.dumps([result.success, result.reason, finals, seen])


def _with_arm(action, arm, xyz=None, bit=None):
    base = ARM_OFFSET[arm]
    row = list(action)
    if xyz is not None:
        row[base:base + 3] = [min(99, max(0, v)) for v in xyz]
    if bit is not None:
        row[base + GRIPPER] = bit
    return tuple(row)


def pinned_plans(name, seed):
    """The expert plan and perturbed plans that end in each failure reason."""
    world = spawn(DEFAULT_TASKS[name], seed)
    expert = scripted_expert(world.task, world).actions
    shifted = [_with_arm(_with_arm(a, "right", [v + 2 - seed % 5 for v in a[0:3]]),
                         "left", [v - 3 + seed % 7 for v in a[7:10]]) for a in expert]
    yield "expert", expert
    yield "shifted", shifted
    yield "open", [_with_arm(_with_arm(a, "right", bit=1), "left", bit=1) for a in expert]
    for arm in ARM_OFFSET:
        yield f"{arm}_open", [_with_arm(a, arm, bit=1) for a in expert]
        yield f"{arm}_frozen", [_with_arm(a, arm, xyz=expert[1][ARM_OFFSET[arm]:][:3])
                                for a in expert]
    yield "short", expert[:len(expert) // 2 + 1]
    yield "padded", tuple(expert) + (expert[-1],) * 2


PINNED_SEEDS = range(12)


class TestExecuteOutputPinned:
    """sha256 of every pinned case's result (success, reason, final positions and
    their element types) and of what its outcome test was handed (attach events in
    order, position types), recorded from the reference loop above."""

    def test_results(self):
        h = hashlib.sha256()
        reasons = set()
        for name in sorted(DEFAULT_TASKS):
            for seed in PINNED_SEEDS:
                for label, plan in pinned_plans(name, seed):
                    world, seen = recording_world(name, seed)
                    result = execute(world, plan)
                    reasons.add(result.reason)
                    h.update(json.dumps([name, seed, label]).encode())
                    h.update(fingerprint(result, seen).encode())
        assert reasons >= {"", "no_contact", "single_grasp", "drawer_closed", "missed_target"}
        assert h.hexdigest() == EXECUTE_DIGEST

    def test_reference_gives_the_pinned_results(self):
        for name in sorted(DEFAULT_TASKS):
            for label, plan in pinned_plans(name, 0):
                world, seen = recording_world(name, 0)
                expected = fingerprint(execute_reference(world, plan), seen)
                seen.clear()
                assert fingerprint(execute(world, plan), seen) == expected, (name, label)


_BAD_COMPONENTS = (True, False, -1, 100, 2.0, float("nan"), np.int64(40), np.uint8(7), "5")


@st.composite
def _episodes(draw):
    """A task, a seed and a plan whose arms move near the objects' grasp voxels, or
    the expert's plan with its voxels nudged, so grasps, releases and carried
    objects happen; now and then one voxel component is swapped for a value of
    another type or out of range."""
    name = draw(st.sampled_from(sorted(DEFAULT_TASKS)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    world = spawn(DEFAULT_TASKS[name], seed)
    anchors = [nearest_voxel(world.positions[spec.name]) for spec in world.task.objects]
    anchors += [(a[0] + dx, a[1], a[2]) for a in anchors for dx in (12, -12)]
    small = st.sampled_from((0, 0, 0, 1, -1, 2))
    near = st.tuples(st.sampled_from(anchors), small, small, st.sampled_from((0, 0, 1, -1, 8, 15)))
    near = near.map(lambda t: tuple(min(99, max(0, c + d)) for c, d in zip(t[0], t[1:])))
    voxel = st.one_of(near, near, near, st.tuples(*[st.integers(0, 99)] * 3))
    arm = st.tuples(voxel, st.sampled_from((0, 1)))
    steps = draw(st.lists(st.tuples(arm, arm), min_size=0, max_size=9))
    plan = [(*r, 36, 36, 0, rb) + (*l, 36, 36, 0, lb) for (r, rb), (l, lb) in steps]
    if draw(st.booleans()):  # the expert's plan, its voxels nudged
        plan = [tuple(min(99, max(0, v + draw(small))) if i % 7 < 3 else v
                      for i, v in enumerate(row))
                for row in scripted_expert(world.task, world).actions]
    if plan and draw(st.integers(0, 9)) == 0:
        step = draw(st.integers(0, len(plan) - 1))
        row = list(plan[step])
        row[draw(st.sampled_from((0, 1, 2, 7, 8, 9)))] = draw(st.sampled_from(_BAD_COMPONENTS))
        plan[step] = tuple(row)
    if draw(st.booleans()):
        plan = [list(row) for row in plan]
    return name, seed, plan


def _outcome(fn, name, seed, plan):
    world, seen = recording_world(name, seed)
    try:
        result = fn(world, plan)
    except Exception as exc:  # the type and message must match too
        return type(exc), str(exc)
    return fingerprint(result, seen)


class TestExecuteMatchesReference:
    @settings(max_examples=300)
    @given(episode=_episodes())
    def test_same_result(self, episode):
        name, seed, plan = episode
        assert _outcome(execute, name, seed, plan) == _outcome(execute_reference, name, seed, plan)


@pytest.mark.parametrize("name", sorted(DEFAULT_TASKS))
def test_final_positions_hold_numpy_floats(name):
    world = spawn(DEFAULT_TASKS[name], 5)
    for plan in (scripted_expert(world.task, world).actions, ()):
        result = execute(world, plan)
        for pos in result.final_positions.values():  # tuples, never the world's own rows
            assert type(pos) is tuple and [type(c) for c in pos] == [np.float64] * 3
    assert result.final_positions == {k: tuple(v) for k, v in world.positions.items()}


EXECUTE_DIGEST = "bf08df9a40977fb1f46355f7a3baf0aa3ab2686eeff36a76f1c9c5d47bcb4d9e"
