"""Desk-scale bimanual task environment with scripted experts.

Worlds are kinematic: grippers teleport between keyframes, a closing
gripper attaches an object when within the grasp radius of one of its
grasp points, and attached objects move rigidly with their holder(s).
Objects of a symmetric task move only while both arms hold them. There is
no physics; each task's outcome test reads the final state.

Four archetypes ship, one per coupling class plus a sequential variant:
``lift_sym`` (tightly coupled symmetric), ``handover`` (tightly coupled
asymmetric), ``dual_targets`` (loosely coupled), ``drawer_item`` (loosely
coupled with a sequential dependency).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .actions import (ARM_OFFSET, GRIPPER, VOXELS_PER_AXIS, WORKSPACE_MAX, WORKSPACE_MIN,
                      devoxelize, nearest_voxel)
from .demos import Demonstration
from .perception import MaskedCloud, build_observation, observe_groups

GRASP_RADIUS = 2.0 / VOXELS_PER_AXIS  # 2 voxels, in meters at unit axis span
NOMINAL_ROT = (36, 36, 0)
TABLE_Z = 25

# Synthetic two-camera rig used to observe spawned scenes.
OBS_NOISE_SIGMA = 0.002
OBS_POINTS_PER_CAMERA = (160, 120)


@dataclass(frozen=True)
class ObjectSpec:
    """One scene object: where it may spawn and how it can be grasped."""

    name: str
    region: tuple  # ((xlo, xhi), (ylo, yhi), (zlo, zhi)) inclusive voxel bounds
    half_extent: tuple = (0.01, 0.01, 0.01)  # meters, for synthetic clouds
    graspable: bool = True
    grasp_offsets: tuple = ((0, 0, 0),)  # voxel offsets from the centroid

    def __post_init__(self):
        for lo, hi in self.region:
            if not (0 <= lo <= hi <= VOXELS_PER_AXIS - 1):
                raise ValueError(f"spawn region {self.region} outside the voxel grid")


@dataclass(frozen=True)
class TaskSpec:
    name: str
    objects: tuple
    expert: Callable  # world -> keyframe plan satisfying outcome
    outcome: Callable  # (world, final positions, attach_events) -> failure reason or None
    coupling: str  # symmetric | asymmetric | loose
    bimanual_objects: tuple = ()  # objects that move only when held by both arms


@dataclass
class World:
    """Per-episode mutable scene state; create via spawn()."""

    task: TaskSpec
    positions: dict  # name -> np.ndarray(3,) meters at spawn; execute() copies them
    observation: dict  # name -> voxel triple, as build_observation returns it


@dataclass
class EpisodeResult:
    success: bool
    final_positions: dict
    reason: str = ""

    def __post_init__(self):
        if self.success and self.reason:
            raise ValueError("successful episodes carry no failure reason")
        if not self.success and not self.reason:
            raise ValueError("failed episodes need a reason tag")


# Per face +x, -x, +y, -y, +z, -z, in units of the half extents: the fixed
# coordinate, then the directions u and v span (the in-face axes, in order).
_FACE_FRAMES = np.array([
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    [[0, 1, 0], [0, 1, 0], [1, 0, 0], [1, 0, 0], [1, 0, 0], [1, 0, 0]],
    [[0, 0, 1], [0, 0, 1], [0, 0, 1], [0, 0, 1], [0, 1, 0], [0, 1, 0]],
], dtype=float)

# Scenes per array pass of spawn_many; a larger chunk raises peak memory.
SCENE_CHUNK = 5

# An object's points, camera after camera: camera i's are rows _CAMERA_ROWS[i].
# Its draws, concatenated, hold one block of face, u and v uniforms per camera;
# _CAMERA_COLUMNS (3, points) picks each point's three from them.
_CAMERA_ROWS = tuple(slice(sum(OBS_POINTS_PER_CAMERA[:i]), sum(OBS_POINTS_PER_CAMERA[:i + 1]))
                     for i in range(len(OBS_POINTS_PER_CAMERA)))
_CAMERA_COLUMNS = np.concatenate([3 * r.start + np.arange(3 * (r.stop - r.start)).reshape(3, -1)
                                  for r in _CAMERA_ROWS], axis=1)


def _box_tables(half_extent):
    """A box's face CDF, by face area, and its face frames, scaled by the half
    extents, as (fixed, along u, along v) x axis x face."""
    hx, hy, hz = half_extent
    weights = np.array([hy * hz, hy * hz, hx * hz, hx * hz, hx * hy, hx * hy], dtype=float)
    total = weights.sum()
    if not ((weights >= 0).all() and 0 < total < np.inf):
        raise ValueError(f"half extents {half_extent} give no face areas to draw from: {weights}")
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return cdf, (_FACE_FRAMES * [hx, hy, hz]).transpose(0, 2, 1)


def _draw_surface(rng, n, sigma):
    """One sampler call's draws: the face, u and v uniforms as one block (the
    doubles of three separate calls), then the noise."""
    return rng.random(3 * n), rng.normal(0.0, sigma, size=(n, 3))


def _surface_points(cdfs, frames, uniforms, centers, noise):
    """Points (s, k, m, 3) on k boxes in each of s scenes, from the boxes'
    ``_box_tables`` (cdfs k x 6, frames 3 x 3 x 6k), their centers (s, k, 3) and
    per point its face, u and v uniforms (s, k, 3, m) and noise (s, k, m, 3). A
    face is found as ``Generator.choice`` finds it, by a right-sided CDF search:
    the count of the box's CDF values at or below the point's face uniform."""
    faces = (cdfs.T[:, None, :, None] <= uniforms[:, :, 0]).sum(axis=0)
    rows = faces + 6 * np.arange(len(cdfs))[:, None]
    # center + (fixed + u * along_u + v * along_v) + noise, in place and axis-major
    # (swapped operands round alike); u, v scaled as rng.uniform(-1.0, 1.0) does.
    fixed, along_u, along_v = frames
    points = along_u.take(rows, axis=1)
    points *= -1.0 + 2.0 * uniforms[:, :, 1]
    points += fixed.take(rows, axis=1)
    v_term = along_v.take(rows, axis=1)
    v_term *= -1.0 + 2.0 * uniforms[:, :, 2]
    points += v_term
    points += centers.transpose(2, 0, 1)[..., None]
    points += noise.transpose(3, 0, 1, 2)
    return points.transpose(1, 2, 3, 0)


@functools.cache
def _scene_tables(objects):
    """The spawn regions' low corners and extents (k x 3 each) and the objects'
    stacked ``_box_tables``."""
    bounds, top = [], VOXELS_PER_AXIS - 1
    for spec in objects:
        for (vlo, vhi), lo, hi in zip(spec.region, WORKSPACE_MIN, WORKSPACE_MAX):
            # Uniform over the region's continuous extent: the quantizer's
            # cell v covers [v, v + 1) / top of the axis span.
            span = hi - lo
            high = lo + (vhi + 1) / top * span if vhi < top else hi
            bounds.append((lo + vlo / top * span, high))
    low, high = np.array(bounds).reshape(len(objects), 3, 2).transpose(2, 0, 1)
    cdfs, frames = zip(*(_box_tables(spec.half_extent) for spec in objects))
    return low, high - low, np.stack(cdfs), np.concatenate(frames, axis=2)


def _scene_points(objects, positions, rngs):
    """Cloud points (s, k, m, 3) of s scenes whose objects sit at ``positions``
    (s, k, 3); scene i draws, from ``rngs[i]``, each object's cameras in order."""
    _, _, cdfs, frames = _scene_tables(objects)
    draws = [_draw_surface(rng, n, OBS_NOISE_SIGMA)
             for rng in rngs for _ in objects for n in OBS_POINTS_PER_CAMERA]
    shape = positions.shape[:2]
    uniforms = np.concatenate([block for block, _ in draws]).reshape(*shape, -1)
    uniforms = uniforms.take(_CAMERA_COLUMNS, axis=2)  # frees the ungathered blocks
    noise = np.concatenate([eps for _, eps in draws]).reshape(*shape, -1, 3)
    return _surface_points(cdfs, frames, uniforms, positions, noise)


def synthetic_clouds(rng, objects, positions):
    """Balanced two-camera clouds of each object (``ObjectSpec``) at its row of
    ``positions``, keyed by object name."""
    points = _scene_points(objects, positions[None], [rng])[0]
    return {spec.name: [MaskedCloud(f"cam{i}", spec.name, obj_points[rows])
                        for i, rows in enumerate(_CAMERA_ROWS)]
            for spec, obj_points in zip(objects, points)}


def spawn(task: TaskSpec, seed: int) -> World:
    """Place objects uniformly in their spawn regions and observe the scene: one
    ``synthetic_clouds`` call draws every cloud and one ``build_observation`` call
    bins them all (``spawn_many`` does both for a chunk of scenes at a time)."""
    rng = np.random.default_rng(seed)
    low, span, _, _ = _scene_tables(task.objects)
    positions = low + span * rng.random(low.shape)  # rng.uniform(low, low + span)
    clouds = synthetic_clouds(rng, task.objects, positions)
    return World(task, dict(zip(clouds, positions)), build_observation(clouds))


def spawn_many(task: TaskSpec, seeds):
    """``spawn(task, seed)`` for each seed of a sequence, byte for byte. Each scene
    draws from its own generator as ``spawn`` does; every ``SCENE_CHUNK`` scenes
    share one geometry pass and one ``observe_groups`` pass (a group per object)."""
    low, span, _, _ = _scene_tables(task.objects)
    names = [spec.name for spec in task.objects]
    for start in range(0, len(seeds), SCENE_CHUNK):
        rngs = [np.random.default_rng(seed) for seed in seeds[start:start + SCENE_CHUNK]]
        positions = np.stack([low + span * rng.random(low.shape) for rng in rngs])
        points = _scene_points(task.objects, positions, rngs).reshape(-1, 3)
        if not np.isfinite(points).all():
            raise ValueError(f"non-finite points in the synthetic clouds of {task.name!r}")
        owner = np.repeat(np.arange(len(rngs) * len(names)), _CAMERA_ROWS[-1].stop)
        voxels = observe_groups(points, owner, [(name, name) for name in names] * len(rngs))
        for i, scene_positions in enumerate(positions):
            yield World(task, dict(zip(names, scene_positions)),
                        dict(zip(names, voxels[i * len(names):])))


# --- scripted experts ------------------------------------------------------
# Each keyframe is the right arm's 7-int action followed by the left arm's.


def _act(voxel, gripper):
    """One arm's 7-int action: the voxel clamped into the grid, nominal rotation."""
    return (*(min(VOXELS_PER_AXIS - 1, max(0, int(v))) for v in voxel), *NOMINAL_ROT, gripper)


def _shift(voxel, dx=0, dy=0, dz=0):
    return (voxel[0] + dx, voxel[1] + dy, voxel[2] + dz)


def _expert_lift_sym(world: World):
    c = nearest_voxel(world.positions["tray"])
    w = 12  # grasp-face offset; keeps the arms at 24 voxels separation
    rp, lp = _shift(c, dx=w), _shift(c, dx=-w)
    return [
        _act(_shift(rp, dz=8), 1) + _act(_shift(lp, dz=8), 1),
        _act(rp, 1) + _act(lp, 1),
        _act(rp, 0) + _act(lp, 0),
        _act(_shift(rp, dz=15), 0) + _act(_shift(lp, dz=15), 0),
    ]


def _expert_handover(world: World):
    p = nearest_voxel(world.positions["item"])
    d = nearest_voxel(world.positions["dropzone"])
    meet = (50, 50, p[2] + 10)
    hold = _act(meet, 0)
    wait_open = _act(meet, 1)
    return [
        _act(_shift(p, dz=8), 1) + wait_open,
        _act(p, 1) + wait_open,
        _act(p, 0) + wait_open,
        hold + wait_open,  # right carries the item to the meeting point
        hold + _act(meet, 0),  # left closes on the item
        _act(meet, 1) + hold,  # right releases
        _act(meet, 1) + _act(_shift(d, dz=8), 0),
        _act(meet, 1) + _act(d, 0),
        _act(meet, 1) + _act(d, 1),
    ]


def _expert_dual_targets(world: World):
    rb, rt, bb, bt = (nearest_voxel(world.positions[name])
                      for name in ("red_block", "red_target", "blue_block", "blue_target"))
    return [
        _act(_shift(rb, dz=8), 1) + _act(_shift(bb, dz=8), 1),
        _act(rb, 1) + _act(bb, 1),
        _act(rb, 0) + _act(bb, 0),
        _act(_shift(rb, dz=8), 0) + _act(_shift(bb, dz=8), 0),
        _act(_shift(rt, dz=8), 0) + _act(_shift(bt, dz=8), 0),
        _act(rt, 0) + _act(bt, 0),
        _act(rt, 1) + _act(bt, 1),
    ]


def _expert_drawer_item(world: World):
    h = nearest_voxel(world.positions["handle"])
    i = nearest_voxel(world.positions["item"])
    ho = _shift(h, dy=-12)  # handle position once the drawer is pulled open
    return [
        _act(_shift(i, dz=8), 1) + _act(_shift(h, dz=6), 1),
        _act(i, 1) + _act(h, 1),
        _act(i, 0) + _act(h, 0),
        _act(_shift(i, dz=10), 0) + _act(ho, 0),  # left pulls, right lifts
        _act(_shift(ho, dz=8), 0) + _act(ho, 0),
        _act(_shift(ho, dz=2), 0) + _act(ho, 0),
        _act(_shift(ho, dz=2), 1) + _act(ho, 0),  # right drops the item in
    ]


def scripted_expert(task: TaskSpec, world: World) -> Demonstration:
    """Keyframe plan satisfying the task's outcome test by construction."""
    return Demonstration(observation=world.observation, actions=tuple(task.expert(world)))


# --- execution -------------------------------------------------------------


def execute(world: World, plan) -> EpisodeResult:
    """Run a keyframe plan through the kinematic model; never raises on failure.

    The loop holds positions in Python floats and does the IEEE operations of a
    numpy array loop: ``devoxelize``'s cell centres, each held object at the mean
    of its holders' gripper + offset. Every distance compared against a threshold
    is ``np.linalg.norm``'s, and the outcome test is handed numpy arrays."""
    plan = tuple(plan)
    if not plan:
        return EpisodeResult(False, {n: tuple(p) for n, p in world.positions.items()}, "empty_plan")

    positions = {name: pos.tolist() for name, pos in world.positions.items()}
    grippers = {}
    prev_bits = {}
    holders = {name: {} for name in positions}  # object -> {arm: offset}
    attach_events = []

    for step, action in enumerate(plan):
        for arm, base in ARM_OFFSET.items():
            grippers[arm] = devoxelize(action[base:base + 3])
        for name, held in holders.items():
            if held and (len(held) == 2 or name not in world.task.bimanual_objects):
                # np.mean over the holders; sum() starts at 0, which no term (never -0.0) alters
                moved = [[g + o for g, o in zip(grippers[arm], off)] for arm, off in held.items()]
                positions[name] = [sum(axis) / len(moved) for axis in zip(*moved)]
        for arm, base in ARM_OFFSET.items():
            bit = action[base + GRIPPER]
            was = prev_bits.get(arm, 1)
            if bit == 1:
                for held in holders.values():
                    held.pop(arm, None)
            elif was == 1:  # closing edge: try to grab something
                grabbed = _nearest_graspable(world, positions, grippers[arm])
                if grabbed is not None:
                    name, anchor_offset = grabbed
                    # Parallel grippers self-center: the matched grasp point
                    # rides exactly on the gripper from the next motion on.
                    holders[name][arm] = anchor_offset
                    attach_events.append((step, arm, name))
            prev_bits[arm] = bit

    arrays = {name: np.array(pos) for name, pos in positions.items()}
    reason = world.task.outcome(world, arrays, attach_events)
    if reason and not attach_events:  # every task fails alike when nothing was grasped
        reason = "no_contact"
    final = {name: tuple(pos) for name, pos in arrays.items()}
    return EpisodeResult(success=reason is None, final_positions=final, reason=reason or "")


_SPAN = [hi - lo for lo, hi in zip(WORKSPACE_MIN, WORKSPACE_MAX)]


def _nearest_graspable(world: World, positions, gripper_pos):
    """Closest (object, centroid-anchor offset) within the grasp radius, or None."""
    best, best_dist = None, None
    for spec in world.task.objects:
        if not spec.graspable:
            continue
        for offset in spec.grasp_offsets:
            offset_world = [o / VOXELS_PER_AXIS * s for o, s in zip(offset, _SPAN)]
            gap = [p + o - g for p, o, g in zip(positions[spec.name], offset_world, gripper_pos)]
            dist = float(np.linalg.norm(gap))
            if dist <= GRASP_RADIUS + 1e-9 and (best_dist is None or dist < best_dist):
                best, best_dist = (spec.name, [-o for o in offset_world]), dist
    return best


# --- outcome tests: final positions against the spawn ones in world.positions


def _lift_outcome(world: World, positions, attach_events):
    if positions["tray"][2] - world.positions["tray"][2] >= 0.10:
        return None
    arms = {arm for _, arm, name in attach_events if name == "tray"}
    return "single_grasp" if len(arms) < 2 else "not_lifted"


def _handover_outcome(world: World, positions, attach_events):
    placed = np.linalg.norm(positions["item"] - world.positions["dropzone"]) <= 0.04
    return None if placed else "missed_target"


def _dual_targets_outcome(world: World, positions, attach_events):
    placed = all(np.linalg.norm(positions[block] - world.positions[target]) <= 0.05
                 for block, target in (("red_block", "red_target"), ("blue_block", "blue_target")))
    return None if placed else "missed_target"


def _drawer_outcome(world: World, positions, attach_events):
    pulled = np.linalg.norm(positions["handle"] - world.positions["handle"]) >= 0.08
    if pulled and np.linalg.norm(positions["item"] - positions["handle"]) <= 0.05:
        return None
    return "missed_target" if pulled else "drawer_closed"


# --- shipped archetypes ----------------------------------------------------


def default_tasks() -> dict:
    """The four shipped task archetypes, keyed by name."""
    z = (TABLE_Z, TABLE_Z)
    tasks = [
        TaskSpec(
            name="lift_sym",
            coupling="symmetric",
            expert=_expert_lift_sym,
            outcome=_lift_outcome,
            bimanual_objects=("tray",),
            objects=(
                ObjectSpec(
                    name="tray",
                    region=((44, 56), (40, 60), z),
                    half_extent=(0.12, 0.05, 0.02),
                    grasp_offsets=((12, 0, 0), (-12, 0, 0)),
                ),
            ),
        ),
        TaskSpec(
            name="handover",
            coupling="asymmetric",
            expert=_expert_handover,
            outcome=_handover_outcome,
            objects=(
                ObjectSpec(name="item", region=((61, 65), (48, 52), z),
                           half_extent=(0.015, 0.015, 0.015)),
                ObjectSpec(name="dropzone", region=((28, 28), (50, 50), z),
                           half_extent=(0.02, 0.02, 0.002), graspable=False),
            ),
        ),
        TaskSpec(
            name="dual_targets",
            coupling="loose",
            expert=_expert_dual_targets,
            outcome=_dual_targets_outcome,
            objects=(
                ObjectSpec(name="red_block", region=((63, 65), (49, 51), z),
                           half_extent=(0.012, 0.012, 0.012)),
                ObjectSpec(name="blue_block", region=((35, 37), (49, 51), z),
                           half_extent=(0.012, 0.012, 0.012)),
                ObjectSpec(name="red_target", region=((72, 72), (38, 38), z),
                           half_extent=(0.02, 0.02, 0.002), graspable=False),
                ObjectSpec(name="blue_target", region=((26, 26), (38, 38), z),
                           half_extent=(0.02, 0.02, 0.002), graspable=False),
            ),
        ),
        TaskSpec(
            name="drawer_item",
            coupling="loose",
            expert=_expert_drawer_item,
            outcome=_drawer_outcome,
            objects=(
                ObjectSpec(name="handle", region=((36, 38), (54, 56), z),
                           half_extent=(0.02, 0.01, 0.01)),
                ObjectSpec(name="item", region=((61, 63), (48, 50), z),
                           half_extent=(0.012, 0.012, 0.012)),
            ),
        ),
    ]
    return {task.name: task for task in tasks}


DEFAULT_TASKS = default_tasks()
