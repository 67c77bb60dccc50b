"""Desk-scale bimanual task environment with scripted experts.

Worlds are kinematic: grippers teleport between keyframes, a closing
gripper attaches an object when within the grasp radius of one of its
grasp points, and attached objects move rigidly with their holder(s).
Objects of a symmetric task move only while both arms hold them. There is
no physics; success predicates read the final state.

Four archetypes ship, one per coupling class plus a sequential variant:
``lift_sym`` (tightly coupled symmetric), ``handover`` (tightly coupled
asymmetric), ``dual_targets`` (loosely coupled), ``drawer_item`` (loosely
coupled with a sequential dependency).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import (
    BimanualAction,
    DEFAULT_BOUNDS,
    DiscreteAction,
    WorkspaceBounds,
    devoxelize,
    voxelize,
)
from .demos import Demonstration
from .perception import MaskedCloud, Observation, build_observation

GRASP_RADIUS_VOXELS = 2.0
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
            if not (0 <= lo <= hi <= 99):
                raise ValueError(f"spawn region {self.region} outside the voxel grid")


@dataclass(frozen=True)
class TaskSpec:
    name: str
    objects: tuple
    predicate: str
    coupling: str  # symmetric | asymmetric | loose
    bimanual_objects: tuple = ()  # objects that move only when held by both arms


@dataclass
class World:
    """Per-episode mutable scene state; create via spawn()."""

    task: TaskSpec
    bounds: WorkspaceBounds
    positions: dict  # name -> np.ndarray(3,) meters
    initial_positions: dict
    observation: Observation
    grasp_radius: float = GRASP_RADIUS_VOXELS / 100.0  # meters at unit axis span

    def voxel_of(self, name: str):
        return voxelize(tuple(self.positions[name]), self.bounds)

    def action_voxel_of(self, name: str):
        """Voxel whose devoxelized center is nearest the object's true position.

        Experts encode waypoints with this instead of voxelize() so that the
        executed (cell-center) position sits within half a cell of the true
        target; the floor-based observation quantizer is biased low.
        """
        out = []
        for p, lo, hi in zip(self.positions[name], self.bounds.min, self.bounds.max):
            frac = (p - lo) / (hi - lo)
            out.append(min(99, max(0, int(round(frac * 100.0 - 0.5)))))
        return tuple(out)


@dataclass
class EpisodeResult:
    success: bool
    plan: tuple
    final_positions: dict
    reason: str = ""

    def __post_init__(self):
        if self.success and self.reason:
            raise ValueError("successful episodes carry no failure reason")
        if not self.success and not self.reason:
            raise ValueError("failed episodes need a reason tag")


def _sample_box_surface(rng, center, half_extent, n, sigma, face_weights=None):
    """n points over an axis-aligned box surface, plus Gaussian noise.

    Faces are drawn by area unless ``face_weights`` (6 values, order
    +x, -x, +y, -y, +z, -z) skews the density, as a camera with a biased
    viewpoint would.
    """
    hx, hy, hz = half_extent
    if face_weights is None:
        weights = np.array([hy * hz, hy * hz, hx * hz, hx * hz, hx * hy, hx * hy], dtype=float)
    else:
        weights = np.asarray(face_weights, dtype=float)
    faces = rng.choice(6, size=n, p=weights / weights.sum())
    u = rng.uniform(-1.0, 1.0, size=n)
    v = rng.uniform(-1.0, 1.0, size=n)
    pts = np.empty((n, 3))
    rows = np.arange(n)
    axis = faces // 2
    # The two in-face axes in increasing order: u spans the first, v the second.
    first = np.where(axis == 0, 1, 0)
    second = np.where(axis == 2, 1, 2)
    sign = np.where(faces % 2 == 0, 1.0, -1.0)
    half = np.array([hx, hy, hz])
    pts[rows, axis] = sign * half[axis]
    pts[rows, first] = u * half[first]
    pts[rows, second] = v * half[second]
    return np.asarray(center) + pts + rng.normal(0.0, sigma, size=(n, 3))


def synthetic_clouds(rng, name, center, half_extent,
                     points_per_camera=OBS_POINTS_PER_CAMERA, sigma=OBS_NOISE_SIGMA):
    """Balanced multi-camera clouds of one object for scene observations."""
    return [
        MaskedCloud(
            camera_id=f"cam{i}",
            object_name=name,
            points=_sample_box_surface(rng, center, half_extent, n, sigma),
        )
        for i, n in enumerate(points_per_camera)
    ]


def benchmark_clouds(rng, center, half_extent=(0.05, 0.05, 0.05), sigma=0.005):
    """Perception-benchmark rig: one dense uneven camera, one sparse skewed one.

    The dense camera covers the full surface with a strong +x density bias
    (a close viewpoint); the sparse camera sees only a small +y patch. This
    is the regime where per-camera averaging is hurt most by the skewed
    view, pooled points inherit the density bias, and voxel downsampling
    recovers an even surface coverage.
    """
    dense = _sample_box_surface(
        rng, center, half_extent, n=1000, sigma=sigma,
        face_weights=(0.45, 0.05, 0.2, 0.1, 0.1, 0.1),
    )
    sparse = _sample_box_surface(
        rng, center, half_extent, n=15, sigma=sigma,
        face_weights=(0.0, 0.0, 1.0, 0.0, 0.0, 0.0),
    )
    return [
        MaskedCloud(camera_id="dense", object_name="object", points=dense),
        MaskedCloud(camera_id="sparse", object_name="object", points=sparse),
    ]


def spawn(task: TaskSpec, seed: int, bounds: WorkspaceBounds = DEFAULT_BOUNDS,
          strategy: str = "prune") -> World:
    """Place objects uniformly in their spawn regions and observe the scene."""
    rng = np.random.default_rng(seed)
    positions = {}
    for spec in task.objects:
        coords = []
        for (vlo, vhi), lo, hi in zip(spec.region, bounds.min, bounds.max):
            # Uniform over the region's continuous extent: the quantizer's
            # cell v covers [v/99, (v+1)/99) of the axis span.
            span = hi - lo
            low = lo + vlo / 99.0 * span
            high = lo + (vhi + 1) / 99.0 * span if vhi < 99 else hi
            coords.append(rng.uniform(low, high))
        positions[spec.name] = np.asarray(coords)
    clouds = {
        spec.name: synthetic_clouds(rng, spec.name, positions[spec.name], spec.half_extent)
        for spec in task.objects
    }
    observation = build_observation(clouds, strategy=strategy, bounds=bounds)
    return World(
        task=task,
        bounds=bounds,
        positions=positions,
        initial_positions={k: v.copy() for k, v in positions.items()},
        observation=observation,
    )


# --- scripted experts ------------------------------------------------------


def _act(voxel, gripper):
    clamped = tuple(min(99, max(0, int(v))) for v in voxel)
    return DiscreteAction(voxel=clamped, rot=NOMINAL_ROT, gripper=gripper)


def _pair(right, left):
    return BimanualAction(right=right, left=left)


def _shift(voxel, dx=0, dy=0, dz=0):
    return (voxel[0] + dx, voxel[1] + dy, voxel[2] + dz)


def _expert_lift_sym(world: World):
    c = world.action_voxel_of("tray")
    w = 12  # grasp-face offset; keeps the arms at 24 voxels separation
    rp, lp = _shift(c, dx=w), _shift(c, dx=-w)
    return [
        _pair(_act(_shift(rp, dz=8), 1), _act(_shift(lp, dz=8), 1)),
        _pair(_act(rp, 1), _act(lp, 1)),
        _pair(_act(rp, 0), _act(lp, 0)),
        _pair(_act(_shift(rp, dz=15), 0), _act(_shift(lp, dz=15), 0)),
    ]


def _expert_handover(world: World):
    p = world.action_voxel_of("item")
    d = world.action_voxel_of("dropzone")
    meet = (50, 50, p[2] + 10)
    hold = _act(meet, 0)
    wait_open = _act(meet, 1)
    return [
        _pair(_act(_shift(p, dz=8), 1), wait_open),
        _pair(_act(p, 1), wait_open),
        _pair(_act(p, 0), wait_open),
        _pair(hold, wait_open),  # right carries the item to the meeting point
        _pair(hold, _act(meet, 0)),  # left closes on the item
        _pair(_act(meet, 1), hold),  # right releases
        _pair(_act(meet, 1), _act(_shift(d, dz=8), 0)),
        _pair(_act(meet, 1), _act(d, 0)),
        _pair(_act(meet, 1), _act(d, 1)),
    ]


def _expert_dual_targets(world: World):
    rb, rt = world.action_voxel_of("red_block"), world.action_voxel_of("red_target")
    bb, bt = world.action_voxel_of("blue_block"), world.action_voxel_of("blue_target")
    return [
        _pair(_act(_shift(rb, dz=8), 1), _act(_shift(bb, dz=8), 1)),
        _pair(_act(rb, 1), _act(bb, 1)),
        _pair(_act(rb, 0), _act(bb, 0)),
        _pair(_act(_shift(rb, dz=8), 0), _act(_shift(bb, dz=8), 0)),
        _pair(_act(_shift(rt, dz=8), 0), _act(_shift(bt, dz=8), 0)),
        _pair(_act(rt, 0), _act(bt, 0)),
        _pair(_act(rt, 1), _act(bt, 1)),
    ]


def _expert_drawer_item(world: World):
    h = world.action_voxel_of("handle")
    i = world.action_voxel_of("item")
    ho = _shift(h, dy=-12)  # handle position once the drawer is pulled open
    return [
        _pair(_act(_shift(i, dz=8), 1), _act(_shift(h, dz=6), 1)),
        _pair(_act(i, 1), _act(h, 1)),
        _pair(_act(i, 0), _act(h, 0)),
        _pair(_act(_shift(i, dz=10), 0), _act(ho, 0)),  # left pulls, right lifts
        _pair(_act(_shift(ho, dz=8), 0), _act(ho, 0)),
        _pair(_act(_shift(ho, dz=2), 0), _act(ho, 0)),
        _pair(_act(_shift(ho, dz=2), 1), _act(ho, 0)),  # right drops the item in
    ]


_EXPERTS = {
    "lift": _expert_lift_sym,
    "handover": _expert_handover,
    "dual_targets": _expert_dual_targets,
    "drawer": _expert_drawer_item,
}


def scripted_expert(task: TaskSpec, world: World) -> Demonstration:
    """Keyframe plan satisfying the task's predicate by construction."""
    actions = _EXPERTS[task.predicate](world)
    return Demonstration(observation=world.observation, actions=tuple(actions))


# --- execution -------------------------------------------------------------


def execute(world: World, plan) -> EpisodeResult:
    """Run a keyframe plan through the kinematic model; never raises on failure."""
    plan = tuple(plan)
    if not plan:
        return EpisodeResult(False, plan, dict(world.initial_positions), reason="empty_plan")
    actions = [p if isinstance(p, BimanualAction) else BimanualAction.from_tuple(p) for p in plan]

    positions = {k: v.copy() for k, v in world.positions.items()}
    grippers = {}
    prev_bits = {}
    holders = {name: {} for name in positions}  # object -> {arm: offset}
    attach_events = []

    for step, action in enumerate(actions):
        for arm in ("right", "left"):
            grippers[arm] = np.asarray(devoxelize(action.arm(arm).voxel, world.bounds))
        for name, held in holders.items():
            if not held:
                continue
            if name in world.task.bimanual_objects and len(held) < 2:
                continue
            positions[name] = np.mean(
                [grippers[arm] + offset for arm, offset in held.items()], axis=0
            )
        for arm in ("right", "left"):
            bit = action.arm(arm).gripper
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

    success, reason = _evaluate(world, positions, attach_events)
    final = {name: tuple(pos) for name, pos in positions.items()}
    return EpisodeResult(success=success, plan=plan, final_positions=final, reason=reason)


def _nearest_graspable(world: World, positions, gripper_pos):
    """Closest (object, centroid-anchor offset) within the grasp radius, or None."""
    best, best_dist = None, None
    span = np.asarray(world.bounds.span)
    for spec in world.task.objects:
        if not spec.graspable:
            continue
        for offset in spec.grasp_offsets:
            offset_world = np.asarray(offset) / 100.0 * span
            point = positions[spec.name] + offset_world
            dist = float(np.linalg.norm(point - gripper_pos))
            if dist <= world.grasp_radius + 1e-9 and (best_dist is None or dist < best_dist):
                best, best_dist = (spec.name, -offset_world), dist
    return best


def _evaluate(world: World, positions, attach_events):
    task = world.task
    if task.predicate == "lift":
        gain = positions["tray"][2] - world.initial_positions["tray"][2]
        if gain >= 0.10:
            return True, ""
        if not attach_events:
            return False, "no_contact"
        arms = {arm for _, arm, name in attach_events if name == "tray"}
        if len(arms) < 2:
            return False, "single_grasp"
        return False, "not_lifted"
    if task.predicate == "handover":
        gap = np.linalg.norm(positions["item"] - world.initial_positions["dropzone"])
        if gap <= 0.04:
            return True, ""
        return False, "no_contact" if not attach_events else "missed_target"
    if task.predicate == "dual_targets":
        ok = all(
            np.linalg.norm(positions[block] - world.initial_positions[target]) <= 0.05
            for block, target in (("red_block", "red_target"), ("blue_block", "blue_target"))
        )
        if ok:
            return True, ""
        return False, "no_contact" if not attach_events else "missed_target"
    if task.predicate == "drawer":
        pulled = np.linalg.norm(positions["handle"] - world.initial_positions["handle"]) >= 0.08
        placed = np.linalg.norm(positions["item"] - positions["handle"]) <= 0.05
        if pulled and placed:
            return True, ""
        if not attach_events:
            return False, "no_contact"
        if not pulled:
            return False, "drawer_closed"
        return False, "missed_target"
    raise ValueError(f"unknown predicate {task.predicate!r}")


# --- shipped archetypes ----------------------------------------------------


def default_tasks() -> dict:
    """The four shipped task archetypes, keyed by name."""
    z = (TABLE_Z, TABLE_Z)
    tasks = [
        TaskSpec(
            name="lift_sym",
            coupling="symmetric",
            predicate="lift",
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
            predicate="handover",
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
            predicate="dual_targets",
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
            predicate="drawer",
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
