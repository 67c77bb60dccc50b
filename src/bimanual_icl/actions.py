"""Conversion between continuous end-effector states and the integer action space.

An action is a plain tuple of ints. One arm's lives in Z^7: three voxel
indices in [0, 99], three 5-degree rotation bins in [0, 71], and a binary
gripper bit (0=closed, 1=open). A bimanual action concatenates right then
left, giving Z^14; ``ARM_OFFSET`` and ``GRIPPER`` name that layout.
``check_action`` validates a tuple where values enter the program (reply
parsing, demo files); ``discretize_pose`` yields in-range tuples by
construction. All functions here are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GimbalWarning, OutOfWorkspace, RangeError

VOXELS_PER_AXIS = 100
ROTATION_BINS = 72
ROTATION_BIN_DEG = 5.0

# Nudge applied before flooring angle/position quotients so that exact bin
# boundaries (e.g. a rotation of exactly 5 deg) land in the upper bin even
# when the quaternion->Euler round trip loses the last ulp.
_BIN_EPS = 1e-9


# Axis-aligned box bounding reachable end-effector positions, in meters.
WORKSPACE_MIN = (-0.3, -0.5, 0.6)
WORKSPACE_MAX = (0.7, 0.5, 1.6)

# Layout of an action tuple: per arm 3 voxel indices, 3 rotation bins, then
# the gripper bit; a bimanual action holds the right arm, then the left.
ARM_DIM = 7
GRIPPER = 6
ARM_OFFSET = {"right": 0, "left": ARM_DIM}
OTHER_ARM = {"right": "left", "left": "right"}


@dataclass(frozen=True)
class ContinuousPose:
    """End-effector position, unit quaternion (x, y, z, w), and gripper aperture."""

    position: tuple[float, float, float]
    orientation: tuple[float, float, float, float]
    gripper: float

    def __post_init__(self):
        norm = math.sqrt(sum(c * c for c in self.orientation))
        if not abs(norm - 1.0) <= 1e-6:  # also rejects NaN and inf
            raise ValueError(f"quaternion norm {norm} not within 1e-6 of 1")
        if not 0.0 <= self.gripper <= 1.0:
            raise ValueError(f"gripper aperture {self.gripper} outside [0, 1]")


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_integers(values, limit: int, what: str):
    """Raise RangeError unless every value is an integer (not a bool) in [0, limit)."""
    for v in values:
        if not _is_integer(v) or not 0 <= v < limit:
            raise RangeError(f"{what} {v} outside [0, {limit - 1}]")


_ARM_LIMITS = (VOXELS_PER_AXIS,) * 3 + (ROTATION_BINS,) * 3 + (2,)
_LIMITS = {ARM_DIM: _ARM_LIMITS, 2 * ARM_DIM: _ARM_LIMITS * 2}  # exclusive bound per component
_OUT_OF_RANGE = {VOXELS_PER_AXIS: "voxel component {} outside [0, 99]",
                 ROTATION_BINS: "rotation bin {} outside [0, 71]",
                 2: "gripper bit {} not in {{0, 1}}"}


def check_action(values, arity: int = 14) -> tuple:
    """Return values as a tuple; raise RangeError unless it is one action of
    ``arity`` components (7: one arm, 14: right arm then left) whose every
    voxel, rotation bin and gripper bit is an integer in its range. One pass
    left to right over (value, bound) pairs names the first bad component."""
    values = tuple(values)
    if len(values) != arity:
        raise RangeError(f"expected {arity} components, got {len(values)}")
    for v, limit in zip(values, _LIMITS[arity]):
        if not ((type(v) is int or _is_integer(v)) and 0 <= v < limit):
            raise RangeError(_OUT_OF_RANGE[limit].format(v))
    return values


def voxelize(position) -> tuple[int, int, int]:
    """Map a continuous in-bounds position to its voxel index triple.

    Each axis maps via floor((p - min) / (max - min) * 99); only the exact
    upper bound reaches index 99, so the top bin is degenerate by design.
    Out-of-bounds positions are rejected rather than clamped: a silently
    clamped demo would corrupt the in-context pattern.
    """
    out = []
    for p, lo, hi in zip(position, WORKSPACE_MIN, WORKSPACE_MAX):
        if not lo <= p <= hi:
            raise OutOfWorkspace(f"position {tuple(position)} outside bounds on axis [{lo}, {hi}]")
        out.append(int(math.floor((p - lo) / (hi - lo) * (VOXELS_PER_AXIS - 1))))
    return tuple(out)


def devoxelize(voxel) -> tuple[float, float, float]:
    """Return the cell-center position for a voxel triple.

    Centers advance in steps of span/100 while the quantizer's cells are
    span/99 wide, so devoxelize(voxelize(p)) drifts low by up to
    (v + 50.5)/9900 of the span per axis (under 0.015 everywhere), and
    voxelize(devoxelize(v)) = v holds exactly for v <= 49. Three exact ints
    in range are looked up in ``_CENTRE_TABLE``; any other voxel is checked.
    """
    if len(voxel) == 3:
        x, y, z = voxel
        if type(x) is type(y) is type(z) is int and x in _GRID and y in _GRID and z in _GRID:
            xs, ys, zs = _CENTRE_TABLE
            return xs[x], ys[y], zs[z]
    _check_integers(voxel, VOXELS_PER_AXIS, "voxel component")
    return _centres(voxel)


def _centres(voxel):
    return tuple(lo + (v + 0.5) / VOXELS_PER_AXIS * (hi - lo)
                 for v, lo, hi in zip(voxel, WORKSPACE_MIN, WORKSPACE_MAX))


_GRID = range(VOXELS_PER_AXIS)
_CENTRE_TABLE = tuple(zip(*(_centres((v, v, v)) for v in _GRID)))  # [axis][index]


def nearest_voxel(position) -> tuple[int, int, int]:
    """The voxel whose ``devoxelize`` center is nearest ``position``, clamped into the
    grid: the experts' encoder, as voxelize's floor would bias the executed center low."""
    cells = (round((p - lo) / (hi - lo) * VOXELS_PER_AXIS - 0.5)
             for p, lo, hi in zip(map(float, position), WORKSPACE_MIN, WORKSPACE_MAX))
    return tuple(min(VOXELS_PER_AXIS - 1, max(0, v)) for v in cells)


def _euler_xyz(x, y, z, w) -> tuple[float, float, float]:
    """Intrinsic xyz Euler angles in radians, each in [-pi, pi], of a quaternion.

    Bernardes & Plazas (2022), "Quaternion to Euler angles conversion: a
    direct, general and computationally efficient method", as scipy's
    ``Rotation.as_euler("XYZ")`` implements it, specialised to that sequence:
    the intrinsic sequence is handled as extrinsic z-y-x, an odd permutation.
    Fed scipy's normalized quaternion, it returns scipy's angles bit for bit.
    It calls np.hypot because that is C's hypot, as in scipy; math.hypot
    rounds differently in the last bit. In the singular case (pitch within
    1e-7 rad of +/-90 deg) scipy's convention applies: the yaw is set to 0
    and the roll carries the whole rotation.
    """
    a, b, c, d = w - y, z - x, y + w, -x - z
    theta = 2.0 * math.atan2(float(np.hypot(c, d)), float(np.hypot(a, b)))  # pitch+pi/2
    half_sum = math.atan2(b, a)
    half_diff = math.atan2(d, c)
    if abs(theta) <= 1e-7:
        roll, yaw = -2.0 * half_sum, 0.0
    elif abs(theta - math.pi) <= 1e-7:
        roll, yaw = -2.0 * half_diff, 0.0
    else:
        roll, yaw = -(half_sum + half_diff), half_sum - half_diff
    angles = []
    for angle in (roll, theta - math.pi / 2, yaw):
        if angle < -math.pi:
            angle += 2.0 * math.pi
        elif angle > math.pi:
            angle -= 2.0 * math.pi
        angles.append(angle)
    return tuple(angles)


def bin_rotation(quaternion) -> tuple[int, int, int]:
    """Bin a unit quaternion into three 5-degree intrinsic-xyz Euler bins.

    Angles are normalized into [0, 360) before binning. Quaternions are
    scalar-last (x, y, z, w). Emits GimbalWarning when the pitch is within
    1e-3 rad of +/-90 deg, where roll and yaw become degenerate.
    """
    norm = math.sqrt(sum(c * c for c in quaternion))
    if not abs(norm - 1.0) <= 1e-6:  # also rejects NaN and inf
        raise ValueError(f"quaternion norm {norm} not within 1e-6 of 1")
    angles = _euler_xyz(*(c / norm for c in quaternion))
    if abs(abs(angles[1]) - math.pi / 2) < 1e-3:
        warnings.warn(
            f"pitch {math.degrees(angles[1]):.4f} deg is near gimbal lock; "
            "roll/yaw bins unreliable",
            GimbalWarning,
            stacklevel=2,
        )
    bins = []
    for a in angles:
        a = math.degrees(a) % 360.0
        if a >= 360.0:
            a = 0.0
        b = int(math.floor(a / ROTATION_BIN_DEG + _BIN_EPS))
        bins.append(min(b, ROTATION_BINS - 1))
    return tuple(bins)


def unbin_rotation(rot) -> tuple[float, float, float, float]:
    """Reconstruct the bin-center rotation as a scalar-last unit quaternion.

    Bin r maps to the center angle (r + 0.5) * 5 deg. bin_rotation composed
    with this is the identity exactly when the pitch bin's center angle lies
    in the canonical Euler band [0, 90) or (270, 360) deg, i.e. pitch bins
    0-17 and 54-71; outside it the xyz Euler chart cannot be inverted.
    """
    _check_integers(rot, ROTATION_BINS, "rotation bin")
    half = [math.radians((r + 0.5) * ROTATION_BIN_DEG) / 2.0 for r in rot]
    sx, sy, sz = (math.sin(h) for h in half)
    cx, cy, cz = (math.cos(h) for h in half)
    # Hamilton product q_x * q_y * q_z of the three elementary rotations,
    # multiplied out in the order scipy's from_euler("XYZ") uses.
    x, y, z, w = sx * cy, cx * sy, sx * sy, cx * cy
    return (cz * x + y * sz, cz * y - x * sz, w * sz + cz * z, w * cz - z * sz)


def discretize_pose(pose: ContinuousPose) -> tuple[int, ...]:
    """Discretize a full pose into one arm's 7 components, in range by construction;
    the gripper bit is 1 (open) iff aperture >= 0.5."""
    return (*voxelize(pose.position), *bin_rotation(pose.orientation),
            1 if pose.gripper >= 0.5 else 0)
