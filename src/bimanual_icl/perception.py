"""Fusing per-camera masked point clouds into per-object voxel centroids.

Three fusion strategies are supported:

* ``standard``: centroid per camera, then an unweighted mean of those.
* ``concat``: centroid of all points pooled across cameras.
* ``prune``: like ``concat`` after voxel-grid downsampling, one mean
  representative per occupied grid cell (default edge 0.02 m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .actions import VOXELS_PER_AXIS, WORKSPACE_MAX, WORKSPACE_MIN, voxelize
from .errors import EmptyObject, OutOfWorkspace

STRATEGIES = ("standard", "concat", "prune")
DEFAULT_VOXEL_SIZE = 0.02
# The largest box, in cells per point, that _voxel_downsample bins densely. There
# dense binning is 6-9x faster than np.unique (1.4x at 64 cells, slower past ~130)
# and peaks at 206 B per point, 1.10 MiB on a 5,600-point store chunk; at 16 it is
# 1.81 MiB, past the store build's 1.5 MiB budget.
_DENSE_CELLS_PER_POINT = 8
_LOW, _HIGH = np.array(WORKSPACE_MIN), np.array(WORKSPACE_MAX)


@dataclass
class MaskedCloud:
    """World-frame points of one object as seen (and masked) by one camera."""

    camera_id: str
    object_name: str
    points: np.ndarray  # (N, 3) float, N may be 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not math.isfinite(pts.sum()) and not np.isfinite(pts).all():  # the sum may overflow
            raise ValueError(f"non-finite points in cloud {self.camera_id}/{self.object_name}")
        self.points = pts


def extract_centroid(clouds, strategy: str = "prune", voxel_size: float = DEFAULT_VOXEL_SIZE):
    """Fuse one object's per-camera clouds into a single centroid, in meters."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    nonempty = [c.points for c in clouds if len(c.points)]
    if not nonempty:
        raise _empty_object(_object_name(clouds))

    if strategy == "standard":
        per_camera = np.stack([pts.mean(axis=0) for pts in nonempty])
        return tuple(per_camera.mean(axis=0))

    merged = np.concatenate(nonempty, axis=0)
    if strategy == "concat":
        return tuple(merged.mean(axis=0))
    return tuple(_voxel_downsample(merged, voxel_size)[0].mean(axis=0))


def _object_name(clouds) -> str:
    return clouds[0].object_name if clouds else "<unknown>"


def _empty_object(name: str) -> EmptyObject:
    return EmptyObject(f"no points for object {name!r} in any camera")


def _voxel_downsample(points: np.ndarray, voxel_size: float, owner=None):
    """One representative (cell mean) per occupied grid cell of each ``owner`` group
    (all 0 if omitted), and its owner, sorted by owner and then cell (x, y, z). The
    grid is anchored at the origin and a cell sums its points in input order, so a
    group's representatives do not depend on the other groups.

    Each (owner, x, y, z) key gets one row-major code over the keys' bounding box;
    ``np.bincount`` of the codes counts and sums the cells, in key order. A box of
    more than ``_DENSE_CELLS_PER_POINT`` cells per point is numbered by ``np.unique``."""
    if voxel_size <= 0:
        raise ValueError(f"voxel_size must be positive, got {voxel_size}")
    if owner is None:
        owner = np.zeros(len(points), dtype=np.int64)
    keys = np.column_stack((owner, np.floor(points / voxel_size).astype(np.int64)))
    if not len(keys):
        return np.empty((0, 3)), keys[:, 0]
    low = keys.min(axis=0)
    # Python ints: a sparse box's span, and its cell count, may pass int64
    spans = [hi - lo + 1 for hi, lo in zip(keys.max(axis=0).tolist(), low.tolist())]
    n_codes = math.prod(spans)
    if n_codes <= _DENSE_CELLS_PER_POINT * len(keys):
        index = (keys - low) @ [spans[1] * spans[2] * spans[3], spans[2] * spans[3], spans[3], 1]
        counts = np.bincount(index, minlength=n_codes)
        occupied = counts.nonzero()[0]
        owners = occupied // (n_codes // spans[0]) + low[0]
    else:
        cells, index = np.unique(keys, axis=0, return_inverse=True)
        index = index.reshape(-1)  # 1-D under every numpy version
        counts, occupied, owners = np.bincount(index), slice(None), cells[:, 0]
        n_codes = len(cells)
    sums = np.stack([np.bincount(index, weights=points[:, axis], minlength=n_codes)[occupied]
                     for axis in range(3)], axis=1)
    return sums / counts[occupied, None], owners


def observe_groups(points: np.ndarray, owner: np.ndarray, labels) -> list:
    """The voxel of each owner group's ``prune``-fused centroid, from one downsample
    pass; each centroid is ``extract_centroid``'s of its group alone (``bincount``
    sums in order, as ``mean(axis=0)`` does). ``labels[i]`` names group i (entry
    name, object name) if it is the first that is empty or leaves the workspace."""
    representatives, rep_owner = _voxel_downsample(points, DEFAULT_VOXEL_SIZE, owner)
    n = len(labels)
    counts = np.bincount(rep_owner, minlength=n)
    sums = np.stack([np.bincount(rep_owner, weights=representatives[:, axis], minlength=n)
                     for axis in range(3)], axis=1)
    with np.errstate(invalid="ignore"):  # 0 / 0 leaves an empty group's centroid NaN
        centroids = sums / counts[:, None]
    inside = ((_LOW <= centroids) & (centroids <= _HIGH)).all(axis=1)
    if not inside.all():
        group = int(inside.argmin())
        entry, name = labels[group]
        try:
            if not counts[group]:
                raise _empty_object(name)
            voxelize(tuple(centroids[group]))
        except (EmptyObject, OutOfWorkspace) as exc:
            raise type(exc)(f"object {entry!r}: {exc}") from exc
    # voxelize's floor((p - lo) / (hi - lo) * 99), one array operation per step
    voxels = np.floor((centroids - _LOW) / (_HIGH - _LOW) * (VOXELS_PER_AXIS - 1))
    return list(map(tuple, voxels.astype(np.int64).tolist()))


def build_observation(object_clouds) -> dict[str, tuple[int, int, int]]:
    """Voxelize each object's ``prune``-fused centroid, in input name order, through
    ``observe_groups`` with one group per object."""
    scene = list(object_clouds.values())
    points = np.concatenate([c.points for clouds in scene for c in clouds] or [np.empty((0, 3))])
    sizes = [sum(len(c.points) for c in clouds) for clouds in scene]
    owner = np.repeat(np.arange(len(scene)), sizes)
    labels = [(name, _object_name(clouds)) for name, clouds in object_clouds.items()]
    return dict(zip(object_clouds, observe_groups(points, owner, labels)))


def observation_l1(a: dict, b: dict) -> int:
    """Summed L1 voxel distance between two observations' shared object entries.
    Voxels have three components, indexed rather than zipped: the oracle and the
    judge's rubric compare every demo of a prompt this way."""
    total = 0
    for name, va in a.items():
        vb = b.get(name)
        if vb is not None:
            total += abs(va[0] - vb[0]) + abs(va[1] - vb[1]) + abs(va[2] - vb[2])
    return total


def nearest_demo_index(demos, obs: dict) -> int:
    """Index of the demo whose ``observation`` is nearest ``obs`` by ``observation_l1``;
    the lowest index wins ties. The scripted oracle replays this demo and the judge's
    rubric compares a plan against it."""
    if not demos:
        raise ValueError("at least one demonstration is required")
    distances = [observation_l1(obs, demo.observation) for demo in demos]
    return min(range(len(demos)), key=distances.__getitem__)
