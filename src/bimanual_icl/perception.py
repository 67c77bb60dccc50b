"""Fusing per-camera masked point clouds into per-object voxel centroids.

Three fusion strategies are supported:

* ``standard``: centroid per camera, then an unweighted mean of those.
* ``concat``: centroid of all points pooled across cameras.
* ``prune``: like ``concat`` after voxel-grid downsampling, one mean
  representative per occupied grid cell (default edge 0.02 m).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .actions import DEFAULT_BOUNDS, DiscreteAction, WorkspaceBounds, voxelize
from .errors import EmptyObject, OutOfWorkspace

STRATEGIES = ("standard", "concat", "prune")
DEFAULT_VOXEL_SIZE = 0.02


@dataclass
class MaskedCloud:
    """World-frame points of one object as seen (and masked) by one camera."""

    camera_id: str
    object_name: str
    points: np.ndarray  # (N, 3) float, N may be 0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if pts.size and not np.isfinite(pts).all():
            raise ValueError(f"non-finite points in cloud {self.camera_id}/{self.object_name}")
        self.points = pts


@dataclass
class Observation:
    """Ordered mapping from object name to voxel triple.

    May carry one partner-arm entry (``leader_arm`` or ``follower_arm``)
    holding a trajectory of single-arm actions; it always serializes last.
    """

    entries: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    partner_key: str | None = None
    partner_actions: tuple[DiscreteAction, ...] = ()

    def with_partner(self, key: str, actions) -> "Observation":
        if key not in ("leader_arm", "follower_arm"):
            raise ValueError(f"unknown partner key {key!r}")
        return Observation(
            entries=dict(self.entries),
            partner_key=key,
            partner_actions=tuple(actions),
        )


def extract_centroid(clouds, strategy: str = "prune", voxel_size: float = DEFAULT_VOXEL_SIZE):
    """Fuse one object's per-camera clouds into a single centroid, in meters."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    nonempty = [c.points for c in clouds if len(c.points)]
    if not nonempty:
        name = clouds[0].object_name if clouds else "<unknown>"
        raise EmptyObject(f"no points for object {name!r} in any camera")

    if strategy == "standard":
        per_camera = np.stack([pts.mean(axis=0) for pts in nonempty])
        return tuple(per_camera.mean(axis=0))

    merged = np.concatenate(nonempty, axis=0)
    if strategy == "concat":
        return tuple(merged.mean(axis=0))
    return tuple(_voxel_downsample(merged, voxel_size).mean(axis=0))


def _voxel_downsample(points: np.ndarray, voxel_size: float) -> np.ndarray:
    """One representative point (cell mean) per occupied grid cell.

    The grid is anchored at the origin, so representatives do not depend on
    which other objects happen to be in the scene.
    """
    if voxel_size <= 0:
        raise ValueError(f"voxel_size must be positive, got {voxel_size}")
    cells = np.floor(points / voxel_size).astype(np.int64)
    # Number occupied cells in lexicographic (x, y, z) order: sort the rows and
    # open a new cell wherever a sorted row differs from the one before it.
    order = np.lexsort(cells.T[::-1])
    sorted_cells = cells[order]
    starts = np.ones(len(cells), dtype=bool)
    starts[1:] = (sorted_cells[1:] != sorted_cells[:-1]).any(axis=1)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    n_cells = inverse.max() + 1
    sums = np.zeros((n_cells, 3))
    np.add.at(sums, inverse, points)
    counts = np.bincount(inverse, minlength=n_cells).astype(float)
    return sums / counts[:, None]


def build_observation(
    object_clouds,
    strategy: str = "prune",
    bounds: WorkspaceBounds = DEFAULT_BOUNDS,
    voxel_size: float = DEFAULT_VOXEL_SIZE,
) -> Observation:
    """Fuse and voxelize every object's clouds, preserving input name order."""
    entries: dict[str, tuple[int, int, int]] = {}
    for name, clouds in object_clouds.items():
        try:
            centroid = extract_centroid(clouds, strategy=strategy, voxel_size=voxel_size)
            entries[name] = voxelize(centroid, bounds)
        except (EmptyObject, OutOfWorkspace) as exc:
            raise type(exc)(f"object {name!r}: {exc}") from exc
    return Observation(entries=entries)


def centroid_error(estimated, ground_truth) -> float:
    """Euclidean distance between two positions, in centimeters."""
    est = np.asarray(estimated, dtype=float)
    gt = np.asarray(ground_truth, dtype=float)
    if not (np.isfinite(est).all() and np.isfinite(gt).all()):
        raise ValueError("centroid_error requires finite vectors")
    return float(np.linalg.norm(est - gt) * 100.0)


def observation_l1(a, b) -> int:
    """Summed L1 voxel distance between two observations' shared object entries.

    Partner-arm trajectories never contribute. Used by the nearest-demo
    oracle and by the judge's nearest-demo selection.
    """
    entries_a = a.entries if isinstance(a, Observation) else a
    entries_b = b.entries if isinstance(b, Observation) else b
    total = 0
    for name, va in entries_a.items():
        vb = entries_b.get(name)
        if vb is None:
            continue
        total += sum(abs(x - y) for x, y in zip(va, vb))
    return total
