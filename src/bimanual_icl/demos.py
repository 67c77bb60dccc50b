"""Episode keyframing, demonstration records, and batch sampling."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .actions import (ARM_OFFSET, GRIPPER, VOXELS_PER_AXIS, ContinuousPose, _check_integers,
                      check_action, discretize_pose)
from .errors import ConfigError, EmptyEpisode, InsufficientDemos, RangeError
from .prompts import demo_texts

SPEED_EPS = 1e-3


@dataclass(frozen=True)
class EpisodeStep:
    """One raw timestep of a recorded episode, both arms."""

    right: ContinuousPose
    left: ContinuousPose
    right_joint_speed: float
    left_joint_speed: float
    is_terminal: bool = False

    def __post_init__(self):
        for speed in (self.right_joint_speed, self.left_joint_speed):
            if not speed >= 0.0:
                raise ValueError(f"joint speed {speed} must be finite and non-negative")


@dataclass(frozen=True)
class Demonstration:
    """Initial observation plus the keyframed sequence of 14-int bimanual actions."""

    observation: dict[str, tuple[int, int, int]]
    actions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        if not self.actions:
            raise ValueError("a demonstration needs at least one action")

    @cached_property
    def texts(self) -> dict[str, str]:
        """``prompts.demo_texts``, rendered on first use; do not mutate ``observation``."""
        return demo_texts(self)


def extract_keyframes(steps) -> tuple[tuple[int, ...], ...]:
    """Select and discretize the salient steps of an episode.

    A step is a keyframe if any of:
      a. either arm's discretized gripper bit changed from the previous step,
      b. both arms' joint speeds dropped below ``SPEED_EPS`` and the previous
         step was not already below it (rising edge only, so a long pause
         emits one keyframe),
      c. the step is terminal.

    Each step is emitted at most once even when several rules fire, and
    consecutive duplicate discretized actions are collapsed.
    """
    steps = list(steps)
    if not steps:
        raise EmptyEpisode("cannot extract keyframes from an empty episode")

    discretized = [discretize_pose(s.right) + discretize_pose(s.left) for s in steps]
    bits = [base + GRIPPER for base in ARM_OFFSET.values()]

    keyframes = []
    prev_below = False
    for i, (step, action) in enumerate(zip(steps, discretized)):
        below = step.right_joint_speed < SPEED_EPS and step.left_joint_speed < SPEED_EPS
        gripper_change = i > 0 and any(action[b] != discretized[i - 1][b] for b in bits)
        if gripper_change or (below and not prev_below) or step.is_terminal:
            keyframes.append(action)
        prev_below = below

    return collapse_duplicates(keyframes)


def collapse_duplicates(actions) -> tuple[tuple[int, ...], ...]:
    """Drop actions identical to their immediate predecessor (idempotent)."""
    out = []
    for action in actions:
        if not out or action != out[-1]:
            out.append(action)
    return tuple(out)


def sample_batch(store, n: int, seed: int) -> list[Demonstration]:
    """Draw n distinct demonstrations uniformly without replacement, seeded."""
    store = list(store)
    if len(store) < n:
        raise InsufficientDemos(f"store holds {len(store)} demos, need {n}")
    return random.Random(seed).sample(store, n)


def demonstration_to_dict(demo: Demonstration) -> dict:
    return {
        "observation": {name: list(voxel) for name, voxel in demo.observation.items()},
        "actions": [list(a) for a in demo.actions],
    }


def _voxel_entry(name: str, values) -> tuple[int, int, int]:
    voxel = tuple(values)
    if len(voxel) != 3:
        raise RangeError(f"observation {name!r}: expected 3 voxel components, got {len(voxel)}")
    _check_integers(voxel, VOXELS_PER_AXIS, "voxel component")
    return voxel


def demonstration_from_dict(payload: dict) -> Demonstration:
    obs = {name: _voxel_entry(name, voxel) for name, voxel in payload["observation"].items()}
    return Demonstration(observation=obs, actions=tuple(map(check_action, payload["actions"])))


def save_demonstration(path, demo: Demonstration):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(demonstration_to_dict(demo), fh)
        fh.write("\n")


def load_demonstration(path) -> Demonstration:
    """Read one demonstration file; any fault of it is a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return demonstration_from_dict(json.load(fh))
    except KeyError as exc:
        raise ConfigError(f"demonstration {path}: missing key {exc}") from exc
    # OSError: missing, a directory; ValueError: not UTF-8, not JSON, a RangeError
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"demonstration {path}: {exc}") from exc


def load_demo_dir(directory) -> list[Demonstration]:
    """Load every *.json demonstration in a directory, sorted by filename."""
    paths = sorted(Path(directory).glob("*.json"))
    return [load_demonstration(p) for p in paths]


def save_demo_dir(directory, demos):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, demo in enumerate(demos):
        save_demonstration(directory / f"demo_{i:05d}.json", demo)
