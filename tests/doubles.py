"""Test doubles: scripted replies, injected parse failures, a perturbed arm,
a perception rig and its error metric.

Any callable mapping a ChatRequest to text is a backend, so a plain
function or lambda covers the remaining cases.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

from bimanual_icl.actions import ARM_OFFSET
from bimanual_icl.bench import sample_box_surface
from bimanual_icl.errors import TransportError
from bimanual_icl.gateway import ChatRequest, _translated, request_fingerprint
from bimanual_icl.perception import MaskedCloud
from bimanual_icl.prompts import SINGLE_ARM_SYSTEM, parse_completion, parse_prompt, render_action_list


class ScriptedBackend:
    """Replays a fixed sequence of completions, one per call (thread-safe)."""

    def __init__(self, responses):
        self._responses = list(responses)
        self._lock = threading.Lock()
        self.calls = 0

    def __call__(self, req: ChatRequest) -> str:
        with self._lock:
            if self.calls >= len(self._responses):
                raise TransportError("scripted backend exhausted its responses")
            text = self._responses[self.calls]
            self.calls += 1
        return text


class FlakyBackend:
    """Wraps a backend so each logical call fails a fixed number of times.

    Failures are unparseable completions, keyed by (tag, prompt fingerprint)
    so retries of one call are counted together while repeated identical
    prompts from different pipeline phases each get their own failures;
    the pattern is deterministic under concurrency.
    """

    def __init__(self, inner, failures: int = 2, garbage: str = "sorry, no plan today"):
        self.inner = inner
        self.failures = failures
        self.garbage = garbage
        self._seen: dict[tuple, int] = {}
        self._lock = threading.Lock()

    def __call__(self, req: ChatRequest) -> str:
        key = (req.tag, request_fingerprint(req))
        with self._lock:
            n = self._seen.get(key, 0)
            self._seen[key] = n + 1
        if n < self.failures:
            return self.garbage
        return self.inner(req)


class NoisyArmBackend:
    """Perturbs one arm's single-arm predictions by +/-1 voxel per axis.

    The shift is drawn from a hash of the test observation's object
    entries, so the same scene receives the same perturbation regardless
    of how the prompt was conditioned (dual-agent vs leader-follower).
    """

    def __init__(self, inner, arm: str = "left", seed: int = 0):
        if arm not in ARM_OFFSET:
            raise ValueError("arm must be 'right' or 'left'")
        self.inner = inner
        self.arm = arm
        self.seed = seed

    def __call__(self, req: ChatRequest) -> str:
        text = self.inner(req)
        if req.system != SINGLE_ARM_SYSTEM.format(arm=self.arm):
            return text
        _, (entries, _) = parse_prompt(req.user)
        digest = hashlib.md5(
            (repr(sorted(entries.items())) + f"|{self.seed}").encode("utf-8")
        ).digest()
        delta = [1 if digest[i] % 2 else -1 for i in range(3)]
        return render_action_list([_translated(a, delta) for a in parse_completion(text, arity=7)])


def benchmark_clouds(rng, center, half_extent=(0.05, 0.05, 0.05), sigma=0.005):
    """Perception-benchmark rig: one dense uneven camera, one sparse skewed one.

    The dense camera covers the full surface with a strong +x density bias
    (a close viewpoint); the sparse camera sees only a small +y patch. This
    is the regime where per-camera averaging is hurt most by the skewed
    view, pooled points inherit the density bias, and voxel downsampling
    recovers an even surface coverage.
    """
    dense = sample_box_surface(
        rng, center, half_extent, n=1000, sigma=sigma,
        face_weights=(0.45, 0.05, 0.2, 0.1, 0.1, 0.1),
    )
    sparse = sample_box_surface(
        rng, center, half_extent, n=15, sigma=sigma,
        face_weights=(0.0, 0.0, 1.0, 0.0, 0.0, 0.0),
    )
    return [
        MaskedCloud(camera_id="dense", object_name="object", points=dense),
        MaskedCloud(camera_id="sparse", object_name="object", points=sparse),
    ]


def centroid_error(estimated, ground_truth) -> float:
    """Euclidean distance between two positions, in centimeters."""
    est = np.asarray(estimated, dtype=float)
    gt = np.asarray(ground_truth, dtype=float)
    if not (np.isfinite(est).all() and np.isfinite(gt).all()):
        raise ValueError("centroid_error requires finite vectors")
    return float(np.linalg.norm(est - gt) * 100.0)
