"""Test doubles: scripted replies, injected parse failures, a perturbed arm,
a loopback chat-completions server, a skewed-camera sampler, a perception rig
and its error metric.

Any callable mapping a ChatRequest to text is a backend, so a plain
function or lambda covers the remaining cases.
"""

from __future__ import annotations

import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple

import numpy as np

from bimanual_icl.actions import ARM_OFFSET
from bimanual_icl.bench import _box_tables, _draw_surface, _surface_points
from bimanual_icl.errors import TransportError
from bimanual_icl.gateway import ChatRequest, _translated, request_fingerprint
from bimanual_icl.perception import MaskedCloud
from bimanual_icl.prompts import arm_system, parse_completion, parse_prompt, render_action_list


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
        if req.system != arm_system(self.arm):
            return text
        _, (entries, _) = parse_prompt(req.user)
        digest = hashlib.md5(
            (repr(sorted(entries.items())) + f"|{self.seed}").encode("utf-8")
        ).digest()
        delta = [1 if digest[i] % 2 else -1 for i in range(3)]
        return render_action_list([_translated(a, delta) for a in parse_completion(text, arity=7)])


class CannedReply(NamedTuple):
    """What the loopback chat server answers every POST with, after ``delay`` seconds."""

    status: int
    headers: dict
    body: bytes
    delay: float = 0.0


_JSON = {"Content-Type": "application/json"}
CANNED_REPLIES = {
    "ok": CannedReply(200, _JSON, json.dumps({
        "id": "stub-1",
        "choices": [{"index": 0, "message": {"role": "assistant",
                                             "content": "[[1, 2, 3, 4, 5, 6, 1]]"}}],
    }).encode("utf-8")),
    "error": CannedReply(503, _JSON, b'{"error": {"message": "overloaded"}}'),
    "slow": CannedReply(200, _JSON, b"{}", delay=1.0),
    "malformed": CannedReply(200, _JSON, b'{"choices": []}'),
}


class LoopbackChatHandler(BaseHTTPRequestHandler):
    """Records each POST on its server, then answers with the server's ``reply``."""

    server_version = "StubChat/0.1"

    def do_POST(self):
        raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.requests.append({
            "path": self.path,
            "auth": self.headers.get("Authorization"),
            "content_type": self.headers.get("Content-Type"),
            "body": json.loads(raw) if raw else {},
            "raw": raw,
        })
        status, headers, body, delay = self.server.reply
        self.server.closing.wait(delay)
        try:
            self.send_response(status)
            for name, value in {"Content-Length": str(len(body)), **headers}.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client gave up (timeout tests); nothing to report

    def log_message(self, *args):
        pass


class LoopbackChatServer(ThreadingHTTPServer):
    """A chat-completions server on a free loopback port, serving from a thread
    inside its ``with`` block. It answers ``CANNED_REPLIES["ok"]`` until its
    ``reply`` is set. It polls for shutdown every 0.05 s and cuts a delayed reply
    short on exit, so leaving the block takes no longer than that."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), LoopbackChatHandler)
        self.requests = []
        self.reply = CANNED_REPLIES["ok"]
        self.closing = threading.Event()
        self._thread = threading.Thread(target=self.serve_forever, args=(0.05,), daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self.closing.set()
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=2)


def sample_box_surface(rng, center, half_extent, n, sigma, face_weights=None):
    """n points over an axis-aligned box surface, plus Gaussian noise, through
    the simulator's own draw and geometry routines.

    Faces are drawn by area unless ``face_weights`` (6 values, order
    +x, -x, +y, -y, +z, -z) skews the density, as a camera with a biased
    viewpoint would. Draws exactly what ``rng.choice(6, n, p=weights)``
    would, then u, v and the noise.
    """
    cdf, frames = _box_tables(half_extent)
    if face_weights is not None:
        weights = np.asarray(face_weights, dtype=float)
        total = weights.sum()
        if weights.shape != (6,) or not ((weights >= 0).all() and 0 < total < np.inf):
            raise ValueError(f"face weights must be 6 finite numbers >= 0, not all 0: {weights}")
        cdf = (weights / total).cumsum()
        cdf /= cdf[-1]
    block, noise = _draw_surface(rng, n, sigma)
    center = np.asarray(center, dtype=float).reshape(1, 1, 3)
    return _surface_points(cdf[None], frames, block.reshape(1, 1, 3, n), center,
                           noise.reshape(1, 1, n, 3))[0, 0]


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
