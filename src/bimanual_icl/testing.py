"""Backend doubles for tests: scripted replies and injected parse failures.

Any callable mapping a ChatRequest to text is a backend, so a plain
function or lambda covers the remaining cases.
"""

from __future__ import annotations

import threading

from .errors import TransportError
from .gateway import ChatRequest, request_fingerprint


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
