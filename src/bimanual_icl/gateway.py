"""Uniform chat-call interface over an HTTP backend and the scripted oracle.

A backend is any callable mapping a ChatRequest to raw completion text.
The gateway wraps a backend with parse-and-retry plus per-call accounting;
it supports concurrent in-flight calls (best-of-n fan-out, dual-agent
arms), serializing only the accounting appends.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
import time
from dataclasses import dataclass

import requests

from .errors import (
    CompletionError,
    ExhaustedRetries,
    OracleParseError,
    RequestTimeoutError,
    TransportError,
)
from .perception import observation_l1
from .prompts import (
    JUDGE_SYSTEM,
    ParsedCompletion,
    SINGLE_ARM_SYSTEM,
    parse_completion,
    parse_judge_prompt,
    parse_prompt,
    render_action_list,
)


@dataclass(frozen=True)
class ChatRequest:
    """One [system, user] call with a sampling temperature and a free-form tag."""

    system: str
    user: str
    temperature: float = 0.0
    tag: str = ""


@dataclass
class CallRecord:
    """Accounting entry for one backend round trip."""

    tag: str
    prompt_chars: int
    completion_chars: int
    wall_ms: int
    attempt: int
    outcome: str  # ok | parse_fail | transport_fail


class CallLog:
    """Thread-safe append-only sink of CallRecords."""

    def __init__(self):
        self._records: list[CallRecord] = []
        self._lock = threading.Lock()

    def append(self, record: CallRecord):
        with self._lock:
            self._records.append(record)

    def records(self) -> list[CallRecord]:
        with self._lock:
            return list(self._records)

    def count(self, tag_prefix: str | None = None) -> int:
        with self._lock:
            if tag_prefix is None:
                return len(self._records)
            return sum(1 for r in self._records if r.tag.startswith(tag_prefix))


class HttpBackend:
    """Chat-completions HTTP client: POST {model, messages, temperature}.

    Reads the bearer token from ``api_key_env`` at call time; the response
    text is taken from ``choices[0].message.content``, which must be a string.
    """

    def __init__(self, url: str, model: str, api_key_env: str = "OPENAI_API_KEY",
                 timeout: float = 60.0):
        self.url = url
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout

    def __call__(self, req: ChatRequest) -> str:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": req.system},
                {"role": "user", "content": req.user},
            ],
            "temperature": req.temperature,
        }
        started = time.perf_counter()
        try:
            resp = requests.post(self.url, json=payload, headers=headers, timeout=self.timeout)
        except requests.Timeout as exc:
            elapsed = int((time.perf_counter() - started) * 1000)
            raise RequestTimeoutError(
                f"no response from {self.url} after {elapsed} ms", elapsed_ms=elapsed
            ) from exc
        except requests.RequestException as exc:
            raise TransportError(f"request to {self.url} failed: {exc}") from exc
        if resp.status_code >= 400:
            raise TransportError(f"HTTP {resp.status_code} from {self.url}: {resp.text[:200]}")
        try:
            content = resp.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed chat response: {resp.text[:200]}") from exc
        if not isinstance(content, str):
            raise TransportError(f"chat response carries no text content: {resp.text[:200]}")
        return content


def request_fingerprint(req: ChatRequest) -> str:
    digest = hashlib.md5()
    digest.update(req.system.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(req.user.encode("utf-8"))
    return digest.hexdigest()


# --- scripted oracle -------------------------------------------------------


def oracle_nearest_demo(req: ChatRequest) -> str:
    """Scripted completion policy: replay the nearest demo, translated.

    Picks the in-prompt demo whose observation minimizes the summed L1
    voxel distance to the test observation (partner entries excluded,
    lowest index on ties), shifts every action's position components by
    the rounded per-object mean voxel offset, and copies rotation bins and
    gripper bits verbatim.
    """
    demos, (test_entries, _) = parse_prompt(req.user)
    if not demos:
        raise OracleParseError("prompt contains no demonstrations")
    distances = [observation_l1(test_entries, entries) for entries, _, _ in demos]
    best = min(range(len(demos)), key=lambda i: distances[i])
    demo_entries, _, actions = demos[best]

    common = [name for name in test_entries if name in demo_entries]
    if common:
        offset = [
            sum(test_entries[n][axis] - demo_entries[n][axis] for n in common) / len(common)
            for axis in range(3)
        ]
    else:
        offset = [0.0, 0.0, 0.0]
    delta = [int(round(o)) for o in offset]

    translated = []
    for action in actions:
        moved = list(action)
        for base in range(0, len(moved), 7):
            for axis in range(3):
                moved[base + axis] = min(99, max(0, moved[base + axis] + delta[axis]))
        translated.append(tuple(moved))
    return render_action_list(translated)


class OracleBackend:
    """Deterministic offline stand-in for the LLM, all roles included.

    Prediction prompts get the nearest-demo policy; judge prompts get the
    deterministic rubric verdict rendered as the JSON the real judge would
    emit. Pure in (system, user), so concurrent use is safe.
    """

    def __call__(self, req: ChatRequest) -> str:
        if req.system == JUDGE_SYSTEM:
            return self._judge(req)
        return oracle_nearest_demo(req)

    def _judge(self, req: ChatRequest) -> str:
        from . import judge as judge_mod
        from .actions import BimanualAction
        from .demos import Demonstration
        from .perception import Observation

        ref_demos, (cand_entries, _, cand_actions) = parse_judge_prompt(req.user)
        demos = [
            Demonstration(
                observation=Observation(entries=dict(entries)),
                actions=tuple(BimanualAction.from_tuple(a) for a in actions),
            )
            for entries, _, actions in ref_demos
        ]
        plan = tuple(BimanualAction.from_tuple(a) for a in cand_actions)
        verdict = judge_mod.score_plan(
            plan, demos, Observation(entries=dict(cand_entries)), mode="rubric"
        )
        return judge_mod.verdict_to_json(verdict)


class NoisyArmBackend:
    """Perturbs one arm's single-arm predictions by +/-1 voxel per axis.

    The shift is drawn from a hash of the test observation's object
    entries, so the same scene receives the same perturbation regardless
    of how the prompt was conditioned (dual-agent vs leader-follower).
    """

    def __init__(self, inner, arm: str = "left", seed: int = 0):
        if arm not in ("right", "left"):
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
        parsed = parse_completion(text, arity=7)
        shifted = []
        for action in parsed.actions:
            moved = list(action)
            for axis in range(3):
                moved[axis] = min(99, max(0, moved[axis] + delta[axis]))
            shifted.append(tuple(moved))
        return render_action_list(shifted)


class ChatGateway:
    """Backend wrapper adding retry-on-parse-failure and call accounting."""

    def __init__(self, backend, log: CallLog | None = None):
        self.backend = backend
        self.log = log if log is not None else CallLog()

    def complete_with_record(self, req: ChatRequest, attempt: int = 1):
        """Call the backend once; return its text and the CallRecord for outcome updates."""
        started = time.perf_counter()
        try:
            text = self.backend(req)
        except (TransportError, RequestTimeoutError):
            self.log.append(
                CallRecord(
                    tag=req.tag,
                    prompt_chars=len(req.system) + len(req.user),
                    completion_chars=0,
                    wall_ms=_elapsed_ms(started),
                    attempt=attempt,
                    outcome="transport_fail",
                )
            )
            raise
        record = CallRecord(
            tag=req.tag,
            prompt_chars=len(req.system) + len(req.user),
            completion_chars=len(text),
            wall_ms=_elapsed_ms(started),
            attempt=attempt,
            outcome="ok",
        )
        self.log.append(record)
        return text, record

    def complete_parsed(self, req: ChatRequest, arity: int, max_retries: int = 2) -> ParsedCompletion:
        """Call and parse an action list of 7 or 14 integers per action."""
        return self.complete_and_parse(req, lambda text: parse_completion(text, arity),
                                       max_retries)

    def complete_and_parse(self, req: ChatRequest, parse, max_retries: int = 2):
        """Return ``parse(text)``, reusing the identical prompt on parse failures.

        ``parse`` signals an unusable completion by raising CompletionError;
        each such attempt is recorded as ``parse_fail``. Raises
        ExhaustedRetries after ``max_retries + 1`` failed attempts.
        """
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        attempts = []
        last_error = None
        for attempt in range(1, max_retries + 2):
            text, record = self.complete_with_record(req, attempt=attempt)
            attempts.append(record)
            try:
                return parse(text)
            except CompletionError as exc:
                record.outcome = "parse_fail"
                last_error = exc
        raise ExhaustedRetries(
            f"no parseable completion after {len(attempts)} attempts "
            f"(tag={req.tag!r}): {last_error}",
            records=attempts,
        )


def _elapsed_ms(started: float) -> int:
    return max(0, int(math.floor((time.perf_counter() - started) * 1000)))
