"""Uniform chat-call interface over an HTTP backend and the scripted oracle.

A backend is any callable mapping a ChatRequest to raw completion text.
The gateway wraps a backend with parse-and-retry plus per-call accounting;
it supports concurrent in-flight calls (best-of-n fan-out, dual-agent
arms), serializing only the accounting appends. Strategies fan calls out to
threads for every backend but one whose class sets ``cpu_bound = True``:
``OracleBackend`` computes its answers, so its calls run one after another
on the episode's thread; ``HttpBackend`` and plain callables fan out.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from urllib.parse import urlsplit, urlunsplit

from .actions import ARM_DIM, VOXELS_PER_AXIS
from .errors import (
    CompletionError,
    ConfigError,
    ExhaustedRetries,
    OracleParseError,
    RequestTimeoutError,
    TransportError,
)
from .perception import nearest_demo_index
from .prompts import (
    JUDGE_SYSTEM,
    parse_completion,
    parse_judge_prompt,
    parse_prompt,
    render_action_list,
)


def check_temperature(value, name: str):
    """Reject a sampling temperature outside [0, inf) where a setting is built."""
    if not 0 <= value < math.inf:  # NaN fails both comparisons
        raise ConfigError(f"{name} must be in [0, inf): {value}")


@dataclass(frozen=True)
class ChatRequest:
    """One [system, user] call with a sampling temperature and a tag, whose last
    ``:`` part names the call's phase (``bon0:leader`` -> ``leader``)."""

    system: str
    user: str
    temperature: float = 0.0
    tag: str = ""

    def __post_init__(self):
        check_temperature(self.temperature, "temperature")


@dataclass
class CallRecord:
    """Accounting entry for one backend round trip."""

    tag: str
    prompt_chars: int
    completion_chars: int
    wall_ms: int
    attempt: int
    outcome: str  # ok | parse_fail | transport_fail | backend_fail (any other raise)


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

    def count(self, tag_prefix: str = "") -> int:
        with self._lock:
            return sum(1 for r in self._records if r.tag.startswith(tag_prefix))


def _post(backend, body: bytes, headers: dict) -> SimpleNamespace:
    """POST ``body`` on a new connection of ``backend``; return status, headers and body."""
    import http.client  # HttpBackend() loaded it, so offline runs never import it
    connection = backend.connect()
    try:
        connection.request("POST", backend.target, body, headers)
        reply = connection.getresponse()
        return SimpleNamespace(status=reply.status, headers=reply.headers, body=reply.read())
    except TimeoutError as exc:
        raise RequestTimeoutError(
            f"no response from {backend.url} within {connection.timeout} s") from exc
    except (OSError, http.client.HTTPException) as exc:
        raise TransportError(f"request to {backend.url} failed: {exc}") from exc
    finally:
        connection.close()


requests = SimpleNamespace(post=_post)  # the name perfbench's tracer wraps, until ROADMAP item 4b


class HttpBackend:
    """Chat-completions HTTP client: POST {model, messages, temperature}, one connection a call.

    Construction checks the URL (a ConfigError names it) and loads ``http.client``; an ``https``
    backend builds one TLS context, as ``http.client`` builds its default, for all its calls.
    A call sends the bearer token in ``api_key_env`` and returns ``choices[0].message.content``.
    """

    def __init__(self, url: str, model: str, api_key_env: str = "OPENAI_API_KEY",
                 timeout: float = 60.0):
        import http.client
        try:
            parts = urlsplit(url)
            parts.port  # noqa: B018 -- raises on a non-numeric or out-of-range port
        except ValueError as exc:
            raise ConfigError(f"malformed chat URL {url}: {exc}") from None
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ConfigError(f"chat URL {url} needs scheme http or https and a host")
        self.url = url
        self.model = model
        self.api_key_env = api_key_env
        self.target = urlunsplit(("", "", parts.path or "/", parts.query, ""))
        if parts.scheme == "http":
            self.connect = partial(http.client.HTTPConnection, parts.netloc, timeout=timeout)
            return
        import ssl
        context = ssl._create_default_https_context()
        context.set_alpn_protocols(["http/1.1"])
        if context.post_handshake_auth is not None:
            context.post_handshake_auth = True
        self.connect = partial(http.client.HTTPSConnection, parts.netloc, timeout=timeout,
                               context=context)

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
        reply = requests.post(self, json.dumps(payload, allow_nan=False).encode("utf-8"),
                              headers)
        excerpt = reply.body[:200].decode("utf-8", "replace")
        if reply.status >= 300:
            raise TransportError(f"HTTP {reply.status} from {self.url}: {excerpt}")
        try:
            content = json.loads(reply.body.decode("utf-8"))["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError, RecursionError) as exc:
            raise TransportError(f"malformed chat response: {excerpt}") from exc
        if not isinstance(content, str):
            raise TransportError(f"chat response carries no text content: {excerpt}")
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

    Picks the in-prompt demo ``perception.nearest_demo_index`` picks (partner
    entries excluded), shifts every action's position components by the
    rounded per-object mean voxel offset, and copies rotation bins and
    gripper bits verbatim.
    """
    demos, (test_entries, _) = parse_prompt(req.user)
    if not demos:
        raise OracleParseError("prompt contains no demonstrations")
    demo_entries, _, actions = demos[nearest_demo_index(demos, test_entries)]

    common = [name for name in test_entries if name in demo_entries]
    if common:
        offset = [
            sum(test_entries[n][axis] - demo_entries[n][axis] for n in common) / len(common)
            for axis in range(3)
        ]
    else:
        offset = [0.0, 0.0, 0.0]
    delta = [int(round(o)) for o in offset]
    return render_action_list([_translated(action, delta) for action in actions])


def _translated(action, delta) -> tuple[int, ...]:
    """Shift each arm's voxel (7 or 14 components) by delta, clamped into the grid;
    a row of any other length is an OracleParseError."""
    if len(action) not in (ARM_DIM, 2 * ARM_DIM):
        raise OracleParseError(f"demo row holds {len(action)} components, not 7 or 14")
    moved, top = list(action), VOXELS_PER_AXIS - 1
    for base in range(0, len(moved), ARM_DIM):
        for axis, d in enumerate(delta):
            v = moved[base + axis] + d
            moved[base + axis] = v if 0 <= v <= top else (0 if v < 0 else top)
    return tuple(moved)


class OracleBackend:
    """Deterministic offline stand-in for the LLM, all roles included.

    Prediction prompts get the nearest-demo policy; judge prompts get the
    deterministic rubric verdict rendered as the JSON the real judge would
    emit. Pure in (system, user), so concurrent use is safe. Its calls hold the
    GIL throughout, so threads would gain nothing: strategies run them inline.
    """

    cpu_bound = True

    def __call__(self, req: ChatRequest) -> str:
        if req.system == JUDGE_SYSTEM:
            return self._judge(req)
        return oracle_nearest_demo(req)

    def _judge(self, req: ChatRequest) -> str:
        from . import judge as judge_mod  # judge imports this module

        ref_demos, (cand_entries, _, cand_actions) = parse_judge_prompt(req.user)
        verdict = judge_mod.score_plan(cand_actions, ref_demos, cand_entries)
        return judge_mod.verdict_to_json(verdict)


class ChatGateway:
    """Backend wrapper adding retry-on-parse-failure and call accounting."""

    def __init__(self, backend, log: CallLog | None = None):
        self.backend = backend
        self.log = log if log is not None else CallLog()

    def complete_with_record(self, req: ChatRequest, attempt: int = 1):
        """Call the backend once; return its text and the CallRecord for outcome updates.
        A backend that raises or returns no str leaves its record too, then the error propagates."""
        record = CallRecord(tag=req.tag, prompt_chars=len(req.system) + len(req.user),
                            completion_chars=0, wall_ms=0, attempt=attempt,
                            outcome="backend_fail")
        started = time.perf_counter()
        try:
            text = self.backend(req)
            if not isinstance(text, str):
                raise TypeError(f"backend returned {type(text).__name__}, not str")
            record.completion_chars, record.outcome = len(text), "ok"
        except TransportError:
            record.outcome = "transport_fail"
            raise
        finally:
            record.wall_ms = int((time.perf_counter() - started) * 1000)  # monotonic: >= 0
            self.log.append(record)
        return text, record

    def complete_parsed(self, req: ChatRequest, arity: int,
                        max_retries: int = 2) -> tuple[tuple[int, ...], ...]:
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
        for attempt in range(1, max_retries + 2):
            text, record = self.complete_with_record(req, attempt=attempt)
            try:
                return parse(text)
            except CompletionError as exc:
                record.outcome = "parse_fail"
                last_error = exc
        raise ExhaustedRetries(
            f"no parseable completion after {max_retries + 1} attempts "
            f"(tag={req.tag!r}): {last_error}",
            phase=req.tag.rpartition(":")[2],
        )

