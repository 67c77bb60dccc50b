"""Span recording from outside the program, and the per-layer metrics.

Spans are recorded by rebinding public names in the module that looks them
up (``runner.spawn``, ``ChatGateway.complete_with_record``, ...), in the
benchmark's worker process only; the package's code is never edited. Each
span holds a name, start, end, parent span and episode id. Spans stay in
memory until the pass ends and are then written out as JSON lines.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import statistics
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)
_EPISODE = contextvars.ContextVar("perfbench_episode", default=None)

RERANK_KINDS = ("best_of_n", "debate_plus_bon")
STRATEGY_KINDS = ("single_agent", "dual_agent", "leader_follower", "arms_debate",
                  "best_of_n", "debate_plus_bon")
GATEWAY_WRAPPER_SPANS = ("gateway.complete_parsed", "gateway.complete_with_record")
STRATEGY_SPANS = ("strategies.run_strategy", "strategies.run_leader_follower",
                  "strategies.run_arms_debate")


class MissingName(RuntimeError):
    """A name the tracer must wrap no longer exists in the program."""


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "episode", "attrs")

    def __init__(self, sid, name, parent, episode):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.episode = episode
        self.attrs = {}
        self.start = perf_counter()
        self.end = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    def to_json(self) -> dict:
        attrs = {k: v for k, v in self.attrs.items() if not k.startswith("_")}
        return {"id": self.sid, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "episode": self.episode, **attrs}


class _ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks inherit the submitter's span, so fan-out keeps parents."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class _RequestsProxy:
    """Stands in for the ``requests`` module inside ``gateway``.

    Records the delay the loopback stub reports for each call on the
    enclosing backend span; every other attribute is the real module's.
    """

    def __init__(self, real):
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)

    def post(self, *args, **kwargs):
        resp = self._real.post(*args, **kwargs)
        span = _CURRENT.get()
        if span is not None:
            span.attrs["stub_delay_ms"] = float(resp.headers.get("X-Stub-Delay-Ms", "nan"))
        return resp


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()

    def wrap(self, owner, attr: str, name: str, on_call=None, on_return=None,
             episode_of=None):
        """Replace ``owner.attr`` by a wrapper that records a span named ``name``.

        ``on_call(span, args, kwargs)`` and ``on_return(span, result)`` attach
        attributes; ``episode_of(args)`` opens a new episode id.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            raise MissingName(f"{getattr(owner, '__name__', owner)}.{attr} no longer exists")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            episode_token = None
            if episode_of is not None:
                episode_token = _EPISODE.set(episode_of(args))
            parent = _CURRENT.get()
            span = Span(next(self._ids), name, parent.sid if parent else None, _EPISODE.get())
            if on_call is not None:
                on_call(span, args, kwargs)
            token = _CURRENT.set(span)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = True
                raise
            finally:
                span.end = perf_counter()
                _CURRENT.reset(token)
                if episode_token is not None:
                    _EPISODE.reset(episode_token)
                self.spans.append(span)
            if on_return is not None:
                on_return(span, result)
            return result

        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap each layer's public entry points where the caller looks them up."""
        from bimanual_icl import bench, gateway, judge, runner, strategies

        wrap = self.wrap
        wrap(runner, "_run_episode", "runner.episode",
             episode_of=lambda a: "/".join(str(v) for v in a[3:7]))
        wrap(runner, "build_store", "runner.build_store")
        wrap(runner, "spawn", "bench.spawn")
        wrap(runner, "scripted_expert", "bench.scripted_expert")
        wrap(runner, "execute", "bench.execute")
        wrap(runner, "sample_batch", "demos.sample_batch")
        wrap(runner, "load_demo_dir", "demos.load_demo_dir")
        wrap(runner, "run_strategy", "strategies.run_strategy",
             on_call=lambda s, a, k: s.attrs.__setitem__("kind", a[0]))
        wrap(bench, "synthetic_clouds", "bench.synthetic_clouds")
        wrap(bench, "build_observation", "perception.build_observation")

        def prompt_chars(span, bundle):
            span.attrs["chars"] = len(bundle.system_text) + len(bundle.user_text)

        for fn in ("build_single_prompt", "build_conditioned_prompt", "build_follower_prompt"):
            wrap(strategies, fn, "prompts.render", on_return=prompt_chars)
        wrap(judge, "build_judge_prompt", "prompts.render", on_return=prompt_chars)

        def candidate_key(span, plan):
            span.attrs["_key"] = id(plan.actions)

        wrap(strategies, "run_leader_follower", "strategies.run_leader_follower",
             on_return=candidate_key)
        wrap(strategies, "run_arms_debate", "strategies.run_arms_debate",
             on_return=candidate_key)
        if not isinstance(getattr(strategies, "ThreadPoolExecutor", None), type):
            raise MissingName("strategies.ThreadPoolExecutor no longer exists")
        strategies.ThreadPoolExecutor = _ContextPool

        wrap(judge.PlanJudge, "score", "judge.score",
             on_call=lambda s, a, k: s.attrs.__setitem__("_key", id(a[1])))
        wrap(judge, "score_plan", "judge.score_plan",
             on_call=lambda s, a, k: s.attrs.__setitem__("mode", k.get("mode", "rubric")))

        def keep_record(span, result):
            span.attrs["_record"] = result[1]

        wrap(gateway.ChatGateway, "complete_parsed", "gateway.complete_parsed")
        wrap(gateway.ChatGateway, "complete_with_record", "gateway.complete_with_record",
             on_return=keep_record)
        wrap(gateway.OracleBackend, "__call__", "gateway.backend")
        wrap(gateway.HttpBackend, "__call__", "gateway.backend",
             on_call=lambda s, a, k: s.attrs.__setitem__("http", True))
        wrap(gateway, "oracle_nearest_demo", "gateway.oracle_predict")
        wrap(gateway.OracleBackend, "_judge", "gateway.oracle_judge")
        wrap(gateway, "parse_completion", "prompts.parse_completion")
        if getattr(gateway, "requests", None) is None:
            raise MissingName("gateway.requests no longer exists")
        gateway.requests = _RequestsProxy(gateway.requests)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


def _union_ms(intervals, lo, hi) -> float:
    """Length of the union of [start, end] intervals clipped to [lo, hi], in ms."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total * 1000.0


def self_ms(span: Span, children) -> float:
    """The span's duration minus the part of it that its child spans cover."""
    return span.ms - _union_ms([(c.start, c.end) for c in children], span.start, span.end)


def _max_overlap(spans) -> int:
    events = sorted([(s.start, 1) for s in spans] + [(s.end, -1) for s in spans],
                    key=lambda e: (e[0], e[1]))
    level = peak = 0
    for _, delta in events:
        level += delta
        peak = max(peak, level)
    return peak


def layer_metrics(spans, wall_s: float, workers: int) -> dict:
    """Per-layer metrics of one pass over the grid, from its spans."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def busy(name, pred=None):
        return sum(s.ms for s in named(name) if pred is None or pred(s))

    def self_sum(names):
        return sum(self_ms(s, children.get(s.sid, ())) for n in names for s in named(n))

    calls = [s.attrs.get("_record") for s in named("gateway.complete_with_record")]
    outcomes = ["transport_fail" if r is None else r.outcome for r in calls]
    attempts = len(outcomes)
    http = [s for s in named("gateway.backend") if s.attrs.get("http")]
    overheads = [s.ms - s.attrs["stub_delay_ms"] for s in http]
    if any(o != o for o in overheads):
        raise MissingName("an HTTP response carried no X-Stub-Delay-Ms header")

    plan_ms = {kind: [] for kind in STRATEGY_KINDS}
    rerank_waits = []
    for span in named("strategies.run_strategy"):
        kind = span.attrs["kind"]
        plan_ms.setdefault(kind, []).append(span.ms)
        if kind in RERANK_KINDS and "error" not in span.attrs:
            kids = children.get(span.sid, ())
            per_candidate: dict[int, float] = {}
            for kid in kids:
                if kid.name in ("strategies.run_leader_follower", "strategies.run_arms_debate",
                                "judge.score") and "_key" in kid.attrs:
                    key = kid.attrs["_key"]
                    per_candidate[key] = per_candidate.get(key, 0.0) + kid.ms
            if per_candidate:
                rerank_waits.append(span.ms - max(per_candidate.values()))

    runner_self = 0.0
    if workers == 1:
        top = [s for s in spans if s.parent is None]
        uncovered = wall_s * 1000.0 - _union_ms([(s.start, s.end) for s in top],
                                                float("-inf"), float("inf"))
        runner_self = uncovered + self_sum(("runner.episode", "runner.build_store"))

    metrics = {
        "perception.build_observation.calls": len(named("perception.build_observation")),
        "perception.build_observation.busy_ms": busy("perception.build_observation"),
        "bench.spawn.calls": len(named("bench.spawn")),
        "bench.spawn.self_ms": self_sum(("bench.spawn",)),
        "bench.synthetic_clouds.busy_ms": busy("bench.synthetic_clouds"),
        "bench.scripted_expert.busy_ms": busy("bench.scripted_expert"),
        "bench.execute.busy_ms": busy("bench.execute"),
        "demos.sample_batch.busy_ms": busy("demos.sample_batch"),
        "demos.load_demo_dir.busy_ms": busy("demos.load_demo_dir"),
        "prompts.render.calls": len(named("prompts.render")),
        "prompts.render.busy_ms": busy("prompts.render"),
        "prompts.render.kchars": sum(s.attrs.get("chars", 0) for s in named("prompts.render")) / 1000.0,
        "prompts.parse_completion.busy_ms": busy("prompts.parse_completion"),
        "gateway.calls.ok": outcomes.count("ok"),
        "gateway.calls.parse_fail": outcomes.count("parse_fail"),
        "gateway.calls.transport_fail": outcomes.count("transport_fail"),
        "gateway.useful_call_ratio": outcomes.count("ok") / attempts if attempts else 0.0,
        "gateway.backend.busy_ms": busy("gateway.backend"),
        "gateway.self_ms": self_sum(GATEWAY_WRAPPER_SPANS),
        "gateway.oracle_predict.busy_ms": busy("gateway.oracle_predict"),
        "gateway.oracle_judge.busy_ms": busy("gateway.oracle_judge"),
        "gateway.http_overhead_ms_per_call": statistics.fmean(overheads) if overheads else 0.0,
        "gateway.inflight_max": _max_overlap(named("gateway.backend")),
        "strategies.self_ms": self_sum(STRATEGY_SPANS),
        **{f"strategies.{kind}.plan_p50_ms": statistics.median(v) if v else 0.0
           for kind, v in plan_ms.items()},
        "strategies.rerank_wait_ms": statistics.fmean(rerank_waits) if rerank_waits else 0.0,
        "judge.score.calls": len(named("judge.score")),
        "judge.score.busy_ms": busy("judge.score"),
        "judge.rubric.busy_ms": busy("judge.score_plan", lambda s: s.attrs["mode"] == "rubric"),
        "runner.build_store.busy_ms": busy("runner.build_store"),
        "runner.self_ms": runner_self,
    }
    return metrics
