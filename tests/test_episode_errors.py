"""Hostile replies end an episode as one of ``errors.EPISODE_ERRORS``.

Every strategy in both judge modes runs one episode against a backend whose
reply to each call is drawn from the families a model or a transport may send
back. ``run_strategy`` followed by ``execute`` either returns or raises one of
the named episode errors, and the call log holds one record per attempt whose
outcome is the one the drawn reply must get.
"""

import json
import threading
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bimanual_icl.bench import DEFAULT_TASKS, execute, spawn
from bimanual_icl.demos import sample_batch
from bimanual_icl.errors import EPISODE_ERRORS, RequestTimeoutError, TransportError
from bimanual_icl.gateway import CallLog, ChatGateway, OracleBackend
from bimanual_icl.judge import JUDGE_MODES, PlanJudge
from bimanual_icl.runner import generate_dataset
from bimanual_icl.strategies import STRATEGY_KINDS, StrategyConfig, run_strategy

ORACLE = OracleBackend()
VALID = object()  # answer with the oracle's reply, which every parser accepts
CONFIG = StrategyConfig(n_candidates=2, max_retries=1)


def _row(values):
    return json.dumps([values])


# Replies that no parser accepts, neither as an action list of 7 or 14 integers
# nor as a verdict: each such attempt must be recorded as a parse failure.
_wrong_arity = st.builds(
    lambda n, rows: json.dumps([[1] * n] * rows),
    st.integers(1, 20).filter(lambda n: n not in (7, 14)), st.integers(1, 3))
_out_of_range = st.builds(
    lambda k, value: _row([value if i == k else 1 for i in range(7)]),
    st.integers(0, 6), st.integers(100, 10**40) | st.integers(-10**40, -1))
_not_integers = st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "1.5", "true"]).map(
    lambda token: f"[[1, 2, {token}, 4, 5, 6, 1]]")
_too_many_digits = st.integers(4_301, 6_000).map(lambda n: f"[[{'1' * n}]]")
_brackets = st.builds(
    lambda shape, n: {"unclosed": "[" * n, "deep": "[" * n + "1" + "]" * n,
                      "closing": "]" * n + "[" * n, "strings": '["[", ' * n}[shape],
    st.sampled_from(["unclosed", "deep", "closing", "strings"]), st.integers(1, 3_000))
_junk = st.text(st.characters(exclude_characters="[]{}"), max_size=60)
_odd_verdicts = st.builds(
    lambda key, value: json.dumps({"check1": 1, "check2": 1, "check3": 0, "check4": 0,
                                   key: value, "score": 5}),
    st.sampled_from(["check1", "check2", "check3", "check4"]),
    st.sampled_from([2, -2, 1.0, True, None, "1.5", "yes", "+2: far", 10**30]))

_replies = st.one_of(
    _wrong_arity, _out_of_range, _not_integers, _too_many_digits, _brackets, _junk,
    st.just(""), _odd_verdicts, st.sampled_from([TransportError, RequestTimeoutError]),
    st.just(VALID),
)


class DrawnReplies:
    """Answers the k-th call with the k-th drawn reply, and as the oracle once they
    run out; notes for each call the record it must leave (tag, outcome, chars)."""

    def __init__(self, replies, cpu_bound: bool):
        self.replies = list(replies)
        self.cpu_bound = cpu_bound  # False: strategies fan this backend out to threads
        self.expected = []
        self._lock = threading.Lock()

    def __call__(self, req):
        with self._lock:
            k = len(self.expected)
            reply = self.replies[k] if k < len(self.replies) else VALID
            if isinstance(reply, type):  # a transport fault class
                self.expected.append((req.tag, "transport_fail", 0))
                raise reply(f"drawn fault on call {k}")
            text = ORACLE(req) if reply is VALID else reply
            self.expected.append((req.tag, "ok" if reply is VALID else "parse_fail", len(text)))
        return text


@lru_cache(maxsize=None)
def _episode_inputs():
    task = DEFAULT_TASKS["handover"]
    world = spawn(task, seed=11)
    return world, sample_batch(generate_dataset("handover", 8, 0), 4, seed=0)


@pytest.mark.parametrize("judge_mode", JUDGE_MODES)
@pytest.mark.parametrize("kind", STRATEGY_KINDS)
@settings(max_examples=25)
@given(replies=st.lists(_replies, max_size=24), threaded=st.booleans())
def test_hostile_replies_end_as_episode_errors(kind, judge_mode, replies, threaded):
    world, batch = _episode_inputs()
    backend = DrawnReplies(replies, cpu_bound=not threaded)
    log = CallLog()
    gateway = ChatGateway(backend, log)
    judge = PlanJudge(mode=judge_mode, gateway=gateway, max_retries=CONFIG.max_retries)
    try:
        plan = run_strategy(kind, gateway, batch, world.observation, CONFIG, judge=judge)
        execute(world, plan.actions)
    except EPISODE_ERRORS:
        pass
    records = log.records()
    assert all(1 <= r.attempt <= CONFIG.max_retries + 1 for r in records)
    assert Counter((r.tag, r.outcome, r.completion_chars) for r in records) == \
        Counter(backend.expected)
