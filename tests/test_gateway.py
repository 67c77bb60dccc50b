import json
import os
import subprocess
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import bimanual_icl
from bimanual_icl.bench import DEFAULT_TASKS, scripted_expert, spawn
from bimanual_icl.errors import (
    ConfigError,
    ExhaustedRetries,
    OracleParseError,
    TransportError,
)
from bimanual_icl.gateway import (
    CallLog,
    ChatGateway,
    ChatRequest,
    HttpBackend,
    OracleBackend,
    oracle_nearest_demo,
    request_fingerprint,
)
from bimanual_icl.judge import PlanJudge
from bimanual_icl.prompts import build_single_prompt, parse_completion
from doubles import FlakyBackend, NoisyArmBackend, ScriptedBackend


def req(user, system="sys", tag="t"):
    return ChatRequest(system=system, user=user, tag=tag)


def single_arm_prompt(demos, test_obs, arm="right"):
    bundle = build_single_prompt(demos, test_obs, arm_filter=arm)
    return ChatRequest(system=bundle.system_text, user=bundle.user_text, tag=arm)


class TestScriptedBackends:
    def test_scripted_sequence(self):
        backend = ScriptedBackend(["a", "b"])
        assert backend(req("x")) == "a"
        assert backend(req("x")) == "b"
        with pytest.raises(TransportError):
            backend(req("x"))

    def test_callable_backend(self):
        gw = ChatGateway(lambda r: r.user.upper(), CallLog())
        assert gw.complete_with_record(req("hello"))[0] == "HELLO"

    def test_flaky_backend_is_per_prompt(self):
        inner = lambda r: "[[1,2,3,4,5,6,1]]"
        backend = FlakyBackend(inner, failures=2)
        a, b = req("one"), req("two")
        texts = [backend(a), backend(a), backend(a), backend(b)]
        assert texts[0] == texts[1] == "sorry, no plan today"
        assert texts[2] == "[[1,2,3,4,5,6,1]]"
        assert texts[3] == "sorry, no plan today"


class TestGatewayAccounting:
    def test_complete_records_ok(self):
        log = CallLog()
        gw = ChatGateway(lambda r: "out", log)
        text = gw.complete_with_record(req("abc", system="sy", tag="leader"))[0]
        assert text == "out"
        record = log.records()[0]
        assert record.tag == "leader"
        assert record.prompt_chars == len("sy") + len("abc")
        assert record.completion_chars == 3
        assert record.attempt == 1
        assert record.outcome == "ok"

    def test_transport_failure_recorded(self):
        def boom(r):
            raise TransportError("down")

        log = CallLog()
        gw = ChatGateway(boom, log)
        with pytest.raises(TransportError):
            gw.complete_with_record(req("x"))
        assert log.records()[0].outcome == "transport_fail"

    def test_other_backend_error_recorded_and_reraised(self):
        error = OracleParseError("not a prompt")

        def boom(r):
            raise error

        log = CallLog()
        gw = ChatGateway(boom, log)
        with pytest.raises(OracleParseError) as excinfo:
            gw.complete_with_record(req("x", tag="lf:follower"), attempt=2)
        assert excinfo.value is error
        assert [(r.tag, r.attempt, r.outcome) for r in log.records()] == \
            [("lf:follower", 2, "backend_fail")]

    def test_a_reply_that_is_not_text_is_recorded_and_raises(self):
        log = CallLog()
        gw = ChatGateway(lambda r: None, log)
        with pytest.raises(TypeError):
            gw.complete_with_record(req("x", tag="lf:leader"))
        assert [(r.tag, r.attempt, r.outcome, r.completion_chars) for r in log.records()] == \
            [("lf:leader", 1, "backend_fail", 0)]

    def test_parsed_first_try(self):
        log = CallLog()
        gw = ChatGateway(lambda r: "[[1,2,3,4,5,6,1]]", log)
        parsed = gw.complete_parsed(req("x"), arity=7, max_retries=3)
        assert parsed == ((1, 2, 3, 4, 5, 6, 1),)
        assert log.count() == 1

    def test_fail_twice_then_succeed(self):
        backend = ScriptedBackend(["nope", "still nope", "[[1,2,3,4,5,6,1]]"])
        log = CallLog()
        gw = ChatGateway(backend, log)
        parsed = gw.complete_parsed(req("x"), arity=7, max_retries=3)
        assert len(parsed) == 1
        records = log.records()
        assert [r.attempt for r in records] == [1, 2, 3]
        assert [r.outcome for r in records] == ["parse_fail", "parse_fail", "ok"]

    def test_exhausted_retries(self):
        backend = lambda r: "garbage"
        log = CallLog()
        gw = ChatGateway(backend, log)
        with pytest.raises(ExhaustedRetries):
            gw.complete_parsed(req("x"), arity=7, max_retries=2)
        assert [(r.attempt, r.outcome) for r in log.records()] == \
            [(1, "parse_fail"), (2, "parse_fail"), (3, "parse_fail")]
        assert log.count() == 3

    @pytest.mark.parametrize("tag, phase", [
        ("x", "x"), ("single", "single"), ("dual:left", "left"),
        ("bon2:follower", "follower"), ("a:b:c", "c"), ("", ""),
    ])
    def test_exhausted_retries_name_the_tag_s_last_part_as_phase(self, tag, phase):
        gw = ChatGateway(lambda r: "garbage", CallLog())
        with pytest.raises(ExhaustedRetries) as excinfo:
            gw.complete_parsed(req("x", tag=tag), arity=7, max_retries=0)
        assert excinfo.value.phase == phase

    def test_out_of_range_actions_never_returned(self):
        backend = ScriptedBackend(["[[100,2,3,4,5,6,1]]", "[[1,2,3,4,5,6,1]]"])
        gw = ChatGateway(backend, CallLog())
        parsed = gw.complete_parsed(req("x"), arity=7, max_retries=1)
        assert all(0 <= v <= 99 for v in parsed[0][:3])

    def test_concurrent_accounting(self):
        log = CallLog()
        gw = ChatGateway(lambda r: "[[1,2,3,4,5,6,1]]", log)
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda i: gw.complete_parsed(req(f"u{i}"), 7), range(64)))
        assert log.count() == 64


class TestTemperatureCheckedWhereBuilt:
    """The library constructors reject the temperatures that StrategyConfig and
    RunConfig.validate reject (tests in test_strategies and test_runner_cli)."""

    BUILDERS = {
        "ChatRequest": lambda t: ChatRequest(system="s", user="u", temperature=t),
        "PlanJudge": lambda t: PlanJudge(temperature=t),
    }

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), -0.5])
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_non_finite_or_negative_is_a_config_error(self, builder, temperature):
        with pytest.raises(ConfigError, match=r"temperature must be in \[0, inf\)"):
            self.BUILDERS[builder](temperature)

    @pytest.mark.parametrize("temperature", [0, 0.0, 0.7, 2])
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_finite_non_negative_is_accepted(self, builder, temperature):
        self.BUILDERS[builder](temperature)


class TestHttpResponseContent:
    @pytest.mark.parametrize("content", [None, 7, ["[[1, 2, 3, 4, 5, 6, 1]]"]])
    def test_non_text_content_is_a_transport_failure(self, monkeypatch, content):
        body = json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]})
        response = types.SimpleNamespace(status=200, headers={}, body=body.encode())
        monkeypatch.setattr("bimanual_icl.gateway.requests.post", lambda *a, **k: response)
        log = CallLog()
        gw = ChatGateway(HttpBackend("http://127.0.0.1:9/v1/chat/completions", "m"), log)
        with pytest.raises(TransportError):
            gw.complete_parsed(req("x"), arity=7)
        assert [r.outcome for r in log.records()] == ["transport_fail"]


def run_python(code: str) -> str:
    """Run code in a fresh interpreter that imports this package; return its stdout."""
    src = str(Path(bimanual_icl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True, timeout=60)
    return out.stdout.strip()


# requests and urllib3 with every submodule, and the standard library's client.
_HTTP_STACK = ("; print(sorted(m for m in sys.modules if m.split('.')[0] in "
               "('requests', 'urllib3') or m in ('http.client', 'ssl')))")

_OFFLINE_PATHS = [
    "import sys, bimanual_icl",
    "import sys, bimanual_icl.cli",
    "import sys; from bimanual_icl.runner import RunConfig, run_experiment; "
    "run_experiment(RunConfig(tasks=['handover'], strategies=['single_agent', 'best_of_n'], "
    "episodes=1, store_size=4, n_demos=2, n_candidates=2))",
]
_BUILD_HTTP = ("import sys; from bimanual_icl.gateway import ChatRequest, HttpBackend; "
               "backend = HttpBackend(URL, 'm')")


class TestOnlyHttpLoadsAnHttpClient:
    """No offline path loads ``requests``, ``urllib3``, ``http.client`` or ``ssl``."""

    @pytest.mark.parametrize("code, loaded", [
        *((code, "[]") for code in _OFFLINE_PATHS),
        (_BUILD_HTTP, "['http.client', 'ssl']"),
        (_BUILD_HTTP + "; assert backend(ChatRequest('s', 'u')) == '[[1, 2, 3, 4, 5, 6, 1]]'",
         "['http.client', 'ssl']"),
    ], ids=["package", "cli", "oracle-grid", "build-http-backend", "http-call"])
    def test_only_the_http_backend_loads_the_standard_library_client(self, stub_server, code,
                                                                     loaded):
        url = f"http://127.0.0.1:{stub_server.server_address[1]}/v1/chat/completions"
        assert run_python(code.replace("URL", repr(url)) + _HTTP_STACK) == loaded
        assert len(stub_server.requests) == code.count("backend(ChatRequest")

    def test_installing_the_tracer_loads_no_http_client(self):
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        code = (f"import sys; sys.path.insert(0, {str(perfbench)!r}); import spans; "
                "spans.Tracer().install(); from bimanual_icl import gateway; "
                "assert isinstance(gateway.requests, spans._RequestsProxy)")
        assert run_python(code + _HTTP_STACK) == "[]"


class TestOracleRunStaysOnOneThread:
    def test_an_oracle_grid_starts_no_thread_and_loads_no_numpy_ma(self):
        code = ("import sys, threading; started = []; start = threading.Thread.start; "
                "threading.Thread.start = lambda t: (started.append(t.name), start(t)); "
                "from bimanual_icl.runner import RunConfig, run_experiment; "
                "run_experiment(RunConfig(tasks=['handover'], "
                "strategies=['dual_agent', 'best_of_n'], episodes=2, store_size=4, n_demos=2, "
                "n_candidates=2, judge_mode='llm')); "
                "print('numpy.ma' in sys.modules, threading.active_count(), started)")
        assert run_python(code) == "False 1 []"


class TestOraclePolicy:
    def test_identical_observation_replays_verbatim(self, two_demo_fixture):
        demos, _ = two_demo_fixture
        request = single_arm_prompt(demos, demos[1].observation, arm="right")
        completion = oracle_nearest_demo(request)
        expected = [a[:7] for a in demos[1].actions]
        assert parse_completion(completion, 7) == tuple(expected)

    def test_offset_translation(self, two_demo_fixture):
        demos, _ = two_demo_fixture
        base = demos[0].observation
        shifted = {name: (v[0] + 2, v[1], v[2]) for name, v in base.items()}
        request = single_arm_prompt(demos[:1], shifted, arm="right")
        completion = oracle_nearest_demo(request)
        got = parse_completion(completion, 7)
        expected = tuple(
            (a[0] + 2,) + a[1:7] for a in demos[0].actions
        )
        assert got == expected

    def test_tie_breaks_to_lower_index(self, two_demo_fixture):
        demos, _ = two_demo_fixture
        twin = [demos[0], demos[0]]
        request = single_arm_prompt(twin, demos[0].observation, arm="right")
        completion = oracle_nearest_demo(request)
        assert parse_completion(completion, 7) == tuple(
            a[:7] for a in demos[0].actions
        )

    def test_partner_entries_excluded_from_distance(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        from bimanual_icl.prompts import build_follower_prompt

        leader_pred = [a[:7] for a in demos[0].actions]
        bundle = build_follower_prompt(demos, demos[0].observation, leader_pred)
        request = ChatRequest(system=bundle.system_text, user=bundle.user_text, tag="f")
        completion = oracle_nearest_demo(request)
        assert parse_completion(completion, 7) == tuple(
            a[7:] for a in demos[0].actions
        )

    def test_clamps_to_valid_range(self, two_demo_fixture):
        demos, _ = two_demo_fixture
        base = demos[1].observation
        shifted = {name: (min(99, v[0] + 45), v[1], v[2]) for name, v in base.items()}
        request = single_arm_prompt(demos, shifted, arm="right")
        completion = oracle_nearest_demo(request)
        for action in parse_completion(completion, 7):
            assert all(0 <= c <= 99 for c in action[:3])

    def test_rejects_foreign_grammar(self):
        with pytest.raises(OracleParseError):
            oracle_nearest_demo(req("tell me a story"))

    def test_bimanual_arity_translation(self, two_demo_fixture):
        demos, _ = two_demo_fixture
        base = demos[0].observation
        shifted = {name: (v[0], v[1] + 3, v[2]) for name, v in base.items()}
        bundle = build_single_prompt(demos[:1], shifted, arm_filter="both")
        completion = oracle_nearest_demo(
            ChatRequest(system=bundle.system_text, user=bundle.user_text, tag="sa")
        )
        got = parse_completion(completion, 14)
        for row, ref in zip(got, demos[0].actions):
            assert row[1] == ref[1] + 3 and row[8] == ref[8] + 3
            assert row[3:7] == ref[3:7] and row[10:14] == ref[10:14]

    def test_pure_function_across_threads(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        backend = OracleBackend()
        request = single_arm_prompt(demos, test_obs, arm="left")
        with ThreadPoolExecutor(max_workers=8) as pool:
            outputs = set(pool.map(lambda _: backend(request), range(32)))
        assert len(outputs) == 1


_PLAN_ROW = "[[10, 20, 30, 36, 36, 0, 1, 80, 20, 30, 36, 36, 0, 1]]"


class TestOracleJudge:
    def test_judge_prompt_answered_with_rubric_json(self, two_demo_fixture):
        from bimanual_icl.prompts import build_judge_prompt

        demos, test_obs = two_demo_fixture
        bundle = build_judge_prompt(demos, demos[0].observation, demos[0].actions)
        backend = OracleBackend()
        text = backend(ChatRequest(system=bundle.system_text, user=bundle.user_text, tag="judge"))
        verdict = json.loads(text)
        assert set(verdict) == {"check1", "check2", "check3", "check4", "score"}
        assert verdict["score"] == 5  # a demo judged against its own batch

    @pytest.mark.parametrize("task_name", sorted(DEFAULT_TASKS))
    def test_verdict_equals_the_rubric_on_the_plan_in_memory(self, task_name):
        from bimanual_icl.judge import score_plan, verdict_to_json
        from bimanual_icl.prompts import build_judge_prompt

        task = DEFAULT_TASKS[task_name]
        demos = [scripted_expert(task, spawn(task, seed=k)) for k in range(4)]
        test = scripted_expert(task, spawn(task, seed=99))
        expert = test.actions
        plans = [
            expert,
            tuple(a[7:] + a[:7] for a in expert),  # arms swapped
            tuple(a[:6] + (1,) + a[7:13] + (1,) for a in expert),  # grippers never close
            tuple((min(99, a[0] + 20),) + a[1:] for a in expert),  # right arm off target
            expert[::-1],
        ]
        scores = []
        for plan in plans:
            bundle = build_judge_prompt(demos, test.observation, plan)
            text = OracleBackend()(ChatRequest(system=bundle.system_text, user=bundle.user_text))
            expected = score_plan(plan, demos, test.observation)
            assert text == verdict_to_json(expected)
            scores.append(expected.score)
        assert min(scores) < 5

    def test_empty_reference_action_list_is_a_parse_error(self):
        from bimanual_icl.prompts import JUDGE_CANDIDATE_HEADER, JUDGE_REFS_HEADER, JUDGE_SYSTEM

        plan = "[[10, 20, 30, 36, 36, 0, 1, 80, 20, 30, 36, 36, 0, 1]]"
        user = (f"{JUDGE_REFS_HEADER}{{'a': [1, 2, 3]}}>[]"
                f"{JUDGE_CANDIDATE_HEADER}{{'a': [1, 2, 3]}}>{plan}")
        with pytest.raises(OracleParseError, match="action list is empty"):
            OracleBackend()(ChatRequest(system=JUDGE_SYSTEM, user=user, tag="judge"))

    @pytest.mark.parametrize("reference, candidate", [
        ("[[]]", _PLAN_ROW),  # an empty reference row
        ("[[10, 20, 30, 36, 36, 0, 1]]", _PLAN_ROW),  # a 7-int reference row
        (_PLAN_ROW, "[[10, 20, 30, 36, 36, 0, 1]]"),  # a 7-int candidate row
    ])
    def test_rows_other_than_fourteen_ints_are_a_parse_error(self, reference, candidate):
        from bimanual_icl.prompts import JUDGE_CANDIDATE_HEADER, JUDGE_REFS_HEADER, JUDGE_SYSTEM

        user = (f"{JUDGE_REFS_HEADER}{{'a': [1, 2, 3]}}>{reference}"
                f"{JUDGE_CANDIDATE_HEADER}{{'a': [1, 2, 3]}}>{candidate}")
        with pytest.raises(OracleParseError, match="not 14"):
            OracleBackend()(ChatRequest(system=JUDGE_SYSTEM, user=user, tag="judge"))


class TestNoisyArmBackend:
    def test_only_target_arm_is_perturbed(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        backend = NoisyArmBackend(OracleBackend(), arm="left", seed=0)
        right = single_arm_prompt(demos, test_obs, arm="right")
        left = single_arm_prompt(demos, test_obs, arm="left")
        assert backend(right) == OracleBackend()(right)
        assert backend(left) != OracleBackend()(left)

    def test_same_scene_same_noise_regardless_of_conditioning(self, two_demo_fixture):
        from bimanual_icl.prompts import build_follower_prompt

        demos, test_obs = two_demo_fixture
        backend = NoisyArmBackend(OracleBackend(), arm="left", seed=0)
        plain = single_arm_prompt(demos, test_obs, arm="left")
        leader_pred = [a[:7] for a in demos[0].actions]
        bundle = build_follower_prompt(demos, test_obs, leader_pred)
        conditioned = ChatRequest(system=bundle.system_text, user=bundle.user_text, tag="f")
        assert backend(plain) == backend(conditioned)


class TestFingerprint:
    def test_distinct_prompts_distinct_keys(self):
        a = request_fingerprint(req("one", system="s"))
        b = request_fingerprint(req("two", system="s"))
        c = request_fingerprint(req("one", system="other"))
        assert len({a, b, c}) == 3
