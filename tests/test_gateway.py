import json
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from bimanual_icl.errors import (
    ExhaustedRetries,
    OracleParseError,
    TransportError,
)
from bimanual_icl.gateway import (
    CallLog,
    ChatGateway,
    ChatRequest,
    HttpBackend,
    NoisyArmBackend,
    OracleBackend,
    oracle_nearest_demo,
    request_fingerprint,
)
from bimanual_icl.perception import Observation
from bimanual_icl.prompts import build_single_prompt, parse_completion
from bimanual_icl.testing import FlakyBackend, ScriptedBackend


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

    def test_parsed_first_try(self):
        log = CallLog()
        gw = ChatGateway(lambda r: "[[1,2,3,4,5,6,1]]", log)
        parsed = gw.complete_parsed(req("x"), arity=7, max_retries=3)
        assert parsed.actions == ((1, 2, 3, 4, 5, 6, 1),)
        assert log.count() == 1

    def test_fail_twice_then_succeed(self):
        backend = ScriptedBackend(["nope", "still nope", "[[1,2,3,4,5,6,1]]"])
        log = CallLog()
        gw = ChatGateway(backend, log)
        parsed = gw.complete_parsed(req("x"), arity=7, max_retries=3)
        assert len(parsed.actions) == 1
        records = log.records()
        assert [r.attempt for r in records] == [1, 2, 3]
        assert [r.outcome for r in records] == ["parse_fail", "parse_fail", "ok"]

    def test_exhausted_retries(self):
        backend = lambda r: "garbage"
        log = CallLog()
        gw = ChatGateway(backend, log)
        with pytest.raises(ExhaustedRetries) as excinfo:
            gw.complete_parsed(req("x"), arity=7, max_retries=2)
        assert len(excinfo.value.records) == 3
        assert log.count() == 3

    def test_out_of_range_actions_never_returned(self):
        backend = ScriptedBackend(["[[100,2,3,4,5,6,1]]", "[[1,2,3,4,5,6,1]]"])
        gw = ChatGateway(backend, CallLog())
        parsed = gw.complete_parsed(req("x"), arity=7, max_retries=1)
        assert all(0 <= v <= 99 for v in parsed.actions[0][:3])

    def test_concurrent_accounting(self):
        log = CallLog()
        gw = ChatGateway(lambda r: "[[1,2,3,4,5,6,1]]", log)
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda i: gw.complete_parsed(req(f"u{i}"), 7), range(64)))
        assert log.count() == 64


class TestHttpResponseContent:
    @pytest.mark.parametrize("content", [None, 7, ["[[1, 2, 3, 4, 5, 6, 1]]"]])
    def test_non_text_content_is_a_transport_failure(self, monkeypatch, content):
        body = json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]})
        response = types.SimpleNamespace(status_code=200, text=body,
                                         json=lambda: json.loads(body))
        monkeypatch.setattr("bimanual_icl.gateway.requests.post", lambda *a, **k: response)
        log = CallLog()
        gw = ChatGateway(HttpBackend("http://127.0.0.1:9/v1/chat/completions", "m"), log)
        with pytest.raises(TransportError):
            gw.complete_parsed(req("x"), arity=7)
        assert [r.outcome for r in log.records()] == ["transport_fail"]


class TestOraclePolicy:
    def test_identical_observation_replays_verbatim(self, two_demo_fixture):
        demos, _ = two_demo_fixture
        request = single_arm_prompt(demos, demos[1].observation, arm="right")
        completion = oracle_nearest_demo(request)
        expected = [a.right.as_tuple() for a in demos[1].actions]
        assert parse_completion(completion, 7).actions == tuple(expected)

    def test_offset_translation(self, two_demo_fixture):
        demos, _ = two_demo_fixture
        base = demos[0].observation
        shifted = Observation(entries={
            name: (v[0] + 2, v[1], v[2]) for name, v in base.entries.items()
        })
        request = single_arm_prompt(demos[:1], shifted, arm="right")
        completion = oracle_nearest_demo(request)
        got = parse_completion(completion, 7).actions
        expected = tuple(
            (a.right.voxel[0] + 2,) + a.right.as_tuple()[1:] for a in demos[0].actions
        )
        assert got == expected

    def test_tie_breaks_to_lower_index(self, two_demo_fixture):
        demos, _ = two_demo_fixture
        twin = [demos[0], demos[0]]
        request = single_arm_prompt(twin, demos[0].observation, arm="right")
        completion = oracle_nearest_demo(request)
        assert parse_completion(completion, 7).actions == tuple(
            a.right.as_tuple() for a in demos[0].actions
        )

    def test_partner_entries_excluded_from_distance(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        from bimanual_icl.prompts import build_follower_prompt

        leader_pred = [a.right for a in demos[0].actions]
        bundle = build_follower_prompt(demos, demos[0].observation, leader_pred)
        request = ChatRequest(system=bundle.system_text, user=bundle.user_text, tag="f")
        completion = oracle_nearest_demo(request)
        assert parse_completion(completion, 7).actions == tuple(
            a.left.as_tuple() for a in demos[0].actions
        )

    def test_clamps_to_valid_range(self, two_demo_fixture):
        demos, _ = two_demo_fixture
        base = demos[1].observation
        shifted = Observation(entries={
            name: (min(99, v[0] + 45), v[1], v[2]) for name, v in base.entries.items()
        })
        request = single_arm_prompt(demos, shifted, arm="right")
        completion = oracle_nearest_demo(request)
        for action in parse_completion(completion, 7).actions:
            assert all(0 <= c <= 99 for c in action[:3])

    def test_rejects_foreign_grammar(self):
        with pytest.raises(OracleParseError):
            oracle_nearest_demo(req("tell me a story"))

    def test_bimanual_arity_translation(self, two_demo_fixture):
        demos, _ = two_demo_fixture
        base = demos[0].observation
        shifted = Observation(entries={
            name: (v[0], v[1] + 3, v[2]) for name, v in base.entries.items()
        })
        bundle = build_single_prompt(demos[:1], shifted, arm_filter="both")
        completion = oracle_nearest_demo(
            ChatRequest(system=bundle.system_text, user=bundle.user_text, tag="sa")
        )
        got = parse_completion(completion, 14).actions
        for row, action in zip(got, demos[0].actions):
            ref = action.as_tuple()
            assert row[1] == ref[1] + 3 and row[8] == ref[8] + 3
            assert row[3:7] == ref[3:7] and row[10:14] == ref[10:14]

    def test_pure_function_across_threads(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        backend = OracleBackend()
        request = single_arm_prompt(demos, test_obs, arm="left")
        with ThreadPoolExecutor(max_workers=8) as pool:
            outputs = set(pool.map(lambda _: backend(request), range(32)))
        assert len(outputs) == 1


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
        leader_pred = [a.right for a in demos[0].actions]
        bundle = build_follower_prompt(demos, test_obs, leader_pred)
        conditioned = ChatRequest(system=bundle.system_text, user=bundle.user_text, tag="f")
        assert backend(plain) == backend(conditioned)


class TestFingerprint:
    def test_distinct_prompts_distinct_keys(self):
        a = request_fingerprint(req("one", system="s"))
        b = request_fingerprint(req("two", system="s"))
        c = request_fingerprint(req("one", system="other"))
        assert len({a, b, c}) == 3
