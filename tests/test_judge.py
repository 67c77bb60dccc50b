import itertools
import json

import pytest

from bimanual_icl.errors import ConfigError, JudgeParseError
from bimanual_icl.gateway import CallLog, ChatGateway, ChatRequest, oracle_nearest_demo
from bimanual_icl.judge import (
    JudgeVerdict,
    PlanJudge,
    check_collision,
    check_demo_match,
    check_gripper,
    check_workspace,
    clamp_score,
    nearest_demo_index,
    parse_verdict,
    score_plan,
    verdict_to_json,
)
from bimanual_icl.prompts import build_single_prompt, parse_completion
from conftest import make_demo
from doubles import ScriptedBackend


def plan_of(waypoints):
    """[(right_xyz_g, left_xyz_g), ...] -> action tuple."""
    return make_demo({"o": (50, 50, 50)}, waypoints).actions


BASE_ENTRIES = {"o": (50, 50, 31)}


def base_demo():
    # right works high-x, left low-x, clean z dip and one close each
    return make_demo(
        BASE_ENTRIES,
        [
            ((60, 50, 40, 1), (30, 50, 40, 1)),
            ((60, 50, 31, 0), (30, 50, 31, 0)),
            ((60, 50, 45, 0), (30, 50, 45, 0)),
        ],
    )


class TestCheckCollision:
    def test_pinned_far_apart(self):
        plan = plan_of([((10, 10, 10, 1), (90, 90, 90, 1))] * 3)
        assert check_collision(plan)[0] == 1

    def test_both_moving_close(self):
        plan = plan_of([
            ((0, 0, 0, 1), (8, 8, 8, 1)),
            ((5, 5, 5, 1), (10, 10, 10, 1)),  # dist sqrt(75) < 10, both moved
        ])
        assert check_collision(plan)[0] == -1

    def test_step_zero_counts_as_moving(self):
        plan = plan_of([((50, 50, 50, 1), (52, 50, 50, 1))])
        assert check_collision(plan)[0] == -1

    def test_stationary_arm_suppresses_risk(self):
        plan = plan_of([
            ((20, 50, 50, 1), (48, 50, 50, 1)),  # far at step 0
            ((51, 50, 50, 1), (48, 50, 50, 1)),  # dist 3, left stationary
        ])
        assert check_collision(plan)[0] == 1


class TestCheckDemoMatch:
    def test_verbatim_demo_matches(self):
        demo = base_demo()
        assert check_demo_match(demo.actions, demo, 0)[0] == 1

    def test_first_action_offset_six_fails(self):
        demo = base_demo()
        plan = make_demo(
            BASE_ENTRIES,
            [
                ((66, 50, 40, 1), (30, 50, 40, 1)),
                ((66, 50, 31, 0), (30, 50, 31, 0)),
                ((66, 50, 45, 0), (30, 50, 45, 0)),
            ],
        ).actions
        assert check_demo_match(plan, demo, 0)[0] == -1

    def test_z_shape_mismatch_fails(self):
        demo = base_demo()  # z signs per arm: [-, +]
        plan = make_demo(
            BASE_ENTRIES,
            [
                ((60, 50, 40, 1), (30, 50, 40, 1)),
                ((60, 50, 35, 0), (30, 50, 35, 0)),
                ((60, 50, 31, 0), (30, 50, 31, 0)),  # monotone descend
            ],
        ).actions
        assert check_demo_match(plan, demo, 0)[0] == -1

    def test_offset_five_still_matches(self):
        demo = base_demo()
        plan = make_demo(
            BASE_ENTRIES,
            [
                ((65, 50, 40, 1), (30, 50, 40, 1)),
                ((65, 50, 31, 0), (30, 50, 31, 0)),
                ((65, 50, 45, 0), (30, 50, 45, 0)),
            ],
        ).actions
        assert check_demo_match(plan, demo, 0)[0] == 1


class TestCheckGripper:
    def test_identical_transitions(self):
        demo = base_demo()
        assert check_gripper(demo.actions, demo, 0)[0] == 0

    def test_inverted_transitions(self):
        demo = base_demo()  # both arms close (1 -> 0)
        plan = make_demo(
            BASE_ENTRIES,
            [
                ((60, 50, 40, 0), (30, 50, 40, 0)),
                ((60, 50, 31, 1), (30, 50, 31, 1)),  # opens instead of closing
                ((60, 50, 45, 1), (30, 50, 45, 1)),
            ],
        ).actions
        assert check_gripper(plan, demo, 0)[0] == -1

    def test_missing_transition(self):
        demo = base_demo()
        plan = make_demo(
            BASE_ENTRIES,
            [
                ((60, 50, 40, 1), (30, 50, 40, 1)),
                ((60, 50, 31, 1), (30, 50, 31, 1)),
                ((60, 50, 45, 1), (30, 50, 45, 1)),
            ],
        ).actions
        assert check_gripper(plan, demo, 0)[0] == -1


class TestCheckWorkspace:
    def test_right_at_fifty_is_clean(self):
        plan = plan_of([((50, 50, 50, 1), (30, 50, 50, 1))] * 5)
        assert check_workspace(plan)[0] == 0

    def test_right_too_far_left_for_four_steps(self):
        plan = plan_of([((20, 50, 50, 1), (30, 50, 50, 1))] * 4)
        assert check_workspace(plan)[0] == -1

    def test_exactly_three_steps_tolerated(self):
        plan = plan_of(
            [((20, 50, 50, 1), (30, 50, 50, 1))] * 3
            + [((50, 50, 50, 1), (30, 50, 50, 1))]
        )
        assert check_workspace(plan)[0] == 0

    def test_left_zone(self):
        plan = plan_of([((50, 50, 50, 1), (70, 50, 50, 1))] * 4)
        assert check_workspace(plan)[0] == -1


class TestScorePlan:
    def test_all_sixteen_combinations_match_hand_computation(self):
        for c1, c2, c3, c4 in itertools.product((1, -1), (1, -1), (0, -1), (0, -1)):
            raw = 3 + c1 + c2 + c3 + c4
            hand = min(5, max(1, raw))
            assert clamp_score(c1, c2, c3, c4) == hand

    def test_all_favorable_is_five(self):
        demo = base_demo()
        verdict = score_plan(demo.actions, [demo], demo.observation)
        assert (verdict.check1, verdict.check2, verdict.check3, verdict.check4) == (1, 1, 0, 0)
        assert verdict.score == 5

    def test_all_unfavorable_is_one(self):
        # arms close while both moving, far first action, inverted grippers,
        # right arm stuck in the left zone for four steps
        plan = plan_of([
            ((20, 50, 50, 0), (24, 50, 50, 0)),
            ((21, 50, 52, 1), (25, 50, 52, 1)),
            ((22, 50, 50, 1), (74, 50, 50, 1)),
            ((23, 50, 52, 1), (75, 50, 52, 1)),
        ])
        verdict = score_plan(plan, [base_demo()], base_demo().observation)
        assert (verdict.check1, verdict.check2) == (-1, -1)
        assert verdict.check3 == -1 and verdict.check4 == -1
        assert verdict.score == 1

    def test_collision_pass_only_is_two(self):
        demo = base_demo()
        # safe separation, wrong target + inverted gripper, zones clean: 3+1-1-1+0
        plan = plan_of([
            ((66, 50, 40, 0), (30, 50, 40, 0)),
            ((66, 50, 45, 1), (30, 50, 45, 1)),
            ((66, 50, 38, 1), (30, 50, 38, 1)),
        ])
        verdict = score_plan(plan, [demo], demo.observation)
        assert (verdict.check1, verdict.check2, verdict.check3, verdict.check4) == (1, -1, -1, 0)
        assert verdict.score == 2

    def test_nearest_demo_lowest_index_tie(self):
        demo = base_demo()
        other = make_demo(
            BASE_ENTRIES,
            [((60, 50, 40, 1), (30, 50, 40, 1)), ((60, 50, 31, 0), (30, 50, 31, 0))],
        )
        assert nearest_demo_index([demo, other], demo.observation) == 0

    @pytest.mark.parametrize("swap", [False, True])
    def test_equidistant_demos_resolve_to_demo_0_in_the_oracle_and_the_rubric(self, swap):
        # BASE_ENTRIES lies 2 voxels from each demo's observation
        west = make_demo({"o": (48, 50, 31)}, [((60, 50, 40, 1), (30, 50, 40, 1)),
                                               ((60, 50, 31, 0), (30, 50, 31, 0))])
        east = make_demo({"o": (52, 50, 31)}, [((70, 50, 40, 1), (20, 50, 40, 1)),
                                               ((70, 50, 45, 1), (20, 50, 45, 1))])
        demos = [east, west] if swap else [west, east]
        shift = BASE_ENTRIES["o"][0] - demos[0].observation["o"][0]
        bundle = build_single_prompt(demos, BASE_ENTRIES)
        reply = oracle_nearest_demo(ChatRequest(system=bundle.system_text, user=bundle.user_text))
        assert parse_completion(reply, 14) == tuple(
            (a[0] + shift,) + a[1:7] + (a[7] + shift,) + a[8:] for a in demos[0].actions)
        verdict = score_plan(demos[1].actions, demos, BASE_ENTRIES)
        assert (verdict.check2, verdict.check3) == (-1, -1)
        assert verdict.reasons["check2"].endswith("from demo 0")
        assert verdict.reasons["check3"].endswith("differ from demo 0")

    def test_permutation_changes_only_via_nearest(self):
        demo = base_demo()
        far = make_demo(
            {"o": (10, 10, 10)},
            [((60, 50, 40, 1), (30, 50, 40, 1)), ((60, 50, 31, 0), (30, 50, 31, 0))],
        )
        v1 = score_plan(demo.actions, [demo, far], demo.observation)
        v2 = score_plan(demo.actions, [far, demo], demo.observation)
        assert v1.score == v2.score == 5


class TestVerdictParsing:
    def test_well_formed(self):
        text = json.dumps({
            "check1": "+1: safe", "check2": "-1: wrong object",
            "check3": "0: fine", "check4": "-1: zone breach", "score": 2,
        })
        verdict = parse_verdict(text)
        assert (verdict.check1, verdict.check2, verdict.check3, verdict.check4) == (1, -1, 0, -1)
        assert verdict.score == 2
        assert verdict.reasons["check2"] == "wrong object"

    def test_score_recomputed_when_inconsistent(self):
        text = json.dumps({
            "check1": "+1: ok", "check2": "+1: ok", "check3": "0: ok",
            "check4": "0: ok", "score": 3,
        })
        assert parse_verdict(text).score == 5

    def test_prose_wrapped_json(self):
        text = "Work shown above.\n" + json.dumps({
            "check1": "+1: a", "check2": "-1: b", "check3": "-1: c",
            "check4": "0: d", "score": 2,
        }) + "\nThat is all."
        assert parse_verdict(text).score == 2

    @pytest.mark.parametrize("key, value", [
        ("check1", "+2: eh"), ("check3", 0.7), ("check1", -1.9), ("check1", True),
        ("check3", "0.7: hedged"),
    ])
    def test_invalid_check_value(self, key, value):
        text = json.dumps({
            "check1": "+1: a", "check2": "-1: b", "check3": "0: c",
            "check4": "0: d", "score": 4, key: value,
        })
        with pytest.raises(JudgeParseError):
            parse_verdict(text)

    @pytest.mark.parametrize("reason", ["arms } apart", "arms { apart"])
    def test_brace_inside_a_reason(self, reason):
        text = "Verdict: " + json.dumps({
            "check1": f"+1: {reason}", "check2": "-1: b", "check3": "0: c",
            "check4": "0: d", "score": 3,
        })
        verdict = parse_verdict(text)
        assert (verdict.check1, verdict.score) == (1, 3)
        assert verdict.reasons["check1"] == reason

    def test_missing_key(self):
        with pytest.raises(JudgeParseError):
            parse_verdict(json.dumps({"check1": "+1: a", "score": 4}))

    def test_no_json(self):
        with pytest.raises(JudgeParseError):
            parse_verdict("no json here")

    def test_render_parse_round_trip(self):
        verdict = JudgeVerdict(
            check1=1, check2=-1, check3=0, check4=-1, score=2,
            reasons={"check1": "a", "check2": "b", "check3": "c", "check4": "d"},
        )
        back = parse_verdict(verdict_to_json(verdict))
        assert (back.check1, back.check2, back.check3, back.check4, back.score) == (1, -1, 0, -1, 2)


class TestLlmModeJudge:
    def test_llm_mode_calls_gateway_and_parses(self):
        demo = base_demo()
        payload = json.dumps({
            "check1": "+1: r", "check2": "+1: r", "check3": "0: r",
            "check4": "0: r", "score": 5,
        })
        log = CallLog()
        gw = ChatGateway(lambda r: payload, log)
        judge = PlanJudge(mode="llm", gateway=gw)
        verdict = judge.score(demo.actions, [demo], demo.observation)
        assert verdict.score == 5
        assert log.count() == 1
        assert log.records()[0].tag == "judge"

    def test_llm_mode_retries_then_fails(self):
        demo = base_demo()
        log = CallLog()
        gw = ChatGateway(lambda r: "not a verdict", log)
        judge = PlanJudge(mode="llm", gateway=gw, max_retries=2)
        with pytest.raises(JudgeParseError):
            judge.score(demo.actions, [demo], demo.observation)
        assert log.count() == 3
        assert all(r.outcome == "parse_fail" for r in log.records())

    def test_llm_mode_retry_then_success(self):
        demo = base_demo()
        payload = json.dumps({
            "check1": "+1: r", "check2": "+1: r", "check3": "0: r",
            "check4": "0: r", "score": 5,
        })
        backend = ScriptedBackend(["garbage", payload])
        gw = ChatGateway(backend, CallLog())
        judge = PlanJudge(mode="llm", gateway=gw, max_retries=2)
        assert judge.score(demo.actions, [demo], demo.observation).score == 5

    def test_llm_mode_requires_gateway(self):
        with pytest.raises(ValueError):
            PlanJudge(mode="llm")

    @pytest.mark.parametrize("mode", ["rubric", "llm"])
    def test_negative_max_retries_is_rejected_when_built(self, mode):
        gw = ChatGateway(lambda r: "unused", CallLog())
        with pytest.raises(ConfigError, match="max_retries must be >= 0"):
            PlanJudge(mode=mode, gateway=gw, max_retries=-1)
