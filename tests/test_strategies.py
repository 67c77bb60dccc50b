import hashlib
import time

import pytest

from bimanual_icl import strategies
from bimanual_icl.demos import Demonstration
from bimanual_icl.errors import (
    AllCandidatesFailed,
    ConfigError,
    EmptyTrajectory,
    ExhaustedRetries,
    JudgeParseError,
    OracleParseError,
    RequestTimeoutError,
    TransportError,
)
from bimanual_icl.gateway import CallLog, ChatGateway, OracleBackend
from bimanual_icl.judge import PlanJudge
from bimanual_icl.strategies import (
    StrategyConfig,
    compose,
    run_arms_debate,
    run_best_of_n,
    run_debate_plus_bon,
    run_dual_agent,
    run_leader_follower,
    run_single_agent,
    run_strategy,
)
from doubles import FlakyBackend


def act(x, g=1):
    return (x, 50, 40, 36, 36, 0, g)


def oracle_gateway():
    log = CallLog()
    return ChatGateway(OracleBackend(), log), log


def mirrored(demo):
    obs = dict(demo.observation)
    actions = tuple(a[7:] + a[:7] for a in demo.actions)
    return Demonstration(observation=obs, actions=actions)


class TestCompose:
    def test_equal_lengths_zip(self):
        plan = compose([act(10), act(11)], [act(90), act(91)], kind="dual_agent")
        assert len(plan.actions) == 2
        assert plan.actions[0] == act(10) + act(90)

    def test_shorter_padded_with_last(self):
        plan = compose([act(10), act(11), act(12)], [act(90)] * 5, kind="dual_agent")
        assert len(plan.actions) == 5
        assert plan.actions[3][:7] == act(12)
        assert plan.actions[4][:7] == act(12)
        assert [a[7:] for a in plan.actions] == [act(90)] * 5

    def test_empty_rejected(self):
        with pytest.raises(EmptyTrajectory):
            compose([], [act(1)], kind="dual_agent")


class TestSingleAgent:
    def test_verbatim_replay_and_budget(self, two_demo_fixture):
        demos, _ = two_demo_fixture
        gw, log = oracle_gateway()
        plan = run_single_agent(gw, demos, demos[0].observation)
        assert plan.actions == demos[0].actions
        assert log.count() == 1
        assert plan.kind == "single_agent"

    def test_arity_is_fourteen(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        gw, _ = oracle_gateway()
        plan = run_single_agent(gw, demos, test_obs)
        assert all(len(a) == 14 for a in plan.actions)


class TestDualAgent:
    def test_verbatim_replay_and_budget(self, two_demo_fixture):
        demos, _ = two_demo_fixture
        gw, log = oracle_gateway()
        plan = run_dual_agent(gw, demos, demos[1].observation)
        assert plan.actions == demos[1].actions
        assert log.count() == 2

    def test_arm_independence(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        gw, _ = oracle_gateway()
        base = run_dual_agent(gw, demos, test_obs)
        # permuting demo order changes nothing for the oracle's nearest pick
        # as long as the nearest demo stays the nearest; swap the left arm's
        # demo contents instead and check the right arm output is unchanged
        swapped = [
            Demonstration(
                observation=d.observation,
                actions=tuple(a[:7] + b[7:] for a, b in zip(d.actions, reversed(d.actions))),
            )
            for d in demos
        ]
        gw2, _ = oracle_gateway()
        altered = run_dual_agent(gw2, swapped, test_obs)
        assert [a[:7] for a in altered.actions] == [a[:7] for a in base.actions]


class TestLeaderFollower:
    def test_budget_and_phases(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        gw, log = oracle_gateway()
        plan = run_leader_follower(gw, demos, test_obs)
        assert log.count() == 2
        assert [r.tag for r in log.records()] == ["lf:leader", "lf:follower"]

    def test_zero_offset_verbatim_replay(self, two_demo_fixture):
        demos, _ = two_demo_fixture
        gw, _ = oracle_gateway()
        plan = run_leader_follower(gw, demos, demos[0].observation)
        assert plan.actions == demos[0].actions

    def test_left_leader_toggle(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        captured = []

        def capture(req):
            captured.append(req)
            return OracleBackend()(req)

        gw = ChatGateway(capture, CallLog())
        run_leader_follower(gw, demos, test_obs, StrategyConfig(leader_arm="left"))
        assert "the left arm" in captured[0].system
        assert "the right arm" in captured[1].system
        assert "'leader_arm':" in captured[1].user

    def test_mirror_symmetry(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        gw1, _ = oracle_gateway()
        plan_right = run_leader_follower(gw1, demos, test_obs,
                                         StrategyConfig(leader_arm="right"))
        gw2, _ = oracle_gateway()
        plan_left = run_leader_follower(gw2, [mirrored(d) for d in demos], test_obs,
                                        StrategyConfig(leader_arm="left"))
        assert [a[:7] for a in plan_left.actions] == [a[7:] for a in plan_right.actions]
        assert [a[7:] for a in plan_left.actions] == [a[:7] for a in plan_right.actions]

    def test_phase_identity_on_failure(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        gw = ChatGateway(lambda r: "nope", CallLog())
        with pytest.raises(ExhaustedRetries) as excinfo:
            run_leader_follower(gw, demos, test_obs,
                                StrategyConfig(max_retries=1))
        assert excinfo.value.phase == "leader"


class TestArmsDebate:
    def test_budget_is_four_sequential(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        gw, log = oracle_gateway()
        run_arms_debate(gw, demos, test_obs)
        assert log.count() == 4
        assert [r.tag for r in log.records()] == [
            "debate:leader1", "debate:follower1", "debate:leader2", "debate:follower2",
        ]

    def test_round_two_predictions_form_the_plan(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        replies = iter([
            "[[10, 50, 40, 0, 0, 0, 1]]",  # leader round 1 (X)
            "[[80, 50, 40, 0, 0, 0, 1]]",  # follower round 1 (X)
            "[[12, 50, 42, 0, 0, 0, 0]]",  # leader round 2 (Y)
            "[[82, 50, 42, 0, 0, 0, 0]]",  # follower round 2 (Y)
        ])
        gw = ChatGateway(lambda r: next(replies), CallLog())
        plan = run_arms_debate(gw, demos, test_obs)
        assert len(plan.actions) == 1
        assert plan.actions[0][:3] == (12, 50, 42)
        assert plan.actions[0][7:10] == (82, 50, 42)

    def test_mirror_symmetry(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        gw1, _ = oracle_gateway()
        plan_right = run_arms_debate(gw1, demos, test_obs,
                                     StrategyConfig(leader_arm="right"))
        gw2, _ = oracle_gateway()
        plan_left = run_arms_debate(gw2, [mirrored(d) for d in demos], test_obs,
                                    StrategyConfig(leader_arm="left"))
        assert [a[:7] for a in plan_left.actions] == [a[7:] for a in plan_right.actions]
        assert [a[7:] for a in plan_left.actions] == [a[:7] for a in plan_right.actions]

    @pytest.mark.parametrize("failing_turn, phase", list(enumerate(
        ("leader1", "follower1", "leader2", "follower2"))))
    def test_phase_identity_on_failure(self, two_demo_fixture, failing_turn, phase):
        demos, test_obs = two_demo_fixture
        tags = []

        def backend(req):
            if req.tag not in tags:
                tags.append(req.tag)
            if len(tags) > failing_turn:
                return "nope"
            return OracleBackend()(req)

        gw = ChatGateway(backend, CallLog())
        with pytest.raises(ExhaustedRetries) as excinfo:
            run_arms_debate(gw, demos, test_obs, StrategyConfig(max_retries=1))
        assert excinfo.value.phase == phase
        assert tags[-1] == f"debate:{phase}"

    def test_fresh_prompts_have_single_partner_key(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        seen = []

        def capture(req):
            seen.append(req.user)
            return OracleBackend()(req)

        gw = ChatGateway(capture, CallLog())
        run_arms_debate(gw, demos, test_obs)
        assert len(seen) == 4
        assert seen[0].count("_arm':") == 0
        for user in seen[1:]:
            keys = user.count("'leader_arm':") + user.count("'follower_arm':")
            assert keys == len(demos) + 1  # exactly one partner key per observation
            assert not ("'leader_arm':" in user and "'follower_arm':" in user)
        assert "'follower_arm':" in seen[2]


class TestChainPromptDigests:
    """sha256 of every (system, user) pair the conditioned chains send on the
    two-demo fixture, per leader arm and tag, so any change to a turn's
    prompt shows here. Each call is answered with a different plan, so
    every conditioned prompt also pins which earlier turn it embeds."""

    @pytest.mark.parametrize("leader_arm", ["right", "left"])
    def test_prompts_are_pinned(self, two_demo_fixture, leader_arm):
        demos, test_obs = two_demo_fixture
        digests = {}

        def capture(req):
            pair = f"{req.system}\0{req.user}".encode("utf-8")
            digests[req.tag] = hashlib.sha256(pair).hexdigest()
            k = len(digests)
            return f"[[{10 + k}, 50, 40, 0, 0, {k}, 1], [{10 + k}, 50, {20 + k}, 0, 0, {k}, 0]]"

        gw = ChatGateway(capture, CallLog())
        for run, kind in ((run_leader_follower, "leader_follower"),
                          (run_arms_debate, "arms_debate")):
            run(gw, demos, test_obs, StrategyConfig(leader_arm=leader_arm))
        assert digests == CHAIN_PROMPT_DIGESTS[leader_arm]


class TestBestOfN:
    def test_budget_fifteen_at_n5(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        gw, log = oracle_gateway()
        judge = PlanJudge(mode="llm", gateway=gw)
        run_best_of_n(gw, demos, test_obs, StrategyConfig(), judge)
        assert log.count() == 15
        assert log.count("judge") == 5

    def test_degenerate_n1(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        gw, log = oracle_gateway()
        judge = PlanJudge(mode="llm", gateway=gw)
        run_best_of_n(gw, demos, test_obs,
                      StrategyConfig(n_candidates=1), judge)
        assert log.count() == 3

    def test_first_maximal_score_selected(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        scores = [3, 5, 5, 2, 4]  # candidate j scores scores[j]

        class FakeJudge:
            def score(self, plan_actions, batch, obs):
                from bimanual_icl.judge import JudgeVerdict
                j = plan_actions[0][0] - 10
                return JudgeVerdict(check1=1, check2=1, check3=0, check4=0, score=scores[j])

        # Candidate j predicts x voxel 10 + j, so the judge can tell candidates
        # apart whatever order the pool runs them in.
        def backend(req):
            j = int(req.tag.split(":")[0].removeprefix("bon"))
            return f"[[{10 + j}, 50, 40, 0, 0, 0, 1]]"

        gw = ChatGateway(backend, CallLog())
        plan = run_best_of_n(gw, demos, test_obs, StrategyConfig(), FakeJudge())
        assert "selected:1" in plan.tags
        assert "score:5" in plan.tags

    def test_partial_failures_skipped(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        calls = []

        def backend(req):
            calls.append(req.tag)
            if req.tag.startswith("bon0"):
                return "unusable"
            return OracleBackend()(req)

        gw = ChatGateway(backend, CallLog())
        judge = PlanJudge(mode="llm", gateway=gw)
        plan = run_best_of_n(
            gw, demos, test_obs,
            StrategyConfig(n_candidates=3, max_retries=0), judge,
        )
        assert any(tag.startswith("selected:") for tag in plan.tags)
        assert not any(tag == "selected:0" for tag in plan.tags)

    def test_all_candidates_failed(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        gw = ChatGateway(lambda r: "junk", CallLog())
        judge = PlanJudge(mode="llm", gateway=gw)
        with pytest.raises(AllCandidatesFailed):
            run_best_of_n(gw, demos, test_obs,
                          StrategyConfig(n_candidates=2, max_retries=0), judge)

    @pytest.mark.parametrize("error", [JudgeParseError, TransportError])
    def test_named_judge_errors_skip_the_candidate(self, two_demo_fixture, error):
        demos, test_obs = two_demo_fixture
        gw, log = oracle_gateway()

        class FailingJudge:
            def score(self, plan_actions, batch, obs):
                raise error("judge unavailable")

        with pytest.raises(AllCandidatesFailed) as excinfo:
            run_strategy("best_of_n", gw, demos, test_obs,
                         StrategyConfig(n_candidates=3), FailingJudge())
        assert [j for j, _ in excinfo.value.failures] == [0, 1, 2]
        assert log.count() == 6  # every candidate was generated before its judge failed

    @pytest.mark.parametrize("kind", ["best_of_n", "debate_plus_bon"])
    def test_rerank_without_judge_rejected_before_any_call(self, two_demo_fixture, kind):
        demos, test_obs = two_demo_fixture
        gw, log = oracle_gateway()
        with pytest.raises(ConfigError):
            run_strategy(kind, gw, demos, test_obs, judge=None)
        assert log.count() == 0

    def test_a_transport_fault_in_generation_drops_that_candidate(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        log = CallLog()

        def backend(req):
            if req.tag == "bon1:leader":
                raise RequestTimeoutError("no response after 60000 ms")
            return OracleBackend()(req)

        gw = ChatGateway(backend, log)
        plan = run_strategy("best_of_n", gw, demos, test_obs, StrategyConfig(n_candidates=3),
                            PlanJudge(mode="llm", gateway=gw))
        assert {"selected:0", "selected:2"} & set(plan.tags)
        assert log.count() == 7  # two whole candidates and their judges, one failed leader
        assert [r.outcome for r in log.records() if r.tag == "bon1:leader"] == ["transport_fail"]

    def test_judge_bug_propagates(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        gw, _ = oracle_gateway()

        class BrokenJudge:
            def score(self, plan_actions, batch, obs):
                raise TypeError("bug in the judge")

        with pytest.raises(TypeError):
            run_strategy("best_of_n", gw, demos, test_obs, judge=BrokenJudge())


class TestDebatePlusBon:
    def test_budget_twenty_five_at_n5(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        gw, log = oracle_gateway()
        judge = PlanJudge(mode="llm", gateway=gw)
        run_debate_plus_bon(gw, demos, test_obs, StrategyConfig(), judge)
        assert log.count() == 25

    def test_degenerate_n1_is_five_calls(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        gw, log = oracle_gateway()
        judge = PlanJudge(mode="llm", gateway=gw)
        run_debate_plus_bon(gw, demos, test_obs,
                            StrategyConfig(n_candidates=1), judge)
        assert log.count() == 5


class TestOracleNamesADemoRowItCannotReplay:
    @pytest.mark.parametrize("kind", ["single_agent", "leader_follower"])
    def test_a_nine_int_row_is_an_oracle_parse_error(self, kind):
        demo = Demonstration({"ball": (1, 2, 3)}, [(1, 2, 3, 4, 5, 6, 1, 7, 8)])
        gw, _ = oracle_gateway()
        # both: the whole 9-int row; leader-follower: the follower's 2-int left row
        with pytest.raises(OracleParseError, match="^demo row holds (9|2) components"):
            run_strategy(kind, gw, [demo], {"ball": (1, 2, 4)})

    def test_the_failed_call_is_recorded(self):
        demo = Demonstration({"ball": (1, 2, 3)}, [(1, 2, 3, 4, 5, 6, 1, 7, 8)])
        gw, log = oracle_gateway()
        with pytest.raises(OracleParseError):
            run_strategy("leader_follower", gw, [demo], {"ball": (1, 2, 4)})
        records = log.records()
        assert [(r.tag, r.outcome) for r in records] == [("lf:leader", "ok"),
                                                         ("lf:follower", "backend_fail")]
        assert records[1].attempt == 1 and records[1].completion_chars == 0


class TestDispatch:
    def test_run_strategy_routes_all_kinds(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        budgets = {
            "single_agent": 1,
            "dual_agent": 2,
            "leader_follower": 2,
            "arms_debate": 4,
            "best_of_n": 15,
            "debate_plus_bon": 25,
        }
        for kind, expected in budgets.items():
            gw, log = oracle_gateway()
            judge = PlanJudge(mode="llm", gateway=gw)
            plan = run_strategy(kind, gw, demos, test_obs, judge=judge)
            assert log.count() == expected, kind
            assert plan.kind == kind

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), -0.5])
    def test_temperature_must_be_finite_and_not_negative(self, temperature):
        with pytest.raises(ConfigError, match="temperature must be in"):
            StrategyConfig(temperature=temperature)

    def test_zero_temperature_is_allowed(self):
        assert StrategyConfig(temperature=0).temperature == 0

    def test_unknown_kind(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        gw, _ = oracle_gateway()
        with pytest.raises(ConfigError):
            run_strategy("taco", gw, demos, test_obs)
        with pytest.raises(ConfigError):
            run_strategy("taco", gw, demos, test_obs, StrategyConfig())


class TestRetryBudgets:
    def test_fail_twice_adds_two_per_call(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        for kind, logical in (("single_agent", 1), ("leader_follower", 2), ("arms_debate", 4)):
            backend = FlakyBackend(OracleBackend(), failures=2)
            log = CallLog()
            gw = ChatGateway(backend, log)
            run_strategy(kind, gw, demos, test_obs,
                         StrategyConfig(max_retries=2))
            assert log.count() == 3 * logical, kind
            attempts = [r.attempt for r in log.records()]
            assert attempts.count(3) == logical


CHAIN_PROMPT_DIGESTS = {
    "right": {
        "lf:leader": "a5c67165a36a8023d057594c620b34ba8bc65e04ed176f6dbe21f020be408b3b",
        "lf:follower": "d6d5985f668a0accb9e35d0ae87f334bb6e06941a52ed13ff57f04973ede09cc",
        "debate:leader1": "a5c67165a36a8023d057594c620b34ba8bc65e04ed176f6dbe21f020be408b3b",
        "debate:follower1": "941d06c4216ae83fd4924a84fef02626946f96bc777c112e59b81bf945ece19b",
        "debate:leader2": "6e7758c4097d56aa2f485a63c35df171b8f9445dd2a225165323cfc55d4eb6dc",
        "debate:follower2": "4e9f7b85e7d3425fa6e5e107626791bd711aa62495de4cf87adbcec44d3111d2",
    },
    "left": {
        "lf:leader": "55b98f8f2f9043ddb796dfd8cb81da7a09cc432854a5ecf016c46105ee060560",
        "lf:follower": "a6d1b3693f9a035eef560063b1911836394e2430d13ab537350a4e6279f4015f",
        "debate:leader1": "55b98f8f2f9043ddb796dfd8cb81da7a09cc432854a5ecf016c46105ee060560",
        "debate:follower1": "fc605c938486d9c62a65eee2a5fde5f3a65e8ac31264c93f7d9bf6d74d3bcac7",
        "debate:leader2": "f13e7d260dc69121fff8e71fb8a4014515b22fe79f0233826a44ef6a58dd934f",
        "debate:follower2": "4b4e90adb5556cd0f2aa8a2e87165b4b59567dccb94806f405f382987ca6c470",
    },
}


def pooled_oracle(req):
    """The oracle's answers from a plain callable, which strategies fan out to threads."""
    return OracleBackend()(req)


class RightArmFails(OracleBackend):
    """The oracle, except that every dual-agent right-arm call answers junk."""

    def __call__(self, req):
        return "junk" if req.tag == "dual:right" else super().__call__(req)


class PooledRightArmFails(RightArmFails):
    cpu_bound = False


class JunkOracle(OracleBackend):
    def __call__(self, req):
        return "junk"


class BrokenJudge:
    def score(self, plan_actions, batch, obs):
        raise TypeError("bug in the judge")


def comparable(log):
    """A CallLog's records without wall time, in an order threads cannot change."""
    return sorted((r.tag, r.prompt_chars, r.completion_chars, r.attempt, r.outcome)
                  for r in log.records())


def no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a cpu_bound backend's calls started a thread pool")

    monkeypatch.setattr(strategies, "ThreadPoolExecutor", refuse)


class TestFanOut:
    @pytest.mark.parametrize("kind", ["dual_agent", "best_of_n", "debate_plus_bon"])
    def test_oracle_runs_inline_with_the_pooled_result(self, two_demo_fixture, monkeypatch,
                                                       kind):
        demos, test_obs = two_demo_fixture
        pooled_gw = ChatGateway(pooled_oracle, CallLog())
        pooled = run_strategy(kind, pooled_gw, demos, test_obs,
                              judge=PlanJudge(mode="llm", gateway=pooled_gw))
        no_pool(monkeypatch)
        gw, log = oracle_gateway()
        inline = run_strategy(kind, gw, demos, test_obs, judge=PlanJudge(mode="llm", gateway=gw))
        assert (inline.actions, inline.kind, inline.tags) == (pooled.actions, pooled.kind,
                                                              pooled.tags)
        assert comparable(log) == comparable(pooled_gw.log)

    def test_a_waiting_backend_overlaps_its_calls(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture

        def sleepy(req):
            time.sleep(0.05)
            return OracleBackend()(req)

        gw = ChatGateway(sleepy, CallLog())
        judge = PlanJudge(mode="llm", gateway=gw)

        def timed(fn, *args):
            started = time.perf_counter()
            fn(*args)
            return time.perf_counter() - started

        one_call = timed(run_single_agent, gw, demos, test_obs)
        assert timed(run_dual_agent, gw, demos, test_obs) < 1.5 * one_call
        one_chain = timed(lambda: judge.score(run_leader_follower(gw, demos, test_obs).actions,
                                              demos, test_obs))
        assert timed(run_best_of_n, gw, demos, test_obs, StrategyConfig(n_candidates=5),
                     judge) < 2 * one_chain

    @pytest.mark.parametrize("backend", [RightArmFails, PooledRightArmFails])
    def test_a_failed_arm_leaves_the_other_arm_logged(self, two_demo_fixture, backend):
        demos, test_obs = two_demo_fixture
        log = CallLog()
        with pytest.raises(ExhaustedRetries) as excinfo:
            run_dual_agent(ChatGateway(backend(), log), demos, test_obs,
                           StrategyConfig(max_retries=1))
        assert excinfo.value.phase == "right"
        assert log.count("dual:right") == 2
        assert [r.outcome for r in log.records() if r.tag == "dual:left"] == ["ok"]

    @pytest.mark.parametrize("backend", [JunkOracle, lambda: (lambda req: "junk")])
    def test_the_first_arm_in_item_order_is_raised(self, two_demo_fixture, backend):
        demos, test_obs = two_demo_fixture
        log = CallLog()
        with pytest.raises(ExhaustedRetries) as excinfo:
            run_dual_agent(ChatGateway(backend(), log), demos, test_obs,
                           StrategyConfig(max_retries=0))
        assert excinfo.value.phase == "right"
        assert sorted(r.tag for r in log.records()) == ["dual:left", "dual:right"]

    @pytest.mark.parametrize("backend", [OracleBackend, lambda: pooled_oracle])
    def test_a_judge_bug_propagates_after_every_candidate(self, two_demo_fixture, backend):
        demos, test_obs = two_demo_fixture
        log = CallLog()
        with pytest.raises(TypeError, match="bug in the judge"):
            run_best_of_n(ChatGateway(backend(), log), demos, test_obs,
                          StrategyConfig(n_candidates=3), BrokenJudge())
        assert sorted({r.tag.split(":")[0] for r in log.records()}) == ["bon0", "bon1", "bon2"]
        assert log.count() == 6
