"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print. Everything runs offline; the only sockets used are loopback stubs.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from bimanual_icl.actions import bin_rotation, devoxelize, unbin_rotation, voxelize
from bimanual_icl.bench import DEFAULT_TASKS, benchmark_clouds, execute, scripted_expert, spawn
from bimanual_icl.demos import sample_batch
from bimanual_icl.gateway import (
    CallLog,
    ChatGateway,
    ChatRequest,
    HttpBackend,
    NoisyArmBackend,
    OracleBackend,
)
from bimanual_icl.judge import PlanJudge, clamp_score, score_plan
from bimanual_icl.perception import MaskedCloud, centroid_error, extract_centroid
from bimanual_icl.prompts import (
    build_conditioned_prompt,
    build_follower_prompt,
    build_single_prompt,
    parse_completion,
    render_action_list,
)
from bimanual_icl.runner import RunConfig, run_experiment, run_strategy, stable_seed
from bimanual_icl.strategies import StrategyConfig
from bimanual_icl.testing import FlakyBackend

from conftest import make_demo

GOLDEN_DIR = Path(__file__).parent / "golden"


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_codec_exactness():
    with criterion(1, "codec exactness"):
        started = time.perf_counter()
        assert voxelize((-0.3, -0.5, 0.6)) == (0, 0, 0)
        assert voxelize((0.7, 0.5, 1.6)) == (99, 99, 99)
        assert voxelize((0.2, 0.0, 1.1)) == (49, 49, 49)

        for x in range(10):
            for y in range(10):
                for z in range(10):
                    assert voxelize(devoxelize((x, y, z))) == (x, y, z)

        rng = random.Random(2024)
        canonical_pitch = list(range(0, 18)) + list(range(54, 72))
        for _ in range(10_000):
            bins = (rng.randrange(72), rng.choice(canonical_pitch), rng.randrange(72))
            assert bin_rotation(unbin_rotation(bins)) == bins
        assert time.perf_counter() - started < 5.0


def test_criterion_2_prompt_grammar(two_demo_fixture):
    with criterion(2, "prompt grammar"):
        demos, test_obs = two_demo_fixture
        leader_pred = [a.right for a in demos[0].actions]
        follower_pred = [a.left for a in demos[0].actions]
        built = {
            "single_agent": build_single_prompt(demos, test_obs, arm_filter="both"),
            "leader_right": build_single_prompt(demos, test_obs, arm_filter="right",
                                                role="leader"),
            "follower_left": build_follower_prompt(demos, test_obs, leader_pred,
                                                   leader_is_right=True),
            "debate_round2_leader": build_conditioned_prompt(
                demos, test_obs, target_arm="right",
                partner_key="follower_arm", partner_pred=follower_pred),
        }
        for name, bundle in built.items():
            golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
            assert bundle.system_text == golden["system"], name
            assert bundle.user_text == golden["user"], name

        rng = random.Random(1)
        for arity in (7, 14):
            for _ in range(1000):
                actions = []
                for _ in range(rng.randrange(1, 7)):
                    arm = lambda: (
                        [rng.randrange(100) for _ in range(3)]
                        + [rng.randrange(72) for _ in range(3)]
                        + [rng.randrange(2)]
                    )
                    actions.append(tuple(arm() if arity == 7 else arm() + arm()))
                rendered = render_action_list(actions)
                assert parse_completion(rendered, arity).actions == tuple(actions)


def test_criterion_3_call_budgets(two_demo_fixture):
    with criterion(3, "call budgets"):
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
            log = CallLog()
            gateway = ChatGateway(OracleBackend(), log)
            judge = PlanJudge(mode="llm", gateway=gateway)
            run_strategy(kind, gateway, demos, test_obs, judge=judge)
            assert log.count() == expected, f"{kind}: {log.count()} != {expected}"

        # fail-twice backend: exactly two extra records per affected call
        for kind, logical in (("single_agent", 1), ("leader_follower", 2),
                              ("arms_debate", 4)):
            log = CallLog()
            gateway = ChatGateway(FlakyBackend(OracleBackend(), failures=2), log)
            run_strategy(kind, gateway, demos, test_obs,
                         StrategyConfig(kind=kind, max_retries=2))
            assert log.count() == 3 * logical, kind
            assert sum(1 for r in log.records() if r.outcome == "parse_fail") == 2 * logical


def test_criterion_4_judge_rubric():
    with criterion(4, "judge rubric"):
        for c1, c2, c3, c4 in itertools.product((1, -1), (1, -1), (0, -1), (0, -1)):
            raw = 3 + c1 + c2 + c3 + c4
            assert clamp_score(c1, c2, c3, c4) == min(5, max(1, raw))

        entries = {"o": (50, 50, 31)}
        demo = make_demo(entries, [
            ((60, 50, 40, 1), (30, 50, 40, 1)),
            ((60, 50, 31, 0), (30, 50, 31, 0)),
            ((60, 50, 45, 0), (30, 50, 45, 0)),
        ])
        # worked example: everything favorable -> 5
        v = score_plan(demo.actions, [demo], demo.observation, mode="rubric")
        assert v.score == 5 and (v.check1, v.check2, v.check3, v.check4) == (1, 1, 0, 0)
        # worked example: everything unfavorable -> 1
        bad = make_demo(entries, [
            ((20, 50, 50, 0), (24, 50, 50, 0)),
            ((21, 50, 52, 1), (25, 50, 52, 1)),
            ((22, 50, 50, 1), (74, 50, 50, 1)),
            ((23, 50, 52, 1), (75, 50, 52, 1)),
        ]).actions
        v = score_plan(bad, [demo], demo.observation, mode="rubric")
        assert v.score == 1 and (v.check1, v.check2, v.check3, v.check4) == (-1, -1, -1, -1)
        # worked example: only the collision check favorable -> 2
        mediocre = make_demo(entries, [
            ((66, 50, 40, 0), (30, 50, 40, 0)),
            ((66, 50, 45, 1), (30, 50, 45, 1)),
            ((66, 50, 38, 1), (30, 50, 38, 1)),
        ]).actions
        v = score_plan(mediocre, [demo], demo.observation, mode="rubric")
        assert v.score == 2 and (v.check1, v.check2, v.check3, v.check4) == (1, -1, -1, 0)

        for name, task in DEFAULT_TASKS.items():
            batch = [scripted_expert(task, spawn(task, seed=s)) for s in range(10)]
            for expert_demo in batch:
                verdict = score_plan(expert_demo.actions, batch, expert_demo.observation,
                                     mode="rubric")
                assert verdict.score == 5, (name, verdict.reasons)


def test_criterion_5_closed_loop_oracle_pipeline(tmp_path):
    with criterion(5, "closed-loop oracle pipeline"):
        started = time.perf_counter()
        cfg = RunConfig(
            tasks=["lift_sym", "handover", "dual_targets", "drawer_item"],
            strategies=["leader_follower"],
            backend="oracle",
            seeds=[0, 1],
            episodes=50,
            n_demos=10,
            out_dir=str(tmp_path / "run"),
        )
        report = run_experiment(cfg)
        thresholds = {"lift_sym": 80.0, "handover": 80.0,
                      "dual_targets": 60.0, "drawer_item": 60.0}
        for row in report.rows:
            assert row.success_mean >= thresholds[row.task], (
                f"{row.task}: {row.success_mean:.1f}% < {thresholds[row.task]}%"
            )
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"pipeline took {elapsed:.1f}s"


def test_criterion_6_conditioning_must_not_hurt():
    with criterion(6, "strategy ordering sanity"):
        task = DEFAULT_TASKS["handover"]
        store = [
            scripted_expert(task, spawn(task, seed=stable_seed("handover", "store", 1234, k)))
            for k in range(100)
        ]
        backend = NoisyArmBackend(OracleBackend(), arm="left", seed=0)
        lf_wins = da_wins = 0
        for episode in range(100):
            world = spawn(task, seed=stable_seed("handover", "noisy", episode))
            batch = sample_batch(store, 10, seed=stable_seed("handover", "batch", episode))
            lf_plan = run_strategy("leader_follower", ChatGateway(backend, CallLog()),
                                   batch, world.observation)
            da_plan = run_strategy("dual_agent", ChatGateway(backend, CallLog()),
                                   batch, world.observation)
            lf_wins += execute(world, lf_plan.actions).success
            da_wins += execute(world, da_plan.actions).success
        assert lf_wins >= da_wins, f"LF {lf_wins} < DA {da_wins}"


def test_criterion_7_perception():
    with criterion(7, "perception"):
        q = (0.12, -0.07, 0.93)
        same = [
            MaskedCloud("a", "obj", np.array([q])),
            MaskedCloud("b", "obj", np.array([q])),
        ]
        for strategy in ("standard", "concat", "prune"):
            assert extract_centroid(same, strategy=strategy) == pytest.approx(q)

        skew = [
            MaskedCloud("a", "obj", np.array([(0.0, 0.0, 0.0)] * 100)),
            MaskedCloud("b", "obj", np.array([(1.0, 1.0, 1.0)])),
        ]
        assert extract_centroid(skew, strategy="standard") == pytest.approx((0.5, 0.5, 0.5))
        assert extract_centroid(skew, strategy="concat") == pytest.approx((1 / 101,) * 3)
        assert extract_centroid(skew, strategy="prune", voxel_size=0.02) == pytest.approx(
            (0.5, 0.5, 0.5)
        )

        rng = np.random.default_rng(7)
        totals = {"standard": 0.0, "concat": 0.0, "prune": 0.0}
        for _ in range(100):
            center = rng.uniform(0.2, 0.4, size=3)
            clouds = benchmark_clouds(rng, center)
            for strategy in totals:
                totals[strategy] += centroid_error(
                    extract_centroid(clouds, strategy=strategy), center
                )
        assert totals["prune"] <= totals["concat"] <= totals["standard"], totals


def test_criterion_8_http_conformance(stub_server, monkeypatch):
    with criterion(8, "http conformance"):
        from bimanual_icl.errors import RequestTimeoutError, TransportError

        url = f"http://127.0.0.1:{stub_server.server_address[1]}/v1/chat/completions"
        monkeypatch.setenv("ACCEPT_KEY", "sk-accept")
        backend = HttpBackend(url, model="accept-model", api_key_env="ACCEPT_KEY", timeout=5.0)
        req = ChatRequest(system="s", user="u>", temperature=0.5, tag="t")

        text = backend(req)
        assert text == "[[1, 2, 3, 4, 5, 6, 1]]"
        sent = stub_server.requests[-1]
        assert sent["auth"] == "Bearer sk-accept"
        assert sent["body"]["model"] == "accept-model"
        assert sent["body"]["temperature"] == 0.5
        assert [m["role"] for m in sent["body"]["messages"]] == ["system", "user"]

        stub_server.mode = "error"
        with pytest.raises(TransportError):
            backend(req)

        stub_server.mode = "slow"
        fast = HttpBackend(url, model="m", api_key_env="ACCEPT_KEY", timeout=0.2)
        with pytest.raises(RequestTimeoutError):
            fast(req)
        stub_server.mode = "ok"


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "determinism"):
        def run(into):
            cfg = RunConfig(
                tasks=["handover"],
                strategies=["leader_follower", "best_of_n"],
                backend="oracle",
                seeds=[0, 1],
                episodes=4,
                store_size=30,
                out_dir=str(tmp_path / into),
            )
            run_experiment(cfg)
            return (tmp_path / into / "summary.json").read_bytes()

        assert run("first") == run("second")
