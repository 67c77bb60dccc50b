"""The prediction strategies: single/dual agent, leader-follower, debate, best-of-n.

Every strategy predicts the full keyframe trajectory once from the initial
observation (open loop). Call budgets with a first-try-valid backend:
single_agent=1, dual_agent=2, leader_follower=2, arms_debate=4,
best_of_n=3n, debate_plus_bon=5n.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from .actions import BimanualAction
from .errors import (
    AllCandidatesFailed,
    ConfigError,
    EPISODE_ERRORS,
    EmptyTrajectory,
    ExhaustedRetries,
)
from .gateway import ChatRequest, ChatGateway
from .judge import PlanJudge
from .perception import Observation
from .prompts import build_conditioned_prompt, build_follower_prompt, build_single_prompt


@dataclass(frozen=True)
class StrategyConfig:
    kind: str = "leader_follower"
    leader_arm: str = "right"
    n_candidates: int = 5
    max_retries: int = 2
    temperature: float = 1.0  # candidate sampling; the judge runs at its own temperature
    judge_temperature: float = 0.0

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ConfigError(f"unknown strategy kind {self.kind!r}")
        if self.leader_arm not in ("right", "left"):
            raise ConfigError(f"leader_arm must be 'right' or 'left', got {self.leader_arm!r}")
        if self.n_candidates < 1:
            raise ConfigError("n_candidates must be >= 1")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")


@dataclass(frozen=True)
class BimanualPlan:
    """A predicted keyframe trajectory plus how it was produced."""

    actions: tuple[BimanualAction, ...]
    kind: str
    tags: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.actions:
            raise EmptyTrajectory("a plan needs at least one action")


def compose(right, left, kind: str, tags=()) -> BimanualPlan:
    """Zip the two arms' trajectories to the longer length.

    The shorter trajectory is padded by repeating its final action.
    """
    right, left = tuple(right), tuple(left)
    if not right or not left:
        raise EmptyTrajectory("both trajectories must be non-empty")
    actions = tuple(
        BimanualAction(right=right[min(k, len(right) - 1)], left=left[min(k, len(left) - 1)])
        for k in range(max(len(right), len(left)))
    )
    return BimanualPlan(actions=actions, kind=kind, tags=tuple(tags))


def _call(gateway: ChatGateway, bundle, cfg: StrategyConfig, tag: str, arity: int,
          phase: str):
    req = ChatRequest(
        system=bundle.system_text,
        user=bundle.user_text,
        temperature=cfg.temperature,
        tag=tag,
    )
    try:
        return gateway.complete_parsed(req, arity=arity, max_retries=cfg.max_retries)
    except ExhaustedRetries as exc:
        exc.phase = phase
        raise


def run_single_agent(gateway: ChatGateway, demos, obs: Observation,
                     cfg: StrategyConfig | None = None) -> BimanualPlan:
    """One arity-14 call predicting both arms jointly."""
    cfg = cfg or StrategyConfig(kind="single_agent")
    bundle = build_single_prompt(demos, obs, arm_filter="both", role="single")
    parsed = _call(gateway, bundle, cfg, tag="single", arity=14, phase="single")
    return BimanualPlan(actions=parsed.to_bimanual(), kind="single_agent", tags=("single",))


def run_dual_agent(gateway: ChatGateway, demos, obs: Observation,
                   cfg: StrategyConfig | None = None) -> BimanualPlan:
    """Two concurrent independent arity-7 calls, one per arm, no sharing."""
    cfg = cfg or StrategyConfig(kind="dual_agent")

    def predict(arm: str):
        bundle = build_single_prompt(demos, obs, arm_filter=arm, role="single")
        return _call(gateway, bundle, cfg, tag=f"dual:{arm}", arity=7, phase=arm)

    with ThreadPoolExecutor(max_workers=2) as pool:
        right_future = pool.submit(predict, "right")
        left_future = pool.submit(predict, "left")
        right = right_future.result().to_discrete()
        left = left_future.result().to_discrete()
    return compose(right, left, kind="dual_agent", tags=("dual:right", "dual:left"))


def _run_turns(gateway: ChatGateway, demos, obs: Observation, cfg: StrategyConfig,
               kind: str, tag_prefix: str, turns: tuple[str, ...]) -> BimanualPlan:
    """Sequential single-arm calls, alternating leader and follower arm.

    The first turn sees the demos only; every later turn is conditioned on
    the previous turn's prediction, filed under that turn's role. Each
    turn's name is its tag suffix and its failure phase. The plan pairs the
    last prediction of each arm.
    """
    arms = (cfg.leader_arm, "left" if cfg.leader_arm == "right" else "right")
    latest = {}
    for k, turn in enumerate(turns):
        arm = arms[k % 2]
        if k == 0:
            bundle = build_single_prompt(demos, obs, arm_filter=arm, role="leader")
        else:
            partner_key = "leader_arm" if k % 2 else "follower_arm"
            bundle = build_conditioned_prompt(demos, obs, target_arm=arm,
                                              partner_key=partner_key, partner_pred=pred)
        pred = latest[arm] = _call(gateway, bundle, cfg, tag=f"{tag_prefix}:{turn}", arity=7,
                                   phase=turn).to_discrete()
    return compose(latest["right"], latest["left"], kind=kind,
                   tags=tuple(f"{tag_prefix}:{turn}" for turn in turns))


def run_leader_follower(gateway: ChatGateway, demos, obs: Observation,
                        cfg: StrategyConfig | None = None,
                        tag_prefix: str = "lf") -> BimanualPlan:
    """Leader predicts first; the follower conditions on the leader's plan."""
    cfg = cfg or StrategyConfig(kind="leader_follower")
    return _run_turns(gateway, demos, obs, cfg, "leader_follower", tag_prefix,
                      ("leader", "follower"))


def run_arms_debate(gateway: ChatGateway, demos, obs: Observation,
                    cfg: StrategyConfig | None = None,
                    tag_prefix: str = "debate") -> BimanualPlan:
    """The leader-follower chain run for two more turns.

    Four strictly sequential single-arm calls, each with a fresh prompt and
    no conversation state; the final plan uses only the round-2 predictions.
    """
    cfg = cfg or StrategyConfig(kind="arms_debate")
    return _run_turns(gateway, demos, obs, cfg, "arms_debate", tag_prefix,
                      ("leader1", "follower1", "leader2", "follower2"))


def _run_reranked(gateway: ChatGateway, demos, obs: Observation, cfg: StrategyConfig,
                  judge: PlanJudge | None, kind: str, generate) -> BimanualPlan:
    """Best-of-n: n concurrent tasks, each generating ``generate(j)`` then scoring it.

    A candidate whose generation exhausts its retries, or whose judge call
    fails, is skipped; the highest score wins, ties to the lowest index.
    """
    n = cfg.n_candidates
    judge = judge or PlanJudge(mode="llm", gateway=gateway, temperature=cfg.judge_temperature,
                               max_retries=cfg.max_retries)

    def candidate(j: int):
        try:
            plan = generate(j)
        except (ExhaustedRetries, EmptyTrajectory) as exc:
            return None, None, exc
        try:
            return plan, judge.score(plan.actions, demos, obs).score, None
        except EPISODE_ERRORS as exc:
            return plan, None, exc

    with ThreadPoolExecutor(max_workers=n) as pool:
        results = list(pool.map(candidate, range(n)))

    viable = [j for j, (_, score, _) in enumerate(results) if score is not None]
    if not viable:
        failures = [(j, exc) for j, (_, _, exc) in enumerate(results)]
        raise AllCandidatesFailed(f"all {n} candidates failed for {kind}", failures=failures)
    best = max(viable, key=lambda j: (results[j][1], -j))
    chosen, score, _ = results[best]
    return BimanualPlan(
        actions=chosen.actions,
        kind=kind,
        tags=chosen.tags + (f"selected:{best}", f"score:{score}"),
    )


def run_best_of_n(gateway: ChatGateway, demos, obs: Observation,
                  cfg: StrategyConfig | None = None,
                  judge: PlanJudge | None = None) -> BimanualPlan:
    """n independent leader-follower candidates, judged, argmax selected."""
    cfg = cfg or StrategyConfig(kind="best_of_n")
    return _run_reranked(
        gateway, demos, obs, cfg, judge, "best_of_n",
        lambda j: run_leader_follower(gateway, demos, obs, cfg, tag_prefix=f"bon{j}"),
    )


def run_debate_plus_bon(gateway: ChatGateway, demos, obs: Observation,
                        cfg: StrategyConfig | None = None,
                        judge: PlanJudge | None = None) -> BimanualPlan:
    """Best-of-n with arms-debate candidates: 4n generation + n judge calls."""
    cfg = cfg or StrategyConfig(kind="debate_plus_bon")
    return _run_reranked(
        gateway, demos, obs, cfg, judge, "debate_plus_bon",
        lambda j: run_arms_debate(gateway, demos, obs, cfg, tag_prefix=f"dbon{j}"),
    )


# Each entry looks its function up in this module at call time, so a
# rebound module attribute (a tracer's wrapper, a test patch) sees every call.
# build_follower_prompt is imported above only so such a tracer finds it.
_STRATEGIES = {
    "single_agent": lambda *args, judge: run_single_agent(*args),
    "dual_agent": lambda *args, judge: run_dual_agent(*args),
    "leader_follower": lambda *args, judge: run_leader_follower(*args),
    "arms_debate": lambda *args, judge: run_arms_debate(*args),
    "best_of_n": lambda *args, judge: run_best_of_n(*args, judge),
    "debate_plus_bon": lambda *args, judge: run_debate_plus_bon(*args, judge),
}
STRATEGY_KINDS = tuple(_STRATEGIES)


def run_strategy(kind: str, gateway: ChatGateway, demos, obs: Observation,
                 cfg: StrategyConfig | None = None,
                 judge: PlanJudge | None = None) -> BimanualPlan:
    """Dispatch by strategy kind; the experiment runner's single entry point."""
    cfg = replace(cfg, kind=kind) if cfg is not None else StrategyConfig(kind=kind)
    return _STRATEGIES[kind](gateway, demos, obs, cfg, judge=judge)
