"""The prediction strategies: single/dual agent, leader-follower, debate, best-of-n.

Every strategy predicts the full keyframe trajectory once from the initial
observation (open loop). ``_STRATEGIES`` holds each one's call budget with a
first-try-valid backend, which ``call_budget`` reads.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

from .actions import ARM_OFFSET, OTHER_ARM
from .errors import (
    AllCandidatesFailed,
    ConfigError,
    EPISODE_ERRORS,
    EmptyTrajectory,
    ExhaustedRetries,
    TransportError,
)
from .gateway import ChatRequest, ChatGateway, check_temperature
from .judge import PlanJudge
from .prompts import build_conditioned_prompt, build_follower_prompt, build_single_prompt


@dataclass(frozen=True)
class StrategyConfig:
    leader_arm: str = "right"
    n_candidates: int = 5
    max_retries: int = 2
    temperature: float = 1.0  # candidate sampling; the judge runs at its own temperature

    def __post_init__(self):
        if self.leader_arm not in ARM_OFFSET:
            raise ConfigError(f"leader_arm must be 'right' or 'left', got {self.leader_arm!r}")
        if self.n_candidates < 1:
            raise ConfigError("n_candidates must be >= 1")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        check_temperature(self.temperature, "temperature")


@dataclass(frozen=True)
class BimanualPlan:
    """A predicted keyframe trajectory of 14-int actions plus how it was produced."""

    actions: tuple[tuple[int, ...], ...]
    kind: str
    tags: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.actions:
            raise EmptyTrajectory("a plan needs at least one action")


def compose(right, left, kind: str, tags=()) -> BimanualPlan:
    """Join the two arms' 7-int trajectories into 14-int actions, right arm first,
    zipped to the longer length; the shorter is padded with its final action.
    """
    right, left = tuple(right), tuple(left)
    if not right or not left:
        raise EmptyTrajectory("both trajectories must be non-empty")
    actions = tuple(right[min(k, len(right) - 1)] + left[min(k, len(left) - 1)]
                    for k in range(max(len(right), len(left))))
    return BimanualPlan(actions=actions, kind=kind, tags=tuple(tags))


def _settled(fn, item) -> Future:
    """A done future holding ``fn(item)`` or the exception it raised, as a pool's would."""
    future = Future()
    try:
        future.set_result(fn(item))
    except Exception as exc:
        future.set_exception(exc)
    return future


def _fan_out(gateway: ChatGateway, fn, items) -> list:
    """``[fn(item) for item in items]`` with every item run even after a failure; the
    first failure in item order is raised once all have ended. The items run in threads
    unless the backend's calls compute rather than wait (``cpu_bound``): then threads
    would only take turns under the GIL, and the items run in order on this thread."""
    if getattr(gateway.backend, "cpu_bound", False):
        futures = [_settled(fn, item) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=len(items)) as pool:
            futures = [pool.submit(fn, item) for item in items]
    return [future.result() for future in futures]


def _call(gateway: ChatGateway, bundle, cfg: StrategyConfig, tag: str, arity: int):
    req = ChatRequest(system=bundle.system_text, user=bundle.user_text,
                      temperature=cfg.temperature, tag=tag)
    return gateway.complete_parsed(req, arity=arity, max_retries=cfg.max_retries)


def run_single_agent(gateway: ChatGateway, demos, obs: dict,
                     cfg: StrategyConfig | None = None) -> BimanualPlan:
    """One arity-14 call predicting both arms jointly."""
    cfg = cfg or StrategyConfig()
    bundle = build_single_prompt(demos, obs, arm_filter="both")
    actions = _call(gateway, bundle, cfg, tag="single", arity=14)
    return BimanualPlan(actions=actions, kind="single_agent", tags=("single",))


def run_dual_agent(gateway: ChatGateway, demos, obs: dict,
                   cfg: StrategyConfig | None = None) -> BimanualPlan:
    """Two independent arity-7 calls, one per arm, no sharing; concurrent unless
    the backend is ``cpu_bound``."""
    cfg = cfg or StrategyConfig()

    def predict(arm: str):
        bundle = build_single_prompt(demos, obs, arm_filter=arm)
        return _call(gateway, bundle, cfg, tag=f"dual:{arm}", arity=7)

    right, left = _fan_out(gateway, predict, ("right", "left"))
    return compose(right, left, kind="dual_agent", tags=("dual:right", "dual:left"))


def _run_turns(gateway: ChatGateway, demos, obs: dict, cfg: StrategyConfig,
               kind: str, tag_prefix: str, turns: tuple[str, ...]) -> BimanualPlan:
    """Sequential single-arm calls, alternating leader and follower arm.

    The first turn sees the demos only; every later turn is conditioned on
    the previous turn's prediction, filed under that turn's role. Each
    turn's name is its tag suffix and its failure phase. The plan pairs the
    last prediction of each arm.
    """
    arms = (cfg.leader_arm, OTHER_ARM[cfg.leader_arm])
    latest = {}
    for k, turn in enumerate(turns):
        arm = arms[k % 2]
        if k == 0:
            bundle = build_single_prompt(demos, obs, arm_filter=arm)
        else:
            partner_key = "leader_arm" if k % 2 else "follower_arm"
            bundle = build_conditioned_prompt(demos, obs, target_arm=arm,
                                              partner_key=partner_key, partner_pred=pred)
        pred = latest[arm] = _call(gateway, bundle, cfg, tag=f"{tag_prefix}:{turn}", arity=7)
    return compose(latest["right"], latest["left"], kind=kind,
                   tags=tuple(f"{tag_prefix}:{turn}" for turn in turns))


def run_leader_follower(gateway: ChatGateway, demos, obs: dict,
                        cfg: StrategyConfig | None = None,
                        tag_prefix: str = "lf") -> BimanualPlan:
    """Leader predicts first; the follower conditions on the leader's plan."""
    cfg = cfg or StrategyConfig()
    return _run_turns(gateway, demos, obs, cfg, "leader_follower", tag_prefix,
                      ("leader", "follower"))


def run_arms_debate(gateway: ChatGateway, demos, obs: dict,
                    cfg: StrategyConfig | None = None,
                    tag_prefix: str = "debate") -> BimanualPlan:
    """The leader-follower chain run for two more turns.

    Four strictly sequential single-arm calls, each with a fresh prompt and
    no conversation state; the final plan uses only the round-2 predictions.
    """
    cfg = cfg or StrategyConfig()
    return _run_turns(gateway, demos, obs, cfg, "arms_debate", tag_prefix,
                      ("leader1", "follower1", "leader2", "follower2"))


def _run_reranked(gateway: ChatGateway, demos, obs: dict, cfg: StrategyConfig,
                  judge: PlanJudge | None, kind: str, prefix: str, generate) -> BimanualPlan:
    """Best-of-n: n tasks, concurrent unless the backend is ``cpu_bound``, each
    generating ``generate(f"{prefix}{j}")`` then judging it as ``f"{prefix}{j}:judge"``.

    A candidate whose generation exhausts its retries or meets a transport
    fault, or whose judge call fails, is skipped; the highest score wins, ties
    to the lowest index.
    """
    if judge is None:
        raise ConfigError(f"{kind} needs a judge")
    n = cfg.n_candidates

    def candidate(j: int):
        try:
            plan = generate(f"{prefix}{j}")
        except (ExhaustedRetries, TransportError) as exc:
            return None, None, exc
        try:
            return plan, judge.score(plan.actions, demos, obs, tag=f"{prefix}{j}:judge").score, None
        except EPISODE_ERRORS as exc:
            return plan, None, exc

    results = _fan_out(gateway, candidate, range(n))

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


def run_best_of_n(gateway: ChatGateway, demos, obs: dict, cfg: StrategyConfig,
                  judge: PlanJudge | None) -> BimanualPlan:
    """n independent leader-follower candidates, judged, argmax selected."""
    return _run_reranked(
        gateway, demos, obs, cfg, judge, "best_of_n", "bon",
        lambda tag: run_leader_follower(gateway, demos, obs, cfg, tag_prefix=tag),
    )


def run_debate_plus_bon(gateway: ChatGateway, demos, obs: dict, cfg: StrategyConfig,
                        judge: PlanJudge | None) -> BimanualPlan:
    """Best-of-n with arms-debate candidates: 4n generation + n judge calls."""
    return _run_reranked(
        gateway, demos, obs, cfg, judge, "debate_plus_bon", "dbon",
        lambda tag: run_arms_debate(gateway, demos, obs, cfg, tag_prefix=tag),
    )


# Each entry: the strategy, looked up here at call time so a rebound attribute (a tracer's
# wrapper, a test patch) sees every call, and its first-try-valid call budget as (fixed, per
# candidate). build_follower_prompt is imported above only so such a tracer finds it.
_STRATEGIES = {
    "single_agent": (lambda *args, judge: run_single_agent(*args), (1, 0)),
    "dual_agent": (lambda *args, judge: run_dual_agent(*args), (2, 0)),
    "leader_follower": (lambda *args, judge: run_leader_follower(*args), (2, 0)),
    "arms_debate": (lambda *args, judge: run_arms_debate(*args), (4, 0)),
    "best_of_n": (lambda *args, judge: run_best_of_n(*args, judge), (0, 3)),
    "debate_plus_bon": (lambda *args, judge: run_debate_plus_bon(*args, judge), (0, 5)),
}
STRATEGY_KINDS = tuple(_STRATEGIES)


def call_budget(kind: str, n_candidates: int) -> int:
    """Backend calls an episode of ``kind`` makes when every reply is valid first time."""
    fixed, per_candidate = _STRATEGIES[kind][1]
    return fixed + per_candidate * n_candidates


def run_strategy(kind: str, gateway: ChatGateway, demos, obs: dict,
                 cfg: StrategyConfig | None = None,
                 judge: PlanJudge | None = None) -> BimanualPlan:
    """Dispatch by strategy kind; the experiment runner's single entry point."""
    if kind not in _STRATEGIES:
        raise ConfigError(f"unknown strategy kind {kind!r}")
    return _STRATEGIES[kind][0](gateway, demos, obs, cfg or StrategyConfig(), judge=judge)
