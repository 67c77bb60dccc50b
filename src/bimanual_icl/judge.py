"""Scoring candidate bimanual plans against reference demonstrations.

A plan is a sequence of 14-int action tuples (right arm, then left). The
deterministic rubric (``score_plan``) implements four checks; the final
score starts at 3, adds each check's delta, and clamps into [1, 5]. A
``PlanJudge`` in llm mode sends the validator prompt instead and parses the
JSON verdict, computing the score from the reported checks by that same
clamp.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

from .actions import ARM_OFFSET, GRIPPER, _is_integer
from .errors import ConfigError, ExhaustedRetries, JudgeParseError
from .gateway import ChatRequest, check_temperature
from .perception import nearest_demo_index
from .prompts import build_judge_prompt, json_values

COLLISION_DISTANCE = 10.0
FIRST_ACTION_TOLERANCE = 5
ZONE_LIMIT_RIGHT = 30  # right arm should keep x strictly above this
ZONE_LIMIT_LEFT = 70  # left arm should keep x strictly below this
ZONE_VIOLATION_STEPS = 3
JUDGE_MODES = ("rubric", "llm")

_CHECK_VALUE = re.compile(r"^\s*([+-]?\d+)(?!\.\d)")
# the verdict's checks in JSON order, each with the values it may take
VERDICT_CHECKS = {"check1": (1, -1), "check2": (1, -1), "check3": (0, -1), "check4": (0, -1)}


@dataclass(frozen=True)
class JudgeVerdict:
    """Per-check deltas and the clamped 1-5 consistency score."""

    check1: int  # collision risk: +1 or -1
    check2: int  # target/trajectory match: +1 or -1
    check3: int  # gripper logic: 0 or -1
    check4: int  # workspace zones: 0 or -1
    score: int
    reasons: dict[str, str] = field(default_factory=dict)


def clamp_score(check1: int, check2: int, check3: int, check4: int) -> int:
    return min(5, max(1, 3 + check1 + check2 + check3 + check4))


def _voxel(action, arm: str):
    base = ARM_OFFSET[arm]
    return action[base:base + 3]


def _moved(plan, step: int, arm: str) -> bool:
    # Step 0 counts as moving: the arm just traveled there from its home pose.
    if step == 0:
        return True
    return _voxel(plan[step], arm) != _voxel(plan[step - 1], arm)


def check_collision(plan):
    """-1 iff the arms come within 10 voxels while both are moving."""
    for step, action in enumerate(plan):
        dist = math.dist(_voxel(action, "right"), _voxel(action, "left"))
        if dist < COLLISION_DISTANCE and _moved(plan, step, "right") and _moved(plan, step, "left"):
            return -1, f"distance {dist:.2f} < {COLLISION_DISTANCE:g} at step {step} with both arms moving"
    return 1, "all steps keep safe separation while both arms move"


def _z_shape(actions, arm: str):
    """Sign sequence of z deltas, zeros dropped."""
    zs = [a[ARM_OFFSET[arm] + 2] for a in actions]
    signs = []
    for prev, cur in zip(zs, zs[1:]):
        if cur != prev:
            signs.append(1 if cur > prev else -1)
    return tuple(signs)


def check_demo_match(plan, demo, idx: int):
    """+1 iff first actions land near demo ``idx``'s (the nearest) and z shapes agree."""
    for arm in ARM_OFFSET:
        first_plan = _voxel(plan[0], arm)
        first_demo = _voxel(demo.actions[0], arm)
        gap = max(abs(a - b) for a, b in zip(first_plan, first_demo))
        if gap > FIRST_ACTION_TOLERANCE:
            return -1, f"{arm} first action is {gap} voxels (Linf) from demo {idx}"
        if _z_shape(plan, arm) != _z_shape(demo.actions, arm):
            return -1, f"{arm} z-trajectory shape differs from demo {idx}"
    return 1, f"first actions and z shapes match demo {idx}"


def _gripper_transitions(actions, arm: str):
    bits = [a[ARM_OFFSET[arm] + GRIPPER] for a in actions]
    return tuple((prev, cur) for prev, cur in zip(bits, bits[1:]) if prev != cur)


def check_gripper(plan, demo, idx: int):
    """-1 iff either arm's gripper transition sequence differs from demo ``idx``'s."""
    for arm in ARM_OFFSET:
        if _gripper_transitions(plan, arm) != _gripper_transitions(demo.actions, arm):
            return -1, f"{arm} gripper transitions differ from demo {idx}"
    return 0, f"gripper transitions match demo {idx}"


def check_workspace(plan):
    """-1 iff an arm spends more than 3 steps in the opposite arm's zone."""
    right_bad = sum(1 for a in plan if a[ARM_OFFSET["right"]] <= ZONE_LIMIT_RIGHT)
    left_bad = sum(1 for a in plan if a[ARM_OFFSET["left"]] >= ZONE_LIMIT_LEFT)
    if right_bad > ZONE_VIOLATION_STEPS:
        return -1, f"right arm at x <= {ZONE_LIMIT_RIGHT} for {right_bad} steps"
    if left_bad > ZONE_VIOLATION_STEPS:
        return -1, f"left arm at x >= {ZONE_LIMIT_LEFT} for {left_bad} steps"
    return 0, "both arms stay in their reachable zones"


def score_plan(plan, demos, obs: dict) -> JudgeVerdict:
    """Score a candidate plan with the deterministic rubric."""
    plan = tuple(plan)
    if not plan:
        raise ValueError("cannot score an empty plan")
    idx = nearest_demo_index(demos, obs)
    c1, r1 = check_collision(plan)
    c2, r2 = check_demo_match(plan, demos[idx], idx)
    c3, r3 = check_gripper(plan, demos[idx], idx)
    c4, r4 = check_workspace(plan)
    return JudgeVerdict(
        check1=c1,
        check2=c2,
        check3=c3,
        check4=c4,
        score=clamp_score(c1, c2, c3, c4),
        reasons={"check1": r1, "check2": r2, "check3": r3, "check4": r4},
    )


def parse_verdict(text: str) -> JudgeVerdict:
    """Parse the first JSON object of the judge's reply, tolerating surrounding prose.

    Each check value is an integer, or a string that starts with one and not
    with a decimal fraction (the reason follows its ':'). The score is clamp(3
    + sum(checks), 1, 5) over the reported checks; a reported score is not trusted.
    """
    payload = next((value for value in json_values(text) if isinstance(value, dict)), None)
    if payload is None:
        raise JudgeParseError(f"no JSON object found in verdict: {text[:120]!r}")
    checks = []
    reasons = {}
    for key, allowed in VERDICT_CHECKS.items():
        raw = payload.get(key)
        if raw is None:
            raise JudgeParseError(f"verdict missing {key}")
        if _is_integer(raw):
            value, reason = raw, ""
        elif isinstance(raw, str) and (match := _CHECK_VALUE.match(raw)):
            value = int(match.group(1))
            reason = raw.split(":", 1)[1].strip() if ":" in raw else ""
        else:
            raise JudgeParseError(f"cannot read {key} from {raw!r}")
        if value not in allowed:
            raise JudgeParseError(f"{key} value {value} not in {allowed}")
        checks.append(value)
        reasons[key] = reason
    return JudgeVerdict(
        check1=checks[0], check2=checks[1], check3=checks[2], check4=checks[3],
        score=clamp_score(*checks), reasons=reasons,
    )


def verdict_to_json(verdict: JudgeVerdict) -> str:
    """Render a verdict in the exact JSON schema the llm judge must emit."""

    def check_str(key: str) -> str:
        value, reason = getattr(verdict, key), verdict.reasons.get(key, "")
        prefix = str(value) if value == 0 else f"{value:+d}"
        return f"{prefix}: {reason}" if reason else prefix

    return json.dumps({**{key: check_str(key) for key in VERDICT_CHECKS}, "score": verdict.score})


class PlanJudge:
    """Configured judge: the rubric, or the llm validator prompt through a gateway."""

    def __init__(self, mode: str = "rubric", gateway=None, temperature: float = 0.0,
                 max_retries: int = 2):
        if mode not in JUDGE_MODES:
            raise ValueError(f"unknown judge mode {mode!r}")
        if mode == "llm" and gateway is None:
            raise ValueError("llm mode requires a gateway")
        check_temperature(temperature, "judge temperature")
        if max_retries < 0:
            raise ConfigError("judge max_retries must be >= 0")
        self.mode = mode
        self.gateway = gateway
        self.temperature = temperature
        self.max_retries = max_retries

    def score(self, plan, demos, obs: dict) -> JudgeVerdict:
        if self.mode == "rubric":
            return score_plan(plan, demos, obs)
        plan = tuple(plan)
        if not plan:
            raise ValueError("cannot score an empty plan")
        bundle = build_judge_prompt(demos, obs, plan)
        req = ChatRequest(system=bundle.system_text, user=bundle.user_text,
                          temperature=self.temperature, tag="judge")
        try:
            return self.gateway.complete_and_parse(req, parse_verdict, self.max_retries)
        except ExhaustedRetries as exc:
            raise JudgeParseError(str(exc)) from exc
