"""Serialization of demonstrations into ICL prompt text and completion parsing.

The grammar is fixed byte-for-byte so prompts can be cached, diffed, and
pinned by golden files:

* observation: ``{'ball': [50, 49, 31], 'leader_arm': [[1, 2, ...]]}``
  (single-quoted names, one space after ``:`` and ``,``, partner entry last)
* action sequence: ``[[v, v, v, r, r, r, g], ...]`` (7 or 14 integers each)
* prompt body: ``obs_1>actions_1, obs_2>actions_2, ..., obs_test>``

Completion parsing is tolerant (prose, code fences, trailing commas) while
rendering is strict; backends routinely wrap their answer in chatter.
``parse_prompt`` and ``parse_judge_prompt`` accept exactly the renderers'
output: they decode a prompt, render the result again and reject any text
that does not come back byte for byte. The scripted oracle reads prompts
through them.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass

from .actions import BimanualAction, DiscreteAction
from .errors import ArityMismatch, OracleParseError, ParseFailure, RangeError, RangeViolation
from .perception import Observation

ARM_FILTERS = ("right", "left", "both")
PARTNER_KEYS = ("leader_arm", "follower_arm")
JUDGE_REFS_HEADER = "Reference Demos\n"
JUDGE_CANDIDATE_HEADER = "\n\nCandidate Plan\n"

SINGLE_ARM_SYSTEM = (
    "You are the {arm} arm of a bimanual Franka Panda robot with parallel grippers.\n"
    "We provide you with some demos in the format of observation>[action_1, action_2, ...].\n"
    "Then you will receive a new observation and you need to output a list of actions "
    "that matches the trend in the demos.\n"
    "Do not output anything else."
)

BOTH_ARMS_SYSTEM = (
    "You are both arms of a bimanual Franka Panda robot with parallel grippers.\n"
    "We provide you with some demos in the format of observation>[action_1, action_2, ...].\n"
    "Then you will receive a new observation and you need to output a list of actions "
    "that matches the trend in the demos.\n"
    "Do not output anything else."
)

JUDGE_SYSTEM = """You are a strict judge evaluating bimanual robot action plans.

CONTEXT: Two Franka Panda arms (right=indices 0-6, left=indices 7-13) in a 100x100x100 voxel workspace. Each 14-dim action is [right_x, right_y, right_z, right_rot1, right_rot2, right_rot3, right_gripper, left_x, left_y, left_z, left_rot1, left_rot2, left_rot3, left_gripper].

TASK: Score the CANDIDATE plan from 1 to 5. START AT 3 and adjust:

CHECK 1 - Arm collision risk (+1 or -1):
At each timestep, compute the Euclidean distance between right [x,y,z] and left [x,y,z]. If ANY step has distance < 10 voxels AND both arms are actively moving (not stationary), that is a collision risk: -1. If all steps have safe separation: +1.

CHECK 2 - Target + trajectory match vs demos (+1 or -1):
Does the candidate approach the SAME objects as in demos (first action within 5 voxels of demo first action)? Does the z-trajectory follow the same shape (e.g. approach high, descend to grasp, lift)? Both must be true for +1. Either failing: -1.

CHECK 3 - Gripper logic (0 or -1):
For EACH arm: does the gripper open/close at the correct step relative to when the arm reaches the object? Closing too early (before reaching), or gripper sequence inverted vs demos: -1.

CHECK 4 - Workspace reachability (0 or -1):
Right arm should mostly operate in x > 30 (its reachable zone). Left arm should mostly operate in x < 70. If an arm consistently reaches into the opposite side of the workspace (>3 steps): -1.

Final score = 3 + check1 + check2 + check3 + check4, clamped to [1, 5].

You MUST show your work for each check, then give the final score.
Output ONLY valid JSON:
{"check1": "+1 or -1: <reason>", "check2": "+1 or -1: <reason>", "check3": "0 or -1: <reason>", "check4": "0 or -1: <reason>", "score": <int 1-5>}"""


@dataclass(frozen=True)
class PromptBundle:
    """A ready-to-send [system, user] message pair plus its pipeline role."""

    system_text: str
    user_text: str
    role: str  # single | leader | follower | judge
    arm: str  # right | left | both

    def __post_init__(self):
        if not self.system_text:
            raise ValueError("system_text must be non-empty")
        if self.role != "judge" and not self.user_text.endswith(">"):
            raise ValueError("continuation prompts must end with '>'")


@dataclass(frozen=True)
class ParsedCompletion:
    """Validated integer action tuples recovered from a raw completion."""

    actions: tuple[tuple[int, ...], ...]
    raw: str

    def to_discrete(self) -> tuple[DiscreteAction, ...]:
        return tuple(DiscreteAction.from_tuple(a) for a in self.actions)

    def to_bimanual(self) -> tuple[BimanualAction, ...]:
        return tuple(BimanualAction.from_tuple(a) for a in self.actions)


def render_action(values) -> str:
    return "[" + ", ".join(str(int(v)) for v in values) + "]"


def render_action_list(actions) -> str:
    """Render a sequence of action tuples as the canonical list-of-lists."""
    return "[" + ", ".join(render_action(_components(a)) for a in actions) + "]"


def _components(action):
    if isinstance(action, (DiscreteAction, BimanualAction)):
        return action.as_tuple()
    return tuple(int(v) for v in action)


def serialize_observation(obs: Observation) -> str:
    """Render an observation in the canonical single-quoted grammar."""
    parts = [f"'{name}': {render_action(voxel)}" for name, voxel in obs.entries.items()]
    if obs.partner_key is not None:
        parts.append(f"'{obs.partner_key}': {render_action_list(obs.partner_actions)}")
    return "{" + ", ".join(parts) + "}"


def _filter_action(action: BimanualAction, arm_filter: str):
    if arm_filter == "both":
        return action.as_tuple()
    return action.arm(arm_filter).as_tuple()


def _demo_pairs(rendered_pairs, test_obs_text=None) -> str:
    """Join ``obs>actions`` pairs, then the open ``test_obs>`` when one is given."""
    segments = [f"{obs}>{acts}" for obs, acts in rendered_pairs]
    if test_obs_text is not None:
        segments.append(f"{test_obs_text}>")
    return ", ".join(segments)


def build_single_prompt(demos, test_obs: Observation, arm_filter: str = "both",
                        role: str | None = None) -> PromptBundle:
    """Serialize demos and the test observation into one continuation prompt.

    ``arm_filter`` picks which action components appear: ``both`` keeps the
    full 14 integers, ``right``/``left`` keep that arm's 7. Task text is
    deliberately absent; the pattern alone carries the objective.
    """
    if arm_filter not in ARM_FILTERS:
        raise ValueError(f"unknown arm filter {arm_filter!r}")
    if not demos:
        raise ValueError("at least one demonstration is required")
    pairs = [
        (
            serialize_observation(demo.observation),
            render_action_list([_filter_action(a, arm_filter) for a in demo.actions]),
        )
        for demo in demos
    ]
    system = BOTH_ARMS_SYSTEM if arm_filter == "both" else SINGLE_ARM_SYSTEM.format(arm=arm_filter)
    return PromptBundle(
        system_text=system,
        user_text=_demo_pairs(pairs, serialize_observation(test_obs)),
        role=role or ("single" if arm_filter == "both" else "leader"),
        arm=arm_filter,
    )


def build_conditioned_prompt(demos, test_obs: Observation, *, target_arm: str,
                             partner_key: str, partner_pred) -> PromptBundle:
    """Prompt for one arm conditioned on the other arm's trajectory.

    Every demo observation gains a ``partner_key`` entry holding the demo's
    ground-truth partner-arm actions, and the demo actions are reduced to
    the target arm. The test observation embeds the partner's *predicted*
    trajectory under the same key. The target arm follows when its partner
    is the leader and leads otherwise.
    """
    if target_arm not in ("right", "left"):
        raise ValueError(f"target_arm must be 'right' or 'left', got {target_arm!r}")
    if partner_key not in PARTNER_KEYS:
        raise ValueError(f"unknown partner key {partner_key!r}")
    partner_pred = tuple(partner_pred)
    if not partner_pred:
        raise ValueError("partner prediction must be non-empty")
    if not demos:
        raise ValueError("at least one demonstration is required")

    partner_arm = "left" if target_arm == "right" else "right"
    pairs = []
    for demo in demos:
        augmented = demo.observation.with_partner(
            partner_key, [a.arm(partner_arm) for a in demo.actions]
        )
        pairs.append(
            (
                serialize_observation(augmented),
                render_action_list([a.arm(target_arm).as_tuple() for a in demo.actions]),
            )
        )
    test_aug = test_obs.with_partner(partner_key, partner_pred)
    return PromptBundle(
        system_text=SINGLE_ARM_SYSTEM.format(arm=target_arm),
        user_text=_demo_pairs(pairs, serialize_observation(test_aug)),
        role="follower" if partner_key == "leader_arm" else "leader",
        arm=target_arm,
    )


def build_follower_prompt(demos, test_obs: Observation, leader_pred,
                          leader_is_right: bool = True) -> PromptBundle:
    """Follower-phase prompt: demos and test observation carry the leader plan."""
    return build_conditioned_prompt(
        demos, test_obs, target_arm="left" if leader_is_right else "right",
        partner_key="leader_arm", partner_pred=leader_pred)


def build_judge_prompt(demos, test_obs: Observation, candidate_actions) -> PromptBundle:
    """Validator prompt: reference demos plus the candidate bimanual plan."""
    if not demos:
        raise ValueError("at least one demonstration is required")
    refs = _demo_pairs(
        (serialize_observation(d.observation), render_action_list(d.actions)) for d in demos
    )
    candidate = _demo_pairs(
        [(serialize_observation(test_obs), render_action_list(candidate_actions))]
    )
    user = f"{JUDGE_REFS_HEADER}{refs}{JUDGE_CANDIDATE_HEADER}{candidate}"
    return PromptBundle(system_text=JUDGE_SYSTEM, user_text=user, role="judge", arm="both")


def validate_action_values(values, arity: int):
    """Range-check one action tuple of the given arity (7 or 14)."""
    if arity not in (7, 14):
        raise ValueError(f"arity must be 7 or 14, got {arity}")
    if len(values) != arity:
        raise ArityMismatch(f"expected {arity} components, got {len(values)}: {values}")
    try:
        for offset in range(0, arity, 7):
            DiscreteAction.from_tuple(values[offset:offset + 7])
    except RangeError as exc:
        raise RangeViolation(str(exc)) from exc


def _balanced_span(text: str, start: int, open_ch: str, close_ch: str):
    """Index one past the bracket closing text[start], or None if unbalanced."""
    depth = 0
    for i in range(start, len(text)):
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _try_literal_rows(snippet: str):
    """Parse a bracketed snippet into (rows, is_nested), or None.

    Nested means a proper list of integer lists; a flat integer list is
    accepted only as a fallback when no nested list exists anywhere.
    """
    try:
        value = ast.literal_eval(snippet)
    except (ValueError, SyntaxError):
        return None
    if not isinstance(value, list) or not value:
        return None
    if all(_is_int(v) for v in value):
        return [value], False
    rows = []
    for row in value:
        if not isinstance(row, list) or not row or not all(_is_int(v) for v in row):
            return None
        rows.append(row)
    return rows, True


def parse_completion(text: str, arity: int) -> ParsedCompletion:
    """Extract the first maximal integer list-of-lists from a completion.

    Surrounding prose, markdown fences, and trailing commas are tolerated;
    a flat integer list is accepted as a single action when the completion
    contains no nested list at all. Raises ParseFailure when nothing can be
    extracted, ArityMismatch or RangeViolation when the extracted tuples
    are malformed; the gateway distinguishes these to decide on a retry.
    """
    rows = None
    flat_fallback = None
    pos = text.find("[")
    while pos != -1:
        end = _balanced_span(text, pos, "[", "]")
        if end is not None:
            parsed = _try_literal_rows(text[pos:end])
            if parsed is not None:
                candidate, nested = parsed
                if nested:
                    rows = candidate
                    break
                if flat_fallback is None:
                    flat_fallback = candidate
                pos = end - 1  # skip past the flat list's interior
        pos = text.find("[", pos + 1)
    if rows is None:
        rows = flat_fallback
    if rows is None:
        raise ParseFailure(f"no integer action list found in completion: {text[:120]!r}")
    actions = []
    for row in rows:
        values = tuple(int(v) for v in row)
        validate_action_values(values, arity)
        actions.append(values)
    return ParsedCompletion(actions=tuple(actions), raw=text)


def _rows(value):
    return [tuple(int(v) for v in row) for row in value]


def _observation_parts(obs):
    """Split one decoded observation object into (entries, partner)."""
    if not isinstance(obs, dict):
        raise OracleParseError(f"expected an observation, got {type(obs).__name__}")
    entries, partner = {}, None
    for name, value in obs.items():
        if name in PARTNER_KEYS:
            partner = (name, _rows(value))
        elif len(value) != 3:
            raise OracleParseError(f"voxel {name!r} has {len(value)} components")
        else:
            entries[name] = tuple(int(v) for v in value)
    return entries, partner


def _render_parts(entries, partner) -> str:
    key, rows = partner or (None, ())
    return serialize_observation(Observation(entries, key, tuple(rows)))


def parse_prompt(text: str, with_trailing_test: bool = True):
    """Invert a rendered ``obs>actions, ..., obs>`` prompt body.

    Returns ``(demos, test)``: each demo is ``(entries, partner, actions)``
    and ``test`` is ``(entries, partner)``, where ``partner`` is ``None`` or
    ``(key, action tuples)``; with ``with_trailing_test=False`` the body ends
    after its last action list and ``test`` is ``None``. The body is decoded
    as one JSON array and rendered again, and OracleParseError is raised
    unless that render equals ``text`` byte for byte.
    """
    body = text[:-1] if with_trailing_test else text  # the test observation's '>'
    try:
        items = json.loads("[" + body.replace("'", '"').replace(">", ", ") + "]")
        observations = [_observation_parts(obs) for obs in items[0::2]]
        action_lists = [_rows(actions) for actions in items[1::2]]
    except (ValueError, TypeError, OverflowError) as exc:
        raise OracleParseError(f"prompt outside the grammar: {exc}") from exc
    if not observations or len(observations) != len(action_lists) + with_trailing_test:
        raise OracleParseError("prompt does not alternate observations and action lists")
    demos = [(*obs, actions) for obs, actions in zip(observations, action_lists)]
    test = observations[-1] if with_trailing_test else None
    pairs = [(_render_parts(e, p), render_action_list(a)) for e, p, a in demos]
    if _demo_pairs(pairs, _render_parts(*test) if test else None) != text:
        raise OracleParseError("prompt is not byte-identical renderer output")
    return demos, test


def parse_judge_prompt(text: str):
    """Invert build_judge_prompt's user text into (reference demos, candidate).

    Both parts use parse_prompt's demo shape ``(entries, partner, actions)``.
    """
    head, found, candidate_part = text.partition(JUDGE_CANDIDATE_HEADER)
    if not (found and head.startswith(JUDGE_REFS_HEADER)):
        raise OracleParseError("judge prompt missing its two sections")
    refs, _ = parse_prompt(head[len(JUDGE_REFS_HEADER):], with_trailing_test=False)
    candidates, _ = parse_prompt(candidate_part, with_trailing_test=False)
    if len(candidates) != 1:
        raise OracleParseError("candidate section must hold exactly one plan")
    return refs, candidates[0]
