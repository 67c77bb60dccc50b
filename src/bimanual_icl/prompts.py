"""Serialization of demonstrations into ICL prompt text and completion parsing.

The grammar is fixed byte-for-byte so prompts can be cached, diffed, and
pinned by golden files:

* observation: ``{'ball': [50, 49, 31], 'leader_arm': [[1, 2, ...]]}``
  (single-quoted names, one space after ``:`` and ``,``, partner entry last)
* action sequence: ``[[v, v, v, r, r, r, g], ...]`` (7 or 14 integers each)
* prompt body: ``obs_1>actions_1, obs_2>actions_2, ..., obs_test>``

Rendering is strict, reply parsing is tolerant: backends wrap answers in
chatter. ``json_values`` yields each JSON value starting at a ``[`` or ``{``;
``parse_completion`` takes the first list of integer lists (trailing commas
allowed) and ``judge.parse_verdict`` the first object. Reply numbers are JSON
integers: ``+1``, ``0x1``, ``1_0``, tuples and ``#`` comments are not read.
``parse_prompt`` and ``parse_judge_prompt`` accept exactly the renderers'
output: they decode a prompt, render the result again and reject any text
that does not come back byte for byte. The renderers record each text and
its value in a bounded table per component, observations and action lists,
that the parsers read before they decode: a backend in the renderer's
process decodes nothing. The tables' values are read-only mappings and tuples,
so the parsers return them as they are.
"""

from __future__ import annotations

import json
import re
import threading
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import NamedTuple

from .actions import ARM_DIM, ARM_OFFSET, OTHER_ARM, _is_integer, check_action
from .errors import ArityMismatch, OracleParseError, ParseFailure, RangeError, RangeViolation

ARM_FILTERS = (*ARM_OFFSET, "both")
PARTNER_KEYS = ("leader_arm", "follower_arm")
JUDGE_REFS_HEADER = "Reference Demos\n"
JUDGE_CANDIDATE_HEADER = "\n\nCandidate Plan\n"

_DECODER = json.JSONDecoder()
_OPENING = re.compile(r"[\[{]")
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"?|[\[\]{}]', re.DOTALL)  # a string or a bracket
# a bracket, a string, then a character that may not follow it: the string ends where the
# decoder's would, or the decoder finds it invalid, so no JSON value starts at the bracket
_STRING_THEN_STRAY = re.compile(r'[\[{]\s*"(?:[^"\\]|\\.)*"\s*[^\s,:\]}]', re.DOTALL)
_WINDOW = 1024  # characters _decode_at first decodes a value from
_CUT_REACH = 16  # a value cut by the window fails this close to the cut: '-Infinit' is 8 long
_TRAILING_COMMA = re.compile(r",\s*]")

TABLE_CAPACITY = 512  # texts per table; a store holds 100 observations, 300 lists per task
_TABLE_LOCK = threading.Lock()
_OBSERVATIONS, _ACTION_LISTS = {}, {}  # text -> read-only voxel map; text -> action tuples

ARM_SYSTEM = (
    "You are {} of a bimanual Franka Panda robot with parallel grippers.\n"
    "We provide you with some demos in the format of observation>[action_1, action_2, ...].\n"
    "Then you will receive a new observation and you need to output a list of actions "
    "that matches the trend in the demos.\n"
    "Do not output anything else."
)


def arm_system(arm: str) -> str:
    """``ARM_SYSTEM`` for the arm a prompt asks for: right, left or both."""
    return ARM_SYSTEM.format("both arms" if arm == "both" else f"the {arm} arm")


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


def _record(table: dict, text: str, value) -> str:
    """Keep ``text -> value`` in a table, oldest out past TABLE_CAPACITY; return the text.
    Reads take no lock."""
    with _TABLE_LOCK:
        table[text] = value
        while len(table) > TABLE_CAPACITY:
            del table[next(iter(table))]
    return text


def render_action_list(actions) -> str:
    """Render a sequence of action tuples as the canonical list-of-lists: Python's
    list repr, after int() so numpy integers stay decimal, not '[np.int64(5)]'.
    Every such text decodes back to its rows, so each is recorded."""
    rows = [list(map(int, a)) for a in actions]
    if (text := str(rows)) not in _ACTION_LISTS:
        _record(_ACTION_LISTS, text, tuple(map(tuple, rows)))
    return text


def serialize_observation(obs: dict, partner=None) -> str:
    """Render an object-name -> voxel dict in the canonical single-quoted grammar.

    ``partner`` is an optional ``(key, actions)`` partner-arm entry, one of
    ``PARTNER_KEYS`` holding a single-arm trajectory; it renders last. The text
    before the partner entry is recorded when ``_observation`` would accept it:
    plain-identifier names other than the partner keys, and 3-int voxels.
    """
    voxels = {name: list(map(int, xyz)) for name, xyz in obs.items()}
    text = "{" + ", ".join(f"'{name}': {voxel}" for name, voxel in voxels.items()) + "}"
    if text not in _OBSERVATIONS and all(isinstance(n, str) and n.isidentifier() and len(v) == 3
                                         and n not in PARTNER_KEYS for n, v in voxels.items()):
        _record(_OBSERVATIONS, text, MappingProxyType({n: tuple(v) for n, v in voxels.items()}))
    if partner is not None:
        text = _with_partner(text, partner[0], render_action_list(partner[1]))
    return text


def _with_partner(obs_text: str, key: str, actions_text: str) -> str:
    """Splice the partner entry in before an observation text's closing '}'."""
    entry = f"'{key}': {actions_text}}}"
    return "{" + entry if obs_text == "{}" else f"{obs_text[:-1]}, {entry}"


def demo_texts(demo) -> dict[str, str]:
    """A demo's observation text and its action-list text per arm filter, recorded as
    ``render_action_list`` records them; ``Demonstration.texts`` memoizes them. Each
    keyframe's two arm rows are rendered once and a 14-int row's text joins them. Rows
    that are all tuples of exact ints are recorded as they are, the demo's own ``actions``
    as ``both``; any other row goes through int() first."""
    rows = demo.actions
    if not ({*map(type, rows)} <= {tuple} and {*map(type, chain.from_iterable(rows))} <= {int}):
        rows = tuple(tuple(map(int, a)) for a in rows)
    right = tuple(a[:ARM_DIM] for a in rows)
    left = tuple(a[ARM_DIM:2 * ARM_DIM] for a in rows)
    right_texts, left_texts = [str(list(a)) for a in right], [str(list(a)) for a in left]
    both_texts = [f"{r[:-1]}, {l[1:]}" if len(a) == 2 * ARM_DIM else str(list(a))
                  for r, l, a in zip(right_texts, left_texts, rows)]
    return {"right": _record(_ACTION_LISTS, f"[{', '.join(right_texts)}]", right),
            "left": _record(_ACTION_LISTS, f"[{', '.join(left_texts)}]", left),
            "both": _record(_ACTION_LISTS, f"[{', '.join(both_texts)}]", rows),
            "observation": serialize_observation(demo.observation)}


def _demo_pairs(rendered_pairs, test_obs_text=None) -> str:
    """Join ``obs>actions`` pairs, then the open ``test_obs>`` when one is given."""
    segments = [f"{obs}>{acts}" for obs, acts in rendered_pairs]
    if not segments:
        raise ValueError("at least one demonstration is required")
    if test_obs_text is not None:
        segments.append(f"{test_obs_text}>")
    return ", ".join(segments)


def build_single_prompt(demos, test_obs: dict, arm_filter: str = "both") -> PromptBundle:
    """Serialize demos and the test observation into one continuation prompt.

    ``arm_filter`` picks which action components appear: ``both`` keeps the
    full 14 integers (role ``single``), ``right``/``left`` keep that arm's 7
    (role ``leader``: no partner conditions it). Task text is deliberately
    absent; the pattern alone carries the objective.
    """
    if arm_filter not in ARM_FILTERS:
        raise ValueError(f"unknown arm filter {arm_filter!r}")
    pairs = [(demo.texts["observation"], demo.texts[arm_filter]) for demo in demos]
    return PromptBundle(
        system_text=arm_system(arm_filter),
        user_text=_demo_pairs(pairs, serialize_observation(test_obs)),
        role="single" if arm_filter == "both" else "leader",
        arm=arm_filter,
    )


def build_conditioned_prompt(demos, test_obs: dict, *, target_arm: str,
                             partner_key: str, partner_pred) -> PromptBundle:
    """Prompt for one arm conditioned on the other arm's trajectory.

    Every demo observation gains a ``partner_key`` entry holding the demo's
    ground-truth partner-arm actions, and the demo actions are reduced to
    the target arm. The test observation embeds the partner's *predicted*
    trajectory under the same key. The target arm follows when its partner
    is the leader and leads otherwise.
    """
    if target_arm not in ARM_OFFSET:
        raise ValueError(f"target_arm must be 'right' or 'left', got {target_arm!r}")
    if partner_key not in PARTNER_KEYS:
        raise ValueError(f"unknown partner key {partner_key!r}")
    partner_pred = tuple(partner_pred)
    if not partner_pred:
        raise ValueError("partner prediction must be non-empty")

    pairs = [
        (_with_partner(demo.texts["observation"], partner_key, demo.texts[OTHER_ARM[target_arm]]),
         demo.texts[target_arm])
        for demo in demos
    ]
    return PromptBundle(
        system_text=arm_system(target_arm),
        user_text=_demo_pairs(pairs, serialize_observation(test_obs, (partner_key, partner_pred))),
        role="follower" if partner_key == "leader_arm" else "leader",
        arm=target_arm,
    )


def build_follower_prompt(demos, test_obs: dict, leader_pred,
                          leader_is_right: bool = True) -> PromptBundle:
    """Follower-phase prompt: demos and test observation carry the leader plan."""
    return build_conditioned_prompt(
        demos, test_obs, target_arm=OTHER_ARM["right" if leader_is_right else "left"],
        partner_key="leader_arm", partner_pred=leader_pred)


def build_judge_prompt(demos, test_obs: dict, candidate_actions) -> PromptBundle:
    """Validator prompt: reference demos plus the candidate bimanual plan."""
    refs = _demo_pairs((d.texts["observation"], d.texts["both"]) for d in demos)
    candidate = f"{serialize_observation(test_obs)}>{render_action_list(candidate_actions)}"
    user = f"{JUDGE_REFS_HEADER}{refs}{JUDGE_CANDIDATE_HEADER}{candidate}"
    return PromptBundle(system_text=JUDGE_SYSTEM, user_text=user, role="judge", arm="both")


def json_values(text: str):
    """Yield each JSON value that decodes at an opening ``[`` or ``{`` of text, in order.

    Brackets inside a value already yielded start values too, so a caller
    that rejects a value still sees the values nested in it; a bracket where
    no JSON value starts is skipped. The work stays close to linear on
    brackets that never close: when decoding fails at position e, a bracket
    still open at e would fail at e too (a nested value decodes the same in
    any context), so it is not tried again. Nor is a bracket whose first item
    is a string followed by a character that may not follow it, such as a
    bracket inside a string of '["[", ["[", '. When a decode runs out of
    recursion, the text is read to the end of that value once: a bracket left
    open at the end of the text, or whose value nests more levels than the
    decoder reaches, is not tried again. That reach is found by a binary search
    over decodes of nested lists, about log2 of the deepest closed value's levels
    of them, made only when a bracket of the value read closes.
    """
    failed, read = set(), set()
    for match in _OPENING.finditer(text):
        start = match.start()
        if start in failed or _STRING_THEN_STRAY.match(text, start):
            continue
        try:
            value = _decode_at(text, start)
        except json.JSONDecodeError as exc:
            # a bracket closed before the failure was decoded on the way there
            failed.update(_read_value(text, start, start + exc.pos, read)[0])
        except RecursionError:
            if start not in read:  # else that read marked the brackets of this value
                left_open, closed = _read_value(text, start, len(text), read)
                # the levels a decode from this frame reaches, searched here and not in a
                # helper: before CPython 3.12 each frame on the stack costs a level of it
                reach, deepest = 0, max(closed.values(), default=0)
                while reach < deepest:
                    mid = (reach + deepest + 1) // 2
                    try:
                        _decode_at("[" * mid + "]" * mid, 0)
                        reach = mid
                    except RecursionError:
                        deepest = mid - 1
                failed.update(left_open, [at for at, nested in closed.items() if nested > reach])
        except ValueError:  # e.g. an integer too long to convert
            pass
        else:
            yield value


def _decode_at(text: str, start: int):
    """``raw_decode`` at ``start``, with ``pos`` counted from ``start``. It reads a window
    of text that doubles while decoding fails at the window's end (a cut number or
    literal, or a string still open). A bracketed value ends at its closing bracket,
    so one found in the window is the whole text's, and a failure costs time in
    proportion to the window, not to ``start`` (the error counts lines from the
    beginning of its text)."""
    size = _WINDOW
    while True:
        window = text[start:start + size]
        try:
            return _DECODER.raw_decode(window)[0]
        except json.JSONDecodeError as exc:
            cut = exc.pos >= len(window) - _CUT_REACH or exc.msg.startswith("Unterminated string")
            if not cut or start + size >= len(text):
                raise
        size *= 2


def _read_value(text: str, start: int, end: int, read: set):
    """Read ``text[start:end]`` as the valid start of one JSON value, up to that value's
    end. Returns the brackets still open where the read stops, and a map from each
    bracket closed before to the levels its value nests (the decoder spends a level of
    its reach per bracket). Adds every bracket read to ``read``."""
    stack, levels, closed = [], [], {}
    for token in _JSON_TOKEN.finditer(text, start, end):
        if token.group() in ("[", "{"):
            stack.append(token.start())
            levels.append(1)
            read.add(token.start())
        elif token.group() in ("]", "}"):
            nested = levels.pop()
            closed[stack.pop()] = nested
            if not stack:
                break
            levels[-1] = max(levels[-1], nested + 1)
    return stack, closed


def _is_row(value) -> bool:
    return isinstance(value, list) and bool(value) and all(map(_is_integer, value))


def parse_completion(text: str, arity: int) -> tuple[tuple[int, ...], ...]:
    """Extract the first non-empty JSON list of integer lists from a completion,
    as a tuple of validated action tuples.

    Surrounding prose, markdown fences, and trailing commas inside a list are
    tolerated; a flat integer list is accepted as a single action when the
    completion contains no nested list at all. Numbers are JSON integers:
    bools, floats, ``+1``, ``0x1``, ``1_0``, tuples and comments are not
    actions. Raises ParseFailure when nothing can be extracted, ArityMismatch
    or RangeViolation when the extracted tuples are malformed. All three are
    CompletionErrors, on which the gateway retries. A rendered action list with
    rows, none empty, is read from its table entry: the scan would find those rows.
    """
    actions = _ACTION_LISTS.get(text)
    if not (actions and all(actions)):
        rows = flat = None
        for value in json_values(_TRAILING_COMMA.sub("]", text)):
            if _is_row(value):
                flat = flat or [value]
            elif isinstance(value, list) and value and all(map(_is_row, value)):
                rows = value
                break
        rows = rows or flat
        if rows is None:
            raise ParseFailure(f"no integer action list found in completion: {text[:120]!r}")
        actions = tuple(map(tuple, rows))
    for values in actions:
        if len(values) != arity:
            raise ArityMismatch(f"expected {arity} components, got {len(values)}: {values}")
        try:
            check_action(values, arity)
        except RangeError as exc:
            raise RangeViolation(str(exc)) from exc
    return actions


def _observation(text: str):
    """An observation text without partner entry as a read-only name -> voxel map: its
    table entry, or else decoded and checked, and recorded by the check's render when
    the renderer records such texts."""
    entries = _OBSERVATIONS.get(text)
    if entries is None:
        entries = MappingProxyType({name: tuple(map(int, voxel))
                                    for name, voxel in json.loads(text.replace("'", '"')).items()})
        if (serialize_observation(entries) != text
                or any(name in PARTNER_KEYS or len(voxel) != 3 for name, voxel in entries.items())):
            raise ValueError("observation is not byte-identical renderer output")
    return entries


def _action_list(text: str):
    """An action-list text as action tuples: its table entry, or else decoded and
    checked, and recorded by the check's render."""
    actions = _ACTION_LISTS.get(text)
    if actions is None:
        actions = tuple(tuple(map(int, row)) for row in json.loads(text))
        if render_action_list(actions) != text:
            raise ValueError("action list is not byte-identical renderer output")
    return actions


def _parse_components(segment: str, pair: bool):
    """Decode one ``obs>actions`` pair, or the open ``obs>`` when not ``pair``, into
    ``(entries, partner, actions)``. The segment is split at its first '>' (a name
    holding '>' is outside the grammar) and before a trailing partner entry; each part
    goes through its table and must render back byte for byte, and so must their join.
    A pair's action list must not be empty: the judge's rubric reads its first action."""
    obs_text, found, actions_text = segment.partition(">")
    base_text, partner = obs_text, None
    try:
        if not found or (actions_text and not pair):
            raise ValueError("segment is not an observation and its action list")
        for key in PARTNER_KEYS:
            head, marker, tail = obs_text.rpartition(f"'{key}': ")
            if marker:
                base_text = "{}" if head == "{" else head[:-2] + "}"
                if _with_partner(base_text, key, tail[:-1]) != obs_text:
                    raise ValueError("partner entry is not the observation's last")
                partner = (key, _action_list(tail[:-1]))
                break
        actions = _action_list(actions_text) if pair else ()
        if pair and not actions:
            raise ValueError("a demo's action list is empty")
        # tuple.__new__ is as cheap as a plain tuple, unlike ParsedDemo's Python __new__
        return tuple.__new__(ParsedDemo, (_observation(base_text), partner, actions))
    # AttributeError: an observation that is not an object
    except (ValueError, TypeError, OverflowError, RecursionError, AttributeError) as exc:
        raise OracleParseError(f"prompt outside the grammar: {exc}") from exc


class ParsedDemo(NamedTuple):
    """One parsed ``obs>actions`` segment, equal to the plain ``(entries, partner,
    actions)`` tuple; the judge's rubric reads it as a ``Demonstration``."""

    observation: Mapping  # read-only name -> voxel map
    partner: tuple | None  # (key, action tuples) of a partner entry
    actions: tuple  # action tuples


def parse_prompt(text: str, with_trailing_test: bool = True):
    """Invert a rendered ``obs>actions, ..., obs>`` prompt body.

    Returns ``(demos, test)``: each demo is a ``ParsedDemo(observation, partner,
    actions)`` and ``test`` is ``(entries, partner)``, where ``partner`` is ``None``
    or ``(key, action tuples)``; with ``with_trailing_test=False`` the body ends
    after its last action list and ``test`` is ``None``. The body is split
    before each ``{``, which opens only an observation; each segment must
    render back byte for byte, and its observation and action lists go
    through the component tables. The values are the tables' own, and none
    of them can change: no caller alters what the next parse returns.
    """
    segments = text.split(", {")
    segments[1:] = ["{" + segment for segment in segments[1:]]
    test = _parse_components(segments.pop(), pair=False)[:2] if with_trailing_test else None
    return [_parse_components(segment, pair=True) for segment in segments], test


def parse_judge_prompt(text: str):
    """Invert build_judge_prompt's user text into (reference demos, candidate).

    Both parts are parse_prompt's ``ParsedDemo``s, and every action row of
    both holds the 14 components of a bimanual action.
    """
    head, found, candidate_part = text.partition(JUDGE_CANDIDATE_HEADER)
    if not (found and head.startswith(JUDGE_REFS_HEADER)):
        raise OracleParseError("judge prompt missing its two sections")
    refs, _ = parse_prompt(head[len(JUDGE_REFS_HEADER):], with_trailing_test=False)
    candidates, _ = parse_prompt(candidate_part, with_trailing_test=False)
    if len(candidates) != 1:
        raise OracleParseError("candidate section must hold exactly one plan")
    for _, _, actions in (*refs, *candidates):
        for row in actions:
            if len(row) != 2 * ARM_DIM:
                raise OracleParseError(f"judge action row holds {len(row)} components, not 14")
    return refs, candidates[0]
