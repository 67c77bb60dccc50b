import json
import random
import re
import sys
import threading
import time
import tracemalloc
from collections.abc import Mapping
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bimanual_icl.actions import ARM_OFFSET, check_action
from bimanual_icl.demos import Demonstration
from bimanual_icl.errors import (
    ArityMismatch,
    OracleParseError,
    ParseFailure,
    RangeError,
    RangeViolation,
)
from bimanual_icl import prompts
from bimanual_icl.gateway import ChatRequest, OracleBackend
from bimanual_icl.runner import RunConfig, run_experiment
from bimanual_icl.prompts import (
    JUDGE_CANDIDATE_HEADER,
    JUDGE_REFS_HEADER,
    PARTNER_KEYS,
    PromptBundle,
    build_conditioned_prompt,
    build_follower_prompt,
    build_judge_prompt,
    build_single_prompt,
    parse_completion,
    parse_judge_prompt,
    parse_prompt,
    render_action_list,
    serialize_observation,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def random_action(rng, arity):
    def arm():
        return (
            [rng.randrange(100) for _ in range(3)]
            + [rng.randrange(72) for _ in range(3)]
            + [rng.randrange(2)]
        )

    return tuple(arm() if arity == 7 else arm() + arm())


class TestSerializeObservation:
    def test_empty(self):
        assert serialize_observation({}) == "{}"

    def test_single_entry(self):
        obs = {"ball": (50, 49, 31)}
        assert serialize_observation(obs) == "{'ball': [50, 49, 31]}"

    def test_partner_entry_renders_last(self):
        obs = {"ball": (50, 49, 31)}
        partner = ("leader_arm", [(50, 49, 40, 36, 36, 0, 1)])
        assert serialize_observation(obs, partner) == (
            "{'ball': [50, 49, 31], 'leader_arm': [[50, 49, 40, 36, 36, 0, 1]]}"
        )

    def test_numpy_integers_render_as_plain_decimals(self):
        obs = {"ball": np.array([50, 49, 31], dtype=np.int64)}
        partner = ("leader_arm", [np.arange(7, dtype=np.int32)])
        assert serialize_observation(obs, partner) == (
            "{'ball': [50, 49, 31], 'leader_arm': [[0, 1, 2, 3, 4, 5, 6]]}"
        )
        assert render_action_list([tuple(np.int64(v) for v in range(14))]) == (
            str([list(range(14))])
        )

    def test_injective_on_distinct_entries(self):
        a = {"x": (1, 2, 3)}
        b = {"x": (1, 2, 4)}
        c = {"y": (1, 2, 3)}
        rendered = {serialize_observation(o) for o in (a, b, c)}
        assert len(rendered) == 3


class TestBuildSinglePrompt:
    def test_structure_one_demo(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        bundle = build_single_prompt(demos[:1], test_obs, arm_filter="both")
        assert bundle.user_text.count(">") == 2
        assert bundle.user_text.endswith(">")

    def test_right_filter_keeps_first_seven(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        bundle = build_single_prompt(demos, test_obs, arm_filter="right")
        first_action = demos[0].actions[0]
        assert render_action_list([first_action[:7]])[1:-1] in bundle.user_text
        assert str(list(first_action)) not in bundle.user_text

    def test_gt_count_is_demos_plus_one(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        many = (demos * 5)[:10]
        bundle = build_single_prompt(many, test_obs, arm_filter="both")
        assert bundle.user_text.count(">") == 11

    def test_requires_demos(self, two_demo_fixture):
        _, test_obs = two_demo_fixture
        with pytest.raises(ValueError):
            build_single_prompt([], test_obs)


class TestBuildFollowerPrompt:
    def test_every_demo_observation_is_augmented(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        leader_pred = [a[:7] for a in demos[0].actions]
        bundle = build_follower_prompt(demos, test_obs, leader_pred, leader_is_right=True)
        assert bundle.user_text.count("'leader_arm':") == len(demos) + 1

    def test_follower_actions_are_left_tuples(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        leader_pred = [a[:7] for a in demos[0].actions]
        bundle = build_follower_prompt(demos, test_obs, leader_pred, leader_is_right=True)
        left_actions = render_action_list([a[7:] for a in demos[0].actions])
        assert f"}}>{left_actions}" in bundle.user_text
        assert bundle.arm == "left"

    def test_reversed_conditioning_uses_follower_key(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        follower_pred = [a[7:] for a in demos[0].actions]
        bundle = build_conditioned_prompt(
            demos, test_obs, target_arm="right",
            partner_key="follower_arm", partner_pred=follower_pred,
        )
        assert "'follower_arm':" in bundle.user_text
        assert "'leader_arm':" not in bundle.user_text
        assert (bundle.role, bundle.arm) == ("leader", "right")

    def test_partner_is_the_other_arm(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        bundle = build_conditioned_prompt(
            demos, test_obs, target_arm="right",
            partner_key="leader_arm", partner_pred=[a[7:] for a in demos[0].actions],
        )
        left_actions = render_action_list([a[7:] for a in demos[0].actions])
        right_actions = render_action_list([a[:7] for a in demos[0].actions])
        assert f"'leader_arm': {left_actions}}}>{right_actions}" in bundle.user_text
        assert (bundle.role, bundle.arm) == ("follower", "right")

    def test_partner_entry_alone_in_empty_observation(self, two_demo_fixture):
        demos, _ = two_demo_fixture
        bare = Demonstration(observation={}, actions=demos[0].actions)
        bundle = build_follower_prompt([bare], {}, [a[:7] for a in bare.actions])
        right_actions = render_action_list([a[:7] for a in bare.actions])
        assert bundle.user_text.startswith(f"{{'leader_arm': {right_actions}}}>")
        assert bundle.user_text.endswith(f", {{'leader_arm': {right_actions}}}>")

    def test_unknown_target_arm_rejected(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        with pytest.raises(ValueError):
            build_conditioned_prompt(demos, test_obs, target_arm="both", partner_key="leader_arm",
                                     partner_pred=[demos[0].actions[0][7:]])

    def test_unknown_partner_key_rejected(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        with pytest.raises(ValueError):
            build_conditioned_prompt(demos, test_obs, target_arm="right", partner_key="other_arm",
                                     partner_pred=[demos[0].actions[0][7:]])

    def test_empty_leader_prediction_rejected(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        with pytest.raises(ValueError):
            build_follower_prompt(demos, test_obs, [], leader_is_right=True)


class TestGoldenPrompts:
    @pytest.mark.parametrize("name", [
        "single_agent", "leader_right", "follower_left", "debate_round2_leader",
    ])
    def test_byte_exact(self, name, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        leader_pred = [a[:7] for a in demos[0].actions]
        follower_pred = [a[7:] for a in demos[0].actions]
        built = {
            "single_agent": lambda: build_single_prompt(demos, test_obs, arm_filter="both"),
            "leader_right": lambda: build_single_prompt(demos, test_obs, arm_filter="right"),
            "follower_left": lambda: build_follower_prompt(demos, test_obs, leader_pred,
                                                           leader_is_right=True),
            "debate_round2_leader": lambda: build_conditioned_prompt(
                demos, test_obs, target_arm="right",
                partner_key="follower_arm", partner_pred=follower_pred),
        }[name]()
        golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
        assert built.system_text == golden["system"]
        assert built.user_text == golden["user"]
        assert built.role == golden["role"]
        assert built.arm == golden["arm"]


class TestJudgePrompt:
    def test_sections_and_candidate(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        bundle = build_judge_prompt(demos, test_obs, [demos[0].actions[0]])
        assert bundle.user_text.startswith("Reference Demos\n")
        assert "\n\nCandidate Plan\n" in bundle.user_text
        assert bundle.role == "judge"
        assert bundle.system_text.startswith("You are a strict judge")


class TestParseCompletion:
    def test_plain_list(self):
        parsed = parse_completion("[[1,2,3,4,5,6,1]]", arity=7)
        assert parsed == ((1, 2, 3, 4, 5, 6, 1),)

    def test_prose_and_code_fence(self):
        text = "Here is the plan:\n```[[1,2,3,4,5,6,1],[1,2,9,4,5,6,0]]```"
        parsed = parse_completion(text, arity=7)
        assert parsed == ((1, 2, 3, 4, 5, 6, 1), (1, 2, 9, 4, 5, 6, 0))

    def test_trailing_comma(self):
        parsed = parse_completion("[[1, 2, 3, 4, 5, 6, 1],]", arity=7)
        assert len(parsed) == 1

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            parse_completion("[[1,2,3]]", arity=7)

    def test_range_violation(self):
        with pytest.raises(RangeViolation):
            parse_completion("[[1,2,3,4,5,6,2]]", arity=7)
        with pytest.raises(RangeViolation):
            parse_completion("[[100,2,3,4,5,6,1]]", arity=7)
        with pytest.raises(RangeViolation):
            parse_completion("[[1,2,3,72,5,6,1]]", arity=7)

    def test_range_violation_matches_the_action_type(self):
        values = (1, 2, 3, 4, 5, 6, 1, 100, 2, 3, 4, 5, 6, 1)
        with pytest.raises(RangeViolation) as violation:
            parse_completion(render_action_list([values]), arity=14)
        with pytest.raises(RangeError) as range_error:
            check_action(values, arity=14)
        assert str(violation.value) == str(range_error.value)

    def test_no_list(self):
        with pytest.raises(ParseFailure):
            parse_completion("I cannot help with that.", arity=7)

    def test_prefers_nested_over_flat(self):
        text = "step [3] then [[1,2,3,4,5,6,1]]"
        parsed = parse_completion(text, arity=7)
        assert parsed == ((1, 2, 3, 4, 5, 6, 1),)

    def test_flat_fallback(self):
        parsed = parse_completion("[1, 2, 3, 4, 5, 6, 0]", arity=7)
        assert parsed == ((1, 2, 3, 4, 5, 6, 0),)

    @pytest.mark.parametrize("text", [
        "[[1, 2, 3, 4, 5, 6, 1],\n [1, 2, 9, 4, 5, 6, 0],\n]",
        "[\n  [1, 2, 3, 4, 5, 6, 1],\n  [1, 2, 9, 4, 5, 6, 0]\n]",
        "Plan [draft: [[1, 2, 3, 4, 5, 6, 1], [1, 2, 9, 4, 5, 6, 0]]",
    ])
    def test_every_row_survives_commas_newlines_and_stray_brackets(self, text):
        assert parse_completion(text, arity=7) == (
            (1, 2, 3, 4, 5, 6, 1), (1, 2, 9, 4, 5, 6, 0))

    @pytest.mark.parametrize("text", [
        "[[+1, 2, 3, 4, 5, 6, 1]]",  # reply numbers are JSON integers
        "[" * 1100 + "]" * 1100,  # deeper than the decoder recurses
    ])
    def test_not_an_action_list(self, text):
        with pytest.raises(ParseFailure):
            parse_completion(text, arity=7)

    def test_round_trip_identity_both_arities(self):
        rng = random.Random(99)
        for arity in (7, 14):
            for _ in range(250):
                n = rng.randrange(1, 6)
                actions = [random_action(rng, arity) for _ in range(n)]
                rendered = render_action_list(actions)
                assert parse_completion(rendered, arity) == tuple(actions)


def reference_json_values(text):
    """The scanner as it was before its work was bounded: every opening bracket
    is decoded from scratch. The bounded scanner must agree with it."""
    decoder = json.JSONDecoder()
    for match in re.finditer(r"[\[{]", text):
        try:
            yield decoder.raw_decode(text, match.start())[0]
        except (ValueError, RecursionError):
            pass


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


_REPLY_PIECE_TEXTS = [
    "[", "]", "{", "}", '"', "\\", ",", ", ", ":", " ", "\n", "0", "1", "7", "-1", "99",
    "1.5", "true", "null", "plan", "check1", "[1, 2, 3, 4, 5, 6, 1]", "[[1, 2, 3, 4, 5, 6, 0]]",
    '{"check1": 1, "check2": "-1: far", "check3": 0, "check4": "0: ok"}', '"check2": ',
    '"[', ']"', "```",
]
_replies = st.lists(st.sampled_from(_REPLY_PIECE_TEXTS), max_size=40).map("".join)


class TestJsonValues:
    @settings(max_examples=400)
    @given(text=_replies)
    @example(text="[1, [2, [3, x")
    @example(text='["[", [1, 2, 3, 4, 5, 6, 1]')
    @example(text='[[1, "]", [1, 2, 3, 4, 5, 6, 1]')
    @example(text='{"a": [1, {"b": "[[1, 2, 3, 4, 5, 6, 1]]"')
    def test_agrees_with_the_reference_scanner(self, text):
        from bimanual_icl import judge

        assert list(prompts.json_values(text)) == list(reference_json_values(text))
        bounded = [_outcome(lambda t: parse_completion(t, arity), text) for arity in (7, 14)]
        bounded.append(_outcome(judge.parse_verdict, text))
        with mock.patch.object(prompts, "json_values", reference_json_values), \
                mock.patch.object(judge, "json_values", reference_json_values):
            reference = [_outcome(lambda t: parse_completion(t, arity), text) for arity in (7, 14)]
            reference.append(_outcome(judge.parse_verdict, text))
        assert bounded == reference

    @settings(max_examples=400)
    @given(text=st.lists(st.sampled_from([
        *_REPLY_PIECE_TEXTS, "-Infinity", "NaN", "false", "1e+5", "-0.5E-3",
        "\\u12ab", "\\ud83d\\ude00", "\\x", "\t", "        "]), max_size=60).map("".join))
    @example(text='["' + "a" * 40 + '", [1, 2, 3, 4, 5, 6, 1]]')
    @example(text="[" + " " * 40 + "-Infinity, [1, 2, 3, 4, 5, 6, 1]]")
    def test_small_windows_agree_with_the_reference_scanner(self, text):
        # values cut by the decode window, retried in a larger one; repr because NaN != NaN
        expected = repr(list(reference_json_values(text)))
        for window in (1, 17, 24):
            with mock.patch.object(prompts, "_WINDOW", window):
                assert repr(list(prompts.json_values(text))) == expected

    @pytest.mark.parametrize("text", ["[" * 20_000, "[1, " * 20_000, '["[", ' * 20_000])
    def test_unclosed_brackets_take_little_time(self, text):
        from bimanual_icl.judge import parse_verdict

        started = time.perf_counter()
        with pytest.raises(ParseFailure):
            parse_completion(text, arity=7)
        assert time.perf_counter() - started < 0.5
        started = time.perf_counter()
        with pytest.raises(ValueError, match="no JSON object"):
            parse_verdict(text)
        assert time.perf_counter() - started < 0.5

    @pytest.mark.parametrize("text", [
        '["[", "[", 1]',
        '["[1]", "]',
        '["[1, ", "]',
        '[" \\" [", x]',
        '["\\u00"x"]',
        '["a\\\n" x]',
        '["a\nb" x]',
        '["a"\x0b]',
        '["a"\x0bx]',
        '[\x0b"a" x]',
        '{"a" x}',
        '{"a" , 1}',
        '{"a": ["{", "b" "c"]}',
    ])
    def test_a_string_followed_by_a_stray_character_agrees_with_the_reference(self, text):
        assert list(prompts.json_values(text)) == list(reference_json_values(text))

    def test_brackets_inside_strings_are_not_decoded_one_by_one(self):
        # 2,000 of the 4,000 openings sit inside a string; each is followed by a
        # string and then an opening, so no value starts there
        text = '["[", ' * 2_000
        with mock.patch.object(prompts, "_decode_at", wraps=prompts._decode_at) as decode:
            assert list(prompts.json_values(text)) == []
        assert decode.call_count < 100

    def test_values_behind_a_too_deep_one_are_still_found(self):
        text = "[" * 5_000 + " [[1, 2, 3, 4, 5, 6, 1]]"
        assert parse_completion(text, arity=7) == ((1, 2, 3, 4, 5, 6, 1),)

    @pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": [', "]}")])
    def test_values_near_the_decoders_depth_limit_are_kept(self, opening, closing):
        # the levels the decoder reaches shrink as the call stack grows, so the limit is
        # measured here and only values nesting 10 or more levels below it are compared
        limit = _decodable_levels()
        text = opening * (limit + 20) + closing * (limit + 20)
        expected = [n for n in map(_levels, reference_json_values(text)) if n <= limit - 10]
        kept = [n for n in map(_levels, prompts.json_values(text)) if n <= limit - 10]
        assert kept == expected
        assert expected[0] == limit - 10

    def test_values_deeper_than_the_recursion_limit_are_kept_where_the_decoder_reaches(self):
        # from CPython 3.12 on the decoder's levels count against a limit of their own, and
        # it reads values nested deeper than sys.getrecursionlimit(); a limit reported below
        # the decoder's reach stands in for that here
        # (values are compared by their levels, one at a time: together they hold
        # levels**2 / 2 lists, about 50 million where the decoder reaches 10,000 levels)
        levels = _decodable_levels() - 20
        text = "[" * 3_000 + "[" * levels + "7" + "]" * levels
        expected = list(map(_levels, reference_json_values(text)))
        with mock.patch.object(sys, "getrecursionlimit", return_value=levels // 2):
            assert list(map(_levels, prompts.json_values(text))) == expected
        assert expected == list(range(levels, 0, -1))

    @pytest.mark.parametrize("text", ['["[", ' * 40_000, "[" * 100_000])
    def test_a_too_deep_reply_is_not_decoded_level_by_level(self, text):
        # the first decode runs out of recursion, and reading on to the end of the text
        # finds every bracket left open there
        with mock.patch.object(prompts, "_decode_at", wraps=prompts._decode_at) as decode:
            assert list(prompts.json_values(text)) == []
        assert decode.call_count < 10


def _levels(value):
    """How many lists and objects nest along a value's first items."""
    levels = 0
    while isinstance(value, (list, dict)):
        levels += 1
        value = next(iter(value.values() if isinstance(value, dict) else value), None)
    return levels


def _decodable_levels():
    """The most levels of nested lists the decoder reads when called from here. From
    CPython 3.12 on that can exceed sys.getrecursionlimit(), so the upper bound doubles
    until a decode runs out of recursion, and a binary search below it finds the reach."""
    low, high = 1, sys.getrecursionlimit()
    while True:
        try:
            json.JSONDecoder().raw_decode("[" * high + "]" * high)
        except RecursionError:
            break
        low, high = high, 2 * high
    high -= 1
    while low < high:
        mid = (low + high + 1) // 2
        try:
            json.JSONDecoder().raw_decode("[" * mid + "]" * mid)
            low = mid
        except RecursionError:
            high = mid - 1
    return low


class TestPromptBundleInvariants:
    def test_requires_continuation_marker(self):
        with pytest.raises(ValueError):
            PromptBundle(system_text="s", user_text="no marker", role="single", arm="both")

    def test_requires_system_text(self):
        with pytest.raises(ValueError):
            PromptBundle(system_text="", user_text="x>", role="single", arm="both")


# --- grammar round trip: parse_prompt / parse_judge_prompt invert the renderers

_triples = st.tuples(*[st.integers(0, 99)] * 3)
_arm_components = [*[st.integers(0, 99)] * 3, *[st.integers(0, 71)] * 3, st.integers(0, 1)]
_arm_actions = st.tuples(*_arm_components)
_bimanual_actions = st.tuples(*_arm_components * 2)
_names = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8).filter(
    lambda name: name not in PARTNER_KEYS
)


_observations = st.dictionaries(_names, _triples, max_size=4)

_demos = st.lists(
    st.builds(Demonstration, observation=_observations,
              actions=st.lists(_bimanual_actions, min_size=1, max_size=4)),
    min_size=1, max_size=3,
)


def _parsed_pair(obs, actions):
    return obs, None, actions


def _arm_tuples(actions, arm):
    if arm == "both":
        return tuple(actions)
    return tuple(a[ARM_OFFSET[arm]:ARM_OFFSET[arm] + 7] for a in actions)


def _assert_truncations_rejected(text, cut):
    """A strict prefix fails to parse, unless it ends at a pair's '>'.

    Checks the prefix at ``cut`` plus those ending just before and just
    after every '>'.
    """
    full_demos, _ = parse_prompt(text)
    marks = [i for i, c in enumerate(text) if c == ">"]
    points = {cut % len(text)} | set(marks) | {i + 1 for i in marks[:-1]}
    for point in sorted(points):
        prefix = text[:point]
        if prefix.endswith(">"):
            demos, _ = parse_prompt(prefix)
            assert demos == full_demos[:len(demos)]
        else:
            with pytest.raises(OracleParseError):
                parse_prompt(prefix)


def _assert_garbles_rejected(text):
    for garbled in ("Sure! " + text, text + " done", text.replace(">", "?", 1)):
        with pytest.raises(OracleParseError):
            parse_prompt(garbled)


class TestParsePromptRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(demos=_demos, test_obs=_observations,
           arm=st.sampled_from(("right", "left", "both")), cut=st.integers(min_value=0))
    def test_single_prompt(self, demos, test_obs, arm, cut):
        text = build_single_prompt(demos, test_obs, arm_filter=arm).user_text
        parsed_demos, parsed_test = parse_prompt(text)
        assert parsed_demos == [
            _parsed_pair(d.observation, _arm_tuples(d.actions, arm)) for d in demos
        ]
        assert parsed_test == (test_obs, None)
        assert {len(a) for _, _, acts in parsed_demos for a in acts} == {
            14 if arm == "both" else 7
        }
        _assert_truncations_rejected(text, cut)
        _assert_garbles_rejected(text)

    @settings(max_examples=60, deadline=None)
    @given(demos=_demos, test_obs=_observations,
           target=st.sampled_from(("right", "left")),
           partner_key=st.sampled_from(PARTNER_KEYS),
           partner_pred=st.lists(_arm_actions, min_size=1, max_size=3),
           cut=st.integers(min_value=0))
    def test_conditioned_prompt(self, demos, test_obs, target, partner_key, partner_pred,
                                cut):
        partner_arm = "left" if target == "right" else "right"
        text = build_conditioned_prompt(
            demos, test_obs, target_arm=target,
            partner_key=partner_key, partner_pred=partner_pred,
        ).user_text
        parsed_demos, parsed_test = parse_prompt(text)
        assert parsed_demos == [
            (d.observation,
             (partner_key, _arm_tuples(d.actions, partner_arm)),
             _arm_tuples(d.actions, target))
            for d in demos
        ]
        assert parsed_test == (test_obs,
                               (partner_key, tuple(partner_pred)))
        _assert_truncations_rejected(text, cut)
        _assert_garbles_rejected(text)

    @settings(max_examples=60, deadline=None)
    @given(demos=_demos, test_obs=_observations,
           candidate=st.lists(_bimanual_actions, min_size=1, max_size=4),
           cut=st.integers(min_value=0))
    def test_judge_prompt(self, demos, test_obs, candidate, cut):
        text = build_judge_prompt(demos, test_obs, candidate).user_text
        refs, parsed_candidate = parse_judge_prompt(text)
        assert refs == [_parsed_pair(d.observation, _arm_tuples(d.actions, "both"))
                        for d in demos]
        assert parsed_candidate == _parsed_pair(test_obs, _arm_tuples(candidate, "both"))
        for garbled in (text[:cut % len(text)], "Sure! " + text, text + " done",
                        text.replace("Candidate Plan", "Candidate", 1)):
            with pytest.raises(OracleParseError):
                parse_judge_prompt(garbled)


# --- mutated prompts: the parsers raise nothing but OracleParseError, and
# whatever they accept is byte-identical renderer output

_MUTATION_CHARS = "[]{},>' 0123456789.-\"ab"


@st.composite
def _mutated_prompts(draw):
    demos, test_obs = draw(_demos), draw(_observations)
    kind = draw(st.sampled_from(("single", "conditioned", "judge")))
    if kind == "single":
        arm = draw(st.sampled_from(("right", "left", "both")))
        text = build_single_prompt(demos, test_obs, arm_filter=arm).user_text
    elif kind == "conditioned":
        target = draw(st.sampled_from(("right", "left")))
        text = build_conditioned_prompt(
            demos, test_obs, target_arm=target,
            partner_key=draw(st.sampled_from(PARTNER_KEYS)),
            partner_pred=draw(st.lists(_arm_actions, min_size=1, max_size=3)),
        ).user_text
    else:
        candidate = draw(st.lists(_bimanual_actions, min_size=1, max_size=4))
        text = build_judge_prompt(demos, test_obs, candidate).user_text
    pos = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(("delete", "insert", "truncate")))
    if edit == "delete":
        return text[:pos] + text[pos + 1:]
    if edit == "insert":
        return text[:pos] + draw(st.sampled_from(_MUTATION_CHARS)) + text[pos:]
    return text[:pos]


def _render_parsed(entries, partner, actions=None):
    """Render one parsed observation (and its actions) with the public renderers."""
    text = serialize_observation(entries, partner) + ">"
    return text if actions is None else text + render_action_list(actions)


def _accepted(parse, text):
    try:
        return parse(text)
    except OracleParseError:
        return None


class TestParsersOnMutatedPrompts:
    @settings(max_examples=300)
    @given(text=_mutated_prompts())
    # a row's opening bracket deleted: the rows hold bare integers
    @example(text="{'ball': [50, 49, 31]}>[[1, 2, 3, 4, 5, 6, 0], 47, 25, 3, 4, 5, 6, 1]], "
                  "{'ball': [50, 49, 31]}>")
    def test_raise_only_parse_errors_and_accept_only_rendered_text(self, text):
        parsed = _accepted(parse_prompt, text)
        if parsed is not None:
            demos, test = parsed
            assert ", ".join([_render_parsed(*d) for d in demos] + [_render_parsed(*test)]) == text
        parsed = _accepted(lambda t: parse_prompt(t, with_trailing_test=False), text)
        if parsed is not None:
            demos, test = parsed
            assert test is None
            assert ", ".join(_render_parsed(*d) for d in demos) == text
        parsed = _accepted(parse_judge_prompt, text)
        if parsed is not None:
            refs, candidate = parsed
            assert (JUDGE_REFS_HEADER + ", ".join(_render_parsed(*d) for d in refs)
                    + JUDGE_CANDIDATE_HEADER + _render_parsed(*candidate)) == text

    @pytest.mark.parametrize("text", [
        "{'a': [1,2, 3]}>",
        "{'a': [1, 2, 3] }>",
        "{\"a\": [1, 2, 3]}>",
        "{'a': [1, 2]}>",
        "{'a': [1, 2, 3.0]}>",
        "{'a': [1e999, 2, 3]}>",
        "{'a': [NaN, 2, 3]}>",
        "{'a': [1, 2, 3]}>[[1, 2, 3, 4, 5, 6, 0]],{'a': [1, 2, 3]}>",
        "{'leader_arm': [[1, 2, 3, 4, 5, 6, 0]], 'a': [1, 2, 3]}>",
        ">",
        "",
    ])
    def test_non_canonical_text_rejected(self, text):
        with pytest.raises(OracleParseError):
            parse_prompt(text)

    def test_names_holding_unbalanced_brackets_round_trip(self):
        obs = {"bin[": (1, 2, 3), "lid}": (4, 5, 6)}
        text = serialize_observation(obs) + ">"
        assert parse_prompt(text) == ([], (obs, None))


def _clear_component_tables():
    prompts._OBSERVATIONS.clear()
    prompts._ACTION_LISTS.clear()


def _reference_rows(value):
    return tuple(tuple(int(v) for v in row) for row in value)


def _reference_segment(segment, pair):
    """Decode one whole ``obs>actions`` segment with one ``json.loads``, reading '>' as
    a comma, then check that it renders back byte for byte; a pair's action list must
    not be empty."""
    body = segment if pair else segment[:-1]
    try:
        items = json.loads("[" + body.replace("'", '"').replace(">", ", ") + "]")
        obs, actions = items if pair else (*items, ())
        if not isinstance(obs, dict):
            raise OracleParseError(f"expected an observation, got {type(obs).__name__}")
        entries, partner = {}, None
        for name, value in obs.items():
            if name in PARTNER_KEYS:
                partner = (name, _reference_rows(value))
            elif len(value) != 3:
                raise OracleParseError(f"voxel {name!r} has {len(value)} components")
            else:
                entries[name] = tuple(int(v) for v in value)
        actions = _reference_rows(actions)
        if pair and not actions:
            raise OracleParseError("a demo's action list is empty")
    except (ValueError, TypeError, OverflowError) as exc:
        raise OracleParseError(f"prompt outside the grammar: {exc}") from exc
    tail = render_action_list(actions) if pair else ""
    if f"{serialize_observation(entries, partner)}>{tail}" != segment:
        raise OracleParseError("prompt is not byte-identical renderer output")
    return entries, partner, actions


def reference_parse_prompt(text, with_trailing_test=True):
    """The whole-segment parser the component parser replaced, uncached: each
    segment is decoded as one unit. The component parser must agree with it."""
    segments = text.split(", {")
    segments[1:] = ["{" + segment for segment in segments[1:]]
    test = _reference_segment(segments.pop(), pair=False)[:2] if with_trailing_test else None
    return [_reference_segment(segment, pair=True) for segment in segments], test


def _parse_outcomes(text):
    """What parse_prompt (both forms) and parse_judge_prompt make of text."""
    return [_accepted(parse, text) for parse in (
        parse_prompt, lambda t: parse_prompt(t, with_trailing_test=False), parse_judge_prompt)]


_ACTION = "[[1, 2, 3, 4, 5, 6, 0]]"
_SEGMENT_CASES = [
    serialize_observation({"lid}": (1, 2, 3)}) + ">",
    serialize_observation({"lid}": (1, 2, 3)}) + ">" + _ACTION,
    serialize_observation({"a}>b": (1, 2, 3)}) + ">",
    serialize_observation({"a>b": (1, 2, 3)}) + ">" + _ACTION,
    serialize_observation({"it's": (1, 2, 3)}) + ">",
    serialize_observation({"a': [1, 2, 3], 'b": (4, 5, 6)}) + ">" + _ACTION,
    serialize_observation({"x, 'leader_arm': ": (1, 2, 3)}) + ">",
    serialize_observation({"x, 'leader_arm': ": (1, 2, 3)}, ("leader_arm", [(1,) * 7])) + ">",
    serialize_observation({"x, 'follower_arm': [": (1, 2, 3)}) + ">" + _ACTION,
    serialize_observation({}, ("leader_arm", [(1, 2, 3, 4, 5, 6, 0)])) + ">" + _ACTION,
    serialize_observation({}, ("follower_arm", [])) + ">",
    "{, 'leader_arm': " + _ACTION + "}>",
    "{'leader_arm': " + _ACTION + "}>",
    "{'leader_arm': " + _ACTION + ", 'a': [1, 2, 3]}>" + _ACTION,
    "{'a': [1, 2, 3], 'leader_arm': [1, 2, 3]}>",
    "{'leader_arm': [1, 2, 3], 'follower_arm': " + _ACTION + "}>",
    "{'leader_arm': " + _ACTION + ", 'leader_arm': " + _ACTION + "}>",
    "{'follower_arm': [1, 2, 3], 'leader_arm': " + _ACTION + "}>",
    "{'leader_arm': [1, 2, 3], 'leader_arm': " + _ACTION + "}>",
    "{'a': [1, 2, 3], 'leader_arm': " + _ACTION + "}}>",
    "{'a': [1, 2, 3]'leader_arm': " + _ACTION + "}>",
    "{'a': [1, 2, 3]}>[]",
    "{'a': [1, 2, 3]}>[[]]",
    "{'a': [1, 2, 3, 4]}>",
    "{'a': [1, 2, 3]}>" + _ACTION + ">",
    "{'a': [1, 2, 3]}",
]


class TestComponentParserAgreesWithSegmentParser:
    @staticmethod
    def _reference_outcomes(text):
        with mock.patch.object(prompts, "parse_prompt", reference_parse_prompt):
            return [_accepted(parse, text) for parse in (
                reference_parse_prompt,
                lambda t: reference_parse_prompt(t, with_trailing_test=False),
                prompts.parse_judge_prompt)]

    @settings(max_examples=300)
    @given(text=_mutated_prompts())
    def test_mutated_prompts(self, text):
        assert _parse_outcomes(text) == self._reference_outcomes(text)

    @pytest.mark.parametrize("case", _SEGMENT_CASES)
    def test_hand_written_segments(self, case):
        demo = "{'ball': [50, 49, 31]}>" + _ACTION
        for text in (case, f"{case}, {demo}, {{}}>", f"{demo}, {case}",
                     f"{JUDGE_REFS_HEADER}{demo}, {case}{JUDGE_CANDIDATE_HEADER}{case}"):
            assert _parse_outcomes(text) == self._reference_outcomes(text)

    @pytest.mark.parametrize("text", [
        "{'a': [1, 2, 3]}>[], {}>",
        f"{JUDGE_REFS_HEADER}{{'a': [1, 2, 3]}}>[]{JUDGE_CANDIDATE_HEADER}{{}}>{_ACTION}",
        f"{JUDGE_REFS_HEADER}{{}}>{_ACTION}{JUDGE_CANDIDATE_HEADER}{{'a': [1, 2, 3]}}>[]",
    ])
    def test_an_empty_demo_action_list_is_a_parse_error(self, text):
        assert _parse_outcomes(text) == [None, None, None]
        assert self._reference_outcomes(text) == [None, None, None]

    @pytest.mark.parametrize("text", [
        "{'a': " + "[" * 100_000 + "}>",
        "{'a': [1, 2, 3]}>" + "[" * 100_000 + ", {}>",
    ])
    def test_nesting_too_deep_is_a_parse_error(self, text):
        with pytest.raises(OracleParseError):
            parse_prompt(text)


def _containers(value):
    """value and every mapping, tuple and list inside it, depth first."""
    if isinstance(value, (Mapping, tuple, list)):
        yield value
        for item in value.values() if isinstance(value, Mapping) else value:
            yield from _containers(item)


# every way a dict or a list could be changed in place
_MUTATIONS = [
    lambda value: value.__setitem__(next(iter(value), 0), (0, 0, 0)),
    lambda value: value.__delitem__(next(iter(value), 0)),
    lambda value: value.clear(),
    lambda value: value.update({"ball": (0, 0, 0)}),
    lambda value: value.pop(),
    lambda value: value.append((9,) * 7),
    lambda value: value.extend([(9,) * 7]),
]


def _in_threads(work, count=8):
    """``work()`` from ``count`` threads released together, switching every microsecond."""
    results, barrier = [None] * count, threading.Barrier(count, timeout=10)

    def run(i):
        barrier.wait()
        results[i] = work()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results


class TestComponentTables:
    def _prompts(self, demos, test_obs):
        return [
            build_single_prompt(demos, test_obs, arm_filter="right").user_text,
            build_follower_prompt(demos, test_obs, [a[:7] for a in demos[0].actions]).user_text,
            build_judge_prompt(demos, test_obs, demos[1].actions).user_text,
        ]

    def test_component_tables_are_bounded(self):
        assert prompts.TABLE_CAPACITY == 512
        _clear_component_tables()
        count = prompts.TABLE_CAPACITY + 3
        texts = [render_action_list([(k,)]) for k in range(count)]
        texts += [serialize_observation({"a": (k, 0, 0)}) for k in range(count)]
        assert len(prompts._ACTION_LISTS) == len(prompts._OBSERVATIONS) == prompts.TABLE_CAPACITY
        assert texts[0] not in prompts._ACTION_LISTS and texts[3] in prompts._ACTION_LISTS
        assert texts[-1] in prompts._OBSERVATIONS

    def test_an_oracle_run_decodes_no_text_it_rendered(self):
        _clear_component_tables()
        with mock.patch.object(prompts.json, "loads", wraps=json.loads) as decode:
            run_experiment(RunConfig(tasks=["handover"],
                                     strategies=["leader_follower", "arms_debate"],
                                     store_size=12, n_demos=4, episodes=3, workers=1))
            assert decode.call_count == 0
            assert (len(prompts._OBSERVATIONS), len(prompts._ACTION_LISTS)) == (14, 34)
            text = build_single_prompt([Demonstration({"a": (1, 2, 3)}, ((0,) * 14,))],
                                       {"a": (1, 2, 4)}).user_text
            _clear_component_tables()
            parse_prompt(text)
            assert decode.call_count == 3  # the patch sees each decode: 2 observations, 1 list

    def test_mutating_a_parse_leaves_the_next_one_unchanged(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        for parse, text in (
                (parse_prompt, build_follower_prompt(demos, test_obs,
                                                     [(1, 2, 3, 4, 5, 6, 1)]).user_text),
                (parse_judge_prompt, build_judge_prompt(demos, test_obs,
                                                        demos[1].actions).user_text)):
            expected, tables = parse(text), _typed_tables()
            parsed_demos, test = parse(text)
            values = list(_containers((*parsed_demos, test)))
            assert len(values) > 10
            for value in values:
                for mutate in _MUTATIONS:
                    with pytest.raises((TypeError, AttributeError)):
                        mutate(value)
            assert _typed_tables() == tables
            assert parse(text) == expected

    def test_threads_agree_with_a_serial_parse_while_the_tables_evict(self, two_demo_fixture,
                                                                       monkeypatch):
        texts = self._prompts(*two_demo_fixture)
        parsers = [parse_prompt, parse_prompt, parse_judge_prompt]
        _clear_component_tables()
        serial = [parse(t) for parse, t in zip(parsers, texts)]
        _clear_component_tables()
        monkeypatch.setattr(prompts, "TABLE_CAPACITY", 2)  # fewer than one prompt's texts
        results = _in_threads(
            lambda: [[parse(t) for parse, t in zip(parsers, texts)] for _ in range(20)])
        assert all(run == serial for result in results for run in result)
        assert len(prompts._OBSERVATIONS) <= 2 and len(prompts._ACTION_LISTS) <= 2


def test_component_table_memory_is_bounded():
    """Both tables filled to capacity with 10-row, 14-int action lists and 4-object
    observations, the largest a task renders. In a fresh interpreter the traced peak
    measured 1.42 MiB at 512 texts per table, 2.14 MiB at 768 and 2.83 MiB at 1,024 (less
    when freed tuples are reused). The 2 MiB budget fails a capacity of 768 or more
    before the benchmark's peak RSS would show it."""
    rng = random.Random(0)
    lists = [[tuple(rng.randrange(100) for _ in range(14)) for _ in range(10)]
             for _ in range(prompts.TABLE_CAPACITY)]
    observations = [{f"object_{j}": tuple(rng.randrange(100) for _ in range(3)) for j in range(4)}
                    for _ in range(prompts.TABLE_CAPACITY)]
    _clear_component_tables()
    tracemalloc.start()
    try:
        for actions, obs in zip(lists, observations):
            render_action_list(actions)
            serialize_observation(obs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(prompts._ACTION_LISTS) == len(prompts._OBSERVATIONS) == prompts.TABLE_CAPACITY
    assert peak < 2 * 2**20, f"filled tables peaked at {peak / 2**20:.2f} MiB"


# --- rendering fills the component tables: a parse reads the same with them
# filled as with them cleared, whatever was rendered

_odd_names = st.one_of(
    st.text("abc_", min_size=1, max_size=4),
    st.sampled_from(["it's", "a\\b", "a>b", "x, {y", "bin[", "lid}", "a]", "é", "名前",
                     "a b", "", *PARTNER_KEYS]),
    st.text(max_size=4),
)
_components = st.one_of(
    st.integers(-3, 120),
    st.integers(-3, 120).map(np.int64),
    st.booleans(),
    st.floats(-3, 120, allow_nan=False),
    st.floats(-3, 120, allow_nan=False).map(np.float64),
)
_odd_voxels = st.lists(_components, min_size=2, max_size=4)
_odd_observations = st.dictionaries(_odd_names, _odd_voxels, max_size=4)
_odd_rows = st.one_of(
    st.lists(st.one_of(st.integers(-3, 120), st.integers(0, 99).map(np.int64), st.booleans()),
             max_size=15),
    _arm_actions,
    _bimanual_actions,
)
_odd_action_lists = st.lists(_odd_rows, max_size=3)
# half the draws are well-formed, so the parsers' accepting paths are reached too
_any_observations = st.one_of(_observations, _odd_observations)
_any_action_lists = st.one_of(st.lists(_bimanual_actions, min_size=1, max_size=3),
                              st.lists(_arm_actions, min_size=1, max_size=3),
                              _odd_action_lists)


@st.composite
def _rendered_texts(draw):
    """Observation texts, action-list texts and prompts rendered from odd values."""
    observations = draw(st.lists(_any_observations, min_size=1, max_size=3))
    lists = draw(st.lists(_any_action_lists, min_size=1, max_size=3))
    partner = (draw(st.sampled_from(PARTNER_KEYS)), draw(_any_action_lists))
    obs_texts = [serialize_observation(obs) for obs in observations]
    obs_texts.append(serialize_observation(observations[0], partner))
    list_texts = [render_action_list(actions) for actions in lists]
    pairs = ", ".join(f"{obs}>{acts}" for obs, acts in zip(obs_texts, list_texts))
    prompt = f"{pairs}, {obs_texts[-1]}>"
    judge = f"{JUDGE_REFS_HEADER}{pairs}{JUDGE_CANDIDATE_HEADER}{obs_texts[0]}>{list_texts[-1]}"
    return [*obs_texts, *list_texts, pairs, prompt, judge]


def _outcomes(text):
    """What every parser makes of text: its value, or its error's class and message."""
    outcomes = []
    for parse in (parse_prompt, lambda t: parse_prompt(t, with_trailing_test=False),
                  parse_judge_prompt, lambda t: parse_completion(t, 7),
                  lambda t: parse_completion(t, 14)):
        try:
            outcomes.append(parse(text))
        except Exception as exc:  # noqa: BLE001 - the class and message are compared
            outcomes.append((type(exc), str(exc)))
    return outcomes


def _cleared_outcomes(text):
    _clear_component_tables()
    return _outcomes(text)


class TestRenderedTextsParseAsWithTablesCleared:
    @settings(max_examples=200)
    @given(data=st.data())
    def test_filled_tables_parse_as_cleared_ones(self, data):
        _clear_component_tables()
        texts = data.draw(_rendered_texts())
        filled = [_outcomes(text) for text in texts]
        assert filled == [_cleared_outcomes(text) for text in texts]

    def test_an_empty_row_after_an_action_leaves_one_action(self):
        _clear_component_tables()
        text = render_action_list([(1, 2, 3, 4, 5, 6, 0), ()])
        assert parse_completion(text, 7) == ((1, 2, 3, 4, 5, 6, 0),)
        assert _outcomes(text) == _cleared_outcomes(text)

    def test_an_observation_reply_is_scanned(self):
        _clear_component_tables()
        text = serialize_observation({"ball": (1, 2, 3)})
        with pytest.raises(ArityMismatch):
            parse_completion(text, 7)
        assert _outcomes(text) == _cleared_outcomes(text)

    def test_one_text_from_8_threads_while_the_tables_hold_4(self, two_demo_fixture,
                                                             monkeypatch):
        text = build_follower_prompt(*two_demo_fixture, [(1, 2, 3, 4, 5, 6, 1)]).user_text
        expected = _cleared_outcomes(text)
        _clear_component_tables()
        monkeypatch.setattr(prompts, "TABLE_CAPACITY", 4)  # fewer than the text's 5 lists
        assert _in_threads(lambda: [_outcomes(text) for _ in range(20)]) == [[expected] * 20] * 8
        assert len(prompts._OBSERVATIONS) <= 4 and len(prompts._ACTION_LISTS) <= 4


# --- demo_texts renders each keyframe's arm rows once: the texts and table values
# of one render_action_list per arm filter

def reference_demo_texts(demo):
    """The body demo_texts replaced: one render_action_list per arm filter."""
    texts = {arm: render_action_list([a[base:base + 7] for a in demo.actions])
             for arm, base in ARM_OFFSET.items()}
    return {"observation": serialize_observation(demo.observation),
            "both": render_action_list(demo.actions), **texts}


def _typed_tables():
    """Both tables with each value's repr, which tells an np.int64 or a bool from an
    int and a list from a tuple where == would not."""
    return [{text: repr(value) for text, value in table.items()}
            for table in (prompts._OBSERVATIONS, prompts._ACTION_LISTS)]


_row_components = st.one_of(st.integers(-3, 120), st.integers(0, 99).map(np.int64),
                            st.booleans())
_any_rows = st.one_of(
    _arm_actions,
    _bimanual_actions,
    st.lists(st.integers(0, 99), max_size=15).map(tuple),  # exact ints, odd lengths
    st.lists(_row_components, max_size=15).map(tuple),
    st.lists(_row_components, max_size=15),
)


class TestDemoTextsRenderAsOneRenderPerFilter:
    @settings(max_examples=300)
    @given(observation=_any_observations, rows=st.lists(_any_rows, min_size=1, max_size=4))
    def test_same_texts_and_table_values(self, observation, rows):
        demo = Demonstration(observation, rows)
        _clear_component_tables()
        expected, expected_tables = reference_demo_texts(demo), _typed_tables()
        _clear_component_tables()
        texts = prompts.demo_texts(demo)
        assert texts == expected
        assert _typed_tables() == expected_tables
        exact = all(type(row) is tuple and all(type(v) is int for v in row) for row in rows)
        assert (prompts._ACTION_LISTS[texts["both"]] is demo.actions) == exact


class TestOracleReadsTheTablesInPlace:
    @settings(max_examples=150)
    @given(demos=_demos, test_obs=_observations, kind=st.sampled_from(
        ["right", "left", "both", "follower", "judge"]))
    def test_a_call_changes_no_table_and_replies_as_with_tables_cleared(self, demos, test_obs,
                                                                         kind):
        _clear_component_tables()
        if kind == "follower":
            bundle = build_follower_prompt(demos, test_obs, [a[:7] for a in demos[0].actions])
        elif kind == "judge":
            bundle = build_judge_prompt(demos, test_obs, demos[-1].actions)
        else:
            bundle = build_single_prompt(demos, test_obs, arm_filter=kind)
        request = ChatRequest(system=bundle.system_text, user=bundle.user_text)
        before = _typed_tables()
        reply = OracleBackend()(request)
        # the reply's own render may add its text; every value already there is unchanged
        after = _typed_tables()
        if reply not in before[1]:
            after[1].pop(reply, None)
        assert after == before
        _clear_component_tables()
        assert OracleBackend()(request) == reply
