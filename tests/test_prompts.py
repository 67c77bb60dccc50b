import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bimanual_icl.actions import BimanualAction, DiscreteAction
from bimanual_icl.demos import Demonstration
from bimanual_icl.errors import (
    ArityMismatch,
    OracleParseError,
    ParseFailure,
    RangeError,
    RangeViolation,
)
from bimanual_icl.perception import Observation
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
    validate_action_values,
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
        assert serialize_observation(Observation(entries={})) == "{}"

    def test_single_entry(self):
        obs = Observation(entries={"ball": (50, 49, 31)})
        assert serialize_observation(obs) == "{'ball': [50, 49, 31]}"

    def test_partner_entry_renders_last(self):
        obs = Observation(entries={"ball": (50, 49, 31)})
        augmented = obs.with_partner(
            "leader_arm",
            [__import__("bimanual_icl.actions", fromlist=["DiscreteAction"]).DiscreteAction(
                voxel=(50, 49, 40), rot=(36, 36, 0), gripper=1
            )],
        )
        assert serialize_observation(augmented) == (
            "{'ball': [50, 49, 31], 'leader_arm': [[50, 49, 40, 36, 36, 0, 1]]}"
        )

    def test_injective_on_distinct_entries(self):
        a = Observation(entries={"x": (1, 2, 3)})
        b = Observation(entries={"x": (1, 2, 4)})
        c = Observation(entries={"y": (1, 2, 3)})
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
        assert render_action_list([first_action.right])[1:-1] in bundle.user_text
        assert str(list(first_action.as_tuple())) not in bundle.user_text

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
        leader_pred = [a.right for a in demos[0].actions]
        bundle = build_follower_prompt(demos, test_obs, leader_pred, leader_is_right=True)
        assert bundle.user_text.count("'leader_arm':") == len(demos) + 1

    def test_follower_actions_are_left_tuples(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        leader_pred = [a.right for a in demos[0].actions]
        bundle = build_follower_prompt(demos, test_obs, leader_pred, leader_is_right=True)
        left_actions = render_action_list([a.left for a in demos[0].actions])
        assert f"}}>{left_actions}" in bundle.user_text
        assert bundle.arm == "left"

    def test_reversed_conditioning_uses_follower_key(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        follower_pred = [a.left for a in demos[0].actions]
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
            partner_key="leader_arm", partner_pred=[a.left for a in demos[0].actions],
        )
        left_actions = render_action_list([a.left for a in demos[0].actions])
        right_actions = render_action_list([a.right for a in demos[0].actions])
        assert f"'leader_arm': {left_actions}}}>{right_actions}" in bundle.user_text
        assert (bundle.role, bundle.arm) == ("follower", "right")

    def test_unknown_target_arm_rejected(self, two_demo_fixture):
        demos, test_obs = two_demo_fixture
        with pytest.raises(ValueError):
            build_conditioned_prompt(demos, test_obs, target_arm="both", partner_key="leader_arm",
                                     partner_pred=[demos[0].actions[0].left])

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
        leader_pred = [a.right for a in demos[0].actions]
        follower_pred = [a.left for a in demos[0].actions]
        built = {
            "single_agent": lambda: build_single_prompt(demos, test_obs, arm_filter="both"),
            "leader_right": lambda: build_single_prompt(demos, test_obs, arm_filter="right",
                                                        role="leader"),
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
        assert parsed.actions == ((1, 2, 3, 4, 5, 6, 1),)

    def test_prose_and_code_fence(self):
        text = "Here is the plan:\n```[[1,2,3,4,5,6,1],[1,2,9,4,5,6,0]]```"
        parsed = parse_completion(text, arity=7)
        assert parsed.actions == ((1, 2, 3, 4, 5, 6, 1), (1, 2, 9, 4, 5, 6, 0))

    def test_trailing_comma(self):
        parsed = parse_completion("[[1, 2, 3, 4, 5, 6, 1],]", arity=7)
        assert len(parsed.actions) == 1

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

    @pytest.mark.parametrize("values", [
        (1.5, 2, 3, 4, 5, 6, 1),
        (1, 2, 3, 4, 5.0, 6, 1),
        (1, 2, 3, 4, 5, 6, True),
        (True, 2, 3, 4, 5, 6, 1),
        (1, 2, 3, 4, 5, 6, 1, 100, 2, 3, 4, 5, 6, 1),
    ])
    def test_range_violation_matches_the_action_type(self, values):
        with pytest.raises(RangeViolation) as violation:
            validate_action_values(values, arity=len(values))
        with pytest.raises(RangeError) as range_error:
            for offset in range(0, len(values), 7):
                DiscreteAction.from_tuple(values[offset:offset + 7])
        assert str(violation.value) == str(range_error.value)

    def test_no_list(self):
        with pytest.raises(ParseFailure):
            parse_completion("I cannot help with that.", arity=7)

    def test_prefers_nested_over_flat(self):
        text = "step [3] then [[1,2,3,4,5,6,1]]"
        parsed = parse_completion(text, arity=7)
        assert parsed.actions == ((1, 2, 3, 4, 5, 6, 1),)

    def test_flat_fallback(self):
        parsed = parse_completion("[1, 2, 3, 4, 5, 6, 0]", arity=7)
        assert parsed.actions == ((1, 2, 3, 4, 5, 6, 0),)

    def test_round_trip_identity_both_arities(self):
        rng = random.Random(99)
        for arity in (7, 14):
            for _ in range(250):
                n = rng.randrange(1, 6)
                actions = [random_action(rng, arity) for _ in range(n)]
                rendered = render_action_list(actions)
                assert parse_completion(rendered, arity).actions == tuple(actions)


class TestPromptBundleInvariants:
    def test_requires_continuation_marker(self):
        with pytest.raises(ValueError):
            PromptBundle(system_text="s", user_text="no marker", role="single", arm="both")

    def test_requires_system_text(self):
        with pytest.raises(ValueError):
            PromptBundle(system_text="", user_text="x>", role="single", arm="both")


# --- grammar round trip: parse_prompt / parse_judge_prompt invert the renderers

_triples = st.tuples(*[st.integers(0, 99)] * 3)
_arm_actions = st.builds(
    DiscreteAction,
    voxel=_triples,
    rot=st.tuples(*[st.integers(0, 71)] * 3),
    gripper=st.integers(0, 1),
)
_bimanual_actions = st.builds(BimanualAction, right=_arm_actions, left=_arm_actions)
_names = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8).filter(
    lambda name: name not in PARTNER_KEYS
)


@st.composite
def _observations(draw):
    obs = Observation(entries=draw(st.dictionaries(_names, _triples, max_size=4)))
    if draw(st.booleans()):
        obs = obs.with_partner(draw(st.sampled_from(PARTNER_KEYS)),
                               draw(st.lists(_arm_actions, min_size=1, max_size=3)))
    return obs


_demos = st.lists(
    st.builds(Demonstration, observation=_observations(),
              actions=st.lists(_bimanual_actions, min_size=1, max_size=4)),
    min_size=1, max_size=3,
)


def _partner(obs):
    if obs.partner_key is None:
        return None
    return obs.partner_key, [a.as_tuple() for a in obs.partner_actions]


def _parsed_pair(obs, actions):
    return obs.entries, _partner(obs), actions


def _arm_tuples(actions, arm):
    return [a.as_tuple() if arm == "both" else a.arm(arm).as_tuple() for a in actions]


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
    @given(demos=_demos, test_obs=_observations(),
           arm=st.sampled_from(("right", "left", "both")), cut=st.integers(min_value=0))
    def test_single_prompt(self, demos, test_obs, arm, cut):
        text = build_single_prompt(demos, test_obs, arm_filter=arm).user_text
        parsed_demos, parsed_test = parse_prompt(text)
        assert parsed_demos == [
            _parsed_pair(d.observation, _arm_tuples(d.actions, arm)) for d in demos
        ]
        assert parsed_test == (test_obs.entries, _partner(test_obs))
        assert {len(a) for _, _, acts in parsed_demos for a in acts} == {
            14 if arm == "both" else 7
        }
        _assert_truncations_rejected(text, cut)
        _assert_garbles_rejected(text)

    @settings(max_examples=60, deadline=None)
    @given(demos=_demos, test_obs=_observations(),
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
            (d.observation.entries,
             (partner_key, _arm_tuples(d.actions, partner_arm)),
             _arm_tuples(d.actions, target))
            for d in demos
        ]
        assert parsed_test == (test_obs.entries,
                               (partner_key, [a.as_tuple() for a in partner_pred]))
        _assert_truncations_rejected(text, cut)
        _assert_garbles_rejected(text)

    @settings(max_examples=60, deadline=None)
    @given(demos=_demos, test_obs=_observations(),
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
    demos, test_obs = draw(_demos), draw(_observations())
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
    obs = Observation(entries=dict(entries))
    if partner is not None:
        obs = obs.with_partner(*partner)
    text = serialize_observation(obs) + ">"
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
        obs = Observation(entries={"bin[": (1, 2, 3), "lid}": (4, 5, 6)})
        text = serialize_observation(obs) + ">"
        assert parse_prompt(text) == ([], (obs.entries, None))
