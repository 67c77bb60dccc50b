import copy
import dataclasses
import json

import pytest

from bimanual_icl.actions import ContinuousPose
from bimanual_icl.demos import (
    Demonstration,
    EpisodeStep,
    collapse_duplicates,
    demonstration_from_dict,
    demonstration_to_dict,
    extract_keyframes,
    load_demo_dir,
    sample_batch,
    save_demo_dir,
    save_demonstration,
    load_demonstration,
)
from bimanual_icl.errors import EmptyEpisode, InsufficientDemos, RangeError
from bimanual_icl.prompts import build_judge_prompt, build_single_prompt, demo_texts
from bimanual_icl.runner import generate_dataset

IDENTITY = (0.0, 0.0, 0.0, 1.0)


def pose(x, gripper):
    return ContinuousPose(position=(x, 0.0, 1.0), orientation=IDENTITY, gripper=gripper)


def step(x, gripper=1.0, speed=1.0, terminal=False):
    return EpisodeStep(
        right=pose(x, gripper),
        left=pose(-x if x > -0.29 else x, gripper),
        right_joint_speed=speed,
        left_joint_speed=speed,
        is_terminal=terminal,
    )


class TestExtractKeyframes:
    def test_empty_episode(self):
        with pytest.raises(EmptyEpisode):
            extract_keyframes([])

    def test_single_terminal_step(self):
        frames = extract_keyframes([step(0.1, terminal=True)])
        assert len(frames) == 1

    def test_gripper_toggle_and_terminal(self):
        steps = [step(0.01 * i, gripper=1.0 if i < 4 else 0.0) for i in range(10)]
        steps[-1] = step(0.09, gripper=0.0, terminal=True)
        frames = extract_keyframes(steps)
        # toggle at step 4 and termination at step 9, no speed-zero edges
        assert len(frames) == 2
        assert frames[0][6] == 0
        assert frames[0][0] != frames[1][0]

    def test_constant_motion_yields_single_terminal_keyframe(self):
        steps = [step(0.01 * i) for i in range(10)]
        steps[-1] = step(0.09, terminal=True)
        assert len(extract_keyframes(steps)) == 1

    def test_speed_zero_rising_edge_only(self):
        steps = (
            [step(0.0, speed=1.0)]
            + [step(0.1, speed=0.0)] * 5  # one pause, many below-threshold steps
            + [step(0.3, speed=1.0)]
            + [step(0.3, speed=1.0, terminal=True)]
        )
        frames = extract_keyframes(steps)
        # rising edge emits once; terminal emits once (duplicates collapsed)
        assert len(frames) == 2

    def test_step_zero_pause_counts_as_edge(self):
        steps = [step(0.0, speed=0.0), step(0.2, speed=1.0, terminal=True)]
        frames = extract_keyframes(steps)
        assert len(frames) == 2

    def test_invariant_to_prepending_copies_of_first_step(self):
        steps = [step(0.01 * i, gripper=1.0 if i < 3 else 0.0) for i in range(6)]
        steps[-1] = step(0.05, gripper=0.0, terminal=True)
        base = extract_keyframes(steps)
        padded = [steps[0]] * 4 + steps
        assert extract_keyframes(padded) == base

    def test_keyframe_count_bounded_and_terminal_last(self):
        steps = [step(0.01 * i, gripper=float(i % 2)) for i in range(8)]
        steps[-1] = step(0.07, gripper=1.0, terminal=True)
        frames = extract_keyframes(steps)
        assert len(frames) <= len(steps)
        terminal_action = extract_keyframes([steps[-1]])[0]
        assert frames[-1] == terminal_action

    def test_collapse_is_idempotent(self):
        steps = [step(0.1, speed=0.0), step(0.1, speed=0.0, terminal=True)]
        frames = extract_keyframes(steps)
        assert collapse_duplicates(frames) == frames
        assert len(frames) == 1  # pause and terminal discretize identically


class TestSampleBatch:
    def make_store(self, size):
        demos = []
        for i in range(size):
            obs = {"obj": (i % 100, 0, 0)}
            demos.append(demonstration_from_dict({
                "observation": {"obj": [i % 100, 0, 0]},
                "actions": [[i % 100, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1]],
            }))
        return demos

    def test_full_draw_is_permutation(self):
        store = self.make_store(12)
        batch = sample_batch(store, 12, seed=5)
        assert sorted(id(d) for d in batch) == sorted(id(d) for d in store)

    def test_deterministic(self):
        store = self.make_store(40)
        assert sample_batch(store, 10, seed=0) == sample_batch(store, 10, seed=0)

    def test_different_seeds_differ(self):
        store = self.make_store(100)
        a = sample_batch(store, 10, seed=0)
        b = sample_batch(store, 10, seed=1)
        assert a != b

    def test_insufficient(self):
        with pytest.raises(InsufficientDemos):
            sample_batch(self.make_store(5), 6, seed=0)

    def test_distinct_elements(self):
        store = self.make_store(30)
        batch = sample_batch(store, 30, seed=3)
        assert len({id(d) for d in batch}) == 30


class TestDemoFiles:
    def test_json_round_trip_preserves_key_order(self, tmp_path):
        payload = {
            "observation": {"zebra": [1, 2, 3], "apple": [4, 5, 6]},
            "actions": [[1, 2, 3, 4, 5, 6, 1, 7, 8, 9, 10, 11, 12, 0]],
        }
        demo = demonstration_from_dict(payload)
        assert list(demo.observation) == ["zebra", "apple"]
        path = tmp_path / "demo.json"
        save_demonstration(path, demo)
        loaded = load_demonstration(path)
        assert list(loaded.observation) == ["zebra", "apple"]
        assert demonstration_to_dict(loaded) == payload
        # the on-disk document uses the demo-store schema
        raw = json.loads(path.read_text())
        assert set(raw) == {"observation", "actions"}

    def test_directory_round_trip(self, tmp_path):
        demos = [
            demonstration_from_dict({
                "observation": {"obj": [i, i, i]},
                "actions": [[i, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1]],
            })
            for i in range(4)
        ]
        save_demo_dir(tmp_path / "set", demos)
        loaded = load_demo_dir(tmp_path / "set")
        assert loaded == demos

    @pytest.mark.parametrize("observation", [
        {"ball": [52.7, 49, 31]},
        {"cup": [True, 300, -4]},
        {"cup": [1, 300, 4]},
        {"cup": [1, 2, -4]},
        {"cup": [1, 2]},
        {"cup": [1, 2, 3, 4]},
    ])
    def test_observation_voxels_checked(self, observation):
        payload = {"observation": observation,
                   "actions": [[1, 2, 3, 4, 5, 6, 1, 7, 8, 9, 10, 11, 12, 0]]}
        with pytest.raises(RangeError):
            demonstration_from_dict(payload)

    def test_generated_store_round_trip(self, tmp_path):
        demos = generate_dataset("handover", 3, seed=5)
        save_demo_dir(tmp_path / "set", demos)
        assert load_demo_dir(tmp_path / "set") == demos

    def test_demonstration_requires_actions(self):
        with pytest.raises(ValueError):
            Demonstration(observation={}, actions=())


class TestDemonstrationMemo:
    def test_fields_are_frozen(self):
        demo = generate_dataset("handover", 1, seed=5)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            demo.actions = demo.actions[:1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            demo.observation = {}

    def test_renders_once_and_like_a_fresh_copy(self):
        demos = generate_dataset("handover", 3, seed=5)
        obs = demos[0].observation
        first = build_single_prompt(demos, obs, arm_filter="left").user_text
        texts = [d.texts for d in demos]
        assert build_single_prompt(demos, obs, arm_filter="left").user_text == first
        assert [d.texts for d in demos] == texts
        assert all(d.texts is t for d, t in zip(demos, texts))
        fresh = [Demonstration(observation=dict(d.observation), actions=d.actions)
                 for d in demos]
        assert [demo_texts(d) for d in fresh] == texts
        assert build_single_prompt(fresh, obs, arm_filter="left").user_text == first
        assert (build_judge_prompt(copy.deepcopy(demos), obs, demos[0].actions).user_text
                == build_judge_prompt(demos, obs, demos[0].actions).user_text)
