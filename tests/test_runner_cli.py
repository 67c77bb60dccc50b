import argparse
import hashlib
import json
import threading
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bimanual_icl.bench import DEFAULT_TASKS, spawn
from bimanual_icl.cli import build_parser, main
from bimanual_icl.errors import ConfigError
from bimanual_icl.runner import (
    AggregateReport,
    RunConfig,
    aggregate,
    load_episode_log,
    quantile,
    render_summary_json,
    report_tables,
    report_to_summary,
    run_experiment,
    stable_seed,
)


def small_config(**overrides):
    values = dict(
        tasks=["lift_sym"],
        strategies=["leader_follower"],
        backend="oracle",
        seeds=[0, 1],
        episodes=5,
        store_size=20,
    )
    values.update(overrides)
    return RunConfig(**values)


class TestRunExperiment:
    def test_episode_log_line_count(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path / "run"))
        run_experiment(cfg)
        records = load_episode_log(tmp_path / "run" / "episodes.jsonl")
        assert len(records) == 2 * 5  # seeds x episodes x tasks x strategies

    def test_grid_covers_all_combinations(self, tmp_path):
        cfg = small_config(
            tasks=["lift_sym", "handover"],
            strategies=["single_agent", "dual_agent"],
            seeds=[0],
            episodes=2,
            out_dir=str(tmp_path / "run"),
        )
        report = run_experiment(cfg)
        records = load_episode_log(tmp_path / "run" / "episodes.jsonl")
        assert len(records) == 2 * 2 * 1 * 2
        assert len(report.rows) == 4
        assert [r.task for r in report.rows] == ["lift_sym", "lift_sym", "handover", "handover"]

    def test_calls_per_episode_constant_for_debate(self):
        cfg = small_config(strategies=["arms_debate"], seeds=[0], episodes=4)
        report = run_experiment(cfg)
        row = report.rows[0]
        assert row.calls_mean == 4.0
        assert row.calls_sd == 0.0

    def test_sd_zero_for_identical_seed_rates(self):
        records = [
            {"task": "t", "strategy": "s", "seed": seed, "episode": ep,
             "success": ep % 2 == 0, "reason": "", "plan_len": 1, "calls": 2,
             "prompt_chars": 10, "completion_chars": 5, "wall_ms": 1}
            for seed in (0, 1) for ep in range(4)
        ]
        row = aggregate(records).rows[0]
        assert row.success_sd == 0.0
        assert row.success_mean == 50.0

    def test_strategy_errors_become_failures(self, tmp_path, monkeypatch):
        import bimanual_icl.runner as runner_mod
        from bimanual_icl.errors import ExhaustedRetries

        def exploding(*args, **kwargs):
            raise ExhaustedRetries("nope")

        monkeypatch.setattr(runner_mod, "run_strategy", exploding)
        cfg = small_config(seeds=[0], episodes=2, out_dir=str(tmp_path / "run"))
        report = run_experiment(cfg)
        records = load_episode_log(tmp_path / "run" / "episodes.jsonl")
        assert all(not r["success"] for r in records)
        assert all(r["reason"] == "strategy_error:ExhaustedRetries" for r in records)
        assert report.rows[0].success_mean == 0.0

    def test_exhausted_retries_name_the_phase(self, tmp_path, monkeypatch):
        import bimanual_icl.runner as runner_mod
        from bimanual_icl.gateway import OracleBackend

        oracle = OracleBackend()
        monkeypatch.setattr(runner_mod, "make_backend", lambda cfg: lambda req: (
            "no plan" if req.tag.endswith(":follower") else oracle(req)))
        cfg = small_config(seeds=[0], episodes=2, out_dir=str(tmp_path / "run"))
        run_experiment(cfg)
        records = load_episode_log(tmp_path / "run" / "episodes.jsonl")
        assert [r["reason"] for r in records] == ["strategy_error:ExhaustedRetries:follower"] * 2
        assert [r["calls"] for r in records] == [1 + 3] * 2  # the leader, 3 follower attempts

    def test_validation(self):
        with pytest.raises(ConfigError):
            small_config(episodes=0).validate()
        with pytest.raises(ConfigError):
            small_config(tasks=["nope"]).validate()
        with pytest.raises(ConfigError):
            small_config(strategies=["nope"]).validate()
        with pytest.raises(ConfigError):
            small_config(backend="carrier-pigeon").validate()

    def test_float_fields_accept_int(self):
        small_config(temperature=1, judge_temperature=0, timeout=30).validate()

    @pytest.mark.parametrize("override", [
        {"seeds": "0,1"},
        {"seeds": [0, True]},
        {"tasks": "lift_sym"},
        {"strategies": [1]},
        {"episodes": "2"},
        {"episodes": 2.0},
        {"workers": True},
        {"store_size": None},
        {"temperature": "hot"},
        {"timeout": False},
        {"backend": 1},
        {"data_dir": 3},
        {"max_retries": -1},
        {"n_candidates": 0},
        {"leader_arm": "up"},
        {"judge_mode": "LLM"},
        {"workers": 0},
        {"workers": -3},
        {"timeout": 0},
        {"timeout": -1},
        {"timeout": float("nan")},
        {"temperature": float("nan")},
        {"temperature": float("inf")},
        {"temperature": -0.5},
        {"judge_temperature": float("nan")},
        {"judge_temperature": float("inf")},
        {"judge_temperature": -1},
        {"tasks": ["lift_sym", "lift_sym"]},
        {"strategies": ["best_of_n", "best_of_n"]},
        {"seeds": [0, 0]},
    ])
    def test_strategy_options_fail_before_any_store_is_built(self, monkeypatch, override):
        import bimanual_icl.runner as runner_mod

        def no_store(*args, **kwargs):
            raise AssertionError("build_store ran before validation")

        monkeypatch.setattr(runner_mod, "build_store", no_store)
        with pytest.raises(ConfigError):
            run_experiment(small_config(**{"strategies": ["best_of_n"], **override}))

    def test_workers_do_not_change_summary(self, tmp_path):
        cfg1 = small_config(out_dir=str(tmp_path / "a"))
        cfg2 = small_config(out_dir=str(tmp_path / "b"), workers=4)
        run_experiment(cfg1)
        run_experiment(cfg2)
        s1 = (tmp_path / "a" / "summary.json").read_bytes()
        s2 = (tmp_path / "b" / "summary.json").read_bytes()
        assert s1 == s2


class TestReporting:
    def test_summary_has_no_wall_times(self):
        cfg = small_config(episodes=2)
        report = run_experiment(cfg)
        assert "wall" not in render_summary_json(report)

    def test_tables_render_headers_only_for_empty(self):
        report = AggregateReport(tasks=[], strategies=[], seeds=[], episodes=0, rows=[])
        text = report_tables(report)
        assert "Success rate" in text
        assert "call statistics" in text.lower()

    def test_row_ordering_follows_config(self):
        cfg = small_config(
            tasks=["handover", "lift_sym"], strategies=["dual_agent", "single_agent"],
            seeds=[0], episodes=1,
        )
        report = run_experiment(cfg)
        assert [(r.task, r.strategy) for r in report.rows] == [
            ("handover", "dual_agent"), ("handover", "single_agent"),
            ("lift_sym", "dual_agent"), ("lift_sym", "single_agent"),
        ]

    @pytest.mark.parametrize("overrides", [
        {"seeds": [1, 0]},
        {"workers": 2, "strategies": ["arms_debate", "single_agent"], "seeds": [0], "episodes": 1},
    ])
    def test_report_reproduces_run_summary(self, tmp_path, capsys, monkeypatch, overrides):
        import bimanual_icl.runner as runner_mod

        run_strategy = runner_mod.run_strategy

        def slow_debate(kind, *args, **kwargs):
            if kind == "arms_debate":
                time.sleep(0.05)  # so a concurrent single_agent episode finishes first
            return run_strategy(kind, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "run_strategy", slow_debate)
        run_experiment(small_config(out_dir=str(tmp_path / "run"), **overrides))
        assert main(["report", "--log", str(tmp_path / "run" / "episodes.jsonl"),
                     "--out", str(tmp_path / "report")]) == 0
        assert ((tmp_path / "report" / "summary.json").read_bytes()
                == (tmp_path / "run" / "summary.json").read_bytes())

    @pytest.mark.parametrize("strategies, worker_counts", [
        (["arms_debate", "single_agent", "best_of_n"], (1, 4)),
        (["leader_follower", "debate_plus_bon"], (1, 2, 4)),
    ])
    def test_episode_log_in_grid_order_at_any_worker_count(self, tmp_path, monkeypatch,
                                                           strategies, worker_counts):
        import bimanual_icl.runner as runner_mod

        run_strategy = runner_mod.run_strategy
        starts = []

        def recording(kind, *args, **kwargs):
            starts.append((workers, threading.get_ident(), kind))
            return run_strategy(kind, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "run_strategy", recording)
        logs, summaries = [], []
        for workers in worker_counts:
            out_dir = tmp_path / f"w{workers}"
            run_experiment(small_config(strategies=strategies, n_candidates=2,
                                        workers=workers, out_dir=str(out_dir)))
            records = load_episode_log(out_dir / "episodes.jsonl")
            logs.append([{k: v for k, v in r.items() if k != "wall_ms"} for r in records])
            summaries.append((out_dir / "summary.json").read_bytes())
        assert all(log == logs[0] for log in logs)
        assert all(summary == summaries[0] for summary in summaries)
        if 2 in worker_counts:
            # Each worker of two starts every debate_plus_bon episode it runs before any
            # leader_follower one, so the pool hands all of them out first.
            threads = {t for w, t, _ in starts if w == 2}
            for thread in threads:
                kinds = [k for w, t, k in starts if w == 2 and t == thread]
                assert kinds == sorted(kinds, key=lambda kind: kind != "debate_plus_bon")
            assert [k for w, _, k in starts if w == 2][0] == "debate_plus_bon"

    def test_a_bug_stops_the_grid(self, tmp_path, monkeypatch):
        """A bug in the first episode the pool starts cancels every one not yet started."""
        import bimanual_icl.runner as runner_mod

        strategies = ["leader_follower", "debate_plus_bon"]
        worlds = [spawn(DEFAULT_TASKS["lift_sym"],
                        seed=stable_seed("lift_sym", s, 0, e, "world")).observation
                  for s in strategies for e in range(15)]
        first = [worlds[0], worlds[15]]  # episode 0 of each; no other episode has its world
        assert all(worlds.count(obs) == 1 for obs in first)
        run_strategy = runner_mod.run_strategy
        started = []

        def buggy(kind, gateway, batch, obs, *args, **kwargs):
            started.append(kind)
            if obs in first:
                raise KeyError("bug in an episode")
            time.sleep(0.3)  # the others run until the bug has surfaced
            return run_strategy(kind, gateway, batch, obs, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "run_strategy", buggy)
        out_dir = tmp_path / "run"
        cfg = small_config(strategies=strategies, seeds=[0], episodes=15, n_candidates=1,
                           workers=2, out_dir=str(out_dir))
        with pytest.raises(KeyError, match="bug in an episode"):
            run_experiment(cfg)
        assert 1 <= len(started) <= cfg.workers + 1
        lines = (out_dir / "episodes.jsonl").read_text(encoding="utf-8").splitlines()
        grid = [("lift_sym", s, 0, e) for s in strategies for e in range(15)]
        assert [(r["task"], r["strategy"], r["seed"], r["episode"])
                for r in map(json.loads, lines)] == grid[:len(lines)]

    def test_summary_json_is_pinned(self):
        report = run_experiment(RunConfig(
            tasks=["lift_sym", "handover", "dual_targets", "drawer_item"],
            strategies=["single_agent", "dual_agent", "leader_follower", "arms_debate",
                        "best_of_n", "debate_plus_bon"],
            seeds=[0], episodes=2, n_candidates=2, store_size=20, judge_mode="llm",
        ))
        text = render_summary_json(report)
        assert set(json.loads(text)["rows"][0]) == {
            "task", "strategy", "episodes", "success_mean", "success_sd",
            "calls_mean", "calls_sd", "prompt_chars_mean", "completion_chars_mean",
        }
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "995bf28ae0aa1cfab712ae864e089789eb325cce1ad9519879af3e845c2d5098")

    def test_aggregate_from_log_matches_run(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path / "run"))
        report = run_experiment(cfg)
        records = load_episode_log(tmp_path / "run" / "episodes.jsonl")
        rebuilt = aggregate(records)
        assert report_to_summary(rebuilt) == report_to_summary(report)


class TestWallQuantiles:
    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=60))
    def test_quantile_equals_numpy_percentile(self, values):
        ordered = sorted(map(float, values))
        for q in (25, 50, 75):
            assert quantile(ordered, q / 100) == float(np.percentile(values, q))

    def test_aggregate_reports_numpy_median_and_iqr(self):
        walls = [7, 1, 30, 4, 4, 12]
        records = [
            {"task": "t", "strategy": "s", "seed": 0, "episode": ep, "success": True,
             "calls": 1, "prompt_chars": 1, "completion_chars": 1, "wall_ms": wall}
            for ep, wall in enumerate(walls)
        ]
        row = aggregate(records).rows[0]
        assert row.wall_ms_median == float(np.median(walls)) == 5.5
        assert row.wall_ms_iqr == (float(np.percentile(walls, 25)),
                                   float(np.percentile(walls, 75)))


class TestHttpBackendWiring:
    def test_run_experiment_over_stub_server(self, stub_server, monkeypatch, tmp_path):
        monkeypatch.setenv("RUNNER_STUB_KEY", "sk-runner")
        url = f"http://127.0.0.1:{stub_server.server_address[1]}/v1/chat/completions"
        cfg = small_config(
            backend="http",
            http_url=url,
            http_model="stub-model",
            api_key_env="RUNNER_STUB_KEY",
            seeds=[0],
            episodes=2,
            strategies=["dual_agent"],
            out_dir=str(tmp_path / "run"),
        )
        report = run_experiment(cfg)
        # the stub's canned single-arm answer parses, so every call succeeds
        assert report.rows[0].calls_mean == 2.0
        assert stub_server.requests[0]["body"]["model"] == "stub-model"
        assert stub_server.requests[0]["auth"] == "Bearer sk-runner"


class TestStableSeed:
    def test_deterministic_and_distinct(self):
        assert stable_seed("a", 1, "x") == stable_seed("a", 1, "x")
        assert stable_seed("a", 1, "x") != stable_seed("a", 2, "x")


class TestCli:
    def test_gen_data_and_judge(self, tmp_path, capsys):
        assert main(["gen-data", "--task", "lift_sym", "--episodes", "12",
                     "--seed", "7", "--out", str(tmp_path / "data")]) == 0
        files = sorted((tmp_path / "data" / "lift_sym").glob("*.json"))
        assert len(files) == 12
        # judge one of the generated demos against the dataset
        assert main(["judge", "--plan", str(files[0]),
                     "--demos", str(tmp_path / "data" / "lift_sym")]) == 0
        out = capsys.readouterr().out
        verdict = json.loads(out[out.index("{"):])
        assert verdict["score"] == 5

    def test_run_and_report_round_trip(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main([
            "run", "--task", "lift_sym", "--strategy", "leader_follower",
            "--backend", "oracle", "--seeds", "0", "--episodes", "3",
            "--store-size", "15", "--out", str(out_dir),
        ]) == 0
        assert (out_dir / "episodes.jsonl").exists()
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "report.txt").exists()
        capsys.readouterr()

        rerender = tmp_path / "rerender"
        assert main(["report", "--log", str(out_dir / "episodes.jsonl"),
                     "--out", str(rerender)]) == 0
        original = json.loads((out_dir / "summary.json").read_text())
        rebuilt = json.loads((rerender / "summary.json").read_text())
        assert original == rebuilt

    def test_run_uses_generated_dataset(self, tmp_path, capsys):
        assert main(["gen-data", "--task", "handover", "--episodes", "15",
                     "--seed", "3", "--out", str(tmp_path / "data")]) == 0
        assert main([
            "run", "--task", "handover", "--strategy", "single_agent",
            "--seeds", "0", "--episodes", "2",
            "--data-dir", str(tmp_path / "data"), "--out", str(tmp_path / "run"),
        ]) == 0
        records = load_episode_log(tmp_path / "run" / "episodes.jsonl")
        assert len(records) == 2

    @pytest.mark.parametrize("corrupt, message", [
        (lambda d: d["observation"].update(tray=[300, 1, 1]),
         "voxel component 300 outside [0, 99]"),
        (lambda d: d.pop("actions"), "missing key 'actions'"),
        (None, "Expecting value"),
    ])
    def test_malformed_demo_file_exits_2_naming_it(self, tmp_path, capsys, corrupt, message):
        assert main(["gen-data", "--task", "lift_sym", "--episodes", "12",
                     "--seed", "3", "--out", str(tmp_path / "data")]) == 0
        path = tmp_path / "data" / "lift_sym" / "demo_00004.json"
        if corrupt is None:
            path.write_text("not json", encoding="utf-8")
        else:
            payload = json.loads(path.read_text(encoding="utf-8"))
            corrupt(payload)
            path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert main(["run", "--task", "lift_sym", "--seeds", "0", "--episodes", "1",
                     "--data-dir", str(tmp_path / "data")]) == 2
        err = capsys.readouterr().err
        assert f"error: demonstration {path}: " in err
        assert message in err

    def test_judge_plan_with_invalid_json_exits_2_naming_it(self, tmp_path, capsys):
        assert main(["gen-data", "--task", "lift_sym", "--episodes", "2",
                     "--seed", "3", "--out", str(tmp_path / "data")]) == 0
        plan = tmp_path / "plan.json"
        plan.write_text('{"observation": {}, "actions": [', encoding="utf-8")
        capsys.readouterr()
        assert main(["judge", "--plan", str(plan),
                     "--demos", str(tmp_path / "data" / "lift_sym")]) == 2
        assert f"error: demonstration {plan}: " in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (None, "No such file"),
        ('{"task": "lift_sym"\n', ", line 1: Expecting"),
        ("\n" + json.dumps({"task": "lift_sym", "seed": 0}),
         ", line 2: missing keys ['strategy', 'episode'"),
        (json.dumps({"task": "lift_sym", "strategy": "dual_agent", "seed": 0, "episode": 0,
                     "success": "yes", "calls": 2, "prompt_chars": 10, "completion_chars": 5,
                     "wall_ms": 1}),
         ", line 1: success must be bool, got 'yes'"),
        (json.dumps({"task": "lift_sym", "strategy": "dual_agent", "seed": 0, "episode": 0,
                     "success": True, "calls": 2.5, "prompt_chars": 10,
                     "completion_chars": 5, "wall_ms": 1}),
         ", line 1: calls must be int, got 2.5"),
    ])
    def test_bad_episode_log_exits_2_naming_it(self, tmp_path, capsys, content, message):
        path = tmp_path / "episodes.jsonl"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        assert main(["report", "--log", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: episode log {path}" in err
        assert message in err

    def test_config_file_overrides_flags(self, tmp_path, capsys):
        config = {"episodes": 2, "store_size": 15}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out_dir = tmp_path / "run"
        assert main([
            "run", "--task", "lift_sym", "--strategy", "leader_follower",
            "--seeds", "0", "--episodes", "9", "--config", str(path),
            "--out", str(out_dir),
        ]) == 0
        records = load_episode_log(out_dir / "episodes.jsonl")
        assert len(records) == 2  # config wins over --episodes 9

    @pytest.fixture
    def captured_config(self, monkeypatch):
        import bimanual_icl.cli as cli_mod

        seen = []

        def fake_run(cfg):
            seen.append(cfg)
            return aggregate([])

        monkeypatch.setattr(cli_mod, "run_experiment", fake_run)
        return seen

    def test_run_without_flags_uses_run_config_defaults(self, captured_config, capsys):
        assert main(["run"]) == 0
        assert captured_config == [RunConfig()]

    def test_each_run_flag_lands_on_its_field(self, captured_config, capsys):
        assert main([
            "run", "--task", "handover,lift_sym", "--strategy", "best_of_n,single_agent",
            "--backend", "http", "--seeds", "3,1", "--episodes", "4", "--n-demos", "6",
            "--leader-arm", "left", "--n-candidates", "3", "--max-retries", "1",
            "--temperature", "0.25", "--judge-temperature", "0.5", "--judge-mode", "rubric",
            "--store-size", "50", "--dataset-seed", "77", "--data-dir", "data",
            "--out", "out", "--http-url", "http://127.0.0.1:9/v1", "--http-model", "m",
            "--api-key-env", "KEY", "--timeout", "7.5", "--workers", "2",
        ]) == 0
        expected = RunConfig(
            tasks=["handover", "lift_sym"], strategies=["best_of_n", "single_agent"],
            backend="http", seeds=[3, 1], episodes=4, n_demos=6, leader_arm="left",
            n_candidates=3, max_retries=1, temperature=0.25, judge_temperature=0.5,
            judge_mode="rubric", store_size=50, dataset_seed=77, data_dir="data",
            out_dir="out", http_url="http://127.0.0.1:9/v1", http_model="m",
            api_key_env="KEY", timeout=7.5, workers=2,
        )
        assert captured_config == [expected]
        default = RunConfig()
        assert all(getattr(expected, f.name) != getattr(default, f.name)
                   for f in fields(RunConfig)), "every field is set away from its default"

    def test_run_flags_are_exactly_the_run_config_fields(self):
        commands = next(action for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        run = commands.choices["run"]
        dests = {action.dest for action in run._actions if action.dest != "help"}
        assert dests == {f.name for f in fields(RunConfig)} | {"config"}

    @pytest.mark.parametrize("flag, value", [
        ("--temperature", "nan"), ("--temperature", "inf"), ("--temperature", "-0.5"),
        ("--judge-temperature", "nan"), ("--judge-temperature", "-1"),
    ])
    def test_non_finite_or_negative_temperature_flag_exits_2(self, tmp_path, capsys,
                                                              flag, value):
        assert main(["run", flag, value, "--out", str(tmp_path / "run")]) == 2
        assert "temperature must be in [0, inf)" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("url", [
        "http://127.0.0.1:abc/v1", "http://[::1/v1", "http://127.0.0.1:99999/v1",
        "ftp://127.0.0.1/v1",
    ])
    def test_an_unusable_http_url_exits_2_before_any_store_is_built(self, tmp_path, capsys,
                                                                   monkeypatch, url):
        import bimanual_icl.runner as runner_mod

        def no_store(*args, **kwargs):
            raise AssertionError("build_store ran before the URL was checked")

        monkeypatch.setattr(runner_mod, "build_store", no_store)
        assert main(["run", "--backend", "http", "--http-url", url,
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and url in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("config", [
        {"judge_mode": "LLM"},
        {"seeds": "0,1"},
        {"episodes": "2"},
        {"workers": True},
        {"temperature": float("nan")},  # json.dumps writes NaN, which json.load reads
        {"judge_temperature": float("inf")},
    ])
    def test_config_file_with_bad_value_exits_2(self, tmp_path, capsys, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def _assert_config_exits_2(self, path, message, capsys):
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: config {path}: " in err
        assert message in err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"episodez": 1}), encoding="utf-8")
        self._assert_config_exits_2(path, "unknown config keys: ['episodez']", capsys)

    def test_config_file_not_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("not json", encoding="utf-8")
        self._assert_config_exits_2(path, "Expecting value", capsys)

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        self._assert_config_exits_2(tmp_path / "absent.json", "No such file", capsys)

    def test_config_file_holding_a_list_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]", encoding="utf-8")
        self._assert_config_exits_2(path, "a JSON list, not an object", capsys)

    @pytest.mark.parametrize("make_dir", [True, False])
    def test_judge_with_an_unreadable_plan_exits_2_naming_it(self, tmp_path, capsys, make_dir):
        assert main(["gen-data", "--task", "lift_sym", "--episodes", "1",
                     "--seed", "3", "--out", str(tmp_path / "data")]) == 0
        plan = tmp_path / "plan.json"
        if make_dir:
            plan.mkdir()
        capsys.readouterr()
        assert main(["judge", "--plan", str(plan),
                     "--demos", str(tmp_path / "data" / "lift_sym")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: demonstration {plan}: ")
        assert ("Is a directory" if make_dir else "No such file") in err

    @pytest.mark.parametrize("make_dir", [True, False])
    def test_judge_without_demos_exits_2_naming_the_directory(self, tmp_path, capsys, make_dir):
        assert main(["gen-data", "--task", "lift_sym", "--episodes", "1",
                     "--seed", "3", "--out", str(tmp_path / "data")]) == 0
        plan = tmp_path / "data" / "lift_sym" / "demo_00000.json"
        demos = tmp_path / "empty"
        if make_dir:
            demos.mkdir()
        capsys.readouterr()
        assert main(["judge", "--plan", str(plan), "--demos", str(demos)]) == 2
        assert f"error: no demonstrations (*.json) in {demos}" in capsys.readouterr().err
