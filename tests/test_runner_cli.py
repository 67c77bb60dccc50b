import json
import time

import pytest

from bimanual_icl.cli import main
from bimanual_icl.errors import ConfigError
from bimanual_icl.runner import (
    AggregateReport,
    RunConfig,
    aggregate,
    load_episode_log,
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
            raise ExhaustedRetries("nope", records=[])

        monkeypatch.setattr(runner_mod, "run_strategy", exploding)
        cfg = small_config(seeds=[0], episodes=2, out_dir=str(tmp_path / "run"))
        report = run_experiment(cfg)
        records = load_episode_log(tmp_path / "run" / "episodes.jsonl")
        assert all(not r["success"] for r in records)
        assert all(r["reason"] == "strategy_error:ExhaustedRetries" for r in records)
        assert report.rows[0].success_mean == 0.0

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

    def test_episode_log_in_grid_order_at_any_worker_count(self, tmp_path):
        logs = []
        for workers in (1, 4):
            out_dir = tmp_path / f"w{workers}"
            run_experiment(small_config(
                strategies=["arms_debate", "single_agent", "best_of_n"], n_candidates=2,
                workers=workers, out_dir=str(out_dir),
            ))
            records = load_episode_log(out_dir / "episodes.jsonl")
            logs.append([{k: v for k, v in r.items() if k != "wall_ms"} for r in records])
        assert logs[0] == logs[1]

    def test_aggregate_from_log_matches_run(self, tmp_path):
        cfg = small_config(out_dir=str(tmp_path / "run"))
        report = run_experiment(cfg)
        records = load_episode_log(tmp_path / "run" / "episodes.jsonl")
        rebuilt = aggregate(records)
        assert report_to_summary(rebuilt) == report_to_summary(report)


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
            "--data-dir", "data", "--store-size", "50", "--workers", "2",
            "--http-url", "http://127.0.0.1:9/v1", "--http-model", "m",
            "--api-key-env", "KEY", "--timeout", "7.5", "--judge-mode", "rubric",
            "--out", "out",
        ]) == 0
        assert captured_config == [RunConfig(
            tasks=["handover", "lift_sym"], strategies=["best_of_n", "single_agent"],
            backend="http", seeds=[3, 1], episodes=4, n_demos=6, leader_arm="left",
            n_candidates=3, max_retries=1, data_dir="data", store_size=50, workers=2,
            http_url="http://127.0.0.1:9/v1", http_model="m", api_key_env="KEY",
            timeout=7.5, judge_mode="rubric", out_dir="out",
        )]

    @pytest.mark.parametrize("config", [
        {"judge_mode": "LLM"},
        {"seeds": "0,1"},
        {"episodes": "2"},
        {"workers": True},
    ])
    def test_config_file_with_bad_value_exits_2(self, tmp_path, capsys, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"episodez": 1}), encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["run", "--config", str(path)])
