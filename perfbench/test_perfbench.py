"""Self-test of the benchmark's own machinery.

    python3 -m pytest perfbench -q -p no:cacheprovider

Run from the repository root; the live-stub test imports the package from
``src/``.
"""

import http.client
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import stub

ROOT = Path(__file__).resolve().parent.parent


class TestStubDelays:
    def test_same_body_and_count_give_same_delay(self):
        body = b'{"messages": []}'
        assert stub.injected_delay_ms(body, 3) == stub.injected_delay_ms(body, 3)
        assert stub.injected_delay_ms(body, 0) != stub.injected_delay_ms(body + b" ", 0)

    def test_identical_bodies_in_sequence_get_different_delays(self):
        schedule = stub.DelaySchedule()
        body = b'{"messages": [{"role": "user", "content": "x"}]}'
        delays = [schedule.next_delay_ms(body) for _ in range(5)]
        assert len(set(delays)) == 5
        assert delays == [stub.injected_delay_ms(body, k) for k in range(5)]

    def test_delays_span_50_to_200_ms(self):
        delays = [stub.injected_delay_ms(b"body", k) for k in range(500)]
        assert 50.0 <= min(delays) < 60.0
        assert 190.0 < max(delays) < 200.0

    def test_live_stub_answers_like_the_oracle_over_keep_alive(self):
        sys.path.insert(0, str(ROOT / "src"))
        try:
            from bimanual_icl.bench import DEFAULT_TASKS, scripted_expert, spawn
            from bimanual_icl.gateway import ChatRequest, OracleBackend
            from bimanual_icl.prompts import build_single_prompt
        finally:
            sys.path.remove(str(ROOT / "src"))
        task = DEFAULT_TASKS["handover"]
        demos = [scripted_expert(task, spawn(task, seed=k)) for k in range(3)]
        bundle = build_single_prompt(demos, spawn(task, seed=99).observation, arm_filter="right")
        expected = OracleBackend()(ChatRequest(system=bundle.system_text, user=bundle.user_text))
        body = json.dumps({"model": "m", "temperature": 1.0, "messages": [
            {"role": "system", "content": bundle.system_text},
            {"role": "user", "content": bundle.user_text}]})

        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "stub.py")], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            port = int(proc.stdout.readline().split()[1])
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            delays = []
            for _ in range(2):  # one connection: the second request needs keep-alive
                conn.request("POST", "/v1/chat/completions", body=body,
                             headers={"Content-Type": "application/json"})
                resp = conn.getresponse()
                payload = json.loads(resp.read())
                assert resp.status == 200
                assert payload["choices"][0]["message"]["content"] == expected
                delays.append(float(resp.getheader("X-Stub-Delay-Ms")))
            conn.close()
        finally:
            proc.terminate()
            proc.wait(timeout=10)
        assert delays[0] != delays[1]
        assert all(50.0 <= d < 200.0 for d in delays)


class TestPercentiles:
    @pytest.mark.parametrize("q", [0, 10, 50, 90, 100])
    def test_matches_linear_interpolation(self, q):
        values = [7.0, 1.0, 3.5, 9.25, 2.0, 11.0, 4.0]
        value, n = run.percentile(values, q)
        assert n == 7
        assert value == pytest.approx(float(np.percentile(values, q)))

    def test_sample_count_and_small_inputs(self):
        assert run.percentile([5.0], 90) == (5.0, 1)
        assert run.percentile(range(1, 11), 50) == (5.5, 10)
        with pytest.raises(ValueError):
            run.percentile([], 50)


class TestOutputChecks:
    SUMMARY = b'{\n  "episodes": 5,\n  "rows": [{"success_mean": 80.0}]\n}\n'

    def test_digest_check_passes_on_identical_summary(self):
        d = run.digest(self.SUMMARY)
        assert run.check_digest("same", run.digest(bytes(self.SUMMARY)), d) == []

    def test_digest_check_fails_on_perturbed_summary(self):
        perturbed = self.SUMMARY.replace(b"80.0", b"80.1")
        errors = run.check_digest("perturbed", run.digest(perturbed), run.digest(self.SUMMARY))
        assert len(errors) == 1 and "perturbed" in errors[0]

    def _records(self, cfg):
        return [{"task": t, "strategy": s, "seed": seed, "episode": e, "reason": "",
                 "calls": run.call_budget(s, cfg["n_candidates"])}
                for t in cfg["tasks"] for s in cfg["strategies"] for seed in cfg["seeds"]
                for e in range(cfg["episodes"])]

    def test_record_checks(self):
        cfg = {"tasks": ["lift_sym"], "strategies": ["arms_debate", "best_of_n"], "seeds": [3],
               "episodes": 2, "n_candidates": 5}
        records = self._records(cfg)
        assert run.check_records(records, cfg) == []
        assert [r["calls"] for r in records] == [4, 4, 15, 15]
        assert run.check_records(records[:-1], cfg)
        records[0]["calls"] = 5  # one parse retry
        assert run.check_records(records, cfg)

    def test_budgets(self):
        assert [run.call_budget(s, 5) for s in spans.STRATEGY_KINDS] == [1, 2, 2, 4, 15, 25]


class TestSpans:
    def test_missing_name_fails_instead_of_reporting_zero(self):
        module = types.SimpleNamespace(present=lambda: 1)
        tracer = spans.Tracer()
        tracer.wrap(module, "present", "x.present")
        assert module.present() == 1
        with pytest.raises(spans.MissingName):
            tracer.wrap(module, "renamed_away", "x.gone")

    def test_parent_and_self_time(self):
        module = types.SimpleNamespace()
        module.inner = lambda: sum(range(1000))
        module.outer = lambda: module.inner() + module.inner()
        tracer = spans.Tracer()
        tracer.wrap(module, "inner", "inner")
        tracer.wrap(module, "outer", "outer")
        module.outer()
        outer = [s for s in tracer.spans if s.name == "outer"][0]
        inner = [s for s in tracer.spans if s.name == "inner"]
        assert [s.parent for s in inner] == [outer.sid, outer.sid]
        assert spans.self_ms(outer, inner) == pytest.approx(outer.ms - sum(s.ms for s in inner))

    def test_self_time_counts_overlapping_children_once(self):
        parent = spans.Span(0, "p", None, None)
        parent.start, parent.end = 0.0, 1.0
        kids = []
        for start, end in ((0.1, 0.5), (0.3, 0.6), (0.9, 1.5)):
            kid = spans.Span(1, "k", 0, None)
            kid.start, kid.end = start, end
            kids.append(kid)
        assert spans.self_ms(parent, kids) == pytest.approx(1000.0 * (1.0 - 0.5 - 0.1))


def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text(encoding="utf-8"))
    for name, cfg in run.WORKLOADS.items():
        assert baseline["workloads"][name]["config"] == cfg
