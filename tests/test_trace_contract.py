"""The traced benchmark pass still finds every name it rebinds.

``perfbench/spans.py`` records spans by rebinding module attributes by name
(``runner.spawn``, ``gateway.parse_completion``, ...); a renamed or moved
name makes a traced pass fail with ``MissingName``, and a name that is no
longer looked up at call time silently reads zero. This runs one small
traced pass the way the benchmark does and checks the layers it reports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

def _spec(judge_mode):
    return {
        "run": {
            "tasks": ["handover"],
            "strategies": ["leader_follower", "best_of_n"],
            "episodes": 1,
            "store_size": 12,
            "n_demos": 4,
            "n_candidates": 2,
            "judge_mode": judge_mode,
        },
        "trace": True,
    }


@pytest.mark.parametrize("judge_mode", ["llm", "rubric"])
def test_traced_pass_finds_every_rebound_name(tmp_path, judge_mode):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(_spec(judge_mode)), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(spec), str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]

    layers = json.loads((out / "pass.json").read_text(encoding="utf-8"))["layers"]
    # leader_follower: 2 calls; best_of_n at n=2: 2 x 2 generation calls, and
    # in llm mode 2 judge calls; the rubric judge scores in-process
    assert layers["judge.score.calls"] == 2
    # every spawn observes its scene once, through the per-object cloud draws
    assert layers["perception.build_observation.calls"] == layers["bench.spawn.calls"] > 0
    assert layers["bench.synthetic_clouds.busy_ms"] > 0
    assert layers["prompts.parse_completion.busy_ms"] > 0
    assert layers["gateway.oracle_predict.busy_ms"] > 0
    if judge_mode == "llm":
        assert layers["gateway.calls.ok"] == 8
        assert layers["gateway.oracle_judge.busy_ms"] > 0
    else:
        assert layers["gateway.calls.ok"] == 6
        assert layers["judge.rubric.busy_ms"] > 0
        assert layers["gateway.oracle_judge.busy_ms"] == 0
