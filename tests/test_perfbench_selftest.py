"""The benchmark's self-test passes against the package as it stands.

``perfbench/test_perfbench.py`` imports package APIs (``bench.spawn(task,
seed=k)``, ``prompts.build_single_prompt``, ``gateway.ChatRequest`` and
``OracleBackend``); a change that breaks one of them fails here, not only
when the benchmark runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_test_passes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-3000:]
