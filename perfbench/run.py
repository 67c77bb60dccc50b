"""The repository benchmark: end-to-end metrics, output checks, a traced per-layer run.

    python3 perfbench/run.py --workload oracle-light --seed 0 --seconds 55 --trace 0

Run from the repository root. Each workload is a closed loop over a fixed
grid of ``bimanual-icl run``: every pass is a fresh interpreter
(``worker.py``) that imports the package from ``src/`` and drives
``runner.run_experiment``. Passes repeat until ``--seconds`` have been spent
(at least ``MIN_PASSES`` untraced passes and ``MIN_PLAN_SAMPLES`` episodes
for the p90); a pass that would end mostly past the deadline is not
started. ``--seed`` becomes ``RunConfig.seeds``.

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
reported. With ``--trace 1`` untraced and traced passes alternate; the
per-layer metrics are medians over the traced passes and
``trace.overhead_pct`` compares episodes/s of the two kinds.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 1 when an output
check fails and 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ALL_TASKS = ["lift_sym", "handover", "dual_targets", "drawer_item"]
DEFAULT_SEED = 0
MIN_PASSES = 3
MIN_PLAN_SAMPLES = 100
MAX_MEASURE_S = 100.0  # never start a pass after this, so the run ends within 180 s
PASS_TIMEOUT_S = 60.0
STORE_SIZE = 100
DATASET_SEED = 1234  # RunConfig.dataset_seed, so gen-data output equals the generated store

WORKLOADS = {
    "oracle-light": {
        "tasks": ALL_TASKS,
        "strategies": ["single_agent", "dual_agent", "leader_follower", "arms_debate"],
        "backend": "oracle", "episodes": 10, "workers": 1,
    },
    "oracle-rerank": {
        "tasks": ALL_TASKS,
        "strategies": ["best_of_n", "debate_plus_bon"],
        "backend": "oracle", "n_candidates": 5, "judge_mode": "llm", "episodes": 8,
        "workers": 1,
    },
    "http-stub": {
        "tasks": ["lift_sym", "handover"],
        "strategies": ["leader_follower", "arms_debate", "best_of_n", "debate_plus_bon"],
        "backend": "http", "n_candidates": 5, "judge_mode": "llm", "episodes": 5,
        "workers": 2, "data_dir": True,
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "episodes_per_s": "1/s",
    "calls_per_s": "1/s",
    "plan_latency_p50_ms": "ms",
    "plan_latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "perception.build_observation.calls": "count",
    "perception.build_observation.busy_ms": "ms",
    "bench.spawn.calls": "count",
    "bench.spawn.self_ms": "ms",
    "bench.synthetic_clouds.busy_ms": "ms",
    "bench.scripted_expert.busy_ms": "ms",
    "bench.execute.busy_ms": "ms",
    "demos.sample_batch.busy_ms": "ms",
    "demos.load_demo_dir.busy_ms": "ms",
    "prompts.render.calls": "count",
    "prompts.render.busy_ms": "ms",
    "prompts.render.kchars": "kchar",
    "prompts.parse_completion.busy_ms": "ms",
    "gateway.calls.ok": "count",
    "gateway.calls.parse_fail": "count",
    "gateway.calls.transport_fail": "count",
    "gateway.useful_call_ratio": "ratio",
    "gateway.backend.busy_ms": "ms",
    "gateway.self_ms": "ms",
    "gateway.oracle_predict.busy_ms": "ms",
    "gateway.oracle_judge.busy_ms": "ms",
    "gateway.http_overhead_ms_per_call": "ms",
    "gateway.inflight_max": "count",
    "strategies.self_ms": "ms",
    **{f"strategies.{kind}.plan_p50_ms": "ms" for kind in spans.STRATEGY_KINDS},
    "strategies.rerank_wait_ms": "ms",
    "judge.score.calls": "count",
    "judge.score.busy_ms": "ms",
    "judge.rubric.busy_ms": "ms",
    "runner.build_store.busy_ms": "ms",
    "runner.self_ms": "ms",
    "trace.overhead_pct": "%",
}


def call_budget(strategy: str, n_candidates: int) -> int:
    """Backend calls per episode with a first-try-valid backend."""
    return {"single_agent": 1, "dual_agent": 2, "leader_follower": 2, "arms_debate": 4,
            "best_of_n": 3 * n_candidates, "debate_plus_bon": 5 * n_candidates}[strategy]


def percentile(values, q: float):
    """Linearly interpolated q-th percentile and the sample count it rests on."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = (n - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo), n


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_digest(label: str, actual: str, expected: str) -> list:
    if actual == expected:
        return []
    return [f"{label}: summary.json sha256 {actual[:12]} != expected {expected[:12]}"]


def check_records(records, run_cfg: dict) -> list:
    """Every grid episode is logged once, with exactly its call budget."""
    errors = []
    expected = {(t, s, seed, e) for t in run_cfg["tasks"] for s in run_cfg["strategies"]
                for seed in run_cfg["seeds"] for e in range(run_cfg["episodes"])}
    seen = [(r["task"], r["strategy"], r["seed"], r["episode"]) for r in records]
    if len(seen) != len(set(seen)) or set(seen) != expected:
        errors.append(f"episode log holds {len(seen)} records ({len(set(seen))} distinct), "
                      f"grid has {len(expected)}")
    n = run_cfg.get("n_candidates", 5)
    for r in records:
        budget = call_budget(r["strategy"], n)
        if r["calls"] != budget:
            errors.append(f"{r['task']}/{r['strategy']}/{r['seed']}/{r['episode']}: "
                          f"{r['calls']} calls, budget {budget} ({r['reason'] or 'ok'})")
    return errors


@dataclass
class Pass:
    traced: bool
    setup_s: float
    wall_s: float
    build_s: float
    episodes: int
    calls: int
    errors: int
    plan_ms: list
    peak_rss_mb: float
    summary_sha256: str
    records: list
    layers: dict = field(default_factory=dict)

    @property
    def timed_s(self) -> float:
        return self.wall_s - self.build_s


class BenchError(RuntimeError):
    pass


def run_pass(run_cfg: dict, traced: bool, out_dir: Path, env: dict) -> Pass:
    out_dir.mkdir(parents=True)
    spec = out_dir / "spec.json"
    spec.write_text(json.dumps({"run": run_cfg, "trace": traced}), encoding="utf-8")
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec), str(out_dir)],
                          env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"pass failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads((out_dir / "pass.json").read_text(encoding="utf-8"))
    with open(out_dir / "episodes.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return Pass(
        traced=traced,
        setup_s=result["setup_end_monotonic"] - spawned,
        wall_s=result["wall_s"],
        build_s=result["build_s"],
        episodes=len(records),
        calls=sum(r["calls"] for r in records),
        errors=sum(1 for r in records if r["reason"].startswith("strategy_error:")),
        plan_ms=result["plan_ms"],
        peak_rss_mb=result["peak_rss_mb"],
        summary_sha256=digest((out_dir / "summary.json").read_bytes()),
        records=records,
        layers=result.get("layers", {}),
    )


def gen_data(tasks, out: Path, env: dict):
    """Expert stores written by ``bimanual-icl gen-data``, made before timing starts."""
    for task in tasks:
        subprocess.run([sys.executable, "-m", "bimanual_icl.cli", "gen-data", "--task", task,
                        "--episodes", str(STORE_SIZE), "--seed", str(DATASET_SEED),
                        "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=PASS_TIMEOUT_S)


def start_stub(env: dict):
    proc = subprocess.Popen([sys.executable, str(HERE / "stub.py")], env=env,
                            stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], 30.0)
    line = proc.stdout.readline() if ready else ""
    if not line.startswith("READY "):
        stop(proc)
        raise BenchError("loopback stub did not start")
    return proc, int(line.split()[1])


def stop(proc):
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def enough(passes, trace: bool) -> bool:
    untraced = [p for p in passes if not p.traced]
    if trace:
        return bool(untraced) and len(untraced) < len(passes)
    return (len(untraced) >= MIN_PASSES
            and sum(len(p.plan_ms) for p in untraced) >= MIN_PLAN_SAMPLES)


def end_to_end(untraced) -> dict:
    """Each metric as (value, sample count)."""
    plan = [ms for p in untraced for ms in p.plan_ms]
    k = len(untraced)
    return {
        "setup_s": (statistics.median(p.setup_s for p in untraced), k),
        "episodes_per_s": (statistics.median(p.episodes / p.timed_s for p in untraced), k),
        "calls_per_s": (statistics.median(p.calls / p.timed_s for p in untraced), k),
        "plan_latency_p50_ms": percentile(plan, 50),
        "plan_latency_p90_ms": percentile(plan, 90),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in untraced), k),
    }


def per_layer(passes) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    metrics = {name: (statistics.median(p.layers[name] for p in traced), len(traced))
               for name in traced[0].layers}
    plain = statistics.median(p.episodes / p.timed_s for p in untraced)
    slow = statistics.median(p.episodes / p.timed_s for p in traced)
    metrics["trace.overhead_pct"] = ((plain / slow - 1.0) * 100.0, len(passes))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # stop the stub on the way out
    root = Path.cwd()
    if not (root / "src" / "bimanual_icl" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {root / 'src' / 'bimanual_icl'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run_cfg = dict(WORKLOADS[args.workload], seeds=[args.seed])
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    checks = []
    stub = None
    try:
        if run_cfg.pop("data_dir", False):
            gen_data(run_cfg["tasks"], work / "data", env)
            run_cfg["data_dir"] = str(work / "data")
        reference = None
        if run_cfg["backend"] == "http":
            reference = run_pass(dict(run_cfg, backend="oracle"), False, work / "oracle", env)
            checks += check_records(reference.records, run_cfg)
            stub, port = start_stub(env)
            run_cfg["http_url"] = f"http://127.0.0.1:{port}/v1/chat/completions"

        passes = []
        started = time.monotonic()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            pass_started = time.monotonic()
            passes.append(run_pass(run_cfg, traced, work / f"pass{len(passes)}", env))
            now = time.monotonic()
            # Start no pass that would run mostly past the deadline.
            due = now - started + (now - pass_started) / 2 >= args.seconds
            if now - started >= MAX_MEASURE_S or (due and enough(passes, args.trace)):
                break
        if args.trace:
            last = work / f"pass{max(i for i, p in enumerate(passes) if p.traced)}"
            keep = root / ".perfbench_out"
            keep.mkdir(exist_ok=True)
            shutil.copyfile(last / "spans.jsonl",
                            keep / f"{args.workload}-seed{args.seed}.spans.jsonl")
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if stub is not None:
            stop(stub)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    for i, p in enumerate(passes):
        checks += [f"pass {i}: {e}" for e in check_records(p.records, run_cfg)]
        checks += check_digest(f"pass {i} vs pass 0", p.summary_sha256, passes[0].summary_sha256)
    if reference is not None:
        checks += check_digest("http vs oracle backend", passes[0].summary_sha256,
                               reference.summary_sha256)
    if args.seed == DEFAULT_SEED:
        checks += check_digest(f"seed {DEFAULT_SEED} baseline", passes[0].summary_sha256,
                               baseline["workloads"][args.workload]["summary_sha256"])

    untraced = [p for p in passes if not p.traced]
    attempted = sum(p.episodes for p in passes)
    failed = sum(p.errors for p in passes)
    e2e = end_to_end(untraced)
    print(f"perfbench {args.workload} seed={args.seed}: {len(untraced)} untraced and "
          f"{len(passes) - len(untraced)} traced passes of {passes[0].episodes} episodes, "
          f"summary sha256 {passes[0].summary_sha256}")
    print("  per untraced pass: setup_s "
          + " ".join(f"{p.setup_s:.3f}" for p in untraced) + ", episodes_per_s "
          + " ".join(f"{p.episodes / p.timed_s:.2f}" for p in untraced))
    for name, (value, n) in e2e.items():
        print(f"  {name:<22} {value:12.4f} {END_TO_END_UNITS[name]:<6} n={n}")
    print(f"  {'episode_error_share':<22} {failed / attempted:12.4f} {'ratio':<6} n={attempted}")
    if args.trace:
        layers = per_layer(passes)
        for name, (value, n) in layers.items():
            print(f"  {name:<38} {value:14.4f} {PER_LAYER_UNITS[name]:<6} n={n}")
        metrics = {name: {"value": layers[name][0], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    for line in checks:
        print(f"  CHECK FAILED {line}")
    print(json.dumps({"correct": not checks, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not checks else 1


if __name__ == "__main__":
    sys.exit(main())
