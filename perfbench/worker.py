"""One pass over a workload's grid, in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json OUT_DIR

SPEC.json holds ``{"run": {RunConfig fields}, "trace": bool}``. The pass
drives ``runner.run_experiment`` the way ``bimanual-icl run`` does, with
``out_dir`` set to OUT_DIR, and writes ``pass.json`` there. Untraced passes
wrap only ``runner.build_store`` and ``runner.run_strategy`` (one timer per
episode); traced passes also record spans for every layer and write
``spans.jsonl``. The package must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    out_dir = Path(argv[2])

    from bimanual_icl import runner

    build_ends = []
    build_s = []
    plan_ms = []
    build_store = runner.build_store
    run_strategy = runner.run_strategy

    def timed_build_store(*args, **kwargs):
        started = time.perf_counter()
        try:
            return build_store(*args, **kwargs)
        finally:
            build_s.append(time.perf_counter() - started)
            build_ends.append(time.monotonic())

    def timed_run_strategy(*args, **kwargs):
        started = time.perf_counter()
        try:
            return run_strategy(*args, **kwargs)
        finally:
            plan_ms.append((time.perf_counter() - started) * 1000.0)

    runner.build_store = timed_build_store
    runner.run_strategy = timed_run_strategy

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()

    cfg = runner.RunConfig(**spec["run"], out_dir=str(out_dir))
    started = time.perf_counter()
    runner.run_experiment(cfg)
    wall_s = time.perf_counter() - started

    result = {
        "setup_end_monotonic": max(build_ends),
        "wall_s": wall_s,
        "build_s": sum(build_s),
        "plan_ms": plan_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans, wall_s, cfg.workers)
        tracer.write(out_dir / "spans.jsonl")
    (out_dir / "pass.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
