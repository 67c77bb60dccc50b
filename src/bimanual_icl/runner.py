"""Experiment runner: seeds x episodes x strategies, aggregation, reporting.

Episode logs are JSONL in grid order whatever the worker count; the machine
summary contains only deterministic fields, so reruns with the same config
and the oracle backend are byte-identical, and so is the summary rebuilt
from the log. Wall-clock statistics appear in the rendered tables and the
episode log, never in the summary.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .actions import _is_integer
from .bench import DEFAULT_TASKS, execute, scripted_expert, spawn, spawn_many
from .demos import load_demo_dir, sample_batch
from .errors import EPISODE_ERRORS, ConfigError
from .gateway import CallLog, ChatGateway, HttpBackend, OracleBackend, check_temperature
from .judge import JUDGE_MODES, PlanJudge
from .strategies import STRATEGY_KINDS, StrategyConfig, run_strategy


def _is_list_of(check):
    return lambda value: isinstance(value, (list, tuple)) and all(check(v) for v in value)


# What each RunConfig annotation (or EPISODE_KEYS type) admits; a --config file
# or an episode log can hold any JSON value.
_ANNOTATION_CHECKS = {
    "bool": lambda value: isinstance(value, bool),
    "int": _is_integer,
    "float": lambda value: _is_integer(value) or isinstance(value, float),
    "str": lambda value: isinstance(value, str),
    "str | None": lambda value: value is None or isinstance(value, str),
    "list[str]": _is_list_of(lambda value: isinstance(value, str)),
    "list[int]": _is_list_of(_is_integer),
}


@dataclass
class RunConfig:
    tasks: list[str] = field(default_factory=lambda: ["lift_sym"])
    strategies: list[str] = field(default_factory=lambda: ["leader_follower"])
    backend: str = "oracle"
    seeds: list[int] = field(default_factory=lambda: [0])
    episodes: int = 10
    n_demos: int = 10
    leader_arm: str = StrategyConfig.leader_arm
    n_candidates: int = StrategyConfig.n_candidates
    max_retries: int = StrategyConfig.max_retries
    temperature: float = StrategyConfig.temperature
    judge_temperature: float = 0.0
    judge_mode: str = "llm"
    store_size: int = 100
    dataset_seed: int = 1234
    data_dir: str | None = None
    out_dir: str | None = None
    http_url: str = "http://localhost:8000/v1/chat/completions"
    http_model: str = "local-model"
    api_key_env: str = "OPENAI_API_KEY"
    timeout: float = 60.0
    workers: int = 1

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _ANNOTATION_CHECKS[f.type](value):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if self.episodes < 1:
            raise ConfigError("episodes must be >= 1")
        if self.n_demos < 1:
            raise ConfigError("n_demos must be >= 1")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.backend not in ("oracle", "http"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.judge_mode not in JUDGE_MODES:
            raise ConfigError(f"unknown judge mode {self.judge_mode!r}; available: {JUDGE_MODES}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not 0 < self.timeout < math.inf:  # NaN fails both comparisons
            raise ConfigError(f"timeout must be a positive finite number, got {self.timeout}")
        check_temperature(self.judge_temperature, "judge_temperature")
        for name in ("tasks", "strategies", "seeds"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} must not repeat an entry: {values}")
        for task in self.tasks:
            if task not in DEFAULT_TASKS:
                raise ConfigError(f"unknown task {task!r}; available: {sorted(DEFAULT_TASKS)}")
        for strategy in self.strategies:
            if strategy not in STRATEGY_KINDS:
                raise ConfigError(f"unknown strategy {strategy!r}; available: {STRATEGY_KINDS}")
        self.strategy_config()  # StrategyConfig owns the checks of the strategy settings
        if self.store_size < self.n_demos:
            raise ConfigError("store_size must be at least n_demos")

    def strategy_config(self) -> StrategyConfig:
        """The strategy settings every episode of this run uses."""
        return StrategyConfig(**{f.name: getattr(self, f.name) for f in fields(StrategyConfig)})


@dataclass
class StrategyTaskStats:
    task: str
    strategy: str
    episodes: int
    success_mean: float  # percent
    success_sd: float
    calls_mean: float
    calls_sd: float
    prompt_chars_mean: float
    completion_chars_mean: float
    wall_ms_median: float
    wall_ms_iqr: tuple


@dataclass
class AggregateReport:
    tasks: list
    strategies: list
    seeds: list
    episodes: int
    rows: list


def stable_seed(*parts) -> int:
    """Deterministic 32-bit seed from string parts, stable across platforms."""
    return zlib.crc32("|".join(str(p) for p in parts).encode("utf-8"))


def make_backend(cfg: RunConfig):
    if cfg.backend == "oracle":
        return OracleBackend()
    return HttpBackend(cfg.http_url, cfg.http_model, api_key_env=cfg.api_key_env,
                       timeout=cfg.timeout)


def build_store(task_name: str, cfg: RunConfig):
    """Load a task's demo dataset from disk, or generate it via the expert."""
    if cfg.data_dir:
        demos = load_demo_dir(Path(cfg.data_dir) / task_name)
        if len(demos) < cfg.n_demos:
            raise ConfigError(
                f"dataset for {task_name!r} holds {len(demos)} demos, need {cfg.n_demos}"
            )
        return demos
    return generate_dataset(task_name, cfg.store_size, cfg.dataset_seed)


def generate_dataset(task_name: str, count: int, seed: int):
    """Expert demonstrations for one task (gen-data, and stores without a data_dir)."""
    task = DEFAULT_TASKS[task_name]
    seeds = [stable_seed(task_name, "store", seed, k) for k in range(count)]
    return [scripted_expert(task, world) for world in spawn_many(task, seeds)]


def _run_episode(cfg: RunConfig, backend, store, task_name: str, strategy: str,
                 seed: int, episode: int) -> dict:
    task = DEFAULT_TASKS[task_name]
    world = spawn(task, seed=stable_seed(task_name, strategy, seed, episode, "world"))
    batch = sample_batch(store, cfg.n_demos, seed=stable_seed(task_name, strategy, seed, episode, "batch"))

    log = CallLog()
    gateway = ChatGateway(backend, log)
    strategy_cfg = cfg.strategy_config()
    judge = PlanJudge(mode=cfg.judge_mode, gateway=gateway,
                      temperature=cfg.judge_temperature, max_retries=cfg.max_retries)

    started = time.perf_counter()
    reason = ""
    success = False
    plan_len = 0
    try:
        plan = run_strategy(strategy, gateway, batch, world.observation, strategy_cfg,
                            judge=judge)
        plan_len = len(plan.actions)
        result = execute(world, plan.actions)
        success = result.success
        reason = result.reason
    except EPISODE_ERRORS as exc:
        phase = getattr(exc, "phase", None)  # ExhaustedRetries names it from the tag
        reason = f"strategy_error:{type(exc).__name__}" + (f":{phase}" if phase else "")
    wall_ms = int((time.perf_counter() - started) * 1000)

    records = log.records()
    return {
        "task": task_name,
        "strategy": strategy,
        "seed": seed,
        "episode": episode,
        "success": success,
        "reason": reason,
        "plan_len": plan_len,
        "calls": len(records),
        "prompt_chars": sum(r.prompt_chars for r in records),
        "completion_chars": sum(r.completion_chars for r in records),
        "wall_ms": wall_ms,
    }


def run_experiment(cfg: RunConfig) -> AggregateReport:
    """Run the full grid, write logs and summaries, return the report."""
    cfg.validate()
    backend = make_backend(cfg)
    stores = {task: build_store(task, cfg) for task in cfg.tasks}

    jobs = [
        (task, strategy, seed, episode)
        for task in cfg.tasks
        for strategy in cfg.strategies
        for seed in cfg.seeds
        for episode in range(cfg.episodes)
    ]

    out_dir = Path(cfg.out_dir) if cfg.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    def work(job):
        task, strategy, seed, episode = job
        return _run_episode(cfg, backend, stores[task], task, strategy, seed, episode)

    records = []
    log = open(out_dir / "episodes.jsonl", "w", encoding="utf-8") if out_dir else nullcontext()
    with log as log_fh, ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        # both maps yield in grid order, whichever episode finishes first
        for record in (pool.map if cfg.workers > 1 else map)(work, jobs):
            if log_fh is not None:
                log_fh.write(json.dumps(record, sort_keys=True) + "\n")
                log_fh.flush()
            records.append(record)

    report = aggregate(records)
    if out_dir:
        write_report(report, out_dir)
    return report


# The fields of an episode record that aggregate reads, and their types.
EPISODE_KEYS = {"task": "str", "strategy": "str", "seed": "int", "episode": "int",
                "success": "bool", "calls": "int", "prompt_chars": "int",
                "completion_chars": "int", "wall_ms": "float"}


def aggregate(records) -> AggregateReport:
    """Group episode records into per-(task, strategy) statistics.

    Tasks, strategies and seeds keep their order of first appearance, so the
    grid-order records of a run aggregate exactly as that run did.
    """
    records = list(records)
    tasks = list(dict.fromkeys(r["task"] for r in records))
    strategies = list(dict.fromkeys(r["strategy"] for r in records))
    seeds = list(dict.fromkeys(r["seed"] for r in records))
    episodes = max((r["episode"] + 1 for r in records), default=0)

    rows = []
    for task in tasks:
        for strategy in strategies:
            group = [r for r in records if r["task"] == task and r["strategy"] == strategy]
            if not group:
                continue
            per_seed = []
            for seed in seeds:
                seed_records = [r for r in group if r["seed"] == seed]
                if seed_records:
                    per_seed.append(100.0 * float(np.mean([r["success"] for r in seed_records])))
            calls = np.array([r["calls"] for r in group], dtype=float)
            walls = sorted(float(r["wall_ms"]) for r in group)
            rows.append(
                StrategyTaskStats(
                    task=task,
                    strategy=strategy,
                    episodes=len(group),
                    success_mean=round(float(np.mean(per_seed)), 6),
                    success_sd=round(float(np.std(per_seed)), 6),
                    calls_mean=round(float(calls.mean()), 6),
                    calls_sd=round(float(calls.std()), 6),
                    prompt_chars_mean=round(float(np.mean([r["prompt_chars"] for r in group])), 6),
                    completion_chars_mean=round(
                        float(np.mean([r["completion_chars"] for r in group])), 6
                    ),
                    wall_ms_median=quantile(walls, 0.5),
                    wall_ms_iqr=(quantile(walls, 0.25), quantile(walls, 0.75)),
                )
            )
    return AggregateReport(tasks=tasks, strategies=strategies, seeds=seeds,
                           episodes=episodes, rows=rows)


def quantile(ordered, q: float) -> float:
    """``np.percentile(ordered, 100 * q)`` of a sorted non-empty list, by numpy's
    linear method and its two-sided interpolation, so the floats agree. Used instead
    of ``np.median`` and ``np.percentile``, whose first call imports ``numpy.ma``."""
    position = (len(ordered) - 1) * q
    lo = math.floor(position)
    a, b = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
    t = position - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def report_to_summary(report: AggregateReport) -> dict:
    """Machine summary: every deterministic field, no wall-clock statistics."""
    return {
        "tasks": report.tasks,
        "strategies": report.strategies,
        "seeds": report.seeds,
        "episodes": report.episodes,
        "rows": [
            {k: v for k, v in asdict(row).items() if not k.startswith("wall_ms")}
            for row in report.rows
        ],
    }


def render_summary_json(report: AggregateReport) -> str:
    return json.dumps(report_to_summary(report), indent=2, sort_keys=True) + "\n"


def report_tables(report: AggregateReport) -> str:
    """Human-readable success table plus call/latency table."""
    lines = []
    by_key = {(row.task, row.strategy): row for row in report.rows}

    col = max([len(t) for t in report.tasks] + [15])  # fits "100.0 +/- 100.0"
    name_w = max([len(s) for s in report.strategies] + [8])
    header = "strategy".ljust(name_w) + " | " + " | ".join(t.ljust(col) for t in report.tasks)
    header += " | avg"
    lines.append("Success rate (%) as mean +/- sd over seeds")
    lines.append(header)
    lines.append("-" * len(header))
    for strategy in report.strategies:
        cells = []
        means = []
        for task in report.tasks:
            row = by_key.get((task, strategy))
            if row is None:
                cells.append("-".ljust(col))
                continue
            cells.append(f"{row.success_mean:.1f} +/- {row.success_sd:.1f}".ljust(col))
            means.append(row.success_mean)
        avg = f"{np.mean(means):.1f}" if means else "-"
        lines.append(strategy.ljust(name_w) + " | " + " | ".join(cells) + " | " + avg)

    lines.append("")
    lines.append("Per-episode call statistics")
    lines.append(
        f"{'task':<14}{'strategy':<18}{'calls':<16}{'prompt chars':<14}"
        f"{'completion chars':<18}{'wall ms median (IQR)':<24}"
    )
    for row in report.rows:
        wall = f"{row.wall_ms_median:.0f} ({row.wall_ms_iqr[0]:.0f}-{row.wall_ms_iqr[1]:.0f})"
        lines.append(
            f"{row.task:<14}{row.strategy:<18}"
            f"{f'{row.calls_mean:.1f} +/- {row.calls_sd:.1f}':<16}"
            f"{row.prompt_chars_mean:<14.0f}{row.completion_chars_mean:<18.0f}{wall:<24}"
        )
    return "\n".join(lines) + "\n"


def write_report(report: AggregateReport, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(render_summary_json(report), encoding="utf-8")
    (out_dir / "report.txt").write_text(report_tables(report), encoding="utf-8")


def load_episode_log(path):
    """Read an episodes.jsonl; any fault of it is a ConfigError naming the file and line."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, ValueError) as exc:  # missing, unreadable, not UTF-8
        raise ConfigError(f"episode log {path}: {exc}") from exc
    records = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ConfigError(f"episode log {path}, line {number}: {exc}") from exc
        missing = [key for key in EPISODE_KEYS if not isinstance(record, dict) or key not in record]
        if missing:
            raise ConfigError(f"episode log {path}, line {number}: missing keys {missing}")
        for key, kind in EPISODE_KEYS.items():
            if not _ANNOTATION_CHECKS[kind](record[key]):
                raise ConfigError(
                    f"episode log {path}, line {number}: {key} must be {kind}, got {record[key]!r}")
        records.append(record)
    return records
