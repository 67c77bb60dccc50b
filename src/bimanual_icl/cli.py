"""Command-line entry points: gen-data, run, report, judge.

Values from a ``--config`` JSON file override the corresponding flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .bench import DEFAULT_TASKS
from .demos import load_demo_dir, load_demonstration, save_demo_dir
from .errors import ConfigError
from .judge import score_plan
from .runner import (
    RunConfig,
    aggregate,
    generate_dataset,
    load_episode_log,
    report_tables,
    run_experiment,
    write_report,
)


def _parse_int_list(text):
    return [int(v) for v in text.split(",") if v]


def _parse_str_list(text):
    return [v for v in text.split(",") if v]


# A run flag is "--" plus its field's name with "_" as "-", but for these three.
_FLAG_NAMES = {"tasks": "--task", "strategies": "--strategy", "out_dir": "--out"}
# How a flag's text becomes its field's value, by the field's annotation; a field
# annotated otherwise fails when the parser is built.
_FLAG_TYPES = {"list[str]": _parse_str_list, "list[int]": _parse_int_list, "int": int,
               "float": float, "str": str, "str | None": str}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bimanual-icl",
        description="Bimanual manipulation via multi-agent in-context learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate expert demonstration datasets")
    gen.add_argument("--task", required=True, choices=sorted(DEFAULT_TASKS),
                     help="task archetype to generate demos for")
    gen.add_argument("--episodes", type=int, default=RunConfig.store_size,
                     help="number of demonstrations")
    gen.add_argument("--seed", type=int, default=RunConfig.dataset_seed)
    gen.add_argument("--out", required=True, help="output directory root")

    # One flag per RunConfig field. Flags left out stay out of the namespace, so
    # RunConfig owns every default.
    run = sub.add_parser("run", help="run an experiment grid",
                         argument_default=argparse.SUPPRESS)
    for f in fields(RunConfig):
        run.add_argument(_FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-")),
                         dest=f.name, type=_FLAG_TYPES[f.type])
    run.add_argument("--config", help="JSON config file; its values override the flags")

    rep = sub.add_parser("report", help="re-render tables from an episode log")
    rep.add_argument("--log", required=True, help="episodes.jsonl from a previous run")
    rep.add_argument("--out", default=None, help="directory for summary.json/report.txt")

    jud = sub.add_parser("judge", help="score a plan file against a demo dataset")
    jud.add_argument("--plan", required=True,
                     help="JSON file with 'observation' and 'actions' (14 integers each)")
    jud.add_argument("--demos", required=True, help="directory of demonstration JSON files")

    return parser


def _run_config_from_args(args) -> RunConfig:
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    path, overrides = getattr(args, "config", None), {}
    if path:  # any fault of the file is a ConfigError naming it
        try:
            with open(path, encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not JSON
            raise ConfigError(f"config {path}: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ConfigError(f"config {path}: a JSON {type(overrides).__name__}, not an object")
        unknown = set(overrides) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"config {path}: unknown config keys: {sorted(unknown)}")
    return RunConfig(**{**flags, **overrides})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_command(args) -> int:
    if args.command == "gen-data":
        demos = generate_dataset(args.task, args.episodes, args.seed)
        out = Path(args.out) / args.task
        save_demo_dir(out, demos)
        print(f"wrote {len(demos)} demonstrations to {out}")
        return 0

    if args.command == "run":
        cfg = _run_config_from_args(args)
        report = run_experiment(cfg)
        sys.stdout.write(report_tables(report))
        if cfg.out_dir:
            print(f"logs and summary written to {cfg.out_dir}")
        return 0

    if args.command == "report":
        records = load_episode_log(args.log)
        report = aggregate(records)
        sys.stdout.write(report_tables(report))
        if args.out:
            write_report(report, args.out)
        return 0

    # "judge", the one command left: the subparsers admit no other
    demo = load_demonstration(args.plan)
    demos = load_demo_dir(args.demos)
    if not demos:
        raise ConfigError(f"no demonstrations (*.json) in {args.demos}")
    verdict = score_plan(demo.actions, demos, demo.observation)
    print(json.dumps(asdict(verdict), indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
