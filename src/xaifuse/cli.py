"""Command-line front end.

Subcommands:
  generate      synthesize a labeled sensor CSV
  run           execute the full pipeline from a JSON config
  fuse          fuse one or more rank-table CSVs
  conformance   fuse the shipped tables and judge the required checks
  report        rebuild summary.md, byte for byte, from a run's JSON artifacts

Exit codes: 0 success, 1 failed conformance check or evaluation error,
2 config validation or an unwritable output path, 3 data error, 4 training
error, 5 explanation error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .artifacts import WriteError, read_json, write_text
from .data import DataError, generate_sensor_dataset, save_csv
from .evaluation import EvaluationError
from .explainers import ExplainError
from .fusion import (
    FusionError,
    FusionSpec,
    fuse_ranks,
    read_rank_table,
    top_k,
    two_level_fuse,
    write_fusion,
)
from .pipeline import (
    ConfigError,
    SourceSpec,
    TrainingError,
    parse_config,
    render_summary_from_artifacts,
    run_fixture_conformance,
    run_pipeline,
)


def _cmd_generate(args) -> int:
    violable = args.violable.split(",") if args.violable else None
    dataset = generate_sensor_dataset(
        n=args.n,
        anomaly_fraction=args.anomaly_fraction,
        seed=args.seed,
        violable_features=violable,
    )
    out = Path(args.out)
    save_csv(dataset, out)
    counts = ", ".join(f"{k}: {v}" for k, v in sorted(dataset.class_counts.items()))
    print(f"wrote {dataset.n_rows} rows to {out} (labels {counts})")
    return 0


def _cmd_run(args) -> int:
    raw = read_json(args.config, ConfigError)
    # parse_config refuses a config that is not an object
    if isinstance(raw, dict):
        for key, value in (("seed", args.seed), ("out_dir", args.out)):
            if value is not None:
                raw[key] = value
    cfg = parse_config(raw)
    manifest = run_pipeline(cfg)
    print(f"config hash: {manifest.config_hash}")
    for name in manifest.artifacts:
        print(f"wrote {Path(cfg.out_dir) / name}")
    return 0


def _parse_points(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"points must be comma-separated numbers: {text!r}") from None


def _cmd_fuse(args) -> int:
    given = {"mode": args.mode, "top_k": args.top_k}
    if args.points is not None:
        given["points"] = _parse_points(args.points)
    try:
        spec = FusionSpec(**{k: v for k, v in given.items() if v is not None})
    except FusionError as exc:
        raise ConfigError(f"bad fusion flags: {exc}") from None
    paths: dict[str, str] = {}
    for path in args.tables:
        stem = Path(path).stem
        if stem in paths:
            raise FusionError(f"{paths[stem]} and {path} share the name {stem!r}")
        paths[stem] = path
    tables = {stem: read_rank_table(path) for stem, path in paths.items()}
    if len(tables) == 1:
        fused = {stem: fuse_ranks(table, spec) for stem, table in tables.items()}
    else:
        fused = two_level_fuse(tables, spec)
    # the writers create the directory, so a fusion error leaves none behind
    write_fusion(fused, Path(args.out), "fused_")
    for name, ranking in fused.items():
        print(f"{name}: {', '.join(f.name for f in top_k(ranking, spec.top_k))}")
    return 0


def _cmd_conformance(args) -> int:
    _manifest, report = run_fixture_conformance(args.out)
    for check in report.required:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}")
    print(f"conformance: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_report(args) -> int:
    summary = render_summary_from_artifacts(args.out)
    write_text(Path(args.out) / "summary.md", summary)
    print(summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xaifuse",
        description="Rank-fusion feature selection for tabular anomaly detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a labeled sensor CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=SourceSpec.n_rows)
    p.add_argument("--anomaly-fraction", type=float, default=SourceSpec.anomaly_fraction)
    p.add_argument(
        "--violable",
        default=None,
        help="comma-separated feature names anomalies may violate (default all)",
    )
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run the full pipeline from a JSON config")
    p.add_argument("--config", required=True, help="path to a JSON config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="override the output directory")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("fuse", help="fuse rank-table CSVs")
    p.add_argument("tables", nargs="+", help="rank-table CSV paths")
    # absent fusion flags take FusionSpec's defaults
    p.add_argument("--points", help="comma-separated points per place")
    p.add_argument("--mode", choices=("weighted_points", "mean_rank"))
    p.add_argument("--top-k", type=int)
    p.add_argument("--out", default=".", help="directory for fused CSVs")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser(
        "conformance", help="check fused shipped tables against reference columns"
    )
    p.add_argument("--out", default="conformance-out")
    p.set_defaults(func=_cmd_conformance)

    p = sub.add_parser("report", help="rebuild summary.md from run artifacts")
    p.add_argument("--out", required=True, help="directory holding a finished run")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, WriteError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FusionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 4
    except ExplainError as exc:
        print(f"explanation error: {exc}", file=sys.stderr)
        return 5
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
