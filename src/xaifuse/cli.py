"""Command-line front end.

Subcommands:
  generate      synthesize a labeled sensor CSV
  run           execute the full pipeline from a JSON config
  fuse          fuse one or more rank-table CSVs
  conformance   fuse the shipped tables and judge the required checks
  report        rebuild summary.md, byte for byte, from a run's JSON artifacts

Exit codes: 0 success, 1 failed conformance check or evaluation error,
2 config validation, 3 data error, 4 training error, 5 explanation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

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
    write_fused,
)
from .pipeline import (
    ConfigError,
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
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out_dir"] = args.out
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
    spec = FusionSpec(
        points=_parse_points(args.points), mode=args.mode, top_k=args.top_k
    )
    tables = {Path(p).stem: read_rank_table(p) for p in args.tables}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if len(tables) == 1:
        name, table = next(iter(tables.items()))
        fused = fuse_ranks(table, spec)
        write_fused(fused, out / f"fused_{name}.csv")
        picks = ", ".join(f.name for f in top_k(fused, spec.top_k))
        print(f"{name}: {picks}")
        return 0
    per_method, leveled = two_level_fuse(tables, spec)
    for name, fused in per_method.items():
        write_fused(fused, out / f"fused_{name}.csv")
        picks = ", ".join(f.name for f in top_k(fused, spec.top_k))
        print(f"{name}: {picks}")
    write_fused(leveled, out / "fused_leveled.csv")
    picks = ", ".join(f.name for f in top_k(leveled, spec.top_k))
    print(f"leveled: {picks}")
    return 0


def _cmd_conformance(args) -> int:
    _manifest, report = run_fixture_conformance(args.out)
    for check in report.required:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}")
    print(f"conformance: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_report(args) -> int:
    summary = render_summary_from_artifacts(args.out)
    (Path(args.out) / "summary.md").write_text(summary, encoding="utf-8")
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
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--anomaly-fraction", type=float, default=0.5)
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
    p.add_argument("--points", default="3,2,1")
    p.add_argument("--mode", choices=("weighted_points", "mean_rank"),
                   default="weighted_points")
    p.add_argument("--top-k", type=int, default=4)
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
    except ConfigError as exc:
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
