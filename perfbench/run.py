"""Pipeline benchmark: times `parse_config` -> `run_pipeline` on one workload.

    python3 perfbench/run.py --workload sensor_planted --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-spec     # rewrite BENCHMARK.json

Run from a source checkout; the package is imported from `src/`. Inputs are
generated from --seed before any timing starts. Each pipeline run happens in
a fresh interpreter with one BLAS thread, and runs repeat in whole rounds
until --seconds have passed. With --trace 0 the last line of stdout reports
the end-to-end metrics; with --trace 1 every round pairs an untraced run
with a traced one, checks their artifacts are equal byte for byte, and the
last line reports the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_SECONDS = 25
SETUP_PROBES = 7
# The measured processes get one BLAS thread: default threading on a small
# machine spreads run times by far more than the bounds below.
THREAD_ENV = {
    name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
# peak_rss_mb comes from one more run whose arrays above 128 KiB are always
# mmapped and unmapped when freed. With glibc's default, which raises that
# threshold as large arrays are freed, a freed array could stay in the heap
# and the peak fell at 86 or 96 MB on sensor_planted, chosen by the seed or
# by one more environment variable. The fixed threshold slows the run (by
# 1.6-2.2x on wide16_csv), so no timing comes from that run.
MEMORY_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}

WHY = {
    "sensor_planted": "ten-sensor data with planted violations and three constant binary "
    "sensors: explanation dominates, led by kNN SHAP, and coalition dedup applies",
    "veremi_multiclass_csv": "202k-row VeReMi CSV in six-class mode: CSV parsing, tree "
    "training and six-class GBDT judges dominate; the SVM Gram matrix sets peak memory",
    "wide16_csv": "16 continuous features at the exact-SHAP cap with no value shared "
    "between rows: forest and AdaBoost SHAP coalitions dominate, coalition dedup is bypassed",
}
END_TO_END = (
    ("setup_s", "s", 0.25),
    ("run_s", "s", 0.25),
    ("consensus_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.15),
)
METHODS = ("shap", "lime", "permutation")
JUDGES = ("gbdt_catboost_like", "gbdt_lgbm_like", "logistic_regression")


def per_layer() -> list[tuple[str, str]]:
    metrics = [
        ("data.load_s", "s"),
        ("data.clean_s", "s"),
        ("data.prepare_s", "s"),
        ("data.rows_read", "count"),
        ("data.rows_kept", "count"),
    ]
    metrics += [(f"models.train.{f}_s", "s") for f in inputs.RANKED]
    metrics.append(("models.train.peak_rss_mb", "MB"))
    for f in inputs.RANKED:
        metrics += [(f"models.predict.{f}.rows", "count"), (f"models.predict.{f}.rows_per_s", "1/s")]
    for m in METHODS:
        for f in inputs.RANKED:
            metrics += [(f"explainers.{m}.{f}_s", "s"), (f"explainers.{m}.{f}.rows", "count")]
    metrics.append(("explainers.peak_rss_mb", "MB"))
    metrics.append(("fusion.rank_fuse_s", "s"))
    metrics += [(f"evaluation.{j}_s", "s") for j in JUDGES]
    metrics += [("evaluation.fits", "count"), ("evaluation.distinct_sets", "count")]
    metrics += [("pipeline.report_s", "s"), ("pipeline.self_s", "s"), ("trace.overhead_s", "s")]
    return metrics


def spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in inputs.WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": "lower", "bound": b} for n, u, b in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "higher" if u == "1/s" or n.startswith("data.rows") else "lower"}
            for n, u in per_layer()
        ],
    }


class BenchError(Exception):
    pass


def _python(args: list[str], cwd: Path, timeout: float, env: dict | None = None) -> None:
    env = {**os.environ, **THREAD_ENV, **(env or {})}
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, timeout=timeout,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        raise BenchError(f"{args[0]} exited with {done.returncode}:\n{done.stderr}")


def setup_seconds(work: Path) -> float:
    """Median wall time of fresh interpreters that import the package and
    parse and validate the config. One untimed warm-up fills bytecode caches."""
    probe = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); "
        "from xaifuse.pipeline import parse_config; "
        "parse_config(json.loads(open(sys.argv[2]).read()))"
    )
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        _python(["-c", probe, str(SRC), "config.json"], work, timeout=30)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def pipeline_run(work: Path, name: str, trace: str, env: dict | None = None) -> tuple[Path, dict]:
    _python(
        [str(HERE / "worker.py"), str(SRC), "config.json", "facts.json", name,
         f"{name}.json", trace],
        work, timeout=90, env=env,
    )
    return work / name, json.loads((work / f"{name}.json").read_text(encoding="utf-8"))


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    work = ROOT / ".perfbench-out" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    plain, traced, failures = [], [], []
    attempted = failed = 0

    def run(name: str, flag: str, env: dict | None = None) -> tuple[Path, dict]:
        nonlocal attempted, failed
        out, res = pipeline_run(work, name, flag, env)
        figures = res["figures"]
        print(
            f"{name}: run_s {figures['run_s']:.3f} consensus_s {figures['consensus_s']:.3f} "
            f"peak_rss_mb {figures['peak_rss_mb']:.1f}", file=sys.stderr,
        )
        failures.extend(res["failures"])
        attempted += len(res["ops"])
        failed += sum(not ok for ok in res["ops"].values())
        return out, figures

    try:
        inputs.prepare(workload, seed, work)
        if not trace:
            setup = setup_seconds(work)
            out, figures = run("memory", "0", MEMORY_ENV)
            peak = figures["peak_rss_mb"]
            shutil.rmtree(out)
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - start < seconds:
            out, figures = run(f"r{rounds}", "0")
            plain.append(figures)
            outs = [out]
            if trace:
                out, figures = run(f"r{rounds}t", "1")
                traced.append(figures)
                outs.append(out)
                failures += checks.same_artifacts(*outs)
            for out in outs:
                shutil.rmtree(out)
            rounds += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def median(rows: list[dict], key: str, unit: str = "s") -> float:
        values = [r.get(key, 0) for r in rows]
        # a count stays one of the counts seen
        return statistics.median_low(values) if unit == "count" else statistics.median(values)

    if trace:
        metrics = {name: median(traced, name, unit) for name, unit in per_layer()}
        metrics["trace.overhead_s"] = statistics.median(
            t["run_s"] - u["run_s"] for t, u in zip(traced, plain)
        )
        units = dict(per_layer())
    else:
        metrics = {"setup_s": setup, "run_s": median(plain, "run_s"),
                   "consensus_s": median(plain, "consensus_s"), "peak_rss_mb": peak}
        units = {name: unit for name, unit, _ in END_TO_END}
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "xaifuse" / "__init__.py").is_file():
        print(f"no xaifuse package source under {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
