"""List the run artifacts that differ between this checkout and a git revision.

    python3 scripts/compare_artifacts.py <git-rev> [--seeds 1 2] [--workload NAME ...]

For each benchmark workload and seed, writes the inputs with
`perfbench/inputs.prepare` (this checkout's copy, imported and left as it
is), then runs `xaifuse run` on them twice in fresh one-BLAS-thread
interpreters: once with the package under this checkout's `src/`, once with
the revision's, which is checked out with `git worktree` into a temporary
directory and removed afterwards. The other entry points run once on each
side: `xaifuse conformance`, `xaifuse fuse` on the side's three shipped
`sensor_*` rank tables and `xaifuse generate --n 300 --seed 3`. Every file
of the two output directories is compared byte for byte, except that each
`manifest.json` is compared with each `seconds` field zeroed.

Prints one line per differing file and a final count. Exits 0 whether or
not files differ, so a change that is meant to move numbers still passes;
exits 1 if a run or the checkout fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402

THREAD_ENV = {
    name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}


def _git(*args: str) -> None:
    subprocess.run(["git", "-C", str(ROOT), *args], check=True)


def _zero_seconds(doc):
    if isinstance(doc, dict):
        return {k: 0.0 if k == "seconds" else _zero_seconds(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_zero_seconds(v) for v in doc]
    return doc


def _xaifuse(src: Path, work: Path, *args: str, ok: tuple[int, ...] = (0,)) -> None:
    """One `xaifuse` command with the package under `src`, run in `work`;
    an exit code outside `ok` raises CalledProcessError."""
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(src)}
    cmd = [sys.executable, "-m", "xaifuse.cli", *args]
    code = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL).returncode
    if code not in ok:
        raise subprocess.CalledProcessError(code, cmd)


def _run(src: Path, workload: str, seed: int, work: Path) -> Path:
    """The output directory of one `xaifuse run` of the workload."""
    inputs.prepare(workload, seed, work)
    _xaifuse(src, work, "run", "--config", "config.json", "--out", "out")
    return work / "out"


def _entry_points(src: Path, work: Path) -> Path:
    """The output directory of the conformance, fuse and generate commands."""
    out = work / "out"
    out.mkdir(parents=True)
    shipped = src / "xaifuse" / "fixtures"
    tables = [str(shipped / f"sensor_{m}.csv") for m in ("shap", "lime", "dalex")]
    # exit 1 is a failed check, which a change may cause on purpose
    _xaifuse(src, work, "conformance", "--out", "out/conformance", ok=(0, 1))
    _xaifuse(src, work, "fuse", *tables, "--out", "out/fuse")
    _xaifuse(src, work, "generate", "--n", "300", "--seed", "3", "--out", "out/generate.csv")
    return out


def differing_files(a: Path, b: Path) -> list[str]:
    """Relative names of the files that differ between output directories
    a (the revision's) and b (this checkout's)."""
    names = sorted(
        {str(p.relative_to(d)) for d in (a, b) for p in d.rglob("*") if p.is_file()}
    )
    differ = []
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            differ.append(f"{name} (only in {'revision' if pa.is_file() else 'checkout'})")
        elif Path(name).name == "manifest.json":
            docs = [_zero_seconds(json.loads(p.read_text(encoding="utf-8"))) for p in (pa, pb)]
            if docs[0] != docs[1]:
                differ.append(name)
        elif pa.read_bytes() != pb.read_bytes():
            differ.append(name)
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. origin/main")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument(
        "--workload", choices=inputs.WORKLOADS, action="append", dest="workloads"
    )
    args = parser.parse_args(argv)
    workloads = args.workloads or list(inputs.WORKLOADS)
    total = 0
    with tempfile.TemporaryDirectory(prefix="compare-artifacts-") as tmp:
        tree = Path(tmp) / "revision"
        _git("worktree", "add", "--detach", "--quiet", str(tree), args.rev)
        try:
            for workload in workloads:
                for seed in args.seeds:
                    case = Path(tmp) / f"{workload}-{seed}"
                    theirs = _run(tree / "src", workload, seed, case / "revision")
                    ours = _run(ROOT / "src", workload, seed, case / "checkout")
                    differ = differing_files(theirs, ours)
                    total += len(differ)
                    for name in differ:
                        print(f"{workload} seed {seed}: {name}")
                    print(f"{workload} seed {seed}: {len(differ)} differing files", flush=True)
            case = Path(tmp) / "entry-points"
            theirs = _entry_points(tree / "src", case / "revision")
            ours = _entry_points(ROOT / "src", case / "checkout")
            differ = differing_files(theirs, ours)
            total += len(differ)
            for name in differ:
                print(f"entry points: {name}")
            print(f"entry points: {len(differ)} differing files", flush=True)
        finally:
            _git("worktree", "remove", "--force", str(tree))
    print(f"{total} differing files against {args.rev}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, OSError) as exc:
        print(f"comparison failed: {exc}", file=sys.stderr)
        sys.exit(1)
