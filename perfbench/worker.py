"""One measured pipeline run in a fresh interpreter.

    python3 perfbench/worker.py SRC_DIR CONFIG_JSON FACTS_JSON OUT_DIR RESULT_JSON TRACE

Imports the package from SRC_DIR, installs the probe (and, with TRACE=1,
the tracer), times `run_pipeline` on the parsed config, then runs the
output checks and the summary rebuild with the clock stopped. Writes its
figures, check failures and operation counts to RESULT_JSON.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import checks
from tracing import Probe, Tracer, peak_rss_mb


def output_checks(cfg, probe, facts: dict, out: Path) -> list[str]:
    names = tuple(facts["features"])
    failures = checks.shap_efficiency(probe)
    failures += checks.fusion_recount(
        out, names, cfg.explain_methods, cfg.fusion.points, cfg.fusion.top_k
    )
    failures += checks.metrics_consistent(out)
    if facts["constant"]:
        failures += checks.constant_columns_score_zero(out, probe, tuple(facts["constant"]), names)
    if facts["check_unsplit"]:
        unsplit, covered = checks.unsplit_features_score_zero(out, probe, names)
        failures += unsplit or ([] if covered else ["no unsplit feature to check"])
    if facts["planted"]:
        failures += checks.leveled_leaders_planted(out, facts["planted"])
    return failures


def main(src: str, config: str, facts_path: str, out_dir: str, result: str, trace: str) -> int:
    sys.path.insert(0, src)
    import xaifuse.pipeline as P

    facts = json.loads(Path(facts_path).read_text(encoding="utf-8"))
    out = Path(out_dir)
    probe = Probe(P)
    tracer = Tracer(P, probe) if trace == "1" else None

    cfg = P.parse_config(json.loads(Path(config).read_text(encoding="utf-8")))
    t0 = time.perf_counter()
    P.run_pipeline(cfg, out)
    t1 = time.perf_counter()
    figures = {
        "run_s": t1 - t0,
        "consensus_s": probe.consensus_at - t0,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        tracer.enabled = False
        figures.update(tracer.metrics(t0, t1))

    failures = output_checks(cfg, probe, facts, out)
    ops = {"pipeline": True}
    # rebuilding summary.md from the artifacts must reproduce it byte for byte
    rebuilt = P.render_summary_from_artifacts(out)
    ops["summary_rebuild"] = rebuilt == (out / "summary.md").read_text(encoding="utf-8")
    if facts["conformance"]:
        with tempfile.TemporaryDirectory(dir=out.parent) as tmp:
            _, report = P.run_fixture_conformance(tmp)
        ops["conformance"] = report.passed
        if not report.passed:
            failures.append("fixture conformance run failed")

    Path(result).write_text(
        json.dumps({"figures": figures, "failures": failures, "ops": ops}), encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
