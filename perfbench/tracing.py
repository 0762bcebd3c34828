"""Instrumentation installed from outside the package.

`Probe` is what every measured run installs: it stamps the moment the
second-level fusion returns and keeps references to the ranked models and
the exact-SHAP results so the output checks can run after the clock stops.
It adds no work to the run.

`Tracer` is what the traced run installs on top: a span around every
public function that `xaifuse.pipeline` calls, a row counter around each
ranked model's `predict_proba` and `predict`, and the process's RSS
high-water mark at every span end. Nothing inside the package is edited;
the wrappers replace names in the `xaifuse.pipeline` namespace only.
"""

from __future__ import annotations

import resource
import time
from collections import defaultdict

# pipeline-namespace names -> the layer span each call is recorded under
DATA_STAGES = {
    "load_csv": "data.load",
    "clean": "data.clean",
    "map_labels": "data.prepare",
    "undersample": "data.prepare",
    "split_and_scale": "data.prepare",
}
# explainers that receive the model's family as their model_tag
TAGGED_EXPLAINERS = {"lime_global": "lime", "permutation_importance": "permutation"}
FUSION_CALLS = ("to_ranks", "two_level_fuse")


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _family(value) -> str:
    return str(getattr(value, "value", value))


class Probe:
    def __init__(self, pipeline) -> None:
        self.consensus_at: float | None = None
        self.models: dict[int, tuple[str, object]] = {}
        self.shap_calls: list[tuple[object, object, object, object]] = []
        self._install(pipeline)

    def _install(self, P) -> None:
        fuse, train, shap = P.two_level_fuse, P.train_model, P.shap_values

        def two_level_fuse(*args, **kwargs):
            result = fuse(*args, **kwargs)
            self.consensus_at = time.perf_counter()
            return result

        def train_model(family, *args, **kwargs):
            model = train(family, *args, **kwargs)
            self.models[id(model)] = (_family(family), model)
            return model

        def shap_values(model, instances, background, *args, **kwargs):
            matrix = shap(model, instances, background, *args, **kwargs)
            self.shap_calls.append((model, instances, background, matrix))
            return matrix

        P.two_level_fuse = two_level_fuse
        P.train_model = train_model
        P.shap_values = shap_values

    def family_of(self, model) -> str:
        return self.models[id(model)][0]


class Tracer:
    """Spans, row counts and RSS marks for one traced pipeline run."""

    def __init__(self, pipeline, probe: Probe) -> None:
        self.probe = probe
        self.enabled = True
        self.spans: list[tuple[str, float, float]] = []  # top-level spans only
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.rss: dict[str, float] = {}
        self._open: str | None = None  # the top-level span in progress
        self.judged_sets: set[frozenset] = set()
        self._install(pipeline)

    # -- recording ----------------------------------------------------------

    def _span(self, name: str, layer: str, fn, *args, **kwargs):
        if not self.enabled or self._open is not None:
            return fn(*args, **kwargs)
        self._open = name
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._open = None
            self.spans.append((name, t0, t1))
            self.seconds[name] += t1 - t0
            self.rss[layer] = peak_rss_mb()

    def _wrap(self, P, attr: str, name_of, layer: str, after=None) -> None:
        inner = getattr(P, attr)

        def wrapper(*args, **kwargs):
            result = self._span(name_of(args, kwargs), layer, inner, *args, **kwargs)
            if after is not None and self.enabled:
                after(args, kwargs, result)
            return result

        setattr(P, attr, wrapper)

    def _count_rows(self, family: str, model) -> None:
        depth = [0]  # shared: an ensemble's predict() calls its predict_proba()

        def counting(inner):
            def counted(X, *args, **kwargs):
                if not self.enabled or depth[0]:
                    return inner(X, *args, **kwargs)
                depth[0] += 1
                t0 = time.perf_counter()
                try:
                    return inner(X, *args, **kwargs)
                finally:
                    depth[0] -= 1
                    rows = len(X)
                    self.seconds[f"models.predict.{family}"] += time.perf_counter() - t0
                    self.counts[f"models.predict.{family}.rows"] += rows
                    if self._open is not None and self._open.startswith("explainers."):
                        self.counts[f"{self._open}.rows"] += rows

            return counted

        model.predict_proba = counting(model.predict_proba)
        model.predict = counting(model.predict)

    # -- installation -------------------------------------------------------

    def _install(self, P) -> None:
        def rows_read(args, kwargs, dataset):
            self.counts["data.rows_read"] = dataset.n_rows

        def rows_kept(args, kwargs, split):
            self.counts["data.rows_kept"] = split[0].n_rows + split[1].n_rows

        hooks = {"load_csv": rows_read, "split_and_scale": rows_kept}
        for attr, span in DATA_STAGES.items():
            self._wrap(P, attr, lambda a, k, s=span: s, "data", after=hooks.get(attr))

        def after_train(args, kwargs, model):
            self._count_rows(_family(args[0]), model)

        self._wrap(
            P, "train_model", lambda a, k: f"models.train.{_family(a[0])}", "models",
            after=after_train,
        )
        family_of = self.probe.family_of
        self._wrap(
            P, "shap_values", lambda a, k: f"explainers.shap.{family_of(a[0])}", "explainers"
        )
        for attr, method in TAGGED_EXPLAINERS.items():
            self._wrap(
                P, attr, lambda a, k, m=method: f"explainers.{m}.{k['model_tag']}", "explainers"
            )
        for attr in FUSION_CALLS:
            self._wrap(P, attr, lambda a, k: "fusion.rank_fuse", "fusion")

        def after_judge(args, kwargs, report):
            self.counts["evaluation.fits"] += 1
            self.judged_sets.add(frozenset(args[2]))

        self._wrap(
            P, "evaluate_feature_subset",
            lambda a, k: f"evaluation.{_family(a[3])}", "evaluation",
            after=after_judge,
        )

    # -- results ------------------------------------------------------------

    def metrics(self, run_start: float, run_end: float) -> dict[str, float]:
        """Raw per-layer figures keyed by span or counter name. The report
        phase runs from the last judge's return to the end of the run."""
        out: dict[str, float] = {f"{name}_s": secs for name, secs in self.seconds.items()}
        out.update(self.counts)
        for name, rows in self.counts.items():
            if name.startswith("models.predict."):
                family = name[len("models.predict."):-len(".rows")]
                secs = self.seconds[f"models.predict.{family}"]
                out[f"models.predict.{family}.rows_per_s"] = rows / secs if secs > 0 else 0.0
        out["evaluation.distinct_sets"] = len(self.judged_sets)
        judged = [t1 for name, _, t1 in self.spans if name.startswith("evaluation.")]
        out["pipeline.report_s"] = run_end - max(judged, default=run_end)
        covered = sum(t1 - t0 for _, t0, t1 in self.spans)
        out["pipeline.self_s"] = run_end - run_start - covered - out["pipeline.report_s"]
        out["models.train.peak_rss_mb"] = self.rss.get("models", 0.0)
        out["explainers.peak_rss_mb"] = self.rss.get("explainers", 0.0)
        return out
