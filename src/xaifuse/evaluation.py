"""Classification metrics, feature-subset evaluation, and the conformance
harness that compares fused rankings against the shipped reference tables."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset
from .fixtures import load_reference_metrics, load_reference_top_features
from .fusion import FusedRanking, top_k
from .models import ModelFamily, train_model


class EvaluationError(Exception):
    pass


# -- confusion matrix and metrics -------------------------------------------


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts of (true, predicted) label pairs; rows are true classes."""

    roster: tuple[int, ...]
    counts: np.ndarray

    def __post_init__(self) -> None:
        roster = tuple(int(c) for c in self.roster)
        counts = np.asarray(self.counts, dtype=np.int64)
        k = len(roster)
        if k == 0 or len(set(roster)) != k:
            raise EvaluationError("class roster must be non-empty and unique")
        if counts.shape != (k, k):
            raise EvaluationError(
                f"counts have shape {counts.shape}, expected ({k}, {k})"
            )
        if counts.min() < 0:
            raise EvaluationError("negative count")
        counts = counts.copy()
        counts.setflags(write=False)
        object.__setattr__(self, "roster", roster)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        total = self.total
        if total == 0:
            raise EvaluationError("empty confusion matrix")
        return float(np.trace(self.counts)) / total


def confusion_matrix(y_true, y_pred, roster=None) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.size == 0:
        raise EvaluationError("no rows to evaluate")
    if y_true.shape != y_pred.shape:
        raise EvaluationError("true and predicted labels differ in length")
    if roster is None:
        roster = np.union1d(y_true, y_pred)
    roster = np.asarray(sorted(int(c) for c in roster), dtype=np.int64)
    ti = np.searchsorted(roster, y_true)
    pi = np.searchsorted(roster, y_pred)
    k = roster.size
    bad = (
        (ti >= k)
        | (pi >= k)
        | (roster[np.minimum(ti, k - 1)] != y_true)
        | (roster[np.minimum(pi, k - 1)] != y_pred)
    )
    if bad.any():
        raise EvaluationError("label outside the class roster")
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (ti, pi), 1)
    return ConfusionMatrix(roster=tuple(int(c) for c in roster), counts=counts)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int
    # a zero denominator reports the metric as 0 and clears the flag
    precision_defined: bool = True
    recall_defined: bool = True


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    per_class: Mapping[int, ClassMetrics]
    precision: float
    recall: float
    f1: float
    convention: str
    positive_class: int | None = None

    def to_dict(self) -> dict:
        """The report's fields, class labels written as text: canonical JSON
        sorts int keys as numbers, so 16 would follow 8."""
        doc = asdict(self)
        doc["per_class"] = {str(label): m for label, m in doc["per_class"].items()}
        return doc


def classification_metrics(
    cm: ConfusionMatrix,
    convention: str = "macro",
    positive_class: int | None = None,
) -> MetricsReport:
    if cm.total == 0:
        raise EvaluationError("empty confusion matrix")
    counts = cm.counts.astype(np.float64)
    tp = np.diag(counts)
    pred_totals = counts.sum(axis=0)
    true_totals = counts.sum(axis=1)

    per_class: dict[int, ClassMetrics] = {}
    for i, label in enumerate(cm.roster):
        p_def = pred_totals[i] > 0
        r_def = true_totals[i] > 0
        p = float(tp[i] / pred_totals[i]) if p_def else 0.0
        r = float(tp[i] / true_totals[i]) if r_def else 0.0
        # single division keeps F1 exactly rounded; equals the harmonic
        # mean of p and r whenever p + r > 0
        fp = pred_totals[i] - tp[i]
        fn = true_totals[i] - tp[i]
        denom = 2.0 * tp[i] + fp + fn
        f1 = float(2.0 * tp[i] / denom) if denom > 0 else 0.0
        per_class[label] = ClassMetrics(
            precision=p,
            recall=r,
            f1=f1,
            support=int(true_totals[i]),
            precision_defined=bool(p_def),
            recall_defined=bool(r_def),
        )

    accuracy = cm.accuracy
    if convention == "positive_class":
        if positive_class is None or positive_class not in cm.roster:
            raise EvaluationError(
                f"positive class {positive_class!r} not in roster {cm.roster}"
            )
        m = per_class[positive_class]
        agg = (m.precision, m.recall, m.f1)
    elif convention == "macro":
        ms = list(per_class.values())
        agg = (
            float(np.mean([m.precision for m in ms])),
            float(np.mean([m.recall for m in ms])),
            float(np.mean([m.f1 for m in ms])),
        )
        positive_class = None
    else:
        raise EvaluationError(f"unknown metrics convention: {convention!r}")

    return MetricsReport(
        accuracy=accuracy,
        per_class=per_class,
        precision=agg[0],
        recall=agg[1],
        f1=agg[2],
        convention=convention,
        positive_class=positive_class,
    )


# -- feature-subset evaluation ----------------------------------------------


def evaluate_feature_subset(
    train: Dataset,
    test: Dataset,
    features: Sequence[str],
    family: ModelFamily | str,
    seed: int = 0,
    overrides: Mapping | None = None,
) -> MetricsReport:
    """Train one classifier on the named feature columns only and score it
    on the test split: positive class 1 when the roster is {0, 1}, macro
    averages otherwise.  Deterministic per seed."""
    if not features:
        raise EvaluationError("feature list must not be empty")
    tr = train.project(tuple(features))
    te = test.project(tuple(features))
    model = train_model(family, tr.rows, tr.labels, seed=seed, overrides=overrides)
    y_pred = model.predict(te.rows)
    roster = np.union1d(train.labels, test.labels)
    cm = confusion_matrix(te.labels, y_pred, roster=roster)
    if set(cm.roster) == {0, 1}:
        return classification_metrics(cm, "positive_class", 1)
    return classification_metrics(cm, "macro")


# -- conformance harness -----------------------------------------------------


METHOD_LABELS = {
    "shap": "SHAP",
    "lime": "LIME",
    "dalex": "DALEX",
    "leveled": "Leveled",
}

EXACT_ORDER_MATCH = "exact_order_match"
SET_MATCH = "set_match"
MISMATCH = "mismatch"


@dataclass(frozen=True)
class CellVerdict:
    dataset: str
    method: str
    computed: tuple[str, ...]
    reference: tuple[str, ...]
    verdict: str
    diff: str


@dataclass(frozen=True)
class RequiredCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ConformanceReport:
    """conformance.json holds exactly these fields."""

    cells: tuple[CellVerdict, ...]
    required: tuple[RequiredCheck, ...]
    passed: bool


def _judge(computed: tuple[str, ...], reference: tuple[str, ...]) -> tuple[str, str]:
    if computed == reference:
        return EXACT_ORDER_MATCH, ""
    diff = f"computed {list(computed)} vs reference {list(reference)}"
    if set(computed) == set(reference):
        return SET_MATCH, diff
    return MISMATCH, diff


def _set_matches(c: CellVerdict) -> tuple[bool, str]:
    return c.verdict in (EXACT_ORDER_MATCH, SET_MATCH), c.diff or "set matches"


def _order_matches(c: CellVerdict) -> tuple[bool, str]:
    return c.verdict == EXACT_ORDER_MATCH, c.diff or "order matches"


def _top3_order_matches(c: CellVerdict) -> tuple[bool, str]:
    return (
        c.computed[:3] == c.reference[:3],
        f"computed top-3 {list(c.computed[:3])} vs reference {list(c.reference[:3])}",
    )


# the hard requirements, in report order: (name, dataset, method, rule)
_REQUIRED_CHECKS = (
    ("veremi_binary_leveled_top4_set", "veremi_binary", "leveled", _set_matches),
    ("veremi_multiclass_leveled_top4_set", "veremi_multiclass", "leveled", _set_matches),
    ("veremi_binary_lime_exact_order", "veremi_binary", "lime", _order_matches),
    ("veremi_binary_dalex_top3_order", "veremi_binary", "dalex", _top3_order_matches),
)


def conformance_check(
    computed: Mapping[str, Mapping[str, FusedRanking]],
) -> ConformanceReport:
    """Compare two-level fusion outputs against the reference top-k columns.

    `computed` maps a dataset tag to the mapping that two_level_fuse returns,
    so each reference column, "leveled" included, is judged against the
    ranking of its own name.  Four checks are hard requirements; every other
    cell is reported informationally with its diff.
    """
    cells = []
    for (dataset, method), ref_column in sorted(load_reference_top_features().items()):
        fused = computed.get(dataset, {}).get(method)
        if fused is None:
            continue
        names = tuple(f.name for f in top_k(fused, len(ref_column)))
        verdict, diff = _judge(names, ref_column)
        cells.append(
            CellVerdict(
                dataset=dataset,
                method=method,
                computed=names,
                reference=ref_column,
                verdict=verdict,
                diff=diff,
            )
        )

    by_key = {(c.dataset, c.method): c for c in cells}
    required = []
    for name, dataset, method, rule in _REQUIRED_CHECKS:
        cell = by_key.get((dataset, method))
        passed, detail = rule(cell) if cell is not None else (False, "not computed")
        required.append(RequiredCheck(name=name, passed=passed, detail=detail))

    return ConformanceReport(
        cells=tuple(cells),
        required=tuple(required),
        passed=all(r.passed for r in required),
    )


# -- Markdown rendering -------------------------------------------------------


def conformance_markdown(doc: Mapping) -> str:
    """The conformance section, rendered from a conformance.json document."""
    lines = ["## Conformance", ""]
    lines.append(f"Overall: {'PASS' if doc['passed'] else 'FAIL'}")
    lines.append("")
    lines.append("| Required check | Passed | Detail |")
    lines.append("|---|---|---|")
    for r in doc["required"]:
        lines.append(f"| {r['name']} | {'yes' if r['passed'] else 'no'} | {r['detail']} |")
    lines.append("")
    lines.append("| Dataset | Method | Verdict | Computed | Reference |")
    lines.append("|---|---|---|---|---|")
    for c in doc["cells"]:
        method = METHOD_LABELS.get(c["method"], c["method"])
        lines.append(
            f"| {c['dataset']} | {method} | {c['verdict']} |"
            f" {', '.join(c['computed'])} | {', '.join(c['reference'])} |"
        )
    return "\n".join(lines) + "\n"


def reference_metrics_markdown() -> str:
    """Reference classifier metrics rendered per (dataset, classifier) block,
    one metric row by method column.  For context only; nothing in the test
    suite or pipeline asserts against these numbers."""
    lookup: dict[tuple[str, str], dict[tuple[str, str], float]] = {}
    for r in load_reference_metrics():
        lookup.setdefault((r.dataset, r.classifier), {})[(r.metric, r.method)] = r.value
    methods = ("shap", "lime", "dalex", "leveled")
    metrics = ("acc", "precision", "recall", "f1")
    lines = [
        "## Reference metrics (not recomputed)",
        "",
        "Values quoted for orientation only; this toolkit asserts nothing",
        "against them.",
    ]
    for (dataset, classifier), grid in sorted(lookup.items()):
        lines.append("")
        lines.append(f"### {dataset} / {classifier}")
        lines.append("")
        header = " | ".join(METHOD_LABELS[m] for m in methods)
        lines.append(f"| Metric | {header} |")
        lines.append("|---|" + "---|" * len(methods))
        for metric in metrics:
            vals = " | ".join(f"{grid[(metric, m)]:.2f}" for m in methods)
            lines.append(f"| {metric} | {vals} |")
    return "\n".join(lines) + "\n"
