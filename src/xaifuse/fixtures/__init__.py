"""Shipped reference tables for the conformance harness.

Nine rank-table CSVs (three datasets x three XAI methods) hold the
reference per-model rankings the fusion stage is checked against, in
``read_rank_table`` format.  ``reference_top_features.csv`` lists the
reference top-k columns per (dataset, method), including the two-level
"leveled" column.  ``reference_metrics.csv`` carries reference classifier
metrics that are reported for context only and never recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..artifacts import read_csv
from ..fusion import FusionError, RankTable, read_rank_table

DATASETS = ("veremi_binary", "sensor", "veremi_multiclass")
XAI_METHODS = ("shap", "lime", "dalex")

# top-k used by the reference columns: 4 features for VeReMi, 5 for Sensor
REFERENCE_TOP_K = {"veremi_binary": 4, "sensor": 5, "veremi_multiclass": 4}

_HERE = Path(__file__).parent


def fixture_path(name: str) -> Path:
    return _HERE / f"{name}.csv"


def load_rank_fixture(name: str) -> RankTable:
    return read_rank_table(fixture_path(name))


def load_rank_fixtures(dataset: str) -> dict[str, RankTable]:
    """All three method tables for one dataset, keyed by XAI method."""
    if dataset not in DATASETS:
        raise FusionError(f"unknown fixture dataset: {dataset}")
    return {m: load_rank_fixture(f"{dataset}_{m}") for m in XAI_METHODS}


def _records(name: str) -> list[dict[str, str]]:
    """The records of a shipped table, each keyed by the table's header."""
    records = read_csv(fixture_path(name), FusionError)
    _, header = next(records)
    return [dict(zip(header, record)) for _, record in records if record]


def load_reference_top_features() -> dict[tuple[str, str], tuple[str, ...]]:
    """(dataset, method) -> ordered reference top-k feature names.

    method is one of shap/lime/dalex/leveled.
    """
    out: dict[tuple[str, str], list[tuple[int, str]]] = {}
    for row in _records("reference_top_features"):
        key = (row["dataset"], row["method"])
        out.setdefault(key, []).append((int(row["position"]), row["feature"]))
    return {
        key: tuple(name for _, name in sorted(entries))
        for key, entries in out.items()
    }


@dataclass(frozen=True)
class ReferenceMetric:
    dataset: str
    classifier: str
    method: str
    metric: str
    value: float


def load_reference_metrics() -> tuple[ReferenceMetric, ...]:
    return tuple(
        ReferenceMetric(
            dataset=row["dataset"],
            classifier=row["classifier"],
            method=row["method"],
            metric=row["metric"],
            value=float(row["value"]),
        )
        for row in _records("reference_metrics")
    )
