"""Seeded inputs and pipeline configs for the three benchmark workloads.

Every input is drawn here, from the workload seed, before any timing starts;
the pipeline only ever sees the files and configs this module writes. The
generators use their own definitions of the data, so a change to the
package's synthetic generator cannot change what the benchmark measures.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("sensor_planted", "veremi_multiclass_csv", "wide16_csv")

# -- sensor_planted ------------------------------------------------------------

# Ten on-vehicle checks: normal range for continuous sensors, None for the
# binary pass/fail checks (1 = pass).
SENSOR_RANGES = {
    "Formality": (1.0, 10.0),
    "Location": None,
    "Frequency": (1.0, 10.0),
    "Speed": (50.0, 90.0),
    "Correlation": None,
    "Lane Alignment": (1.0, 3.0),
    "Headway Time": (0.3, 0.95),
    "Protocol": (1.0, 10000.0),
    "Plausibility": (50.0, 200.0),
    "Consistency": None,
}
SENSOR_ROWS = 2000
SENSOR_PLANTED = ("Frequency", "Speed", "Headway Time", "Plausibility")
# binary checks never fail here, so they are constant columns
SENSOR_CONSTANT = tuple(name for name, r in SENSOR_RANGES.items() if r is None)

# -- veremi_multiclass_csv -----------------------------------------------------

VEREMI_COLUMNS = ("pos_x", "pos_y", "pos_z", "spd_x", "spd_y", "spd_z")
VEREMI_CONSTANT = ("pos_z", "spd_z")
# fixed row count per raw attacker type; benign is the great majority and
# type 16 the minority that undersampling keeps of every class
VEREMI_CLASS_ROWS = {0: 181_800, 1: 6_000, 2: 5_000, 4: 4_000, 8: 4_400, 16: 800}

# -- wide16_csv ----------------------------------------------------------------

WIDE_FEATURES = tuple(f"f{j:02d}" for j in range(16))
WIDE_ROWS = 1200
WIDE_PLANTED = ("f03", "f08", "f13")


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _write_csv(path: Path, header: tuple[str, ...], rows: np.ndarray, labels: np.ndarray) -> None:
    lines = [",".join(header)]
    lines.extend(
        ",".join(repr(float(v)) for v in row) + f",{int(y)}" for row, y in zip(rows, labels)
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sensor_rows(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Half the rows violate a nonempty random subset of the planted sensors;
    the other continuous sensors stay uniform inside their ranges."""
    rng = _rng(seed, "sensor_planted")
    names = tuple(SENSOR_RANGES)
    n = SENSOR_ROWS
    rows = np.ones((n, len(names)))
    for j, name in enumerate(names):
        bounds = SENSOR_RANGES[name]
        if bounds is not None:
            rows[:, j] = rng.uniform(*bounds, size=n)
    labels = np.zeros(n, dtype=np.int64)
    anomalous = rng.permutation(n)[: n // 2]
    labels[anomalous] = 1
    planted = [names.index(name) for name in SENSOR_PLANTED]
    for i in anomalous:
        k = int(rng.integers(1, len(planted) + 1))
        for j in rng.choice(planted, size=k, replace=False):
            lo, hi = SENSOR_RANGES[names[j]]
            offset = rng.uniform(0.1, 1.0) * (hi - lo)
            rows[i, j] = lo - offset if rng.random() < 0.5 else hi + offset
    return rows, labels


def veremi_rows(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Vehicle-trace rows in the VeReMi schema. Height and vertical speed
    are constant zero, as in the real traces."""
    rng = _rng(seed, "veremi_multiclass_csv")
    blocks, labels = [], []
    for label, n in VEREMI_CLASS_ROWS.items():
        pos = rng.uniform(0.0, 1500.0, size=(n, 2))
        speed = rng.uniform(5.0, 30.0, size=n)
        heading = rng.uniform(0.0, 2 * np.pi, size=n)
        if label == 1:  # constant position
            pos = rng.normal([3560.0, 5820.0], 1.0, size=(n, 2))
        elif label == 2:  # constant offset
            pos = pos + [250.0, -150.0]
        elif label == 4:  # random position
            pos = rng.uniform(0.0, 5000.0, size=(n, 2))
        elif label == 8:  # random offset
            pos = pos + rng.uniform(-300.0, 300.0, size=(n, 2))
        elif label == 16:  # eventual stop
            speed = np.abs(rng.normal(0.0, 0.05, size=n))
        spd = np.column_stack([speed * np.cos(heading), speed * np.sin(heading)])
        zeros = np.zeros(n)
        blocks.append(np.column_stack([pos[:, 0], pos[:, 1], zeros, spd[:, 0], spd[:, 1], zeros]))
        labels.append(np.full(n, label, dtype=np.int64))
    order = rng.permutation(sum(VEREMI_CLASS_ROWS.values()))
    return np.concatenate(blocks)[order], np.concatenate(labels)[order]


def wide_rows(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sixteen gaussian features; the label is the majority sign of the
    planted triple."""
    rng = _rng(seed, "wide16_csv")
    rows = rng.normal(size=(WIDE_ROWS, len(WIDE_FEATURES)))
    planted = rows[:, [WIDE_FEATURES.index(f) for f in WIDE_PLANTED]]
    labels = ((planted > 0).sum(axis=1) >= 2).astype(np.int64)
    return rows, labels


RANKED = ("decision_tree", "random_forest", "mlp", "knn", "svm_rbf", "adaboost")


def _ranked(**overrides) -> dict:
    return {name: overrides.get(name, {}) for name in RANKED}


def _workload_plan(workload: str, seed: int):
    """(header, rows, labels, config without source path, facts)."""
    if workload == "sensor_planted":
        rows, labels = sensor_rows(seed)
        header = tuple(SENSOR_RANGES) + ("label",)
        config = {
            "source": {"kind": "csv", "schema": "sensor"},
            "mode": "binary",
            "models": _ranked(random_forest={"n_estimators": 20}),
            "independent_classifiers": {
                "gbdt_lgbm_like": {"n_estimators": 5},
                "logistic_regression": {},
            },
            "explainers": {
                "max_explained_instances": 24,
                "background_size": 4,
                "lime_samples_per_instance": 200,
                "permutation_rounds": 3,
            },
            "fusion": {"top_k": 4},
        }
        facts = {
            "features": list(SENSOR_RANGES),
            "constant": list(SENSOR_CONSTANT),
            "planted": list(SENSOR_PLANTED),
        }
    elif workload == "veremi_multiclass_csv":
        rows, labels = veremi_rows(seed)
        header = VEREMI_COLUMNS + ("attackerType",)
        config = {
            "source": {"kind": "csv", "schema": "veremi"},
            "mode": "multiclass",
            "models": _ranked(random_forest={"n_estimators": 10}),
            "independent_classifiers": {
                "gbdt_catboost_like": {"n_estimators": 2},
                "gbdt_lgbm_like": {"n_estimators": 2},
                "logistic_regression": {},
            },
            "explainers": {
                "max_explained_instances": 8,
                "background_size": 8,
                "lime_samples_per_instance": 200,
                "permutation_rounds": 3,
            },
            "fusion": {"top_k": 4},
        }
        facts = {
            "features": list(VEREMI_COLUMNS),
            "constant": list(VEREMI_CONSTANT),
            "planted": [],
        }
    else:
        rows, labels = wide_rows(seed)
        header = WIDE_FEATURES + ("label",)
        config = {
            "source": {"kind": "csv", "features": list(WIDE_FEATURES), "label_column": "label"},
            "mode": "binary",
            # kNN and SVM stay out: at p = 16 each explained instance costs
            # them 2^16 * background rows of full-training-set work
            "models": {
                "decision_tree": {"max_depth": 3},
                # capped depth: uncapped trees reached depth 3 to 6 by seed,
                # which moved SHAP cost by 15% between seeds
                "random_forest": {"n_estimators": 4, "max_depth": 3},
                "mlp": {"epochs": 40},
                "adaboost": {"n_estimators": 4, "base_max_depth": 2},
            },
            "independent_classifiers": {
                "gbdt_lgbm_like": {"n_estimators": 5},
                "logistic_regression": {},
            },
            "explainers": {
                "max_explained_instances": 8,
                "background_size": 2,
                "lime_samples_per_instance": 200,
                "permutation_rounds": 3,
            },
            "fusion": {"top_k": 3},
        }
        facts = {
            "features": list(WIDE_FEATURES),
            "constant": [],
            "planted": list(WIDE_PLANTED),
        }
    facts["check_unsplit"] = workload == "wide16_csv"
    facts["conformance"] = workload == "veremi_multiclass_csv"
    return header, rows, labels, config, facts


def prepare(workload: str, seed: int, work: Path) -> None:
    """Write the workload's CSV, config and check facts under `work`. The
    config names its CSV relative to `work`, where the runs start, so the
    program sees the same path strings whatever the checkout's location."""
    header, rows, labels, config, facts = _workload_plan(workload, seed)
    work.mkdir(parents=True, exist_ok=True)
    _write_csv(work / "input.csv", header, rows, labels)
    config = {"seed": seed, **config}
    config["source"]["path"] = "input.csv"
    for name, payload in (("config.json", config), ("facts.json", facts)):
        (work / name).write_text(json.dumps(payload, indent=2), encoding="utf-8")
