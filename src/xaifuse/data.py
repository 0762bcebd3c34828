"""Dataset ingestion, cleaning, labeling, balancing, splitting, and synthesis.

All operations are pure: they take a Dataset and return a new one, leaving
the input untouched. Row matrices are float64 with NaN as the missing-value
sentinel until `clean` removes affected rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import read_csv, write_csv
from .seeding import rng_for


class DataError(Exception):
    """Raised for unusable input data (missing files, bad headers, empty sets)."""


# Raw label ids that may appear in vehicle-trace exports: 0 is benign, the
# rest are distinct misbehavior modes (constant position, constant offset,
# random position, random offset, eventual stop).
VEREMI_LABEL_ROSTER = (0, 1, 2, 4, 8, 16)

VEREMI_FEATURES = ("pos_x", "pos_y", "pos_z", "spd_x", "spd_y", "spd_z")

# Per-sensor normal operating ranges for the ten on-vehicle checks.
# Binary sensors report 1 when the check passes; continuous sensors are
# in-range when lower <= value <= upper.
SENSOR_RANGES: dict[str, tuple[float, float] | None] = {
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

SENSOR_FEATURES = tuple(SENSOR_RANGES)


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature names plus the label column identifier."""

    feature_names: tuple[str, ...]
    label_column: str = "label"

    def __post_init__(self) -> None:
        names = tuple(self.feature_names)
        object.__setattr__(self, "feature_names", names)
        if len(set(names)) != len(names):
            raise DataError("feature names must be unique")
        if self.label_column in names:
            raise DataError("label column must not be a feature")

    @property
    def feature_count(self) -> int:
        return len(self.feature_names)

    def index_of(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise DataError(f"unknown feature: {name!r}") from None


VEREMI_SCHEMA = FeatureSchema(VEREMI_FEATURES, label_column="attackerType")
SENSOR_SCHEMA = FeatureSchema(SENSOR_FEATURES, label_column="label")


@dataclass(frozen=True)
class Dataset:
    """Immutable table of feature rows with integer class labels."""

    schema: FeatureSchema
    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.schema.feature_count:
            raise DataError(
                f"row matrix has shape {rows.shape}, expected "
                f"(n, {self.schema.feature_count})"
            )
        if labels.shape != (rows.shape[0],):
            raise DataError("rows and labels must have equal length")
        rows = rows.copy()
        labels = labels.copy()
        rows.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def class_counts(self) -> dict[int, int]:
        values, counts = np.unique(self.labels, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    def select(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.schema, self.rows[indices], self.labels[indices])

    def project(self, feature_names: list[str] | tuple[str, ...]) -> "Dataset":
        """Dataset restricted to the named feature columns, in the given order."""
        if not feature_names:
            raise DataError("feature list must not be empty")
        cols = [self.schema.index_of(name) for name in feature_names]
        schema = FeatureSchema(tuple(feature_names), self.schema.label_column)
        return Dataset(schema, self.rows[:, cols], self.labels)


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature train-set mean and population standard deviation."""

    mean: np.ndarray
    sd: np.ndarray
    constant_columns: tuple[int, ...] = ()

    def transform(self, rows: np.ndarray) -> np.ndarray:
        sd = np.where(self.sd > 0, self.sd, 1.0)
        return (rows - self.mean) / sd


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    train_fraction: float = 0.7

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise DataError("train_fraction must lie strictly between 0 and 1")


def load_csv(path: str | Path, schema: FeatureSchema) -> Dataset:
    """Load a comma-separated export whose header matches the schema.

    Header order does not matter; columns are reordered to schema order.
    A header that repeats a name, or a record with more cells than the
    header, is refused. Empty or non-numeric cells, cells that read as an
    infinity, and the cells a short record lacks, become NaN sentinels for
    `clean` to remove; so does every cell of a row whose label is not an
    integral number within int64.

    `load_csv_by_cell` is the definition. A body of complete records of
    plain numbers (the common case) is parsed in one `np.loadtxt` call,
    which accepts a subset of what `float` accepts and gives equal values
    where both accept a cell; any other body falls back to the per-cell
    loop, which marks the NaN cells and refuses long records. The one known
    difference: a plain number in an unquoted cell longer than 131,072
    characters (`csv.field_size_limit()`) is read by `np.loadtxt` and
    refused by the per-cell loop.
    """
    records = read_csv(path, DataError)
    header_line, feat_cols, label_col, width = _read_header(records, path, schema)
    records.close()
    try:
        with warnings.catch_warnings():
            # an empty body warns; the per-cell loop then names the file
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            body = np.loadtxt(
                path, delimiter=",", dtype=np.float64, comments=None,
                skiprows=header_line, ndmin=2, encoding="utf-8",
            )
    except (ValueError, OSError):  # UnicodeDecodeError is a ValueError
        body = None
    if body is None or body.shape[0] == 0 or body.shape[1] != width:
        return load_csv_by_cell(path, schema)
    return _labeled(schema, body[:, feat_cols], body[:, label_col])


def load_csv_by_cell(path: str | Path, schema: FeatureSchema) -> Dataset:
    """`load_csv` one `csv` record and one `float` per cell at a time."""
    records = read_csv(path, DataError)
    _, feat_cols, label_col, width = _read_header(records, path, schema)
    rows: list[list[float]] = []
    labels: list[float] = []
    for line, record in records:
        if not record:
            continue
        if len(record) > width:
            raise DataError(
                f"line {line} of {path} has {len(record)} cells, "
                f"the header {width}: {record}"
            )
        row = []
        for c in feat_cols:
            cell = record[c].strip() if c < len(record) else ""
            try:
                row.append(float(cell))
            except ValueError:
                row.append(np.nan)
        cell = record[label_col].strip() if label_col < len(record) else ""
        try:
            labels.append(float(cell))
        except ValueError:
            labels.append(np.nan)
        rows.append(row)
    if not rows:
        raise DataError(f"no data rows in {path}")
    return _labeled(schema, np.asarray(rows, dtype=np.float64), np.asarray(labels))


def _read_header(records, path, schema: FeatureSchema) -> tuple[int, list, int, int]:
    """Check `read_csv`'s first record, the header; return its line, the
    feature columns in schema order, the label column and the header width."""
    line, header = next(records, (0, None))
    if header is None:
        raise DataError(f"empty file: {path}")
    header = [h.strip() for h in header]
    repeated = sorted({h for h in header if header.count(h) > 1})
    if repeated:
        raise DataError(f"header of {path} repeats the columns {repeated}")
    expected = set(schema.feature_names) | {schema.label_column}
    if set(header) != expected:
        missing = sorted(expected - set(header))
        extra = sorted(set(header) - expected)
        raise DataError(
            f"header mismatch in {path}: missing={missing} unexpected={extra}"
        )
    col_of = {name: i for i, name in enumerate(header)}
    feat_cols = [col_of[name] for name in schema.feature_names]
    return line, feat_cols, col_of[schema.label_column], len(header)


def _labeled(schema: FeatureSchema, x: np.ndarray, raw: np.ndarray) -> Dataset:
    """Apply the cell rules to freshly parsed rows, in place, once for all
    rows: a feature cell that reads as an infinity (`inf`, `-inf`, `1e400`)
    is marked missing, and a label that is not an integral number within
    int64 marks the whole row for removal."""
    x[np.isinf(x)] = np.nan
    unreadable = ~((raw == np.floor(raw)) & (raw >= -(2.0**63)) & (raw < 2.0**63))
    x[unreadable] = np.nan
    return Dataset(schema, x, np.where(unreadable, 0.0, raw).astype(np.int64))


def save_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the same format `load_csv` reads."""
    write_csv(
        path,
        [*dataset.schema.feature_names, dataset.schema.label_column],
        (
            [*row, label]
            for row, label in zip(dataset.rows.tolist(), dataset.labels.tolist())
        ),
    )


def clean(dataset: Dataset) -> Dataset:
    """Drop rows with missing cells, then exact duplicate (row, label) pairs.

    The first occurrence of each duplicate group survives and relative
    order is preserved. Rows compare as floats, with the label cast to
    float64, as `np.unique(..., axis=0)` compares them; the groups are
    found by one stable sort of each (row, label) record's bytes instead.
    """
    complete = ~np.isnan(dataset.rows).any(axis=1)
    rows = dataset.rows[complete]
    labels = dataset.labels[complete]
    if rows.shape[0] == 0:
        raise DataError("all rows removed during cleaning")
    # adding 0.0 turns -0.0 into 0.0, so with NaN gone equal bytes are
    # equal floats
    combined = np.column_stack([rows, labels.astype(np.float64)]) + 0.0
    records = combined.view(np.dtype((np.void, combined.itemsize * combined.shape[1])))
    _, first = np.unique(records.ravel(), return_index=True)
    keep = np.sort(first)
    return Dataset(dataset.schema, rows[keep], labels[keep])


def map_labels(dataset: Dataset, mode: str) -> Dataset:
    """Collapse raw labels to {0,1} (binary) or validate-and-keep (multiclass)."""
    if mode not in ("binary", "multiclass"):
        raise DataError(f"unknown label mode: {mode!r}")
    raw = dataset.labels
    allowed = set(VEREMI_LABEL_ROSTER)
    unknown = sorted(set(int(v) for v in np.unique(raw)) - allowed)
    if unknown:
        raise DataError(f"unknown raw label values: {unknown}")
    if mode == "binary":
        labels = (raw != 0).astype(np.int64)
    else:
        labels = raw
    return Dataset(dataset.schema, dataset.rows, labels)


def undersample(dataset: Dataset, seed: int) -> Dataset:
    """Randomly delete majority-class rows until every class matches the minority.

    Deletion is uniform without replacement per class; survivors keep their
    original order. Deterministic for a fixed seed.
    """
    counts = dataset.class_counts
    if len(counts) < 2:
        raise DataError("undersampling needs at least two classes")
    target = min(counts.values())
    rng = rng_for(seed, "undersample")
    keep: list[np.ndarray] = []
    for cls in sorted(counts):
        idx = np.nonzero(dataset.labels == cls)[0]
        if len(idx) > target:
            idx = idx[rng.choice(len(idx), size=target, replace=False)]
        keep.append(idx)
    order = np.sort(np.concatenate(keep))
    return dataset.select(order)


def split_and_scale(
    dataset: Dataset, cfg: SamplerConfig
) -> tuple[Dataset, Dataset, ScalerParams]:
    """Stratified seeded train/test split followed by train-fit standardization.

    Both partitions come back already transformed to (x - mean) / sd with
    population-sd statistics fit on the train rows only. Constant columns
    pass through unscaled and are reported in ScalerParams.constant_columns.
    """
    if dataset.n_rows < 10:
        raise DataError("need at least 10 rows to split")
    rng = rng_for(cfg.seed, "split")
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for cls in sorted(dataset.class_counts):
        idx = np.nonzero(dataset.labels == cls)[0]
        if len(idx) < 2:
            raise DataError(f"class {cls} has fewer than 2 rows, cannot stratify")
        perm = idx[rng.permutation(len(idx))]
        n_train = int(round(len(idx) * cfg.train_fraction))
        n_train = min(max(n_train, 1), len(idx) - 1)
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    train_rows = np.sort(np.concatenate(train_idx))
    test_rows = np.sort(np.concatenate(test_idx))

    x_train = dataset.rows[train_rows]
    mean = x_train.mean(axis=0)
    sd = x_train.std(axis=0)  # population convention (divide by n)
    constant = tuple(int(j) for j in np.nonzero(sd == 0)[0])
    scaler = ScalerParams(mean=mean, sd=sd, constant_columns=constant)

    train = Dataset(dataset.schema, scaler.transform(x_train), dataset.labels[train_rows])
    test = Dataset(
        dataset.schema, scaler.transform(dataset.rows[test_rows]), dataset.labels[test_rows]
    )
    return train, test, scaler


def generate_sensor_dataset(
    n: int,
    anomaly_fraction: float,
    seed: int,
    violable_features: tuple[str, ...] | list[str] | None = None,
) -> Dataset:
    """Synthesize an n-row ten-sensor dataset with a planted anomaly fraction.

    Benign rows draw every continuous sensor uniformly inside its normal
    range and report 1 on the binary checks. Each anomalous row picks a
    seeded nonempty subset of `violable_features` (default: all ten) and
    violates each picked sensor: continuous values land outside the range
    by 10%..100% of the range width, binary checks flip to 0. Labels are
    1 exactly when at least one check fails.
    """
    if n < 2:
        raise DataError("need n >= 2")
    if not 0.0 < anomaly_fraction < 1.0:
        raise DataError(
            "anomaly fraction must lie strictly between 0 and 1, "
            f"got {anomaly_fraction}"
        )
    n_anom = int(round(n * anomaly_fraction))
    if n_anom <= 0 or n_anom >= n:
        raise DataError(
            f"anomaly fraction {anomaly_fraction} leaves no rows in one class at n={n}"
        )
    if violable_features is None:
        violable = list(SENSOR_FEATURES)
    else:
        violable = list(violable_features)
        for name in violable:
            if name not in SENSOR_RANGES:
                raise DataError(f"unknown sensor feature: {name!r}")
        if not violable:
            raise DataError("violable_features must be nonempty")

    rng = rng_for(seed, "sensor-generate")
    p = len(SENSOR_FEATURES)
    rows = np.empty((n, p), dtype=np.float64)
    for j, name in enumerate(SENSOR_FEATURES):
        bounds = SENSOR_RANGES[name]
        if bounds is None:
            rows[:, j] = 1.0
        else:
            lo, hi = bounds
            rows[:, j] = rng.uniform(lo, hi, size=n)

    labels = np.zeros(n, dtype=np.int64)
    anom_rows = rng.choice(n, size=n_anom, replace=False)
    labels[anom_rows] = 1
    violable_idx = np.array([SENSOR_FEATURES.index(f) for f in violable])
    for i in anom_rows:
        k = int(rng.integers(1, len(violable_idx) + 1))
        picked = rng.choice(violable_idx, size=k, replace=False)
        for j in picked:
            bounds = SENSOR_RANGES[SENSOR_FEATURES[j]]
            if bounds is None:
                rows[i, j] = 0.0
            else:
                lo, hi = bounds
                width = hi - lo
                offset = rng.uniform(0.1 * width, width)
                if rng.random() < 0.5:
                    rows[i, j] = lo - offset
                else:
                    rows[i, j] = hi + offset
    return Dataset(SENSOR_SCHEMA, rows, labels)
