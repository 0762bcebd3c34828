import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xaifuse.data import (
    DataError,
    Dataset,
    FeatureSchema,
    SamplerConfig,
    SENSOR_FEATURES,
    SENSOR_RANGES,
    SENSOR_SCHEMA,
    VEREMI_SCHEMA,
    clean,
    generate_sensor_dataset,
    load_csv,
    load_csv_by_cell,
    map_labels,
    save_csv,
    split_and_scale,
    undersample,
)


def tiny_schema(p=3):
    return FeatureSchema(tuple(f"f{i}" for i in range(p)))


def sensor_range_violations(rows: np.ndarray) -> np.ndarray:
    """Count, per row, how many of the ten sensor checks fail.

    Continuous sensors fail outside [lower, upper]; binary sensors fail
    when the reported check value is not 1.
    """
    rows = np.asarray(rows, dtype=np.float64)
    violations = np.zeros(rows.shape[0], dtype=np.int64)
    for j, name in enumerate(SENSOR_FEATURES):
        bounds = SENSOR_RANGES[name]
        col = rows[:, j]
        if bounds is None:
            violations += (col != 1.0).astype(np.int64)
        else:
            lo, hi = bounds
            violations += ((col < lo) | (col > hi)).astype(np.int64)
    return violations


def test_schema_rejects_duplicates_and_label_clash():
    with pytest.raises(DataError):
        FeatureSchema(("a", "a"))
    with pytest.raises(DataError):
        FeatureSchema(("a", "b"), label_column="b")


def test_dataset_is_immutable():
    ds = Dataset(tiny_schema(2), np.zeros((3, 2)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        ds.rows[0, 0] = 1.0
    with pytest.raises(ValueError):
        ds.labels[0] = 1


def test_dataset_shape_validation():
    with pytest.raises(DataError):
        Dataset(tiny_schema(2), np.zeros((3, 4)), np.zeros(3, dtype=int))
    with pytest.raises(DataError):
        Dataset(tiny_schema(2), np.zeros((3, 2)), np.zeros(4, dtype=int))


class TestLoadCsv:
    def test_roundtrip_and_header_reorder(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f1,f0\n0,2.0,1.0\n1,4.0,3.0\n")
        ds = load_csv(path, tiny_schema(2))
        np.testing.assert_array_equal(ds.rows, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_missing_cell_becomes_nan(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n1.0,,0\nx,2.0,1\n")
        ds = load_csv(path, tiny_schema(2))
        assert np.isnan(ds.rows[0, 1])
        assert np.isnan(ds.rows[1, 0])

    def test_header_mismatch_raises(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,wrong,label\n1.0,2.0,0\n")
        with pytest.raises(DataError, match="header mismatch"):
            load_csv(path, tiny_schema(2))

    def test_repeated_header_name_raises(self, tmp_path):
        # the set of names matches the schema, but `a` names two columns
        path = tmp_path / "d.csv"
        path.write_text("a,b,a,label\n1,2,3,0\n4,5,6,1\n")
        with pytest.raises(DataError, match=r"repeats the columns \['a'\]"):
            load_csv(path, FeatureSchema(("a", "b"), "label"))

    def test_long_record_raises(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1,2,0\n7,8,1,99\n")
        with pytest.raises(DataError, match="line 3 .* 4 cells, the header 3"):
            load_csv(path, FeatureSchema(("a", "b"), "label"))

    def test_short_record_becomes_nan(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label\n1,2,0\n7\n")
        ds = load_csv(path, FeatureSchema(("a", "b"), "label"))
        assert np.isnan(ds.rows[1]).all()
        assert clean(ds).n_rows == 1

    @pytest.mark.parametrize("label", ["1.7", "inf", "-inf", "1e30", "9.3e18"])
    def test_non_integral_label_removes_the_row(self, tmp_path, label):
        path = tmp_path / "d.csv"
        path.write_text(f"a,b,label\n1,2,0\n3,4,{label}\n5,6,16.0\n")
        ds = load_csv(path, FeatureSchema(("a", "b"), "label"))
        assert np.isnan(ds.rows[1]).all()
        kept = clean(ds)
        np.testing.assert_array_equal(kept.rows, [[1.0, 2.0], [5.0, 6.0]])
        np.testing.assert_array_equal(kept.labels, [0, 16])
        assert kept.labels.dtype == np.int64

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e400"])
    @pytest.mark.parametrize("load", [load_csv, load_csv_by_cell])
    def test_non_finite_feature_cell_removes_the_row(self, tmp_path, load, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"a,b,label\n1,2,0\n3,{cell},1\n5,6,1\n")
        ds = load(path, FeatureSchema(("a", "b"), "label"))
        assert np.isnan(ds.rows[1, 1]) and ds.rows[1, 0] == 3.0
        kept = clean(ds)
        np.testing.assert_array_equal(kept.rows, [[1.0, 2.0], [5.0, 6.0]])
        np.testing.assert_array_equal(kept.labels, [0, 1])

    @pytest.mark.parametrize("body", ["", "\n", "\n\r\n\n", "\r\n\r\n"])
    def test_no_data_rows_raises_without_a_warning(self, tmp_path, body):
        path = tmp_path / "d.csv"
        path.write_text("a,b,label" + body, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="no data rows in "):
                load_csv(path, FeatureSchema(("a", "b"), "label"))

    def test_quoted_cells_are_read(self, tmp_path):
        # the one-call parse refuses quotes; the per-cell loop reads them
        path = tmp_path / "d.csv"
        path.write_text('"b","a","label"\n"2","1","0"\n4,3,"1"\n')
        ds = load_csv(path, FeatureSchema(("a", "b"), "label"))
        np.testing.assert_array_equal(ds.rows, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_a_cell_over_the_csv_field_limit(self, tmp_path):
        # the one known difference between the two paths: np.loadtxt reads a
        # plain number in an unquoted cell over 131,072 characters, which the
        # per-cell loop refuses; quoted, the cell is refused by both
        schema = FeatureSchema(("a", "b"), "label")
        digits = "1" * 200_000
        path = tmp_path / "d.csv"
        path.write_text(f"a,b,label\n{digits},2,0\n3,4,1\n")
        ds = load_csv(path, schema)
        # read as inf, which marks the cell missing
        np.testing.assert_array_equal(ds.rows, [[np.nan, 2.0], [3.0, 4.0]])
        with pytest.raises(DataError, match="line 2 of .*field larger than field limit"):
            load_csv_by_cell(path, schema)
        path.write_text(f'a,b,label\n"{digits}",2,0\n3,4,1\n')
        for load in (load_csv, load_csv_by_cell):
            with pytest.raises(DataError, match="line 2 of .*field larger than field limit"):
                load(path, schema)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv", tiny_schema(2))

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(tiny_schema(3), rng.normal(size=(20, 3)), rng.integers(0, 2, 20))
        save_csv(ds, tmp_path / "out.csv")
        back = load_csv(tmp_path / "out.csv", tiny_schema(3))
        np.testing.assert_array_equal(back.rows, ds.rows)
        np.testing.assert_array_equal(back.labels, ds.labels)


class TestClean:
    def test_drops_nan_rows_and_duplicates(self):
        rows = np.array([[1.0, 2.0], [1.0, 2.0], [np.nan, 3.0], [4.0, 5.0]])
        labels = np.array([0, 0, 1, 1])
        out = clean(Dataset(tiny_schema(2), rows, labels))
        np.testing.assert_array_equal(out.rows, [[1.0, 2.0], [4.0, 5.0]])
        np.testing.assert_array_equal(out.labels, [0, 1])

    def test_same_row_different_label_both_kept(self):
        rows = np.array([[1.0, 2.0], [1.0, 2.0]])
        labels = np.array([0, 1])
        out = clean(Dataset(tiny_schema(2), rows, labels))
        assert out.n_rows == 2

    def test_first_occurrence_survives(self):
        rows = np.array([[5.0, 0.0], [1.0, 1.0], [5.0, 0.0]])
        labels = np.array([1, 0, 1])
        out = clean(Dataset(tiny_schema(2), rows, labels))
        np.testing.assert_array_equal(out.rows, [[5.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(out.labels, [1, 0])

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 3, size=(50, 2)).astype(float)
        rows[rng.integers(0, 50, 5), 0] = np.nan
        ds = Dataset(tiny_schema(2), rows, rng.integers(0, 2, 50))
        once = clean(ds)
        twice = clean(once)
        np.testing.assert_array_equal(once.rows, twice.rows)
        np.testing.assert_array_equal(once.labels, twice.labels)

    def test_all_rows_removed_raises(self):
        ds = Dataset(tiny_schema(2), np.full((2, 2), np.nan), np.zeros(2, dtype=int))
        with pytest.raises(DataError):
            clean(ds)


# Cells that `float` reads after `str.strip`, some of which the one-call
# parse refuses, and cells that neither reads.
ODD_CELLS = (
    "inf", "-inf", "Infinity", "nan", "-nan", "-0.0", "1e400", "-1e400", "1e30",
    "9.3e18", "1.7", "16.0", "1.", ".5", "1_000", "\u0661\u0662", "0x10", "1e",
    "#1", "abc", "", "  ", '"1"', '"1,5"', '""', "\xa01\xa0", "\u3000-2\t",
)
PADDING = ("", " ", "\t", "\xa0", "\u2003", "\x0b", "\x0c", "\x1c", "\x85")

plain_cells = st.one_of(
    st.integers(min_value=-20, max_value=20).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(min_value=-1e6, max_value=1e6).map(lambda v: f"{v:.4e}"),
)
padded_cells = st.tuples(
    st.sampled_from(PADDING), plain_cells, st.sampled_from(PADDING)
).map("".join)


@st.composite
def csv_texts(draw):
    """A header in any order over two features and a label, then records
    that are mostly numeric, some with odd cells, short or long records,
    blank lines, either line ending and maybe no final newline."""
    header = draw(st.permutations(["a", "b", "label"]))
    odd = draw(st.booleans())
    cells = st.one_of(padded_cells, st.sampled_from(ODD_CELLS)) if odd else padded_cells
    lines = [",".join(header)]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["record"] * 8 + ["blank", "spaces", "short", "long"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(" ")
        else:
            width = draw(st.integers(1, 2)) if kind == "short" else {"record": 3, "long": 4}[kind]
            lines.append(",".join(draw(st.lists(cells, min_size=width, max_size=width))))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, ""]))


def _outcome(load, path):
    try:
        ds = load(path, FeatureSchema(("a", "b"), "label"))
    except DataError as exc:
        return str(exc)
    return ds


@settings(max_examples=300, deadline=None)
@given(text=csv_texts())
def test_fast_parse_agrees_with_the_per_cell_loop(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "agree.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = _outcome(load_csv, path)
    slow = _outcome(load_csv_by_cell, path)
    if isinstance(slow, str):
        assert fast == slow
        return
    assert isinstance(fast, Dataset)
    assert fast.schema == slow.schema
    assert fast.rows.shape == slow.rows.shape
    np.testing.assert_array_equal(fast.rows.view(np.uint64), slow.rows.view(np.uint64))
    np.testing.assert_array_equal(fast.labels, slow.labels)


def clean_reference(dataset: Dataset) -> Dataset:
    """`clean` as defined: NaN rows out, then `np.unique(axis=0)` on (row,
    label) as floats keeps each group's first row, in input order."""
    complete = ~np.isnan(dataset.rows).any(axis=1)
    rows, labels = dataset.rows[complete], dataset.labels[complete]
    if rows.shape[0] == 0:
        raise DataError("all rows removed during cleaning")
    combined = np.column_stack([rows, labels.astype(np.float64)])
    _, first = np.unique(combined, axis=0, return_index=True)
    keep = np.sort(first)
    return Dataset(dataset.schema, rows[keep], labels[keep])


GRID = (0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan)
# 2**53 and 2**53 + 1 are one float64, so their rows count as duplicates
GRID_LABELS = (0, 1, 2, 2**53, 2**53 + 1)


@settings(max_examples=200, deadline=None)
@given(
    cells=st.integers(min_value=1, max_value=3).flatmap(
        lambda p: st.lists(
            st.tuples(
                st.lists(st.sampled_from(GRID), min_size=p, max_size=p),
                st.sampled_from(GRID_LABELS),
            ),
            min_size=1,
            max_size=40,
        )
    )
)
def test_clean_keeps_what_unique_rows_keep(cells):
    rows = np.array([r for r, _ in cells], dtype=np.float64)
    labels = np.array([lab for _, lab in cells], dtype=np.int64)
    dataset = Dataset(tiny_schema(rows.shape[1]), rows, labels)
    try:
        expected = clean_reference(dataset)
    except DataError:
        with pytest.raises(DataError, match="all rows removed"):
            clean(dataset)
        return
    got = clean(dataset)
    np.testing.assert_array_equal(got.rows.view(np.uint64), expected.rows.view(np.uint64))
    np.testing.assert_array_equal(got.labels, expected.labels)


class TestMapLabels:
    def test_binary_collapses_nonzero(self):
        ds = Dataset(
            VEREMI_SCHEMA,
            np.zeros((6, 6)),
            np.array([0, 1, 2, 4, 8, 16]),
        )
        out = map_labels(ds, "binary")
        np.testing.assert_array_equal(out.labels, [0, 1, 1, 1, 1, 1])

    def test_multiclass_preserves(self):
        ds = Dataset(VEREMI_SCHEMA, np.zeros((3, 6)), np.array([0, 8, 16]))
        out = map_labels(ds, "multiclass")
        np.testing.assert_array_equal(out.labels, [0, 8, 16])

    def test_unknown_label_raises(self):
        ds = Dataset(VEREMI_SCHEMA, np.zeros((2, 6)), np.array([0, 3]))
        with pytest.raises(DataError, match="unknown raw label"):
            map_labels(ds, "binary")

    def test_unknown_mode_raises(self):
        ds = Dataset(VEREMI_SCHEMA, np.zeros((1, 6)), np.array([0]))
        with pytest.raises(DataError):
            map_labels(ds, "both")


class TestUndersample:
    def test_balances_to_minority(self):
        rng = np.random.default_rng(7)
        labels = np.array([0] * 90 + [1] * 10)
        ds = Dataset(tiny_schema(2), rng.normal(size=(100, 2)), labels)
        out = undersample(ds, seed=5)
        assert out.class_counts == {0: 10, 1: 10}

    def test_survivors_are_subset_in_original_order(self):
        rng = np.random.default_rng(8)
        rows = np.arange(60, dtype=float).reshape(30, 2)
        labels = np.array([0] * 20 + [1] * 10)
        ds = Dataset(tiny_schema(2), rows, labels)
        out = undersample(ds, seed=1)
        # each surviving row appears in the input, and first column is increasing
        assert np.all(np.diff(out.rows[:, 0]) > 0)
        original = {tuple(r) for r in rows}
        assert all(tuple(r) in original for r in out.rows)
        _ = rng  # silence lint

    def test_deterministic(self):
        labels = np.array([0] * 50 + [1] * 20 + [2] * 30)
        rows = np.random.default_rng(0).normal(size=(100, 3))
        ds = Dataset(tiny_schema(3), rows, labels)
        a = undersample(ds, seed=42)
        b = undersample(ds, seed=42)
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_single_class_raises(self):
        ds = Dataset(tiny_schema(2), np.zeros((5, 2)), np.zeros(5, dtype=int))
        with pytest.raises(DataError):
            undersample(ds, seed=0)


class TestSplitAndScale:
    def make(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        rows = rng.normal(loc=3.0, scale=2.0, size=(n, 3))
        rows[:, 2] = 7.0  # constant column
        labels = (rng.random(n) < 0.3).astype(int)
        return Dataset(tiny_schema(3), rows, labels)

    def test_partition_is_disjoint_and_complete(self):
        ds = self.make()
        train, test, _ = split_and_scale(ds, SamplerConfig(seed=11))
        assert train.n_rows + test.n_rows == ds.n_rows
        n0 = ds.class_counts[0]
        expect_train0 = int(round(n0 * 0.7))
        assert train.class_counts[0] == expect_train0

    def test_train_columns_standardized(self):
        ds = self.make()
        train, _, scaler = split_and_scale(ds, SamplerConfig(seed=11))
        for j in (0, 1):
            assert abs(train.rows[:, j].mean()) < 1e-9
            assert abs(train.rows[:, j].std() - 1.0) < 1e-9
        assert scaler.constant_columns == (2,)
        # constant column passes through centered but unscaled
        np.testing.assert_allclose(train.rows[:, 2], 0.0)

    def test_test_rows_use_train_statistics(self):
        ds = self.make()
        train, test, scaler = split_and_scale(ds, SamplerConfig(seed=3))
        # invert the transform and confirm values come from the original pool
        sd = np.where(scaler.sd > 0, scaler.sd, 1.0)
        restored = test.rows * sd + scaler.mean
        original = {tuple(np.round(r, 9)) for r in ds.rows}
        assert all(tuple(np.round(r, 9)) in original for r in restored)
        _ = train

    def test_deterministic(self):
        ds = self.make()
        a_train, a_test, _ = split_and_scale(ds, SamplerConfig(seed=9))
        b_train, b_test, _ = split_and_scale(ds, SamplerConfig(seed=9))
        np.testing.assert_array_equal(a_train.rows, b_train.rows)
        np.testing.assert_array_equal(a_test.labels, b_test.labels)

    def test_bad_fraction_rejected(self):
        with pytest.raises(DataError):
            SamplerConfig(seed=0, train_fraction=1.0)


class TestGenerateSensor:
    def test_shapes_and_fraction(self):
        ds = generate_sensor_dataset(n=1000, anomaly_fraction=0.5, seed=42)
        assert ds.rows.shape == (1000, 10)
        assert ds.class_counts == {0: 500, 1: 500}

    def test_label_matches_violation_predicate(self):
        ds = generate_sensor_dataset(n=2000, anomaly_fraction=0.4, seed=7)
        violations = sensor_range_violations(ds.rows)
        np.testing.assert_array_equal((violations > 0).astype(int), ds.labels)

    def test_benign_rows_inside_ranges(self):
        ds = generate_sensor_dataset(n=500, anomaly_fraction=0.2, seed=1)
        benign = ds.rows[ds.labels == 0]
        for j, name in enumerate(SENSOR_FEATURES):
            bounds = SENSOR_RANGES[name]
            col = benign[:, j]
            if bounds is None:
                assert np.all(col == 1.0)
            else:
                lo, hi = bounds
                assert np.all((col >= lo) & (col <= hi))

    def test_violable_features_restricts_violations(self):
        planted = ("Speed", "Headway Time", "Plausibility")
        ds = generate_sensor_dataset(
            n=800, anomaly_fraction=0.5, seed=3, violable_features=planted
        )
        planted_idx = {SENSOR_FEATURES.index(f) for f in planted}
        anomalous = ds.rows[ds.labels == 1]
        for j, name in enumerate(SENSOR_FEATURES):
            if j in planted_idx:
                continue
            bounds = SENSOR_RANGES[name]
            col = anomalous[:, j]
            if bounds is None:
                assert np.all(col == 1.0)
            else:
                lo, hi = bounds
                assert np.all((col >= lo) & (col <= hi))

    def test_deterministic(self):
        a = generate_sensor_dataset(n=300, anomaly_fraction=0.3, seed=5)
        b = generate_sensor_dataset(n=300, anomaly_fraction=0.3, seed=5)
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_degenerate_fraction_rejected(self):
        with pytest.raises(DataError):
            generate_sensor_dataset(n=100, anomaly_fraction=0.0, seed=0)
        with pytest.raises(DataError):
            generate_sensor_dataset(n=100, anomaly_fraction=1.0, seed=0)

    def test_unknown_violable_feature_rejected(self):
        with pytest.raises(DataError):
            generate_sensor_dataset(
                n=100, anomaly_fraction=0.5, seed=0, violable_features=("Bogus",)
            )


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=20, max_value=200),
    frac=st.floats(min_value=0.1, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sensor_labels_always_consistent(n, frac, seed):
    n_anom = int(round(n * frac))
    if n_anom <= 0 or n_anom >= n:
        return
    ds = generate_sensor_dataset(n=n, anomaly_fraction=frac, seed=seed)
    violations = sensor_range_violations(ds.rows)
    np.testing.assert_array_equal((violations > 0).astype(int), ds.labels)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_undersample_property(seed):
    rng = np.random.default_rng(seed)
    n0 = int(rng.integers(5, 40))
    n1 = int(rng.integers(5, 40))
    labels = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    labels = labels[rng.permutation(len(labels))]
    ds = Dataset(tiny_schema(2), rng.normal(size=(len(labels), 2)), labels)
    out = undersample(ds, seed=int(seed))
    m = min(n0, n1)
    assert out.class_counts == {0: m, 1: m}
