"""Rank fusion: weighted point scheme, two-level aggregation, shipped tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xaifuse.fixtures import (
    DATASETS,
    REFERENCE_TOP_K,
    XAI_METHODS,
    load_rank_fixture,
    load_rank_fixtures,
    load_reference_metrics,
    load_reference_top_features,
)
from xaifuse.fusion import (
    FusedRanking,
    FusionError,
    FusionSpec,
    RankTable,
    fuse_ranks,
    read_rank_table,
    to_ranks,
    top_k,
    two_level_fuse,
    write_fused,
    write_rank_table,
)

VEREMI = ("pos_x", "pos_y", "pos_z", "spd_x", "spd_y", "spd_z")
RANK_TABLE_NAMES = tuple(f"{d}_{m}" for d in DATASETS for m in XAI_METHODS)


# -- independent oracles ----------------------------------------------------


def place_counter(table: RankTable, points=(3.0, 2.0, 1.0)) -> list[float]:
    """Literal scorekeeper: walk every cell and pay out by place."""
    scores = []
    for i in range(len(table.feature_names)):
        total = 0.0
        for j in range(len(table.sources)):
            r = int(table.ranks[i, j])
            if r <= len(points):
                total += points[r - 1]
        scores.append(total)
    return scores


def order_by_score(scores) -> list[int]:
    """Descending score, ties by lower feature index (insertion sort)."""
    idx = list(range(len(scores)))
    idx.sort(key=lambda i: (-scores[i], i))
    return idx


def two_level_place_counter(tables: dict, points=(3.0, 2.0, 1.0)) -> list[float]:
    """Re-derive the second level from scratch: score each method table,
    convert each score list to ranks, then score the rank-of-ranks table."""
    first = next(iter(tables.values()))
    names = first.feature_names
    columns = []
    for t in tables.values():
        order = order_by_score(place_counter(t, points))
        ranks = [0] * len(names)
        for pos, f in enumerate(order):
            ranks[f] = pos + 1
        columns.append(ranks)
    level2 = RankTable(
        feature_names=names,
        sources=tuple(str(i) for i in range(len(columns))),
        ranks=np.array(columns).T,
    )
    return place_counter(level2, points)


def random_table(rng: np.random.Generator, ordinal_fraction=0.5) -> RankTable:
    """Random rank table; some columns are permutations, some merely ordinal."""
    p = int(rng.integers(1, 9))
    m = int(rng.integers(1, 7))
    cols = []
    for _ in range(m):
        if rng.random() < ordinal_fraction:
            cols.append(rng.integers(1, p + 1, size=p))
        else:
            cols.append(rng.permutation(p) + 1)
    return RankTable(
        feature_names=tuple(f"f{i}" for i in range(p)),
        sources=tuple(f"s{j}" for j in range(m)),
        ranks=np.column_stack(cols),
    )


# -- RankTable validation ---------------------------------------------------


class TestRankTable:
    def test_basic_construction(self):
        t = RankTable(("a", "b"), ("m1",), np.array([[1], [2]]))
        assert t.feature_count == 2
        assert sorted(t.ranks[:, 0]) == [1, 2]

    def test_float_ranks_that_round_exactly_are_accepted(self):
        t = RankTable(("a", "b"), ("m",), np.array([[1.0], [2.0]]))
        assert t.ranks.dtype == np.int64

    def test_fractional_rank_rejected(self):
        with pytest.raises(FusionError, match="integer"):
            RankTable(("a", "b"), ("m",), np.array([[1.5], [2.0]]))

    def test_rank_zero_rejected(self):
        with pytest.raises(FusionError, match="1..p"):
            RankTable(("a", "b"), ("m",), np.array([[0], [2]]))

    def test_rank_above_p_rejected(self):
        with pytest.raises(FusionError, match="1..p"):
            RankTable(("a", "b"), ("m",), np.array([[1], [3]]))

    def test_duplicate_ranks_in_column_allowed(self):
        # ordinal but not a permutation; such columns occur in the shipped tables
        t = RankTable(("a", "b", "c"), ("m",), np.array([[1], [1], [2]]))
        assert sorted(t.ranks[:, 0]) == [1, 1, 2]

    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(FusionError, match="unique"):
            RankTable(("a", "a"), ("m",), np.array([[1], [2]]))

    def test_duplicate_sources_rejected(self):
        with pytest.raises(FusionError, match="source"):
            RankTable(("a", "b"), ("m", "m"), np.array([[1, 1], [2, 2]]))

    def test_no_sources_rejected(self):
        with pytest.raises(FusionError, match="source"):
            RankTable(("a", "b"), (), np.empty((2, 0), dtype=np.int64))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(FusionError, match="shape"):
            RankTable(("a", "b"), ("m",), np.array([[1, 2]]))

    def test_ranks_are_read_only(self):
        t = RankTable(("a", "b"), ("m",), np.array([[1], [2]]))
        with pytest.raises(ValueError):
            t.ranks[0, 0] = 2


class TestFusionSpec:
    def test_defaults(self):
        spec = FusionSpec()
        assert spec.points == (3.0, 2.0, 1.0)
        assert spec.mode == "weighted_points"
        assert spec.top_k == 4

    def test_increasing_points_rejected(self):
        with pytest.raises(FusionError, match="non-increasing"):
            FusionSpec(points=(1, 2, 3))

    def test_negative_points_rejected(self):
        with pytest.raises(FusionError, match="non-negative"):
            FusionSpec(points=(3, -1))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_points_rejected(self, bad):
        with pytest.raises(FusionError, match="finite"):
            FusionSpec(points=(bad, 2, 1))

    def test_empty_points_rejected(self):
        with pytest.raises(FusionError):
            FusionSpec(points=())

    def test_bad_mode_rejected(self):
        with pytest.raises(FusionError, match="mode"):
            FusionSpec(mode="borda")

    def test_nonpositive_top_k_rejected(self):
        with pytest.raises(FusionError, match="top_k"):
            FusionSpec(top_k=0)


# -- fuse_ranks -------------------------------------------------------------


class TestFuseRanks:
    def test_veremi_binary_shap_scores(self):
        # hand-applied 3/2/1 payout over the shipped table, plus the oracle
        t = load_rank_fixture("veremi_binary_shap")
        fused = fuse_ranks(t, FusionSpec())
        by_name = dict(zip(t.feature_names, fused.scores))
        assert by_name == {
            "pos_x": 13.0,
            "pos_y": 9.0,
            "pos_z": 0.0,
            "spd_x": 3.0,
            "spd_y": 11.0,
            "spd_z": 0.0,
        }
        assert list(fused.scores) == place_counter(t)

    def test_single_source_identity(self):
        t = RankTable(("a", "b", "c", "d"), ("m",), np.array([[1], [2], [3], [4]]))
        fused = fuse_ranks(t, FusionSpec())
        assert list(fused.scores) == [3.0, 2.0, 1.0, 0.0]

    def test_veremi_binary_lime_order(self):
        t = load_rank_fixture("veremi_binary_lime")
        fused = fuse_ranks(t, FusionSpec())
        names = [t.feature_names[i] for i in fused.ordering]
        assert names[:4] == ["spd_y", "pos_x", "spd_x", "pos_y"]

    def test_tie_breaks_by_lower_feature_index(self):
        # both pos_x and pos_y score 14 in the binary DALEX table
        t = load_rank_fixture("veremi_binary_dalex")
        fused = fuse_ranks(t, FusionSpec())
        assert fused.scores[0] == fused.scores[1] == 14.0
        names = [t.feature_names[i] for i in fused.ordering]
        assert names[:3] == ["pos_x", "pos_y", "spd_x"]
        assert fused.ordering[:2] == (0, 1)

    def test_mean_rank_mode(self):
        t = RankTable(
            ("a", "b", "c"),
            ("m1", "m2"),
            np.array([[1, 2], [2, 1], [3, 3]]),
        )
        fused = fuse_ranks(t, FusionSpec(mode="mean_rank", top_k=2))
        # score = p + 1 - mean rank
        assert list(fused.scores) == [2.5, 2.5, 1.0]
        assert fused.ordering == (0, 1, 2)

    def test_points_vector_shorter_than_three(self):
        t = RankTable(("a", "b", "c"), ("m",), np.array([[1], [2], [3]]))
        fused = fuse_ranks(t, FusionSpec(points=(5.0,), top_k=1))
        assert list(fused.scores) == [5.0, 0.0, 0.0]

    def test_points_vector_longer_than_p(self):
        t = RankTable(("a", "b"), ("m",), np.array([[1], [2]]))
        fused = fuse_ranks(t, FusionSpec(points=(4, 3, 2, 1), top_k=2))
        assert list(fused.scores) == [4.0, 3.0]

    def test_top_k_beyond_p_rejected(self):
        t = RankTable(("a", "b"), ("m",), np.array([[1], [2]]))
        with pytest.raises(FusionError, match="top_k"):
            fuse_ranks(t, FusionSpec(top_k=3))


class TestFusionProperties:
    def test_thousand_random_tables_match_place_counter(self):
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            t = random_table(rng)
            spec = FusionSpec(top_k=1)
            fused = fuse_ranks(t, spec)
            assert list(fused.scores) == place_counter(t)

    def test_random_points_vectors_match_place_counter(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            t = random_table(rng)
            k = int(rng.integers(1, 6))
            pts = tuple(sorted(rng.integers(0, 9, size=k).tolist(), reverse=True))
            pts = tuple(float(x) for x in pts)
            fused = fuse_ranks(t, FusionSpec(points=pts, top_k=1))
            assert list(fused.scores) == place_counter(t, pts)

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            t = random_table(rng)
            perm = rng.permutation(len(t.sources))
            shuffled = RankTable(
                feature_names=t.feature_names,
                sources=tuple(t.sources[j] for j in perm),
                ranks=t.ranks[:, perm],
            )
            a = fuse_ranks(t, FusionSpec(top_k=1))
            b = fuse_ranks(shuffled, FusionSpec(top_k=1))
            assert np.array_equal(a.scores, b.scores)
            assert a.ordering == b.ordering

    def test_improving_a_rank_never_lowers_the_score(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            t = random_table(rng)
            i = int(rng.integers(0, len(t.feature_names)))
            j = int(rng.integers(0, len(t.sources)))
            old = int(t.ranks[i, j])
            if old == 1:
                continue
            better = int(rng.integers(1, old))
            ranks = t.ranks.copy()
            ranks[i, j] = better
            improved = RankTable(t.feature_names, t.sources, ranks)
            before = fuse_ranks(t, FusionSpec(top_k=1)).scores[i]
            after = fuse_ranks(improved, FusionSpec(top_k=1)).scores[i]
            assert after >= before

    def test_score_bounds(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            t = random_table(rng)
            fused = fuse_ranks(t, FusionSpec(top_k=1))
            assert fused.scores.min() >= 0.0
            assert fused.scores.max() <= 3.0 * len(t.sources)

    def test_mean_rank_ordering_is_ascending_mean_rank(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            t = random_table(rng)
            fused = fuse_ranks(t, FusionSpec(mode="mean_rank", top_k=1))
            means = t.ranks.mean(axis=1)
            expect = sorted(range(len(means)), key=lambda i: (means[i], i))
            assert list(fused.ordering) == expect

    def test_ordering_is_always_a_permutation(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            t = random_table(rng)
            fused = fuse_ranks(t, FusionSpec(top_k=1))
            assert sorted(fused.ordering) == list(range(len(t.feature_names)))
            ranks = to_ranks(fused.scores)
            for pos, f in enumerate(fused.ordering):
                assert ranks[f] == pos + 1

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_oracle_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        t = random_table(rng)
        fused = fuse_ranks(t, FusionSpec(top_k=1))
        assert list(fused.scores) == place_counter(t)


# -- two-level fusion -------------------------------------------------------


class TestTwoLevelFuse:
    def test_veremi_binary_leveled(self):
        tables = load_rank_fixtures("veremi_binary")
        per_method = two_level_fuse(tables, FusionSpec(top_k=4))
        leveled = per_method.pop("leveled")
        assert set(per_method) == set(XAI_METHODS)
        by_name = dict(zip(VEREMI, leveled.scores))
        assert by_name == {
            "pos_x": 8.0,
            "pos_y": 3.0,
            "pos_z": 0.0,
            "spd_x": 2.0,
            "spd_y": 5.0,
            "spd_z": 0.0,
        }
        names = {f.name for f in top_k(leveled, 4)}
        assert names == {"pos_x", "pos_y", "spd_x", "spd_y"}
        assert list(leveled.scores) == two_level_place_counter(tables)

    def test_veremi_multiclass_leveled(self):
        tables = load_rank_fixtures("veremi_multiclass")
        leveled = two_level_fuse(tables, FusionSpec(top_k=4))["leveled"]
        chosen = [f.name for f in top_k(leveled, 4)]
        assert set(chosen) == {"pos_x", "pos_y", "spd_x", "spd_y"}
        assert chosen == ["pos_x", "pos_y", "spd_x", "spd_y"]
        assert list(leveled.scores) == two_level_place_counter(tables)

    def test_unanimous_tables_reproduce_the_common_ranking(self):
        names = ("a", "b", "c", "d")
        base = np.array([[2], [1], [3], [4]])
        tables = {
            m: RankTable(names, (f"{m}-src",), base) for m in ("x", "y", "z")
        }
        leveled = two_level_fuse(tables, FusionSpec(top_k=3))["leveled"]
        order = [names[i] for i in leveled.ordering]
        # nonzero-score features keep the common order; d scores 0 everywhere
        assert order[:3] == ["b", "a", "c"]
        assert leveled.scores[3] == 0.0

    def test_sensor_leveled_is_stable(self):
        # regression pin for the computed Sensor column; the shipped
        # reference column disagrees with its own per-model table, so the
        # conformance harness records a mismatch for it rather than equality
        tables = load_rank_fixtures("sensor")
        leveled = two_level_fuse(tables, FusionSpec(top_k=5))["leveled"]
        chosen = [f.name for f in top_k(leveled, 5)]
        assert chosen == [
            "Location",
            "Correlation",
            "Lane Alignment",
            "Consistency",
            "Plausibility",
        ]
        assert list(leveled.scores) == two_level_place_counter(tables)
        reference = load_reference_top_features()[("sensor", "leveled")]
        assert set(chosen) != set(reference)

    def test_two_level_matches_oracle_on_random_tables(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            p = int(rng.integers(2, 8))
            names = tuple(f"f{i}" for i in range(p))
            tables = {}
            for m in range(int(rng.integers(1, 4))):
                cols = np.column_stack(
                    [rng.permutation(p) + 1 for _ in range(int(rng.integers(1, 5)))]
                )
                tables[f"m{m}"] = RankTable(
                    names,
                    tuple(f"s{m}_{j}" for j in range(cols.shape[1])),
                    cols,
                )
            leveled = two_level_fuse(tables, FusionSpec(top_k=1))["leveled"]
            assert list(leveled.scores) == two_level_place_counter(tables)

    def test_roster_mismatch_rejected(self):
        a = RankTable(("a", "b"), ("m",), np.array([[1], [2]]))
        b = RankTable(("a", "c"), ("m",), np.array([[1], [2]]))
        with pytest.raises(FusionError, match="roster"):
            two_level_fuse({"x": a, "y": b}, FusionSpec(top_k=2))

    def test_empty_table_map_rejected(self):
        with pytest.raises(FusionError):
            two_level_fuse({}, FusionSpec())

    def test_maps_each_table_then_leveled_in_order(self):
        tables = load_rank_fixtures("sensor")
        fused = two_level_fuse(tables, FusionSpec(top_k=5))
        assert list(fused) == [*tables, "leveled"]
        for name, table in tables.items():
            expected = fuse_ranks(table, FusionSpec(top_k=5)).scores
            np.testing.assert_array_equal(fused[name].scores, expected)

    def test_table_named_leveled_rejected(self):
        tables = load_rank_fixtures("sensor")
        tables["leveled"] = tables.pop("dalex")
        with pytest.raises(FusionError, match="leveled"):
            two_level_fuse(tables, FusionSpec(top_k=5))


class TestTopK:
    def test_four_nonzero_entries(self):
        fused = FusedRanking(VEREMI, np.array([13.0, 9.0, 0.0, 3.0, 11.0, 0.0]))
        picks = top_k(fused, 4)
        assert [f.name for f in picks] == ["pos_x", "spd_y", "pos_y", "spd_x"]
        assert not any(f.padded for f in picks)

    def test_k_equals_p_returns_full_ordering(self):
        fused = FusedRanking(("a", "b", "c"), np.array([1.0, 3.0, 2.0]))
        assert [f.name for f in top_k(fused, 3)] == ["b", "c", "a"]

    def test_zero_scores_are_flagged(self):
        fused = FusedRanking(("a", "b", "c"), np.zeros(3))
        picks = top_k(fused, 2)
        assert [f.name for f in picks] == ["a", "b"]
        assert all(f.padded for f in picks)

    def test_k_beyond_p_rejected(self):
        fused = FusedRanking(("a",), np.array([1.0]))
        with pytest.raises(FusionError):
            top_k(fused, 2)


# -- shipped fixtures -------------------------------------------------------


class TestFixtures:
    def test_all_nine_tables_load(self):
        assert len(RANK_TABLE_NAMES) == 9
        for name in RANK_TABLE_NAMES:
            t = load_rank_fixture(name)
            assert t.sources == ("DT", "RF", "DNN", "KNN", "SVM", "AdaBoost")

    def test_feature_rosters(self):
        for name in RANK_TABLE_NAMES:
            t = load_rank_fixture(name)
            if name.startswith("veremi"):
                assert t.feature_names == VEREMI
            else:
                assert len(t.feature_names) == 10
                assert t.feature_names[1] == "Location"

    def test_permutation_columns(self):
        # every column is a permutation except three in the multiclass
        # variable-importance table, which share ranks as shipped
        for name in RANK_TABLE_NAMES:
            t = load_rank_fixture(name)
            every_rank = list(range(1, t.feature_count + 1))
            for j, src in enumerate(t.sources):
                is_permutation = sorted(t.ranks[:, j]) == every_rank
                shared = name == "veremi_multiclass_dalex" and src in (
                    "KNN",
                    "SVM",
                    "AdaBoost",
                )
                assert is_permutation != shared, (name, src)

    def test_reference_top_features_shape(self):
        ref = load_reference_top_features()
        assert len(ref) == 12
        for ds in DATASETS:
            for m in (*XAI_METHODS, "leveled"):
                assert len(ref[(ds, m)]) == REFERENCE_TOP_K[ds]
        assert ref[("veremi_binary", "leveled")] == (
            "pos_x",
            "pos_y",
            "spd_x",
            "spd_y",
        )
        assert ref[("veremi_binary", "lime")] == ("spd_y", "pos_x", "spd_x", "pos_y")

    def test_reference_metrics_shape(self):
        rows = load_reference_metrics()
        # 3 datasets x 3 classifiers x 4 methods x 4 metrics
        assert len(rows) == 144
        assert all(0.0 <= r.value <= 1.0 for r in rows)
        lookup = {
            (r.dataset, r.classifier, r.method, r.metric): r.value for r in rows
        }
        assert lookup[("veremi_binary", "catboost", "leveled", "acc")] == 0.82
        assert lookup[("veremi_binary", "catboost", "leveled", "f1")] == 0.89

    def test_unknown_fixture_rejected(self):
        with pytest.raises(FusionError, match="fixture"):
            load_rank_fixtures("nonesuch")


# -- CSV round trips --------------------------------------------------------


class TestCsvIo:
    def test_rank_table_roundtrip(self, tmp_path):
        t = load_rank_fixture("sensor_lime")
        path = tmp_path / "t.csv"
        write_rank_table(t, path)
        back = read_rank_table(path)
        assert back.feature_names == t.feature_names
        assert back.sources == t.sources
        assert np.array_equal(back.ranks, t.ranks)

    def test_fused_csv_layout(self, tmp_path):
        fused = FusedRanking(("a", "b", "c"), np.array([1.0, 3.0, 0.0]))
        path = tmp_path / "f.csv"
        write_fused(fused, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "feature,score,rank,flagged"
        assert lines[1] == "b,3.0,1,0"
        assert lines[2] == "a,1.0,2,0"
        assert lines[3] == "c,0.0,3,1"

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(FusionError, match="no such"):
            read_rank_table(tmp_path / "absent.csv")

    def test_read_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,DT\na,1\n")
        with pytest.raises(FusionError, match="header"):
            read_rank_table(path)

    def test_read_non_integer_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("feature,DT\na,first\n")
        with pytest.raises(FusionError, match="non-integer"):
            read_rank_table(path)
