"""Metrics arithmetic, feature-subset scoring, and conformance verdicts."""

import json
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from xaifuse.data import DataError, Dataset, FeatureSchema
from xaifuse.evaluation import (
    EXACT_ORDER_MATCH,
    MISMATCH,
    SET_MATCH,
    ConfusionMatrix,
    EvaluationError,
    classification_metrics,
    conformance_check,
    conformance_markdown,
    confusion_matrix,
    evaluate_feature_subset,
    reference_metrics_markdown,
)
from xaifuse.fixtures import REFERENCE_TOP_K, load_rank_fixtures
from xaifuse.fusion import FusionSpec, two_level_fuse
from xaifuse.models import ModelFamily


def F(a, b):
    return float(Fraction(a, b))


def mean(*values):
    """Macro aggregates average the exactly rounded per-class floats."""
    return float(np.mean(np.array(values, dtype=np.float64)))


class TestConfusionMatrix:
    def test_counting(self):
        cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1])
        assert cm.roster == (0, 1)
        assert cm.counts.tolist() == [[1, 1], [0, 2]]
        assert cm.total == 4

    def test_all_correct_is_diagonal(self):
        cm = confusion_matrix([0, 1, 2, 1], [0, 1, 2, 1])
        assert np.array_equal(cm.counts, np.diag([1, 2, 1]))
        assert cm.accuracy == 1.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(EvaluationError, match="no rows"):
            confusion_matrix([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(EvaluationError, match="length"):
            confusion_matrix([0, 1], [0])

    def test_label_outside_roster_rejected(self):
        with pytest.raises(EvaluationError, match="roster"):
            confusion_matrix([0, 2], [0, 0], roster=(0, 1))
        with pytest.raises(EvaluationError, match="roster"):
            confusion_matrix([0, 1], [0, 3], roster=(0, 1))

    def test_roster_is_sorted_and_may_include_unseen_classes(self):
        cm = confusion_matrix([1, 1], [1, 1], roster=(2, 1, 0))
        assert cm.roster == (0, 1, 2)
        assert cm.counts[1, 1] == 2
        assert cm.total == 2

    def test_negative_counts_rejected(self):
        with pytest.raises(EvaluationError, match="negative"):
            ConfusionMatrix(roster=(0, 1), counts=np.array([[1, -1], [0, 2]]))

    def test_bad_shape_rejected(self):
        with pytest.raises(EvaluationError, match="shape"):
            ConfusionMatrix(roster=(0, 1), counts=np.zeros((2, 3), dtype=int))

    def test_duplicate_roster_rejected(self):
        with pytest.raises(EvaluationError, match="unique"):
            ConfusionMatrix(roster=(1, 1), counts=np.zeros((2, 2), dtype=int))


# (counts, convention, positive_class, acc, prec, rec, f1) with exact values
HAND_CASES = [
    # binary TP=3 FP=1 FN=1 TN=5
    ([[5, 1], [1, 3]], "positive_class", 1, F(8, 10), F(3, 4), F(3, 4), F(3, 4)),
    # perfect binary
    ([[4, 0], [0, 6]], "positive_class", 1, 1.0, 1.0, 1.0, 1.0),
    # everything wrong
    ([[0, 2], [3, 0]], "positive_class", 1, 0.0, 0.0, 0.0, 0.0),
    # nothing predicted positive: precision denominator 0
    ([[4, 0], [2, 0]], "positive_class", 1, F(2, 3), 0.0, 0.0, 0.0),
    # no true positives in the data: recall denominator 0
    ([[4, 1], [0, 0]], "positive_class", 1, F(4, 5), 0.0, 0.0, 0.0),
    # skewed binary, f1 = 2TP/(2TP+FP+FN) = 190/205
    (
        [[90, 10], [5, 95]],
        "positive_class",
        1,
        F(185, 200),
        F(95, 105),
        F(95, 100),
        F(190, 205),
    ),
    # 3-class macro: per-class precision (2/3, 1, 1), recall (1, 1/2, 1),
    # f1 (4/5, 2/3, 1)
    (
        [[2, 0, 0], [1, 1, 0], [0, 0, 2]],
        "macro",
        None,
        F(5, 6),
        mean(F(2, 3), 1, 1),
        mean(1, F(1, 2), 1),
        mean(F(4, 5), F(2, 3), 1),
    ),
    # single-class roster
    ([[7]], "macro", None, 1.0, 1.0, 1.0, 1.0),
    # 4-class macro: precision (3/4, 4/5, 1, 5/7), recall (3/4, 1, 1/2, 5/6),
    # f1 (3/4, 8/9, 2/3, 10/13)
    (
        [[3, 1, 0, 0], [0, 4, 0, 0], [0, 0, 2, 2], [1, 0, 0, 5]],
        "macro",
        None,
        F(14, 18),
        mean(F(3, 4), F(4, 5), 1, F(5, 7)),
        mean(F(3, 4), 1, F(1, 2), F(5, 6)),
        mean(F(3, 4), F(8, 9), F(2, 3), F(10, 13)),
    ),
    # positive-class metrics on a non-{0,1} roster
    ([[3, 1], [2, 4]], "positive_class", 5, F(7, 10), F(4, 5), F(2, 3), F(8, 11)),
    # class 0 never occurs at all
    ([[0, 0], [0, 4]], "positive_class", 1, 1.0, 1.0, 1.0, 1.0),
]


class TestClassificationMetrics:
    @pytest.mark.parametrize("case", HAND_CASES)
    def test_hand_computed_matrices(self, case):
        counts, convention, pos, acc, prec, rec, f1 = case
        roster = (2, 5) if pos == 5 else tuple(range(len(counts)))
        cm = ConfusionMatrix(roster=roster, counts=np.array(counts))
        rep = classification_metrics(cm, convention, pos)
        assert rep.accuracy == acc
        assert rep.precision == prec
        assert rep.recall == rec
        assert rep.f1 == f1

    def test_zero_denominator_flags(self):
        cm = ConfusionMatrix(roster=(0, 1), counts=np.array([[4, 0], [2, 0]]))
        rep = classification_metrics(cm, "positive_class", 1)
        m = rep.per_class[1]
        assert m.precision == 0.0 and not m.precision_defined
        assert m.recall == 0.0 and m.recall_defined
        cm = ConfusionMatrix(roster=(0, 1), counts=np.array([[4, 1], [0, 0]]))
        m = classification_metrics(cm, "macro").per_class[1]
        assert m.recall == 0.0 and not m.recall_defined

    def test_macro_stays_in_unit_interval(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            k = int(rng.integers(1, 6))
            counts = rng.integers(0, 9, size=(k, k))
            if counts.sum() == 0:
                counts[-1, -1] = 3
            rep = classification_metrics(
                ConfusionMatrix(roster=tuple(range(k)), counts=counts), "macro"
            )
            for v in (rep.accuracy, rep.precision, rep.recall, rep.f1):
                assert 0.0 <= v <= 1.0

    def test_unknown_convention_rejected(self):
        cm = ConfusionMatrix(roster=(0, 1), counts=np.eye(2, dtype=int))
        with pytest.raises(EvaluationError, match="convention"):
            classification_metrics(cm, "weighted")

    def test_positive_class_must_be_in_roster(self):
        cm = ConfusionMatrix(roster=(0, 1), counts=np.eye(2, dtype=int))
        with pytest.raises(EvaluationError, match="positive class"):
            classification_metrics(cm, "positive_class", 7)
        with pytest.raises(EvaluationError, match="positive class"):
            classification_metrics(cm, "positive_class", None)

    def test_report_round_trips_to_dict(self):
        cm = ConfusionMatrix(roster=(0, 1), counts=np.array([[5, 1], [1, 3]]))
        d = classification_metrics(cm, "positive_class", 1).to_dict()
        assert d["accuracy"] == 0.8
        assert d["per_class"]["1"]["precision"] == 0.75
        assert d["convention"] == "positive_class"


def _blob_datasets(seed=0, n=120):
    """Two well-separated classes; feature a carries the signal, b is noise
    and c is constant."""
    rng = np.random.default_rng(seed)
    half = n // 2
    a = np.concatenate([rng.normal(-3, 0.3, half), rng.normal(3, 0.3, half)])
    b = rng.normal(0, 1, n)
    c = np.zeros(n)
    y = np.concatenate([np.zeros(half, int), np.ones(half, int)])
    schema = FeatureSchema(("a", "b", "c"), "label")
    ds = Dataset(schema, np.column_stack([a, b, c]), y)
    order = rng.permutation(n)
    return ds.select(order[: n // 2]), ds.select(order[n // 2 :])


class TestEvaluateFeatureSubset:
    def test_separable_signal_feature_scores_high(self):
        train, test = _blob_datasets()
        rep = evaluate_feature_subset(
            train, test, ["a"], ModelFamily.LOGISTIC_REGRESSION, seed=3
        )
        assert rep.accuracy > 0.95
        assert rep.convention == "positive_class" and rep.positive_class == 1

    def test_feature_order_does_not_change_metrics(self):
        train, test = _blob_datasets(seed=1)
        rep1 = evaluate_feature_subset(
            train, test, ["a", "b", "c"], ModelFamily.LOGISTIC_REGRESSION, seed=3
        )
        rep2 = evaluate_feature_subset(
            train, test, ["c", "a", "b"], ModelFamily.LOGISTIC_REGRESSION, seed=3
        )
        assert rep1.to_dict() == rep2.to_dict()

    def test_full_subset_equals_unprojected_training(self):
        train, test = _blob_datasets(seed=2)
        rep = evaluate_feature_subset(
            train, test, list(train.schema.feature_names), ModelFamily.DECISION_TREE
        )
        from xaifuse.models import train_model

        model = train_model(ModelFamily.DECISION_TREE, train.rows, train.labels)
        direct = confusion_matrix(
            test.labels, model.predict(test.rows), roster=(0, 1)
        )
        assert rep.accuracy == classification_metrics(
            direct, "positive_class", 1
        ).accuracy

    def test_empty_feature_list_rejected(self):
        train, test = _blob_datasets()
        with pytest.raises(EvaluationError, match="empty"):
            evaluate_feature_subset(train, test, [], ModelFamily.KNN)

    def test_unknown_feature_rejected(self):
        train, test = _blob_datasets()
        with pytest.raises(DataError):
            evaluate_feature_subset(train, test, ["zz"], ModelFamily.KNN)

    def test_deterministic_per_seed(self):
        train, test = _blob_datasets(seed=4)
        reps = [
            evaluate_feature_subset(
                train, test, ["a", "b"], ModelFamily.MLP, seed=11
            ).to_dict()
            for _ in range(2)
        ]
        assert reps[0] == reps[1]

    def test_multiclass_defaults_to_macro(self):
        rng = np.random.default_rng(5)
        schema = FeatureSchema(("x", "y"), "label")
        centers = {0: (-4, 0), 1: (4, 0), 2: (0, 4)}
        rows, labs = [], []
        for label, (cx, cy) in centers.items():
            rows.append(rng.normal((cx, cy), 0.4, size=(40, 2)))
            labs.append(np.full(40, label))
        ds = Dataset(schema, np.vstack(rows), np.concatenate(labs))
        order = rng.permutation(ds.n_rows)
        train, test = ds.select(order[:60]), ds.select(order[60:])
        rep = evaluate_feature_subset(train, test, ["x", "y"], ModelFamily.KNN)
        assert rep.convention == "macro"
        assert rep.accuracy > 0.9


def _fixture_fusion():
    return {
        ds: two_level_fuse(
            load_rank_fixtures(ds), FusionSpec(top_k=REFERENCE_TOP_K[ds])
        )
        for ds in ("veremi_binary", "sensor", "veremi_multiclass")
    }


class TestConformance:
    def test_required_checks_pass_on_fixture_fusion(self):
        report = conformance_check(_fixture_fusion())
        assert report.passed
        names = [r.name for r in report.required]
        assert names == [
            "veremi_binary_leveled_top4_set",
            "veremi_multiclass_leveled_top4_set",
            "veremi_binary_lime_exact_order",
            "veremi_binary_dalex_top3_order",
        ]
        assert all(r.passed for r in report.required)

    def test_cell_verdicts(self):
        report = conformance_check(_fixture_fusion())
        verdicts = {(c.dataset, c.method): c.verdict for c in report.cells}
        assert len(verdicts) == 12
        # the multiclass leveled order reproduces the reference column exactly
        assert verdicts[("veremi_multiclass", "leveled")] == EXACT_ORDER_MATCH
        assert verdicts[("veremi_binary", "lime")] == EXACT_ORDER_MATCH
        # binary leveled agrees as a set but not in displayed order
        assert verdicts[("veremi_binary", "leveled")] == SET_MATCH
        # the sensor columns disagree with their own rank tables as shipped
        assert verdicts[("sensor", "shap")] == MISMATCH
        assert verdicts[("sensor", "leveled")] == MISMATCH

    def test_binary_dalex_cell_mismatch_but_top3_required_pass(self):
        # zero-score padding fills the 4th slot, so the full column cannot
        # match; the hard requirement is only on the three scored features
        report = conformance_check(_fixture_fusion())
        cell = next(
            c
            for c in report.cells
            if (c.dataset, c.method) == ("veremi_binary", "dalex")
        )
        assert cell.verdict == MISMATCH
        assert cell.computed[:3] == ("pos_x", "pos_y", "spd_x")
        check = next(
            r for r in report.required if r.name == "veremi_binary_dalex_top3_order"
        )
        assert check.passed

    def test_missing_dataset_fails_required(self):
        computed = _fixture_fusion()
        del computed["veremi_binary"]
        report = conformance_check(computed)
        assert not report.passed
        failed = [r for r in report.required if not r.passed]
        assert {r.detail for r in failed} == {"not computed"}

    def test_report_is_deterministic_and_serializable(self):
        # conformance.json is asdict of the report, as canonical JSON writes it
        a = json.loads(json.dumps(asdict(conformance_check(_fixture_fusion()))))
        b = json.loads(json.dumps(asdict(conformance_check(_fixture_fusion()))))
        assert a == b
        assert isinstance(a["cells"], list) and a["passed"] is True


class TestMarkdown:
    def test_conformance_markdown_layout(self):
        text = conformance_markdown(asdict(conformance_check(_fixture_fusion())))
        assert "Overall: PASS" in text
        assert "veremi_binary_lime_exact_order" in text
        assert "| veremi_binary | DALEX | mismatch |" in text

    def test_reference_metrics_markdown_layout(self):
        text = reference_metrics_markdown()
        assert "### veremi_binary / catboost" in text
        assert "| Metric | SHAP | LIME | DALEX | Leveled |" in text
        assert "| acc | 0.82 | 0.82 | 0.82 | 0.82 |" in text
        # the one leveled multiclass cell that differs from its neighbours
        assert "| acc | 0.67 | 0.67 | 0.67 | 0.64 |" in text
        assert "asserts nothing" in text
