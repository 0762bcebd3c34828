"""Release gate: eight numbered checks, one printed verdict line each.

Every check re-derives its expected values inside this file (hand arithmetic,
brute-force oracles, or planted ground truth) so a regression in the library
cannot silently re-verify itself. Budgeted checks assert their own wall-clock
limits.
"""

import json
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations
from time import perf_counter

import numpy as np
import pytest

from xaifuse.data import (
    SamplerConfig,
    generate_sensor_dataset,
    split_and_scale,
    undersample,
)
from xaifuse.evaluation import ConfusionMatrix, classification_metrics, conformance_check
from xaifuse.explainers import (
    ExplainerConfig,
    lime_global,
    permutation_importance,
    select_background,
    shap_global,
    shap_values,
    to_ranks,
)
from xaifuse.fixtures import load_rank_fixture, load_rank_fixtures, load_reference_metrics
from xaifuse.fusion import FusionSpec, RankTable, fuse_ranks, top_k, two_level_fuse
from xaifuse.models import train_model
from xaifuse.pipeline import parse_config, run_pipeline
from xaifuse.seeding import derive_seed


@contextmanager
def verdict(capsys, number, label):
    t0 = perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} ({label}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {number} ({label}): PASS in {perf_counter() - t0:.2f}s")


# -- 1: fusing the shipped reference tables reproduces the pinned sets ------


def test_c1_reference_table_fusion(capsys):
    with verdict(capsys, 1, "reference-table fusion conformance"):
        t0 = perf_counter()
        spec = FusionSpec(points=(3.0, 2.0, 1.0), top_k=4)
        binary_methods, binary_leveled = two_level_fuse(
            load_rank_fixtures("veremi_binary"), spec
        )
        _, multi_leveled = two_level_fuse(
            load_rank_fixtures("veremi_multiclass"), spec
        )

        names = lambda fused, k: tuple(f.name for f in top_k(fused, k))
        assert set(names(binary_leveled, 4)) == {"pos_x", "pos_y", "spd_x", "spd_y"}
        assert set(names(multi_leveled, 4)) == {"pos_x", "pos_y", "spd_x", "spd_y"}
        assert names(binary_methods["lime"], 4) == ("spd_y", "pos_x", "spd_x", "pos_y")
        assert names(binary_methods["dalex"], 3) == ("pos_x", "pos_y", "spd_x")

        report = conformance_check(
            {
                ds: two_level_fuse(load_rank_fixtures(ds), spec)
                for ds in ("veremi_binary", "sensor", "veremi_multiclass")
            }
        )
        assert report.passed
        assert len(report.required) == 4
        assert all(check.passed for check in report.required)
        assert perf_counter() - t0 < 1.0


# -- 2: fused scores against a literal place counter ------------------------


def count_place_points(table: RankTable) -> dict[str, float]:
    """Walk every cell and award 3/2/1 points for ranks 1/2/3."""
    totals = {name: 0.0 for name in table.feature_names}
    for col in range(len(table.sources)):
        for row, name in enumerate(table.feature_names):
            rank = int(table.ranks[row, col])
            if rank == 1:
                totals[name] += 3.0
            elif rank == 2:
                totals[name] += 2.0
            elif rank == 3:
                totals[name] += 1.0
    return totals


def test_c2_fusion_score_spot_check(capsys):
    with verdict(capsys, 2, "fusion score spot check"):
        table = load_rank_fixture("veremi_binary_shap")
        fused = fuse_ranks(table, FusionSpec(points=(3.0, 2.0, 1.0), top_k=4))
        by_name = dict(zip(fused.feature_names, fused.scores))
        assert by_name == {
            "pos_x": 13.0,
            "pos_y": 9.0,
            "pos_z": 0.0,
            "spd_x": 3.0,
            "spd_y": 11.0,
            "spd_z": 0.0,
        }
        assert by_name == count_place_points(table)

        rng = np.random.default_rng(20260819)
        discrepancies = 0
        for _ in range(1000):
            p = int(rng.integers(1, 9))
            m = int(rng.integers(1, 7))
            cols = []
            for _ in range(m):
                if rng.random() < 0.5:
                    cols.append(rng.permutation(p) + 1)
                else:
                    cols.append(rng.integers(1, p + 1, size=p))
            t = RankTable(
                feature_names=tuple(f"f{i}" for i in range(p)),
                sources=tuple(f"s{i}" for i in range(m)),
                ranks=np.column_stack(cols),
            )
            got = fuse_ranks(t, FusionSpec(points=(3.0, 2.0, 1.0), top_k=1))
            want = count_place_points(t)
            if dict(zip(got.feature_names, got.scores)) != want:
                discrepancies += 1
        assert discrepancies == 0


# -- 3: enumeration equals the averaged-permutation definition --------------


def output_columns(model) -> list[int]:
    return [1] if len(model.classes_) == 2 else list(range(len(model.classes_)))


def shapley_by_permutations(model, x, background):
    """Average marginal contribution over every feature ordering."""
    p = x.size
    cols = output_columns(model)
    cache: dict[int, np.ndarray] = {}

    def value(mask_bits: int) -> np.ndarray:
        if mask_bits not in cache:
            present = np.array([(mask_bits >> j) & 1 for j in range(p)], dtype=bool)
            z = np.where(present, x, background)
            cache[mask_bits] = model.predict_proba(z)[:, cols].mean(axis=0)
        return cache[mask_bits]

    total = np.zeros((len(cols), p))
    orderings = list(permutations(range(p)))
    for order in orderings:
        bits = 0
        prev = value(0)
        for j in order:
            bits |= 1 << j
            cur = value(bits)
            total[:, j] += cur - prev
            prev = cur
    return total / len(orderings)


SMALL_FAMILIES = (
    ("decision_tree", {"max_depth": 6, "min_samples_leaf": 1}),
    ("random_forest", {"n_estimators": 8, "max_depth": 6}),
    ("mlp", {"epochs": 15, "dropout": 0.0}),
    ("knn", {"n_neighbors": 3}),
    ("svm_rbf", {}),
    ("adaboost", {"n_estimators": 8, "base_max_depth": 3}),
)


def seeded_problem(i: int):
    rng = np.random.default_rng(1000 + i)
    p = (2, 3, 4)[i % 3]
    n = 36
    X = rng.normal(0.0, 1.0, size=(n, p))
    if i % 5 == 0:
        y = np.argmax(X @ rng.normal(size=(p, 3)), axis=1)
        y[:3] = (0, 1, 2)  # guarantee all three classes appear
    else:
        y = (X @ rng.normal(size=p) + 0.3 * rng.normal(size=n) > 0).astype(int)
        y[:2] = (0, 1)
    return X, y


def test_c3_shapley_exactness(capsys):
    with verdict(capsys, 3, "exact Shapley vs permutation definition"):
        t0 = perf_counter()

        worst = 0.0
        for i in range(54):
            family, overrides = SMALL_FAMILIES[i % len(SMALL_FAMILIES)]
            X, y = seeded_problem(i)
            model = train_model(family, X, y, seed=i, overrides=overrides)
            background = X[5:11]
            got = shap_values(model, X[:2], background)
            for row in range(2):
                want = shapley_by_permutations(model, X[row], background)
                worst = max(worst, float(np.max(np.abs(got.values[row] - want))))
        assert worst <= 1e-9, f"worst deviation {worst}"

        # additivity at p=6: attributions plus base recover the output
        rng = np.random.default_rng(77)
        X6 = rng.normal(size=(120, 6))
        y6 = (X6[:, 0] + X6[:, 1] > 0).astype(int)
        m6 = train_model(
            "random_forest", X6, y6, seed=3, overrides={"n_estimators": 12}
        )
        s6 = shap_values(m6, X6[:8], X6[20:30])
        gap6 = np.abs(s6.values.sum(axis=2) + s6.base_values - s6.outputs)
        assert float(gap6.max()) <= 1e-9

        # additivity at p=10, binary and 3-class
        sensor = generate_sensor_dataset(300, 0.5, seed=7)
        m10 = train_model("decision_tree", sensor.rows, sensor.labels, seed=7)
        s10 = shap_values(m10, sensor.rows[:8], sensor.rows[50:60])
        gap10 = np.abs(s10.values.sum(axis=2) + s10.base_values - s10.outputs)
        assert float(gap10.max()) <= 1e-9

        X10 = rng.normal(size=(90, 10))
        y10 = np.argmax(X10[:, :3], axis=1)
        k10 = train_model("knn", X10, y10, seed=7)
        sk = shap_values(k10, X10[:6], X10[30:40])
        gapk = np.abs(sk.values.sum(axis=2) + sk.base_values - sk.outputs)
        assert float(gapk.max()) <= 1e-9

        # a feature that is constant everywhere contributes exactly zero
        Xc = rng.normal(size=(60, 5))
        Xc[:, 2] = 0.7
        yc = (Xc[:, 0] > 0).astype(int)
        for family in ("decision_tree", "knn"):
            mc = train_model(family, Xc, yc, seed=11)
            sc = shap_values(mc, Xc[:5], Xc[10:18])
            assert np.all(sc.values[:, :, 2] == 0.0)

        assert perf_counter() - t0 < 30.0


# -- 4: three planted features surface in every explainer's top-4 -----------


def test_c4_planted_signal_explainers(capsys):
    with verdict(capsys, 4, "planted-signal explainer sanity"):
        t0 = perf_counter()
        planted = ("Speed", "Headway Time", "Plausibility")
        ds = generate_sensor_dataset(800, 0.5, seed=1234, violable_features=planted)
        train, test, _ = split_and_scale(
            undersample(ds, seed=1234), SamplerConfig(seed=1234)
        )
        model = train_model(
            "random_forest",
            train.rows,
            train.labels,
            seed=1234,
            overrides={"n_estimators": 30, "max_depth": 12},
        )
        assert float(np.mean(model.predict(test.rows) == test.labels)) > 0.9

        names = ds.schema.feature_names
        planted_idx = {names.index(f) for f in planted}
        rows, labels = train.rows[:40], train.labels[:40]
        background = select_background(train.rows, 16, seed=1234)

        vectors = {
            "shap": shap_global(shap_values(model, rows, background)),
            "lime": lime_global(
                model,
                rows,
                train.rows.std(axis=0),
                ExplainerConfig(
                    seed=derive_seed(1234, "lime"),
                    lime_samples_per_instance=500,
                    lime_instances=40,
                ),
            ),
            "permutation": permutation_importance(
                model, rows, labels, rounds=5, seed=derive_seed(1234, "perm")
            ),
        }
        for method, vec in vectors.items():
            ranks = to_ranks(vec.scores)
            top4 = {int(j) for j in np.argsort(ranks)[:4]}
            assert planted_idx <= top4, (
                f"{method} top-4 {sorted(names[j] for j in top4)} "
                f"misses a planted feature"
            )
        assert perf_counter() - t0 < 120.0


# -- 5: full run on a 10k-row synthetic sensor table ------------------------


def test_c5_end_to_end_synthetic_run(capsys, tmp_path):
    with verdict(capsys, 5, "end-to-end synthetic run"):
        t0 = perf_counter()
        planted = ("Speed", "Headway Time", "Plausibility", "Frequency")
        cfg = parse_config(
            {
                "seed": 42,
                "source": {
                    "kind": "synthetic_sensor",
                    "n_rows": 10000,
                    "anomaly_fraction": 0.5,
                    "violable_features": list(planted),
                },
                "models": {
                    "decision_tree": {"max_depth": 12},
                    "random_forest": {"n_estimators": 25, "max_depth": 12},
                    "mlp": {"epochs": 60},
                    "knn": {},
                    "svm_rbf": {},
                    "adaboost": {"n_estimators": 20, "base_max_depth": 8},
                },
                "independent_classifiers": {
                    "gbdt_catboost_like": {"n_estimators": 60, "learning_rate": 0.1},
                    "gbdt_lgbm_like": {"n_estimators": 60, "learning_rate": 0.1},
                    "logistic_regression": {},
                },
                "explainers": {
                    "background_size": 16,
                    "max_explained_instances": 24,
                    "lime_samples_per_instance": 500,
                    "permutation_rounds": 5,
                },
                "fusion": {"top_k": 5},
                "out_dir": str(tmp_path),
            }
        )
        run_pipeline(cfg)
        metrics = json.loads((tmp_path / "metrics.json").read_text())

        leveled = set(metrics["feature_sets"]["leveled"])
        assert set(planted) <= leveled, f"leveled top-5 {sorted(leveled)}"

        for classifier, sets in metrics["classifiers"].items():
            delta = abs(sets["leveled"]["accuracy"] - sets["all_features"]["accuracy"])
            assert delta <= 0.03, f"{classifier} accuracy gap {delta:.4f}"

        assert perf_counter() - t0 < 300.0


# -- 6: metrics against hand-worked confusion matrices ----------------------


def frac(a, b):
    return float(Fraction(a, b))


def fmean(*values):
    return float(np.mean(np.array(values, dtype=np.float64)))


def test_c6_metrics_hand_values(capsys):
    with verdict(capsys, 6, "metrics vs hand-computed values"):
        pos = lambda counts, roster=(0, 1): classification_metrics(
            ConfusionMatrix(roster=roster, counts=np.array(counts)),
            convention="positive_class",
            positive_class=roster[1],
        )
        agg = lambda counts, conv: classification_metrics(
            ConfusionMatrix(
                roster=tuple(range(len(counts))), counts=np.array(counts)
            ),
            convention=conv,
        )

        # rows are true classes, columns predicted; positive class last
        r = pos([[5, 1], [1, 3]])
        assert (r.accuracy, r.precision, r.recall, r.f1) == (
            frac(8, 10), frac(3, 4), frac(3, 4), frac(3, 4))

        r = pos([[4, 0], [0, 6]])
        assert (r.accuracy, r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0, 1.0)

        r = pos([[0, 3], [2, 0]])
        assert (r.accuracy, r.precision, r.recall, r.f1) == (0.0, 0.0, 0.0, 0.0)

        r = pos([[2, 0], [1, 0]])  # nothing predicted positive
        assert (r.accuracy, r.precision, r.recall, r.f1) == (
            frac(2, 3), 0.0, 0.0, 0.0)
        assert not r.per_class[1].precision_defined

        r = pos([[4, 1], [0, 0]])  # no positives in the data
        assert (r.accuracy, r.precision, r.recall, r.f1) == (
            frac(4, 5), 0.0, 0.0, 0.0)
        assert not r.per_class[1].recall_defined

        r = pos([[90, 10], [5, 95]])
        assert (r.accuracy, r.precision, r.recall, r.f1) == (
            frac(185, 200), frac(95, 105), frac(95, 100), frac(190, 205))

        r = pos([[3, 1], [2, 4]], roster=(2, 5))
        assert (r.accuracy, r.precision, r.recall, r.f1) == (
            frac(7, 10), frac(4, 5), frac(2, 3), frac(8, 11))

        r = pos([[0, 0], [0, 4]])
        assert (r.accuracy, r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0, 1.0)

        three = [[2, 0, 0], [1, 1, 0], [0, 0, 2]]
        r = agg(three, "macro")
        assert r.accuracy == frac(5, 6)
        assert r.precision == fmean(frac(2, 3), 1.0, 1.0)
        assert r.recall == fmean(1.0, frac(1, 2), 1.0)
        assert r.f1 == fmean(frac(4, 5), frac(2, 3), 1.0)

        r = agg(three, "micro")
        assert (r.accuracy, r.precision, r.recall, r.f1) == (
            frac(5, 6), frac(5, 6), frac(5, 6), frac(5, 6))

        four = [[3, 1, 0, 0], [0, 4, 0, 0], [1, 0, 2, 1], [0, 0, 0, 5]]
        r = agg(four, "macro")
        assert r.accuracy == frac(14, 17)
        assert r.precision == fmean(frac(3, 4), frac(4, 5), 1.0, frac(5, 6))
        assert r.recall == fmean(frac(3, 4), 1.0, frac(1, 2), 1.0)
        assert r.f1 == fmean(frac(3, 4), frac(8, 9), frac(2, 3), frac(10, 11))

        r = agg([[7]], "macro")
        assert (r.accuracy, r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0, 1.0)

        rng = np.random.default_rng(606)
        for _ in range(1000):
            k = int(rng.integers(2, 6))
            counts = rng.integers(0, 20, size=(k, k))
            if counts.sum() == 0:
                counts[0, 0] = 1
            cm = ConfusionMatrix(roster=tuple(range(k)), counts=counts)
            rep = classification_metrics(cm, convention="micro")
            assert rep.precision == rep.accuracy
            assert rep.recall == rep.accuracy
            assert rep.f1 == rep.accuracy


# -- 7: gradient correctness, simplex outputs, trainer determinism ----------

ALL_FAMILIES = (
    ("decision_tree", {}),
    ("random_forest", {"n_estimators": 10}),
    ("mlp", {"epochs": 5}),
    ("knn", {}),
    ("svm_rbf", {}),
    ("adaboost", {"n_estimators": 10}),
    ("gbdt_catboost_like", {"n_estimators": 15}),
    ("gbdt_lgbm_like", {"n_estimators": 15}),
    ("logistic_regression", {}),
)


def central_difference_gradient(fn, theta, eps=1e-6):
    grad = np.empty_like(theta)
    for i in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[i] += eps
        lo[i] -= eps
        grad[i] = (fn(hi) - fn(lo)) / (2.0 * eps)
    return grad


def test_c7_model_numerics(capsys):
    with verdict(capsys, 7, "model numerics and determinism"):
        rng = np.random.default_rng(909)

        # analytic gradient vs central differences, binary and 3-class
        for n_classes in (2, 3):
            p = 4
            X = rng.normal(size=(40, p))
            y = rng.integers(0, n_classes, size=40)
            y[:n_classes] = np.arange(n_classes)
            model = train_model(
                "mlp", X, y, seed=5, overrides={"epochs": 2, "hidden_units": 8}
            )
            theta = rng.normal(0.0, 0.5, size=model.params_.size)
            _, analytic = model.loss_and_grad(theta, X, y, None)
            numeric = central_difference_gradient(
                lambda t: model.loss_and_grad(t, X, y, None)[0], theta
            )
            rel = float(
                np.linalg.norm(analytic - numeric)
                / max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
            )
            assert rel <= 1e-4, f"{n_classes}-class gradient rel err {rel}"

        # every family emits rows on the probability simplex
        Xb = rng.normal(size=(100, 4))
        yb = (Xb[:, 0] - Xb[:, 1] > 0).astype(int)
        Xm = rng.normal(size=(100, 4))
        ym = np.argmax(Xm[:, :3], axis=1)
        probe = rng.normal(size=(50, 4))
        for family, overrides in ALL_FAMILIES:
            for X, y in ((Xb, yb), (Xm, ym)):
                model = train_model(family, X, y, seed=13, overrides=overrides)
                proba = model.predict_proba(np.vstack([X, probe]))
                assert proba.shape[1] == len(model.classes_)
                assert float(np.abs(proba.sum(axis=1) - 1.0).max()) <= 1e-9, family
                assert float(proba.min()) >= -1e-9, family
                assert float(proba.max()) <= 1.0 + 1e-9, family

        # identical seeds reproduce identical predictions on a 100-row probe
        for family, overrides in ALL_FAMILIES:
            a = train_model(family, Xb, yb, seed=7, overrides=overrides)
            b = train_model(family, Xb, yb, seed=7, overrides=overrides)
            assert np.array_equal(
                a.predict_proba(probe), b.predict_proba(probe)
            ), family


# -- 8: shipped reference metrics render but are never asserted against -----


def test_c8_reference_metrics_are_display_only(capsys):
    with verdict(capsys, 8, "reference metrics are display-only"):
        from xaifuse.evaluation import reference_metrics_markdown

        rows = load_reference_metrics()
        headline = {
            (r.dataset, r.classifier, r.method, r.metric): r.value for r in rows
        }
        # the headline cells ship verbatim in the fixture table
        assert headline[("veremi_binary", "catboost", "leveled", "acc")] == 0.82
        assert headline[("veremi_binary", "catboost", "leveled", "f1")] == 0.89

        md = reference_metrics_markdown()
        assert "asserts nothing" in md
        assert "### veremi_binary / catboost" in md
        assert "| acc | 0.82 | 0.82 | 0.82 | 0.82 |" in md
        # display-only by construction: nothing here compares these values
        # to any computed metric, and no other test does either.
