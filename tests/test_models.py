import numpy as np
import pytest

from xaifuse.models import (
    AdaBoost,
    DecisionTree,
    GradientBoosting,
    KnnClassifier,
    LogisticRegression,
    MlpClassifier,
    ModelFamily,
    RandomForest,
    SvmRbf,
    default_params,
    resolve_params,
)


# ---------------------------------------------------------------------------
# reference tree builder: plain recursion, direct per-candidate summation.
# Integer-valued inputs keep every partial sum exact, so the fast builder
# must reproduce this structure node for node.
# ---------------------------------------------------------------------------


class RefNode:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self):
        self.feature = -1
        self.threshold = 0.0
        self.left = None
        self.right = None
        self.value = None


def ref_build(X, y, w, criterion, max_depth, min_leaf, min_split, k, depth=0):
    node = RefNode()
    tw = w.sum()
    if criterion == "gini":
        tot = np.zeros(k)
        np.add.at(tot, y, w)
        parent_score = (tot**2).sum() / tw if tw > 0 else 0.0
        impurity = tw - parent_score
    else:
        tot = np.array([(w * y).sum()])
        parent_score = tot[0] ** 2 / tw if tw > 0 else 0.0
        impurity = (w * y**2).sum() - parent_score

    def leafify():
        if tw > 0:
            node.value = tot / tw
        else:
            node.value = np.zeros(k)
        return node

    n = len(y)
    if (
        depth >= max_depth
        or n < min_split
        or n < 2 * min_leaf
        or impurity <= max(tw, 1.0) * 1e-12
    ):
        return leafify()

    best = (-np.inf, -1, 0.0)
    for f in range(X.shape[1]):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        for i in range(n - 1):
            mid = (xs[i] + xs[i + 1]) / 2.0
            if not (xs[i] < mid < xs[i + 1]):
                continue
            if i + 1 < min_leaf or n - i - 1 < min_leaf:
                continue
            lmask = X[:, f] <= mid
            lw, rw = w[lmask].sum(), w[~lmask].sum()
            if criterion == "gini":
                ls = np.zeros(k)
                np.add.at(ls, y[lmask], w[lmask])
                rs = tot - ls
                sl = (ls**2).sum() / lw if lw > 0 else 0.0
                sr = (rs**2).sum() / rw if rw > 0 else 0.0
            else:
                lsum = (w[lmask] * y[lmask]).sum()
                rsum = tot[0] - lsum
                sl = lsum**2 / lw if lw > 0 else 0.0
                sr = rsum**2 / rw if rw > 0 else 0.0
            gain = sl + sr - parent_score
            if gain > best[0]:
                best = (gain, f, mid)
    gain, f, thr = best
    if f < 0 or gain < -max(tw, 1.0) * 1e-12:
        return leafify()
    node.feature, node.threshold = f, thr
    lmask = X[:, f] <= thr
    node.left = ref_build(
        X[lmask], y[lmask], w[lmask], criterion, max_depth, min_leaf, min_split, k, depth + 1
    )
    node.right = ref_build(
        X[~lmask], y[~lmask], w[~lmask], criterion, max_depth, min_leaf, min_split, k, depth + 1
    )
    return node


def ref_predict_value(node, row):
    while node.feature >= 0:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.value


class TestDecisionTreeAgainstReference:
    @pytest.mark.parametrize("seed", range(12))
    def test_gini_structure_matches(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(15, 80))
        p = int(rng.integers(1, 5))
        X = rng.integers(0, 8, size=(n, p)).astype(float)
        y = rng.integers(0, 3, size=n)
        w = rng.integers(1, 4, size=n).astype(float)
        min_leaf = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 7))
        tree = DecisionTree(
            criterion="gini", max_depth=depth, min_samples_leaf=min_leaf
        ).fit(X, y, sample_weight=w)
        k = len(np.unique(y))
        ref = ref_build(X, y, w, "gini", depth, min_leaf, 2, k)
        grid = rng.integers(-2, 10, size=(200, p)).astype(float)
        got = tree.predict_proba(grid)
        want = np.array([ref_predict_value(ref, row) for row in grid])
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_mse_predictions_match(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(15, 60))
        X = rng.integers(0, 6, size=(n, 3)).astype(float)
        y = rng.integers(-5, 6, size=n).astype(float)
        w = np.ones(n)
        depth = int(rng.integers(1, 6))
        tree = DecisionTree(criterion="mse", max_depth=depth, min_samples_leaf=2).fit(
            X, y
        )
        ref = ref_build(X, y.astype(int), w, "mse", depth, 2, 2, 1)
        grid = rng.integers(-1, 7, size=(150, 3)).astype(float)
        got = tree.predict(grid)
        want = np.array([ref_predict_value(ref, row)[0] for row in grid])
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestDecisionTreeBehavior:
    def test_xor_memorized(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        tree = DecisionTree(max_depth=4).fit(X, y)
        np.testing.assert_array_equal(tree.predict(X), y)

    def test_memorizes_unique_rows(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(120, 4))
        y = rng.integers(0, 4, 120)
        tree = DecisionTree(max_depth=50, min_samples_leaf=1).fit(X, y)
        assert (tree.predict(X) == y).all()

    def test_duplicate_row_equals_double_weight(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, 40)
        X_dup = np.vstack([X, X[:10]])
        y_dup = np.concatenate([y, y[:10]])
        w = np.ones(40)
        w[:10] = 2.0
        a = DecisionTree(max_depth=6).fit(X_dup, y_dup)
        b = DecisionTree(max_depth=6).fit(X, y, sample_weight=w)
        grid = rng.normal(size=(100, 3))
        np.testing.assert_allclose(a.predict_proba(grid), b.predict_proba(grid))

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 3))
        y = rng.integers(0, 2, 200)
        tree = DecisionTree(max_depth=50, min_samples_leaf=7).fit(X, y)
        leaves = tree.feature_ == -1
        assert tree.n_node_samples_[leaves].min() >= 7

    def test_max_depth_zero_is_prior(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 0, 1])
        tree = DecisionTree(max_depth=0).fit(X, y)
        np.testing.assert_allclose(tree.predict_proba(X), [[0.75, 0.25]] * 4)

    def test_classes_preserved(self):
        X = np.arange(12, dtype=float).reshape(6, 2)
        y = np.array([16, 0, 8, 0, 16, 8])
        tree = DecisionTree(max_depth=5).fit(X, y)
        assert set(tree.predict(X)) <= {0, 8, 16}
        np.testing.assert_array_equal(tree.classes_, [0, 8, 16])

    def test_refit_identical(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(150, 4))
        y = rng.integers(0, 3, 150)
        a = DecisionTree(max_depth=10).fit(X, y)
        b = DecisionTree(max_depth=10).fit(X, y)
        np.testing.assert_array_equal(a.feature_, b.feature_)
        np.testing.assert_array_equal(a.threshold_, b.threshold_)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            DecisionTree(criterion="entropy")
        with pytest.raises(ValueError):
            DecisionTree(min_samples_leaf=0)


class TestRandomForest:
    def test_single_tree_no_bootstrap_equals_tree(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(100, 4))
        y = rng.integers(0, 2, 100)
        forest = RandomForest(
            n_estimators=1, bootstrap=False, max_depth=8, min_samples_leaf=2
        ).fit(X, y)
        tree = DecisionTree(max_depth=8, min_samples_leaf=2).fit(X, y)
        grid = rng.normal(size=(50, 4))
        np.testing.assert_array_equal(
            forest.predict_proba(grid), tree.predict_proba(grid)
        )

    def test_seed_determinism_and_sensitivity(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(150, 3))
        y = (X[:, 0] > 0).astype(int)
        a = RandomForest(n_estimators=12, seed=1).fit(X, y).predict_proba(X)
        b = RandomForest(n_estimators=12, seed=1).fit(X, y).predict_proba(X)
        c = RandomForest(n_estimators=12, seed=2).fit(X, y).predict_proba(X)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rare_class_missing_from_bootstrap(self):
        # class 2 has a single row; some bootstrap draws will miss it
        X = np.vstack([np.zeros((20, 2)), np.ones((20, 2)), [[5.0, 5.0]]])
        y = np.array([0] * 20 + [1] * 20 + [2])
        forest = RandomForest(n_estimators=30, seed=0).fit(X, y)
        proba = forest.predict_proba(X)
        assert proba.shape == (41, 3)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)


class TestKnn:
    def test_k1_memorizes(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 3, 60)
        model = KnnClassifier(n_neighbors=1).fit(X, y)
        np.testing.assert_array_equal(model.predict(X), y)

    def test_matches_bruteforce_vote(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(80, 4))
        y = rng.integers(0, 3, 80)
        q = rng.normal(size=(25, 4))
        model = KnnClassifier(n_neighbors=5).fit(X, y)
        got = model.predict_proba(q)
        d = ((q[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        for i in range(len(q)):
            near = np.argsort(d[i], kind="stable")[:5]
            votes = np.bincount(y[near], minlength=3) / 5.0
            np.testing.assert_allclose(got[i], votes)

    def test_chunking_invariant(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(50, 3))
        y = rng.integers(0, 2, 50)
        q = rng.normal(size=(40, 3))
        a = KnnClassifier(n_neighbors=3, chunk_size=7).fit(X, y).predict_proba(q)
        b = KnnClassifier(n_neighbors=3, chunk_size=1000).fit(X, y).predict_proba(q)
        np.testing.assert_array_equal(a, b)

    def test_minkowski_p1(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0], [0.9, 0.9]])
        y = np.array([0, 1, 1])
        # under L1 the third row is 1.8 from origin, closer than row 2
        model = KnnClassifier(n_neighbors=1, p=1.0).fit(X, y)
        assert model.predict([[0.5, 0.5]])[0] == 1

    def test_k_larger_than_train_rejected(self):
        with pytest.raises(ValueError):
            KnnClassifier(n_neighbors=5).fit(np.zeros((3, 2)), np.array([0, 1, 0]))


class TestSvm:
    def test_separable_binary(self):
        rng = np.random.default_rng(14)
        X = np.vstack([rng.normal(-2, 0.4, (40, 2)), rng.normal(2, 0.4, (40, 2))])
        y = np.array([0] * 40 + [1] * 40)
        model = SvmRbf().fit(X, y)
        assert (model.predict(X) == y).mean() == 1.0
        proba = model.predict_proba(X)
        assert proba[:40, 1].mean() < 0.5 < proba[40:, 1].mean()

    def test_decision_sign_matches_predictions(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(120, 3))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        model = SvmRbf().fit(X, y)
        scores = model.decision_function(X)
        proba = model.predict_proba(X)
        # platt sigmoid is monotone in the decision value
        order = np.argsort(scores)
        diffs = np.diff(proba[order, 1])
        assert (diffs >= -1e-12).all()

    def test_gamma_auto_is_one_over_p(self):
        X = np.random.default_rng(16).normal(size=(30, 5))
        y = (X[:, 0] > 0).astype(int)
        model = SvmRbf().fit(X, y)
        assert model.gamma_ == pytest.approx(0.2)

    def test_multiclass_ovr(self):
        rng = np.random.default_rng(17)
        centers = np.array([[0, 0], [4, 0], [0, 4]])
        X = np.vstack([rng.normal(c, 0.3, (30, 2)) for c in centers])
        y = np.repeat([0, 1, 2], 30)
        model = SvmRbf().fit(X, y)
        assert (model.predict(X) == y).mean() > 0.95
        assert model.predict_proba(X).shape == (90, 3)

    def test_deterministic(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(int)
        a = SvmRbf().fit(X, y).decision_function(X)
        b = SvmRbf().fit(X, y).decision_function(X)
        np.testing.assert_array_equal(a, b)


class TestAdaBoost:
    def test_perfect_base_stops_at_one_tree(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(80, 3))
        y = rng.integers(0, 2, 80)
        model = AdaBoost(n_estimators=50, base_max_depth=50).fit(X, y)
        assert len(model.trees_) == 1
        tree = DecisionTree(max_depth=50, min_samples_leaf=1).fit(X, y)
        np.testing.assert_array_equal(model.predict(X), tree.predict(X))

    def test_stumps_improve_over_rounds(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(300, 4))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        weak = AdaBoost(n_estimators=1, base_max_depth=1).fit(X, y)
        strong = AdaBoost(n_estimators=60, base_max_depth=1).fit(X, y)
        acc_weak = (weak.predict(X) == y).mean()
        acc_strong = (strong.predict(X) == y).mean()
        assert acc_strong > acc_weak + 0.2

    def test_multiclass(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(90, 2))
        y = rng.integers(0, 3, 90)
        model = AdaBoost(n_estimators=5, base_max_depth=3).fit(X, y)
        proba = model.predict_proba(X)
        assert proba.shape == (90, 3)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)


class TestGradientBoosting:
    def test_zero_estimators_returns_prior(self):
        X = np.random.default_rng(22).normal(size=(50, 2))
        y = np.array([0] * 30 + [1] * 20)
        model = GradientBoosting(n_estimators=0).fit(X, y)
        np.testing.assert_allclose(model.predict_proba(X)[:, 1], 0.4, atol=1e-12)

    def test_zero_learning_rate_stays_at_prior(self):
        X = np.random.default_rng(23).normal(size=(50, 2))
        y = (X[:, 0] > 0).astype(int)
        model = GradientBoosting(n_estimators=10, learning_rate=0.0).fit(X, y)
        p = model.predict_proba(X)[:, 1]
        np.testing.assert_allclose(p, p[0])

    def test_fits_signal(self):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(400, 4))
        y = (X[:, 1] - X[:, 3] > 0).astype(int)
        model = GradientBoosting(n_estimators=60, learning_rate=0.2, max_depth=3).fit(
            X, y
        )
        assert (model.predict(X) == y).mean() > 0.97

    def test_multiclass(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(150, 3))
        y = np.where(X[:, 0] > 0.5, 2, np.where(X[:, 1] > 0, 1, 0))
        model = GradientBoosting(n_estimators=30, learning_rate=0.2, max_depth=3).fit(
            X, y
        )
        assert (model.predict(X) == y).mean() > 0.9
        np.testing.assert_allclose(model.predict_proba(X).sum(axis=1), 1.0, atol=1e-9)


class TestLogisticRegression:
    def test_separable(self):
        rng = np.random.default_rng(26)
        X = np.vstack([rng.normal(-2, 0.5, (50, 2)), rng.normal(2, 0.5, (50, 2))])
        y = np.array([0] * 50 + [1] * 50)
        model = LogisticRegression().fit(X, y)
        assert (model.predict(X) == y).mean() == 1.0

    def test_gradient_vanishes_at_optimum(self):
        # penalized log-likelihood gradient must be ~0 at the fitted weights
        rng = np.random.default_rng(27)
        X = rng.normal(size=(200, 3))
        y = (X @ np.array([1.0, -2.0, 0.5]) + 0.3 * rng.normal(size=200) > 0).astype(
            int
        )
        model = LogisticRegression(c=1.0, class_weight=None).fit(X, y)
        beta = np.concatenate([model.coef_[0], model.intercept_])
        xb = np.column_stack([X, np.ones(len(X))])
        mu = 1.0 / (1.0 + np.exp(-(xb @ beta)))
        grad = xb.T @ (mu - y)
        grad[:3] += 1.0 * model.coef_[0]
        assert np.abs(grad).max() < 1e-6

    def test_balanced_weights_recenter_imbalanced_data(self):
        rng = np.random.default_rng(28)
        # overlapping classes, 10:1 imbalance
        X = np.vstack([rng.normal(-0.3, 1.0, (500, 1)), rng.normal(0.3, 1.0, (50, 1))])
        y = np.array([0] * 500 + [1] * 50)
        plain = LogisticRegression(class_weight=None).fit(X, y)
        balanced = LogisticRegression(class_weight="balanced").fit(X, y)
        # balancing must raise the minority share of predictions
        assert balanced.predict(X).mean() > plain.predict(X).mean()

    def test_multiclass_rows_sum_to_one(self):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(90, 3))
        y = rng.integers(0, 3, 90)
        model = LogisticRegression().fit(X, y)
        proba = model.predict_proba(X)
        assert proba.shape == (90, 3)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)


class TestMlp:
    def make_fitted(self, n=100, p=4, seed=30):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        y = (X[:, 0] > 0).astype(int)
        model = MlpClassifier(seed=3).fit(X, y)
        return model, X, y

    def test_gradient_matches_finite_differences(self):
        model, X, y = self.make_fitted()
        yi = np.searchsorted(model.classes_, y)
        flat = model.params_.copy()
        _, grad = model.loss_and_grad(flat, X, yi)
        rng = np.random.default_rng(31)
        eps = 1e-6
        for idx in rng.choice(len(flat), size=25, replace=False):
            bump = np.zeros_like(flat)
            bump[idx] = eps
            lp, _ = model.loss_and_grad(flat + bump, X, yi)
            lm, _ = model.loss_and_grad(flat - bump, X, yi)
            fd = (lp - lm) / (2 * eps)
            denom = max(abs(fd), abs(grad[idx]), 1e-8)
            assert abs(fd - grad[idx]) / denom < 1e-4

    def test_gradient_multiclass(self):
        rng = np.random.default_rng(32)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 3, 60)
        model = MlpClassifier(seed=1, epochs=1).fit(X, y)
        yi = np.searchsorted(model.classes_, y)
        flat = model.params_.copy()
        _, grad = model.loss_and_grad(flat, X, yi)
        eps = 1e-6
        for idx in rng.choice(len(flat), size=15, replace=False):
            bump = np.zeros_like(flat)
            bump[idx] = eps
            lp, _ = model.loss_and_grad(flat + bump, X, yi)
            lm, _ = model.loss_and_grad(flat - bump, X, yi)
            fd = (lp - lm) / (2 * eps)
            denom = max(abs(fd), abs(grad[idx]), 1e-8)
            assert abs(fd - grad[idx]) / denom < 1e-4

    def test_probabilities_on_simplex(self):
        model, X, _ = self.make_fitted()
        proba = model.predict_proba(X)
        assert (proba >= 0).all()
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_training_deterministic(self):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(100, 4))
        y = (X[:, 1] > 0).astype(int)
        a = MlpClassifier(seed=9).fit(X, y).predict_proba(X)
        b = MlpClassifier(seed=9).fit(X, y).predict_proba(X)
        np.testing.assert_array_equal(a, b)

    def test_learns_linear_signal(self):
        rng = np.random.default_rng(34)
        X = rng.normal(size=(2000, 3))
        y = (X[:, 0] > 0).astype(int)
        model = MlpClassifier(seed=4, epochs=30).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.9


class TestDispatchAndSerialization:
    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown hyperparameters"):
            resolve_params(ModelFamily.KNN, {"bogus": 3})

    def test_gbdt_presets_differ_in_depth(self):
        lgbm = default_params(ModelFamily.GBDT_LGBM_LIKE)
        cat = default_params(ModelFamily.GBDT_CATBOOST_LIKE)
        assert lgbm.max_depth == 10
        assert cat.max_depth == 6
        assert lgbm.learning_rate == cat.learning_rate == 0.03

    def test_documented_defaults(self):
        tree = default_params(ModelFamily.DECISION_TREE)
        assert (tree.max_depth, tree.min_samples_leaf) == (50, 4)
        forest = default_params(ModelFamily.RANDOM_FOREST)
        assert (forest.n_estimators, forest.min_samples_leaf) == (100, 1)
        ada = default_params(ModelFamily.ADABOOST)
        assert (ada.n_estimators, ada.base_max_depth) == (200, 50)
        knn = default_params(ModelFamily.KNN)
        assert (knn.n_neighbors, knn.p) == (5, 2.0)
        mlp = default_params(ModelFamily.MLP)
        assert (mlp.hidden_units, mlp.epochs, mlp.batch_size) == (16, 5, 100)
        lr = default_params(ModelFamily.LOGISTIC_REGRESSION)
        assert (lr.c, lr.max_iter, lr.class_weight) == (1.0, 1000, "balanced")
