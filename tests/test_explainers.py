import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xaifuse import explainers
from xaifuse.explainers import (
    ExplainError,
    ExplainerConfig,
    ImportanceVector,
    lime_explain_instance,
    lime_global,
    permutation_importance,
    select_background,
    shap_global,
    shap_values,
    write_importance_csv,
)
from xaifuse.fusion import to_ranks
from xaifuse.models import (
    AdaBoost,
    DecisionTree,
    KnnClassifier,
    MlpClassifier,
    RandomForest,
)


class FnModel:
    """Binary stub whose positive-class probability is an arbitrary function."""

    classes_ = np.array([0, 1])

    def __init__(self, fn):
        self.fn = fn

    def predict_proba(self, X):
        f = self.fn(np.asarray(X, dtype=np.float64))
        return np.column_stack([1.0 - f, f])

    def predict(self, X):
        return (self.fn(np.asarray(X, dtype=np.float64)) >= 0.5).astype(int)


def permutation_definition_shapley(value_fn, x, background):
    """Independent oracle: average marginal contribution over all p!
    feature orderings, with v(S) = mean over background of the model on
    (x restricted to S, background elsewhere)."""
    p = len(x)
    cache: dict[frozenset, float] = {}

    def v(subset: frozenset) -> float:
        if subset not in cache:
            mask = np.zeros(p, dtype=bool)
            mask[list(subset)] = True
            z = np.where(mask, x, background)
            cache[subset] = float(value_fn(z).mean())
        return cache[subset]

    phi = np.zeros(p)
    orderings = list(itertools.permutations(range(p)))
    for order in orderings:
        acc: frozenset = frozenset()
        for j in order:
            with_j = acc | {j}
            phi[j] += v(frozenset(with_j)) - v(acc)
            acc = frozenset(with_j)
    return phi / len(orderings)


def output_columns(model) -> list[int]:
    k = len(model.classes_)
    return [1] if k == 2 else list(range(k))


def enumerated_shap(model, instances, background):
    """Reference: score every one of the 2^p coalitions for every background
    row, average, then take each feature's weighted marginal contributions;
    (n, n_out, p)."""
    X = np.atleast_2d(np.asarray(instances, dtype=np.float64))
    n, p = X.shape
    cols = output_columns(model)
    masks = np.arange(1 << p)
    bits = ((masks[:, None] >> np.arange(p)) & 1).astype(bool)
    size = bits.sum(axis=1)
    fact = [math.factorial(i) for i in range(p + 1)]
    weight = np.array([fact[s] * fact[p - s - 1] / fact[p] for s in range(p)])
    values = np.empty((n, len(cols), p))
    for i in range(n):
        z = np.where(bits[:, None, :], X[i], background[None, :, :])
        v = model.predict_proba(z.reshape(-1, p))[:, cols]
        v = v.reshape(len(masks), len(background), len(cols)).mean(axis=1)
        for j in range(p):
            lo = masks[~bits[:, j]]
            values[i, :, j] = weight[size[lo]] @ (v[lo | (1 << j)] - v[lo])
    return values


def assert_matches_oracle(model, instances, background, values):
    for out, col in enumerate(output_columns(model)):
        for i, x in enumerate(instances):
            oracle = permutation_definition_shapley(
                lambda z: model.predict_proba(z)[:, col], x, background
            )
            np.testing.assert_allclose(values[i, out], oracle, rtol=0, atol=1e-9)


def split_features(model) -> set[int]:
    trees = getattr(model, "trees_", [model])
    return {int(f) for t in trees for f in t.feature_ if f >= 0}


class CountingFn(FnModel):
    """FnModel that records the size of every predict_proba call."""

    def __init__(self, fn):
        super().__init__(fn)
        self.calls: list[int] = []

    def predict_proba(self, X):
        self.calls.append(len(X))
        return super().predict_proba(X)


class TestShapExamples:
    def test_linearity_and_dummy(self):
        model = FnModel(lambda z: 2.0 * z[:, 0] + 0.0 * z[:, 1])
        background = np.zeros((1, 2))
        res = shap_values(model, np.array([[1.0, 1.0]]), background)
        np.testing.assert_allclose(res.values[0, 0], [2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(res.base_values[0, 0], 0.0, atol=1e-12)

    def test_symmetry(self):
        model = FnModel(lambda z: z[:, 0] + z[:, 1])
        background = np.zeros((1, 2))
        res = shap_values(model, np.array([[1.0, 1.0]]), background)
        np.testing.assert_allclose(res.values[0, 0], [1.0, 1.0], atol=1e-12)

    def test_dummy_feature_exactly_zero(self):
        # feature 2 never read by the function
        model = FnModel(lambda z: 0.3 * z[:, 0] + 0.1 * z[:, 1] ** 2)
        rng = np.random.default_rng(0)
        background = rng.normal(size=(20, 3))
        res = shap_values(model, rng.normal(size=(4, 3)), background)
        np.testing.assert_array_equal(res.values[:, :, 2], 0.0)

    def test_symmetric_features_equal_phi(self):
        model = FnModel(lambda z: np.tanh(z[:, 0] + z[:, 1]) * 0.5 + 0.5)
        background = np.zeros((5, 2))
        x = np.array([[0.7, 0.7]])
        res = shap_values(model, x, background)
        assert abs(res.values[0, 0, 0] - res.values[0, 0, 1]) < 1e-9


class TestShapAgainstPermutationOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_tree_models_match_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 5))
        X = rng.normal(size=(60, p))
        y = rng.integers(0, 2, 60)
        tree = DecisionTree(max_depth=4).fit(X, y)
        background = rng.normal(size=(8, p))
        instances = rng.normal(size=(5, p))
        res = shap_values(tree, instances, background)
        for i in range(5):
            oracle = permutation_definition_shapley(
                lambda z: tree.predict_proba(z)[:, 1], instances[i], background
            )
            np.testing.assert_allclose(res.values[i, 0], oracle, atol=1e-9)

    def test_nonlinear_stub_matches_oracle(self):
        model = FnModel(
            lambda z: 1.0 / (1.0 + np.exp(-(z[:, 0] * z[:, 1] - z[:, 2])))
        )
        rng = np.random.default_rng(42)
        background = rng.normal(size=(6, 3))
        x = rng.normal(size=3)
        res = shap_values(model, x[None, :], background)
        oracle = permutation_definition_shapley(
            lambda z: model.predict_proba(z)[:, 1], x, background
        )
        np.testing.assert_allclose(res.values[0, 0], oracle, atol=1e-9)


class TestShapEfficiency:
    @pytest.mark.parametrize("p", [6, 10])
    def test_attributions_telescope_to_output(self, p):
        rng = np.random.default_rng(p)
        X = rng.normal(size=(80, p))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        model = RandomForest(n_estimators=5, max_depth=6, seed=1).fit(X, y)
        background = rng.normal(size=(12, p))
        instances = rng.normal(size=(3, p))
        res = shap_values(model, instances, background)
        total = res.values.sum(axis=2) + res.base_values
        np.testing.assert_allclose(total, res.outputs, atol=1e-9)
        # base value really is the mean background output
        expected_base = model.predict_proba(background)[:, 1].mean()
        np.testing.assert_allclose(res.base_values[:, 0], expected_base, atol=1e-9)

    @pytest.mark.parametrize("family", ["random_forest", "decision_tree", "adaboost"])
    def test_more_features_than_the_player_cap(self, family):
        # TreeSHAP takes any feature count; a three-round depth-2 AdaBoost
        # reads at most 9 of the 24 features, so no pair has more players
        rng = np.random.default_rng(24)
        X = rng.normal(size=(200, 24))
        y = (X[:, 0] + X[:, 5] - X[:, 17] > 0).astype(int)
        model = {
            "random_forest": lambda: RandomForest(n_estimators=20, max_depth=6, seed=1),
            "decision_tree": lambda: DecisionTree(max_depth=6),
            "adaboost": lambda: AdaBoost(n_estimators=3, base_max_depth=2),
        }[family]().fit(X, y)
        res = shap_values(model, X[:20], X[100:120])
        gap = np.abs(res.values.sum(axis=2) + res.base_values - res.outputs)
        assert gap.max() <= 1e-9

    def test_multiclass_one_slice_per_class(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(90, 4))
        y = rng.integers(0, 3, 90)
        tree = DecisionTree(max_depth=4).fit(X, y)
        background = rng.normal(size=(10, 4))
        instances = rng.normal(size=(4, 4))
        res = shap_values(tree, instances, background)
        assert res.values.shape == (4, 3, 4)
        total = res.values.sum(axis=2) + res.base_values
        np.testing.assert_allclose(total, res.outputs, atol=1e-9)


class TestShapErrors:
    def test_feature_cap(self):
        # the model reads every feature and the rows differ on all 17, so
        # the pair has 17 players
        model = FnModel(lambda z: z[:, 0])
        with pytest.raises(ExplainError, match="cap"):
            shap_values(model, np.ones((1, 17)), np.zeros((1, 17)))

    def test_empty_background(self):
        model = FnModel(lambda z: z[:, 0])
        with pytest.raises(ExplainError, match="background"):
            shap_values(model, np.zeros((1, 2)), np.zeros((0, 2)))


def on_thresholds(model, rng, n, p):
    """Rows whose values are drawn from the model's split thresholds on each
    feature plus a few grid values, so many sit exactly on a threshold."""
    trees = getattr(model, "trees_", [model])
    rows = np.empty((n, p))
    for j in range(p):
        cuts = [t.threshold_[k] for t in trees for k in np.flatnonzero(t.feature_ == j)]
        rows[:, j] = rng.choice(np.array(cuts + [-0.5, 0.0, 0.5, 1.0, 2.0]), size=n)
    return rows


class TestTreeShap:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(2, 5),
        n_classes=st.sampled_from([2, 3]),
        forest=st.booleans(),
        depth=st.integers(1, 4),
    )
    def test_matches_enumeration_and_oracle(self, seed, p, n_classes, forest, depth):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, size=(40, p)) / 2.0
        X[:, p - 1] = 0.0  # no tree can split on it; explained rows still vary
        y = rng.integers(0, n_classes, 40)
        y[:n_classes] = np.arange(n_classes)
        if forest:
            model = RandomForest(n_estimators=4, max_depth=depth, seed=seed).fit(X, y)
        else:
            model = DecisionTree(max_depth=depth).fit(X, y)
        instances = on_thresholds(model, rng, 3, p)
        background = on_thresholds(model, rng, 5, p)
        res = shap_values(model, instances, background)
        want = enumerated_shap(model, instances, background)
        np.testing.assert_allclose(res.values, want, rtol=0, atol=1e-12)
        unsplit = sorted(set(range(p)) - split_features(model))
        assert unsplit and np.all(res.values[:, :, unsplit] == 0.0)
        if p <= 4:
            assert_matches_oracle(model, instances, background, res.values)

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_forest_with_a_tree_missing_a_class(self, n_classes):
        rng = np.random.default_rng(n_classes)
        X = rng.normal(size=(30, 3))
        y = rng.integers(1, n_classes, 30)
        y[0] = 0  # a single row of the first class, so columns must be realigned
        forest = RandomForest(n_estimators=6, max_depth=3, seed=2).fit(X, y)
        assert any(len(t.classes_) < n_classes for t in forest.trees_)
        instances = on_thresholds(forest, rng, 3, 3)
        background = np.vstack([X[:1], on_thresholds(forest, rng, 4, 3)])
        res = shap_values(forest, instances, background)
        want = enumerated_shap(forest, instances, background)
        np.testing.assert_allclose(res.values, want, rtol=0, atol=1e-12)
        assert_matches_oracle(forest, instances, background, res.values)

    def test_scores_no_coalition_rows(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 4))
        forest = RandomForest(n_estimators=3, max_depth=3, seed=1).fit(
            X, (X[:, 0] > 0).astype(int)
        )
        seen = []
        inner = forest.predict_proba
        forest.predict_proba = lambda z: seen.append(len(z)) or inner(z)
        res = shap_values(forest, X[:5], X[10:17])
        assert sorted(seen) == [5, 7] and res.model_rows == 12


GRID = np.array([-1.0, 0.0, 0.5, 2.0])


class TestReducedEnumeration:
    """Models without a tree path: only features that the model reads and
    on which the instance and background row differ are enumerated."""

    def check(self, model, instances, background, dummies):
        res = shap_values(model, instances, background)
        assert_matches_oracle(model, instances, background, res.values)
        assert np.all(res.values[:, :, dummies] == 0.0)
        cols = output_columns(model)
        np.testing.assert_array_equal(res.outputs, model.predict_proba(instances)[:, cols])
        base = model.predict_proba(background)[:, cols].mean(axis=0)
        np.testing.assert_array_equal(res.base_values, np.tile(base, (len(instances), 1)))
        return res

    @staticmethod
    def players(instances, background, read):
        return ((instances[:, None, :] != background[None, :, :]) & read).sum(axis=2)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_function_ignoring_a_column(self, seed):
        rng = np.random.default_rng(seed)
        model = CountingFn(
            lambda z: 0.5 + 0.1 * z[:, 0] * z[:, 1] - 0.05 * z[:, 3] + 0.02 * z[:, 1] ** 2
        )
        instances = rng.choice(GRID, size=(3, 4))
        background = rng.choice(GRID, size=(5, 4))
        res = self.check(model, instances, background, dummies=[2])
        # a function reads every column, so a differing column 2 is still
        # scored, and still gets exactly 0
        m = self.players(instances, background, np.ones(4, dtype=bool))
        expected = 3 + 5 + int(sum(2**k for k in m.ravel() if k))
        model.calls.clear()
        shap_values(model, instances, background)
        assert res.model_rows == expected == sum(model.calls)

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_multi_tree_adaboost(self, n_classes):
        rng = np.random.default_rng(10 + n_classes)
        X = rng.choice(GRID, size=(120, 5))
        X[:, 4] = 0.5  # constant in training, so no tree splits on it
        noisy = X[:, 0] + X[:, 1] - X[:, 2] + rng.normal(0, 0.8, 120)
        y = np.digitize(noisy, [0.3] if n_classes == 2 else [-0.5, 1.0])
        model = AdaBoost(n_estimators=4, base_max_depth=2).fit(X, y)
        assert len(model.trees_) > 1
        instances = rng.choice(GRID, size=(3, 5))
        background = rng.choice(GRID, size=(4, 5))
        unsplit = sorted(set(range(5)) - split_features(model))
        assert 4 in unsplit
        res = self.check(model, instances, background, dummies=unsplit)
        read = np.isin(np.arange(5), sorted(split_features(model)))
        m = self.players(instances, background, read)
        assert res.model_rows == 3 + 4 + int(sum(2**k for k in m.ravel() if k))

    def test_knn_with_a_constant_column(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(80, 4))
        X[:, 1] = 0.5
        model = KnnClassifier(n_neighbors=5).fit(X, (X[:, 0] + X[:, 2] > 0).astype(int))
        instances = rng.choice(GRID, size=(3, 4))
        background = rng.choice(GRID, size=(6, 4))
        instances[:, 1] = background[:, 1] = 0.5
        res = self.check(model, instances, background, dummies=[1])
        assert res.model_rows < 3 + 6 + 3 * 6 * 2**3

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_mlp_coalition_path(self, n_classes):
        rng = np.random.default_rng(20 + n_classes)
        X = rng.choice(GRID, size=(150, 5))
        noisy = X[:, 0] - X[:, 1] * X[:, 3] + rng.normal(0, 0.5, 150)
        y = np.digitize(noisy, [0.0] if n_classes == 2 else [-0.5, 0.5])
        model = MlpClassifier(hidden_units=6, epochs=20, seed=2).fit(X, y)
        instances = rng.choice(GRID, size=(3, 5))
        background = rng.choice(GRID, size=(4, 5))
        instances[:, 2] = background[:, 2] = 0.5  # never a player
        res = self.check(model, instances, background, dummies=[2])
        m = self.players(instances, background, np.ones(5, dtype=bool))
        assert res.model_rows == 3 + 4 + int(sum(2**k for k in m.ravel() if k))

    def test_mlp_scores_no_hybrid_rows(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(80, 6))
        model = MlpClassifier(hidden_units=5, epochs=3, seed=1).fit(X, (X[:, 0] > 0).astype(int))
        seen = []
        inner = model.predict_proba
        model.predict_proba = lambda z: seen.append(len(z)) or inner(z)
        res = shap_values(model, X[:5], X[10:17])
        assert sorted(seen) == [5, 7]
        assert res.model_rows == 5 + 7 + 5 * 7 * 2**6


class TestRowBudget:
    def test_blocks_do_not_change_attributions(self, monkeypatch):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(120, 5))
        y = (X[:, 0] - X[:, 3] > 0).astype(int)
        models = [
            RandomForest(n_estimators=3, max_depth=3, seed=1).fit(X, y),
            KnnClassifier(n_neighbors=5).fit(X, y),
            AdaBoost(n_estimators=3, base_max_depth=2).fit(X, y),
            MlpClassifier(hidden_units=8, epochs=5, seed=1).fit(X, y),
            MlpClassifier(hidden_units=8, epochs=5, seed=1).fit(X, y + (X[:, 1] > 1)),
            CountingFn(lambda z: 0.5 + 0.1 * z[:, 0] * z[:, 4] - 0.2 * z[:, 2]),
        ]
        instances, background = X[:4], X[50:56].copy()
        # three pairs of two players, which the default budget scores together
        background[:3, 1:4] = instances[0, 1:4]
        before = [shap_values(m, instances, background) for m in models]
        models[-1].calls.clear()
        monkeypatch.setattr(explainers, "ROW_BUDGET", 7)
        after = [shap_values(m, instances, background) for m in models]
        for model, a, b in zip(models, before, after):
            if isinstance(model, MlpClassifier):
                # a row's coalition output depends on its index only
                np.testing.assert_array_equal(b.values, a.values)
            else:
                np.testing.assert_allclose(b.values, a.values, rtol=0, atol=1e-12)
            assert a.model_rows == b.model_rows
        # past the instances and background, every call is one block
        assert max(models[-1].calls[2:]) <= 7 < 2**5


class TestShapGlobal:
    def test_mean_absolute_value(self):
        m = shap_values(
            FnModel(lambda z: z[:, 0]), np.zeros((1, 2)), np.zeros((1, 2))
        )
        object.__setattr__(m, "values", np.array([[[1.0, -2.0]], [[3.0, 0.0]]]))
        iv = shap_global(m, model_tag="t")
        np.testing.assert_allclose(iv.scores, [2.0, 1.0])

    def test_all_zero(self):
        model = FnModel(lambda z: np.full(len(z), 0.5))
        res = shap_values(model, np.ones((3, 2)), np.zeros((2, 2)))
        iv = shap_global(res)
        np.testing.assert_array_equal(iv.scores, [0.0, 0.0])

    def test_single_instance_is_absolute_row(self):
        model = FnModel(lambda z: 2.0 * z[:, 0] - z[:, 1])
        res = shap_values(model, np.array([[1.0, 1.0]]), np.zeros((1, 2)))
        iv = shap_global(res)
        np.testing.assert_allclose(iv.scores, np.abs(res.values[0, 0]))


class TestLime:
    def test_constant_model_zero_coefficients(self):
        model = FnModel(lambda z: np.full(len(z), 0.5))
        coef = lime_explain_instance(model, np.zeros(3), np.ones(3), ExplainerConfig(), 0)
        assert np.abs(coef).max() < 1e-6

    def test_dominant_feature_has_largest_coefficient(self):
        model = FnModel(lambda z: 1.0 / (1.0 + np.exp(-3.0 * z[:, 0])))
        coef = lime_explain_instance(
            model, np.zeros(4), np.ones(4), ExplainerConfig(), 5
        )
        assert np.abs(coef[0]) > np.abs(coef[1:]).max()

    def test_ignored_feature_has_negligible_coefficient(self):
        # exactly linear in features 0 and 2, provably independent of 1,
        # so the surrogate residual (and any spurious coefficient) is
        # limited by arithmetic noise alone
        model = FnModel(lambda z: 0.5 + 0.1 * z[:, 0] - 0.2 * z[:, 2])
        coef = lime_explain_instance(
            model,
            np.zeros(3),
            np.ones(3),
            ExplainerConfig(lime_samples_per_instance=4000),
            7,
        )
        assert np.abs(coef[1]) < 1e-3 * np.abs(coef).max()

    def test_deterministic_per_seed_and_index(self):
        model = FnModel(lambda z: 1.0 / (1.0 + np.exp(-z[:, 0])))
        sd = np.ones(2)
        cfg = ExplainerConfig()
        a = lime_explain_instance(model, np.zeros(2), sd, cfg, 1, 3)
        b = lime_explain_instance(model, np.zeros(2), sd, cfg, 1, 3)
        c = lime_explain_instance(model, np.zeros(2), sd, cfg, 1, 4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_global_is_mean_absolute_of_instances(self):
        rng = np.random.default_rng(11)
        model = FnModel(lambda z: 1.0 / (1.0 + np.exp(-(z[:, 0] + 0.5 * z[:, 1]))))
        rows = rng.normal(size=(6, 2))
        cfg = ExplainerConfig(lime_samples_per_instance=500)
        sd = np.array([1.0, 2.0])
        iv = lime_global(model, rows, sd, cfg, 2, model_tag="stub")
        acc = np.zeros(2)
        for i in range(6):
            acc += np.abs(lime_explain_instance(model, rows[i], sd, cfg, 2, i))
        np.testing.assert_allclose(iv.scores, acc / 6)

    def test_global_ordering_matches_linear_weights(self):
        weights = np.array([2.0, -0.1, 0.8])
        model = FnModel(lambda z: 1.0 / (1.0 + np.exp(-(z @ weights))))
        rng = np.random.default_rng(13)
        rows = rng.normal(size=(15, 3))
        iv = lime_global(
            model,
            rows,
            np.ones(3),
            ExplainerConfig(lime_samples_per_instance=800),
            3,
        )
        np.testing.assert_array_equal(
            to_ranks(iv.scores), to_ranks(np.abs(weights))
        )

    def test_constant_feature_gets_zero_coefficient(self):
        model = FnModel(lambda z: 1.0 / (1.0 + np.exp(-z[:, 0])))
        coef = lime_explain_instance(
            model, np.zeros(2), np.array([1.0, 0.0]), ExplainerConfig(), 9
        )
        assert coef[1] == 0.0

    def test_global_perturbs_with_the_given_sd(self):
        # column 1 is constant in the explained rows but varies in training:
        # perturbing with the training sd lets the surrogate see its effect
        model = FnModel(lambda z: 1.0 / (1.0 + np.exp(-(z[:, 0] + z[:, 1]))))
        rows = np.column_stack([np.linspace(-1.0, 1.0, 8), np.zeros(8)])
        cfg = ExplainerConfig(lime_samples_per_instance=500)
        iv = lime_global(model, rows, np.ones(2), cfg, 10)
        assert iv.scores[1] > 0.5 * iv.scores[0] > 0.0


class TestModelRows:
    """Each explainer reports exactly the rows it passed to the model."""

    @staticmethod
    def counted(model):
        # a ProbaClassifier's predict calls predict_proba, so this sees both
        seen = []
        inner = model.predict_proba
        model.predict_proba = lambda z: seen.append(len(z)) or inner(z)
        return seen

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_lime_and_permutation(self, n_classes):
        rng = np.random.default_rng(n_classes)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, n_classes, 60)
        model = DecisionTree(max_depth=3).fit(X, y)
        seen = self.counted(model)
        cfg = ExplainerConfig(lime_samples_per_instance=40)
        iv = lime_global(model, X[:5], X.std(axis=0), cfg, 1)
        assert iv.model_rows == sum(seen) == 5 * (40 + (n_classes > 2))
        seen.clear()
        iv = permutation_importance(model, X[:8], y[:8], rounds=2, seed=1)
        assert iv.model_rows == sum(seen) == 8 * (1 + 3 * 2)


class TestPermutationImportance:
    def test_dummy_feature_scores_zero(self):
        model = FnModel(lambda z: (z[:, 0] > 0).astype(float))
        rng = np.random.default_rng(19)
        rows = rng.normal(size=(300, 3))
        labels = (rows[:, 0] > 0).astype(int)
        iv = permutation_importance(model, rows, labels, rounds=5, seed=1)
        assert iv.scores[1] == 0.0
        assert iv.scores[2] == 0.0
        assert iv.scores[0] > 0.3

    def test_perfect_single_feature_drop_near_half(self):
        model = FnModel(lambda z: (z[:, 0] > 0).astype(float))
        rng = np.random.default_rng(23)
        rows = rng.normal(size=(2000, 2))
        labels = (rows[:, 0] > 0).astype(int)
        iv = permutation_importance(model, rows, labels, rounds=10, seed=2)
        assert abs(iv.scores[0] - 0.5) < 0.05

    def test_rounds_one_vs_many_nonnegative(self):
        model = FnModel(lambda z: (z[:, 1] > 0).astype(float))
        rng = np.random.default_rng(29)
        rows = rng.normal(size=(100, 2))
        labels = rng.integers(0, 2, 100)
        for rounds in (1, 10):
            iv = permutation_importance(model, rows, labels, rounds=rounds, seed=3)
            assert (iv.scores >= 0).all()

    def test_deterministic(self):
        model = FnModel(lambda z: (z[:, 0] + z[:, 1] > 0).astype(float))
        rng = np.random.default_rng(31)
        rows = rng.normal(size=(150, 2))
        labels = (rows.sum(axis=1) > 0).astype(int)
        a = permutation_importance(model, rows, labels, rounds=4, seed=7)
        b = permutation_importance(model, rows, labels, rounds=4, seed=7)
        np.testing.assert_array_equal(a.scores, b.scores)


class TestToRanks:
    def test_documented_tie_rule(self):
        np.testing.assert_array_equal(to_ranks([0.5, 0.2, 0.5]), [1, 3, 2])

    def test_strictly_decreasing(self):
        np.testing.assert_array_equal(to_ranks([5.0, 4.0, 3.0, 1.0]), [1, 2, 3, 4])

    def test_all_zero_ranks_by_index(self):
        np.testing.assert_array_equal(to_ranks([0.0, 0.0, 0.0]), [1, 2, 3])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=12,
        )
    )
    def test_always_a_permutation(self, scores):
        ranks = to_ranks(scores)
        assert sorted(ranks) == list(range(1, len(scores) + 1))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            min_size=2,
            max_size=10,
        )
    )
    def test_rank_one_is_a_maximum(self, scores):
        ranks = to_ranks(scores)
        top = list(ranks).index(1)
        assert scores[top] == max(scores)


class TestConfigAndHelpers:
    def test_config_validation(self):
        with pytest.raises(ExplainError):
            ExplainerConfig(background_size=0)
        with pytest.raises(ExplainError):
            ExplainerConfig(lime_kernel_width=-1.0)
        with pytest.raises(ExplainError):
            ExplainerConfig(lime_ridge=0.0)

    def test_default_kernel_width_scales_with_p(self):
        cfg = ExplainerConfig()
        assert cfg.kernel_width(4) == pytest.approx(1.5)
        assert ExplainerConfig(lime_kernel_width=2.0).kernel_width(4) == 2.0

    def test_select_background(self):
        rows = np.arange(20, dtype=float).reshape(10, 2)
        small = select_background(rows, 15, seed=0)
        np.testing.assert_array_equal(small, rows)
        sub = select_background(rows, 4, seed=0)
        assert sub.shape == (4, 2)
        again = select_background(rows, 4, seed=0)
        np.testing.assert_array_equal(sub, again)
        with pytest.raises(ExplainError):
            select_background(np.zeros((0, 2)), 4, seed=0)

    def test_importance_vector_rejects_negative(self):
        with pytest.raises(ExplainError):
            ImportanceVector(scores=np.array([0.1, -0.2]), method="shap", model="t")

    def test_csv_writer_roundtrip(self, tmp_path):
        iv = ImportanceVector(
            scores=np.array([0.5, 0.25]), method="shap", model="tree"
        )
        path = tmp_path / "imp.csv"
        write_importance_csv(path, ("a", "b"), [iv])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "feature,score,rank,method,model"
        assert lines[1] == "a,0.5,1,shap,tree"
        assert lines[2] == "b,0.25,2,shap,tree"
