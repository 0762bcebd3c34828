import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    to_ranks,
    write_importance_csv,
)
from xaifuse.models import DecisionTree, RandomForest


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
        model = FnModel(lambda z: z[:, 0])
        with pytest.raises(ExplainError, match="cap"):
            shap_values(model, np.zeros((1, 17)), np.zeros((1, 17)))

    def test_empty_background(self):
        model = FnModel(lambda z: z[:, 0])
        with pytest.raises(ExplainError, match="background"):
            shap_values(model, np.zeros((1, 2)), np.zeros((0, 2)))

    def test_raised_cap_allows_more_features(self):
        model = FnModel(lambda z: z[:, 0])
        res = shap_values(
            model, np.ones((1, 17)), np.zeros((1, 17)), exact_cap=17
        )
        np.testing.assert_allclose(res.values[0, 0, 0], 1.0, atol=1e-9)


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
    def cfg(self, seed=0, **kw):
        return ExplainerConfig(seed=seed, **kw)

    def test_constant_model_zero_coefficients(self):
        model = FnModel(lambda z: np.full(len(z), 0.5))
        coef = lime_explain_instance(model, np.zeros(3), np.ones(3), self.cfg())
        assert np.abs(coef).max() < 1e-6

    def test_dominant_feature_has_largest_coefficient(self):
        model = FnModel(lambda z: 1.0 / (1.0 + np.exp(-3.0 * z[:, 0])))
        coef = lime_explain_instance(model, np.zeros(4), np.ones(4), self.cfg(seed=5))
        assert np.abs(coef[0]) > np.abs(coef[1:]).max()

    def test_ignored_feature_has_negligible_coefficient(self):
        # exactly linear in features 0 and 2, provably independent of 1,
        # so the surrogate residual (and any spurious coefficient) is
        # limited by arithmetic noise alone
        model = FnModel(lambda z: 0.5 + 0.1 * z[:, 0] - 0.2 * z[:, 2])
        coef = lime_explain_instance(
            model, np.zeros(3), np.ones(3), self.cfg(seed=7, lime_samples_per_instance=4000)
        )
        assert np.abs(coef[1]) < 1e-3 * np.abs(coef).max()

    def test_deterministic_per_seed_and_index(self):
        model = FnModel(lambda z: 1.0 / (1.0 + np.exp(-z[:, 0])))
        sd = np.ones(2)
        a = lime_explain_instance(model, np.zeros(2), sd, self.cfg(seed=1), 3)
        b = lime_explain_instance(model, np.zeros(2), sd, self.cfg(seed=1), 3)
        c = lime_explain_instance(model, np.zeros(2), sd, self.cfg(seed=1), 4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_global_is_mean_absolute_of_instances(self):
        rng = np.random.default_rng(11)
        model = FnModel(lambda z: 1.0 / (1.0 + np.exp(-(z[:, 0] + 0.5 * z[:, 1]))))
        rows = rng.normal(size=(6, 2))
        cfg = self.cfg(seed=2, lime_instances=6, lime_samples_per_instance=500)
        sd = np.array([1.0, 2.0])
        iv = lime_global(model, rows, sd, cfg, model_tag="stub")
        acc = np.zeros(2)
        for i in range(6):
            acc += np.abs(lime_explain_instance(model, rows[i], sd, cfg, i))
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
            self.cfg(seed=3, lime_instances=15, lime_samples_per_instance=800),
        )
        np.testing.assert_array_equal(
            to_ranks(iv), to_ranks(np.abs(weights))
        )

    def test_global_uses_first_n_rows(self):
        model = FnModel(lambda z: 1.0 / (1.0 + np.exp(-z[:, 0])))
        rng = np.random.default_rng(17)
        rows = rng.normal(size=(30, 2))
        cfg = self.cfg(seed=4, lime_instances=5, lime_samples_per_instance=300)
        sd = np.ones(2)
        a = lime_global(model, rows, sd, cfg)
        b = lime_global(model, rows[:5], sd, cfg)
        # the perturbation scale is passed in, so rows past the first
        # lime_instances cannot change the result
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_constant_feature_gets_zero_coefficient(self):
        model = FnModel(lambda z: 1.0 / (1.0 + np.exp(-z[:, 0])))
        coef = lime_explain_instance(
            model, np.zeros(2), np.array([1.0, 0.0]), self.cfg(seed=9)
        )
        assert coef[1] == 0.0

    def test_global_perturbs_with_the_given_sd(self):
        # column 1 is constant in the explained rows but varies in training:
        # perturbing with the training sd lets the surrogate see its effect
        model = FnModel(lambda z: 1.0 / (1.0 + np.exp(-(z[:, 0] + z[:, 1]))))
        rows = np.column_stack([np.linspace(-1.0, 1.0, 8), np.zeros(8)])
        cfg = self.cfg(seed=10, lime_instances=8, lime_samples_per_instance=500)
        iv = lime_global(model, rows, np.ones(2), cfg)
        assert iv.scores[1] > 0.5 * iv.scores[0] > 0.0


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
            ExplainerConfig(seed=0, background_size=0)
        with pytest.raises(ExplainError):
            ExplainerConfig(seed=0, lime_kernel_width=-1.0)
        with pytest.raises(ExplainError):
            ExplainerConfig(seed=0, lime_ridge=0.0)

    def test_default_kernel_width_scales_with_p(self):
        cfg = ExplainerConfig(seed=0)
        assert cfg.kernel_width(4) == pytest.approx(1.5)
        assert ExplainerConfig(seed=0, lime_kernel_width=2.0).kernel_width(4) == 2.0

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
