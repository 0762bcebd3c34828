import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    train_model,
)
from xaifuse.models import _FAMILIES, knn, ovr, svm, tree
from xaifuse.models.ovr import ProbaClassifier, ovr_proba, ovr_targets, row_blocks, softmax
from xaifuse.models.svm import _rbf
from xaifuse.seeding import derive_seed, rng_for


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


# ---------------------------------------------------------------------------
# the per-feature level-synchronous builder and the per-tree walk that the
# tree kernel replaced, kept as references: the kernel must reproduce their
# arrays and sums bit for bit, float weights and float targets included.
# ---------------------------------------------------------------------------


def per_feature_grow(X, y, w, regression, max_depth, min_leaf, min_split):
    """(feature, threshold, left, right, n_samples, value) arrays of a tree
    grown one depth level at a time with one pass per (level, feature)."""
    n, p = X.shape
    if regression:
        yv = np.asarray(y, dtype=np.float64)
        k, stat, w = 1, yv[:, None], np.ones(n)
    else:
        classes, yi = np.unique(y, return_inverse=True)
        k = len(classes)
        stat = np.zeros((n, k))
        stat[np.arange(n), yi] = w
    order = np.argsort(X, axis=0, kind="stable")
    feature, threshold, left, right, n_samples, leaf_stat = [], [], [], [], [], []

    def new_node():
        for arr, v in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1)):
            arr.append(v)
        n_samples.append(0)
        leaf_stat.append(None)
        return len(feature) - 1

    node_of = np.zeros(n, dtype=np.int64)
    active = [new_node()]
    for depth in range(max_depth + 1):
        if not active:
            break
        n_active = len(active)
        slot_arr = np.full(len(feature), -1, dtype=np.int64)
        slot_arr[active] = np.arange(n_active)
        slot = slot_arr[node_of]
        ra = slot >= 0
        tot = np.zeros((n_active, k))
        if k > 1:
            np.add.at(tot, (slot[ra], yi[ra]), w[ra])
        else:
            np.add.at(tot[:, 0], slot[ra], stat[ra, 0])
        tw = np.zeros(n_active)
        np.add.at(tw, slot[ra], w[ra])
        tn = np.bincount(slot[ra], minlength=n_active)
        with np.errstate(invalid="ignore", divide="ignore"):
            parent_score = np.where(tw > 0, (tot**2).sum(axis=1) / tw, 0.0)
        if regression:
            sq = np.zeros(n_active)
            np.add.at(sq, slot[ra], w[ra] * yv[ra] ** 2)
            impurity = sq - parent_score
        else:
            impurity = tw - parent_score
        pure = impurity <= np.maximum(tw, 1.0) * 1e-12
        splittable = (tn >= min_split) & (tn >= 2 * min_leaf) & ~pure & (depth < max_depth)
        best_gain = np.full(n_active, -np.inf)
        best_feat = np.full(n_active, -1, dtype=np.int64)
        best_thr = np.zeros(n_active)
        for f in range(p) if splittable.any() else ():
            idxf = order[:, f]
            sf = slot[idxf]
            idxf = idxf[sf >= 0]
            sf = sf[sf >= 0]
            g = np.argsort(sf, kind="stable")
            idxf, sf = idxf[g], sf[g]
            m = len(idxf)
            if m < 2:
                continue
            xv = X[idxf, f]
            cum = np.cumsum(stat[idxf], axis=0)
            cumw = np.cumsum(w[idxf])
            starts = np.searchsorted(sf, np.arange(n_active), side="left")
            start_pos = starts[sf]
            pos_in_node = np.arange(1, m + 1) - start_pos
            base_s = np.zeros_like(cum)
            base_w = np.zeros(m)
            nz = start_pos > 0
            base_s[nz] = cum[start_pos[nz] - 1]
            base_w[nz] = cumw[start_pos[nz] - 1]
            left_s, left_w = cum - base_s, cumw - base_w
            right_s, right_w = tot[sf] - left_s, tw[sf] - left_w
            sfc = sf[:-1]
            mid = (xv[:-1] + xv[1:]) / 2.0
            cand = (sfc == sf[1:]) & (mid > xv[:-1]) & (mid < xv[1:]) & splittable[sfc]
            left_n = pos_in_node[:-1]
            cand &= (left_n >= min_leaf) & (tn[sfc] - left_n >= min_leaf)
            if not cand.any():
                continue
            lw, rw = left_w[:-1], right_w[:-1]
            with np.errstate(invalid="ignore", divide="ignore"):
                sl = np.where(lw > 0, (left_s[:-1] ** 2).sum(axis=1) / lw, 0.0)
                sr = np.where(rw > 0, (right_s[:-1] ** 2).sum(axis=1) / rw, 0.0)
            gain = np.where(cand, sl + sr - parent_score[sfc], -np.inf)
            seg_best = np.full(n_active, -np.inf)
            np.maximum.at(seg_best, sfc, gain)
            pos = np.flatnonzero(np.isfinite(gain) & (gain >= seg_best[sfc]))
            if len(pos) == 0:
                continue
            first = np.full(n_active, m, dtype=np.int64)
            np.minimum.at(first, sf[pos], pos)
            found = np.flatnonzero(first < m)
            improved = found[seg_best[found] > best_gain[found]]
            best_gain[improved] = seg_best[improved]
            best_feat[improved] = f
            best_thr[improved] = mid[first[improved]]
        accept = (best_feat >= 0) & (best_gain >= -np.maximum(tw, 1.0) * 1e-12)
        next_active = []
        lc = np.full(n_active, -1, dtype=np.int64)
        rc = np.full(n_active, -1, dtype=np.int64)
        for s_idx in range(n_active):
            node = active[s_idx]
            n_samples[node] = int(tn[s_idx])
            if accept[s_idx]:
                feature[node] = int(best_feat[s_idx])
                threshold[node] = float(best_thr[s_idx])
                a, b = new_node(), new_node()
                left[node], right[node] = a, b
                lc[s_idx], rc[s_idx] = a, b
                next_active.extend((a, b))
            elif tw[s_idx] > 0:
                leaf_stat[node] = tot[s_idx] / tw[s_idx]
            else:
                cnt = np.bincount(yi[ra & (slot == s_idx)], minlength=k).astype(float)
                leaf_stat[node] = cnt / max(cnt.sum(), 1.0)
        if next_active:
            rows = np.flatnonzero(ra & accept[np.maximum(slot, 0)])
            srows = slot[rows]
            go_left = X[rows, best_feat[srows]] <= best_thr[srows]
            node_of[rows] = np.where(go_left, lc[srows], rc[srows])
        active = next_active
    value = np.zeros((len(feature), k))
    for i, dist in enumerate(leaf_stat):
        if dist is not None:
            value[i] = dist
    return (
        np.array(feature, dtype=np.int64),
        np.array(threshold, dtype=np.float64),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(n_samples, dtype=np.int64),
        value,
    )


def per_tree_apply(tree, X):
    """Leaf id per row, walking one tree and only its unfinished rows."""
    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        f = tree.feature_[node]
        rows = np.flatnonzero(f >= 0)
        if len(rows) == 0:
            return node
        go_left = X[rows, f[rows]] <= tree.threshold_[node[rows]]
        node[rows] = np.where(
            go_left, tree.children_left_[node[rows]], tree.children_right_[node[rows]]
        )


def tree_arrays(tree):
    return (
        tree.feature_,
        tree.threshold_,
        tree.children_left_,
        tree.children_right_,
        tree.n_node_samples_,
        tree.value_,
    )


def assert_bitwise_equal(got, want):
    for g, e in zip(got, want, strict=True):
        assert g.dtype == e.dtype and g.shape == e.shape
        np.testing.assert_array_equal(g, e)
        np.testing.assert_array_equal(np.signbit(g), np.signbit(e))


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
        tree = DecisionTree(max_depth=depth, min_samples_leaf=min_leaf).fit(
            X, y, sample_weight=w
        )
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
        tree = DecisionTree(max_depth=depth, min_samples_leaf=2)
        tree._fit(X, y, regression=True)
        ref = ref_build(X, y.astype(int), w, "mse", depth, 2, 2, 1)
        grid = rng.integers(-1, 7, size=(150, 3)).astype(float)
        got = tree.value_[per_tree_apply(tree, grid), 0]
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
            DecisionTree(max_depth=-1)
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


def kernel_case(seed, values, weights, n_classes):
    """Rows, labels, weights and float targets of one random tree case."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    p = int(rng.integers(1, 6))
    if values == "grid":  # many duplicate values
        X = rng.integers(0, 4, size=(n, p)).astype(float)
    else:
        X = rng.normal(size=(n, p))
    X[:, rng.random(p) < 0.3] = 1.5  # constant columns
    y = rng.integers(0, n_classes, n)
    w = {
        "none": None,
        "ints": rng.integers(1, 4, n).astype(float),
        "floats": rng.random(n) * 2.0,
        "one_over_n": np.full(n, 1.0 / n),
        "some_zero": np.where(rng.random(n) < 0.3, 0.0, rng.random(n)),
    }[weights]
    target = rng.normal(size=n) * 3.0
    target[rng.random(n) < 0.3] = 0.25  # repeated targets
    return X, y, w, target


class TestTreeKernelAgainstPerFeatureBuilder:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        values=st.sampled_from(["grid", "normal"]),
        weights=st.sampled_from(["none", "ints", "floats", "one_over_n", "some_zero"]),
        n_classes=st.integers(1, 4),
        max_depth=st.integers(0, 8),
        min_leaf=st.integers(1, 4),
        min_split=st.integers(2, 5),
    )
    def test_classification_tree_is_bitwise_equal(
        self, seed, values, weights, n_classes, max_depth, min_leaf, min_split
    ):
        X, y, w, _ = kernel_case(seed, values, weights, n_classes)
        model = DecisionTree(max_depth, min_leaf, min_split).fit(X, y, sample_weight=w)
        weight = np.ones(len(y)) if w is None else w
        want = per_feature_grow(X, y, weight, False, max_depth, min_leaf, min_split)
        assert_bitwise_equal(tree_arrays(model), want)
        leaves = per_tree_apply(model, X)
        np.testing.assert_array_equal(model._stack._walk(X)[:, 0], leaves)
        assert model.predict_proba(X).tobytes() == model.value_[leaves].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        values=st.sampled_from(["grid", "normal"]),
        max_depth=st.integers(0, 8),
        min_leaf=st.integers(1, 4),
    )
    def test_regression_tree_is_bitwise_equal(self, seed, values, max_depth, min_leaf):
        X, _, _, target = kernel_case(seed, values, "none", 1)
        model = DecisionTree(max_depth, min_leaf)
        model._fit(X, target, regression=True)
        want = per_feature_grow(X, target, None, True, max_depth, min_leaf, 2)
        assert_bitwise_equal(tree_arrays(model), want)
        grid = X + np.random.default_rng(seed).normal(scale=0.5, size=X.shape)
        np.testing.assert_array_equal(
            tree.TreeStack([model])._walk(grid)[:, 0], per_tree_apply(model, grid)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_prefix_sums_run_over_every_active_row(self, seed):
        # small nodes whose features all give one partition tie up to
        # rounding, so the rows that enter the prefix sums (those of nodes
        # that cannot split included) decide which feature wins
        rng = np.random.default_rng(seed)
        n = int(rng.integers(60, 200))
        X = rng.normal(size=(n, 3))
        target = rng.random(n) - 0.5
        model = DecisionTree(max_depth=8)
        model._fit(X, target, regression=True)
        assert_bitwise_equal(
            tree_arrays(model), per_feature_grow(X, target, None, True, 8, 1, 2)
        )
        y = (target > 0).astype(int)
        w = rng.random(n)
        w /= w.sum()
        model = DecisionTree(max_depth=8).fit(X, y, sample_weight=w)
        assert_bitwise_equal(tree_arrays(model), per_feature_grow(X, y, w, False, 8, 1, 2))

    def test_a_leaf_reached_only_by_zero_weight_rows_answers_by_count(self):
        # every split of this weighted XOR gains 0, so the first candidate
        # wins and isolates the zero-weight row
        X = np.array([[-1.0, 0.0], [0, 0], [0, 1], [1, 0], [1, 1]])
        y = np.array([1, 0, 1, 1, 0])
        w = np.array([0.0, 1, 1, 1, 1])
        model = DecisionTree(max_depth=3).fit(X, y, sample_weight=w)
        assert_bitwise_equal(
            tree_arrays(model), per_feature_grow(X, y, w, False, 3, 1, 2)
        )
        leaf = per_tree_apply(model, X[:1])[0]
        assert model.n_node_samples_[leaf] == 1
        np.testing.assert_array_equal(model.value_[leaf], [0.0, 1.0])

    def test_all_features_constant_gives_one_leaf(self):
        X = np.full((6, 3), 2.0)
        y = np.array([0, 1, 0, 1, 1, 1])
        model = DecisionTree().fit(X, y)
        want = per_feature_grow(X, y, np.ones(6), False, 50, 1, 2)
        assert_bitwise_equal(tree_arrays(model), want)
        assert model.node_count == 1


class TestCountedBootstrap:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        values=st.sampled_from(["grid", "normal"]),
        n_classes=st.integers(1, 4),
        rare=st.booleans(),
        max_depth=st.sampled_from([0, 1, 3, 50]),
        min_leaf=st.integers(1, 4),
        min_split=st.integers(2, 5),
        bootstrap=st.booleans(),
    )
    def test_each_tree_equals_the_tree_of_its_repeated_rows(
        self, seed, values, n_classes, rare, max_depth, min_leaf, min_split, bootstrap
    ):
        X, y, _, _ = kernel_case(seed, values, "none", n_classes)
        n = len(y)
        if rare and n_classes > 1:
            # one row of class 0: draws that miss it leave a class out
            y = 1 + y % (n_classes - 1)
            y[0] = 0
        forest = RandomForest(
            n_estimators=3,
            max_depth=max_depth,
            min_samples_leaf=min_leaf,
            min_samples_split=min_split,
            bootstrap=bootstrap,
            seed=seed,
        ).fit(X, y)
        for t, fitted in enumerate(forest.trees_):
            idx = rng_for(seed, "tree", t).integers(0, n, size=n) if bootstrap else np.arange(n)
            want = per_feature_grow(
                X[idx], y[idx], np.ones(n), False, max_depth, min_leaf, min_split
            )
            assert_bitwise_equal(tree_arrays(fitted), want)
            np.testing.assert_array_equal(fitted.classes_, np.unique(y[idx]))

    def test_presort_of_rows_equals_a_fresh_presort(self):
        rng = np.random.default_rng(70)
        X = rng.integers(0, 3, size=(50, 4)).astype(float)
        X[:, 2] = rng.normal(size=50)
        X[:, 3] = 1.0
        X[40:, 1] = 5.0
        full = tree._presort(X)
        for rows in (np.arange(50), np.arange(40, 50), np.unique(rng.integers(0, 50, 50))):
            for got, want in zip(tree._presort_rows(full, rows), tree._presort(X[rows])):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)


class TestFitLeaves:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: DecisionTree(max_depth=6),
            lambda: RandomForest(n_estimators=4, seed=2),
            lambda: AdaBoost(n_estimators=5, base_max_depth=2),
            lambda: GradientBoosting(n_estimators=3, learning_rate=0.3, max_depth=3),
        ],
        ids=["decision_tree", "random_forest", "adaboost", "gradient_boosting"],
    )
    def test_grow_returns_the_leaf_each_fit_row_reaches(self, monkeypatch, make):
        rng = np.random.default_rng(71)
        X = rng.normal(size=(80, 4))
        X[:, 1] = rng.integers(0, 3, 80)
        y = rng.integers(0, 3, 80)
        grown = []
        fit = tree.DecisionTree._fit

        def spy(self, rows, *args, **kwargs):
            leaves = fit(self, rows, *args, **kwargs)
            grown.append((self, np.asarray(rows, dtype=np.float64), leaves))
            return leaves

        monkeypatch.setattr(tree.DecisionTree, "_fit", spy)
        make().fit(X, y)
        assert grown
        for fitted, rows, leaves in grown:
            np.testing.assert_array_equal(tree.TreeStack([fitted])._walk(rows)[:, 0], leaves)
            np.testing.assert_array_equal(leaves, per_tree_apply(fitted, rows))


def per_tree_proba(model, X):
    """predict_proba of a fitted forest, AdaBoost or gradient boosting
    model, walking each member tree on its own and adding in tree order."""
    if isinstance(model, RandomForest):
        want = np.zeros((len(X), len(model.classes_)))
        for t in model.trees_:
            cols = np.searchsorted(model.classes_, t.classes_)
            want[:, cols] += t.value_[per_tree_apply(t, X)]
        return want / len(model.trees_)
    if isinstance(model, AdaBoost):
        k = float(len(model.classes_))
        want = np.zeros((len(X), len(model.classes_)))
        for t in model.trees_:
            log_p = np.log(np.maximum(t.value_[per_tree_apply(t, X)], 1e-10))
            want += (k - 1.0) * (log_p - log_p.mean(axis=1, keepdims=True))
        return softmax(want / len(model.trees_) / (k - 1.0))
    raw = []
    for prior, trees in zip(model.priors_, model.trees_):
        want = np.full(len(X), prior)
        for t in trees:
            want += model.learning_rate * t.value_[per_tree_apply(t, X), 0]
        raw.append(want)
    return ovr_proba(np.column_stack(raw))


class TestStackedWalk:
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_forest_whose_bootstrap_misses_a_class(self, n_classes):
        rng = np.random.default_rng(40 + n_classes)
        X = rng.normal(size=(40, 3))
        y = rng.integers(1, n_classes, 40)
        y[0] = 0  # a single row of the first class
        forest = RandomForest(n_estimators=8, seed=3).fit(X, y)
        assert any(len(t.classes_) < n_classes for t in forest.trees_)
        grid = np.vstack([X, rng.normal(size=(30, 3))])
        np.testing.assert_array_equal(forest.predict_proba(grid), per_tree_proba(forest, grid))

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_adaboost_votes(self, n_classes):
        rng = np.random.default_rng(50 + n_classes)
        X = rng.normal(size=(80, 3))
        y = rng.integers(0, n_classes, 80)
        model = AdaBoost(n_estimators=12, base_max_depth=2).fit(X, y)
        assert len(model.trees_) > 1
        np.testing.assert_array_equal(model.predict_proba(X), per_tree_proba(model, X))

    def test_gradient_boosting_raw_scores(self):
        rng = np.random.default_rng(60)
        X = rng.normal(size=(70, 3))
        y = rng.integers(0, 3, 70)
        model = GradientBoosting(n_estimators=6, learning_rate=0.3, max_depth=3).fit(X, y)
        np.testing.assert_array_equal(model.predict_proba(X), per_tree_proba(model, X))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RandomForest(n_estimators=4, max_depth=4, seed=5),
            lambda: AdaBoost(n_estimators=4, base_max_depth=2),
            lambda: GradientBoosting(n_estimators=3, learning_rate=0.3, max_depth=3),
        ],
        ids=["random_forest", "adaboost", "gradient_boosting"],
    )
    def test_members_build_no_walker(self, make):
        # only the ensemble's one stack is walked; its members keep their
        # node arrays and nothing else
        rng = np.random.default_rng(62)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 3, 60)
        model = make().fit(X, y)
        members = np.ravel(model.trees_)
        assert len(members) > 1
        assert not any(hasattr(t, "_stack") for t in members)
        grid = np.vstack([X, rng.normal(size=(20, 3))])
        np.testing.assert_array_equal(model.predict_proba(grid), per_tree_proba(model, grid))

    def test_row_blocks_do_not_change_the_sums(self, monkeypatch):
        rng = np.random.default_rng(61)
        X = rng.normal(size=(90, 4))
        y = rng.integers(0, 3, 90)
        forest = RandomForest(n_estimators=5, seed=1).fit(X, y)
        single = DecisionTree().fit(X, y)
        whole = forest.predict_proba(X), single.predict_proba(X)
        monkeypatch.setattr(ovr, "BLOCK_CELLS", 7)
        np.testing.assert_array_equal(forest.predict_proba(X), whole[0])
        np.testing.assert_array_equal(single.predict_proba(X), whole[1])

    def test_deep_tree_walk(self):
        # a chain one split per level, deeper than the walk's compaction period
        X = np.arange(40, dtype=float)[:, None]
        y = np.arange(40) % 2
        model = DecisionTree().fit(X, y)
        grid = np.linspace(-1, 41, 200)[:, None]
        np.testing.assert_array_equal(
            model._stack._walk(grid)[:, 0], per_tree_apply(model, grid)
        )


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

    def test_chunking_invariant(self, monkeypatch):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(50, 3))
        y = rng.integers(0, 2, 50)
        q = rng.normal(size=(40, 3))
        model = KnnClassifier(n_neighbors=3).fit(X, y)
        whole = model.predict_proba(q)
        monkeypatch.setattr(ovr, "BLOCK_CELLS", 7 * len(X))  # blocks of 7 rows
        np.testing.assert_array_equal(model.predict_proba(q), whole)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_selection_sub_blocks_do_not_change_the_labels(self, monkeypatch, rows):
        rng = np.random.default_rng(14)
        X = rng.integers(0, 3, size=(60, 3)).astype(float)  # many tied distances
        y = rng.integers(0, 3, 60)
        q = rng.integers(0, 3, size=(45, 3)).astype(float)
        model = KnnClassifier(n_neighbors=4).fit(X, y)
        whole = model._neighbor_labels(_block_distances(model, q))
        proba = model.predict_proba(q)
        monkeypatch.setattr(ovr, "BLOCK_CELLS", rows * len(X))
        blocks = row_blocks(len(q), len(X))
        assert len(blocks) > 1
        labels = [model._neighbor_labels(_block_distances(model, q[b])) for b in blocks]
        np.testing.assert_array_equal(np.concatenate(labels), whole)
        np.testing.assert_array_equal(model.predict_proba(q), proba)

    def test_distances_match_plain_expression(self):
        rng = np.random.default_rng(37)
        a = rng.normal(size=(37, 4))
        b = rng.normal(size=(23, 4))
        for q, x in ((a, b), (a, a), (a * 1e3, b)):
            sq = (x**2).sum(axis=1)
            want = (q**2).sum(axis=1)[:, None] - 2.0 * q @ x.T + sq
            np.maximum(want, 0.0, out=want)
            got = np.full((len(q), len(x)), np.nan)
            ovr._sq_distances(q, x, sq, got)
            np.testing.assert_array_equal(got, want)

    def test_a_lone_row_takes_the_bits_of_a_two_row_call(self):
        # numpy sends a one-row product to BLAS gemv, which rounds unlike the
        # gemm of two or more rows; _sq_distances pads the lone row
        rng = np.random.default_rng(36)
        x = rng.normal(size=(60, 4))
        q = rng.normal(size=(20, 4))
        sq = (x**2).sum(axis=1)
        for i in range(len(q)):
            pair = np.empty((2, len(x)))
            ovr._sq_distances(q[[i, (i + 1) % len(q)]], x, sq, pair)
            lone = np.full((1, len(x)), np.nan)
            ovr._sq_distances(q[i : i + 1], x, sq, lone)
            assert lone.tobytes() == pair[:1].tobytes()

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_block_distances_equal_a_per_cell_fold(self, monkeypatch, p):
        rng = np.random.default_rng(39)
        X = rng.normal(size=(23, 4))
        q = rng.normal(size=(17, 4))
        q[5] = X[2]
        model = KnnClassifier(n_neighbors=3, p=p).fit(X, rng.integers(0, 3, 23))
        seen = []
        select = KnnClassifier._neighbor_labels

        def spy(self, d):
            seen.append(d.copy())
            return select(self, d)

        monkeypatch.setattr(KnnClassifier, "_neighbor_labels", spy)
        monkeypatch.setattr(ovr, "BLOCK_CELLS", 5 * len(X))  # blocks of 5 rows
        model.predict_proba(q)
        assert len(seen) > 1
        # each term is numpy's power of one cell: its vectorised power is
        # elementwise, but on SIMD builds not always the bits of libm's pow
        want = np.zeros((len(q), len(X)))
        for i in range(len(q)):
            for j in range(len(X)):
                acc = 0.0
                for f in range(X.shape[1]):
                    acc += (np.abs(np.array([q[i, f] - X[j, f]])) ** p)[0]
                want[i, j] = acc
        assert np.concatenate(seen).tobytes() == want.tobytes()

    def test_minkowski_scoring_holds_no_per_feature_temporaries(self):
        rng = np.random.default_rng(40)
        X = rng.normal(size=(1000, 10))
        q = rng.normal(size=(400, 10))
        model = KnnClassifier(p=1.0).fit(X, rng.integers(0, 3, 1000))
        block = max(b.stop - b.start for b in row_blocks(len(q), len(X))) * len(X) * 8
        model.predict_proba(q[:2])
        tracemalloc.start()
        try:
            model.predict_proba(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the distance and term arrays, and under a third of a block besides;
        # a fresh difference and absolute value per feature make three blocks
        assert peak < 2 * block + block // 3

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_minkowski_matches_bruteforce_sort(self, monkeypatch, p):
        rng = np.random.default_rng(38)
        X = rng.normal(size=(70, 5))
        y = rng.integers(0, 3, 70)
        q = rng.normal(size=(30, 5))
        model = KnnClassifier(n_neighbors=4, p=p).fit(X, y)
        got = model.predict_proba(q)
        d = (np.abs(q[:, None, :] - X[None, :, :]) ** p).sum(axis=2)
        for i in range(len(q)):
            near = np.argsort(d[i], kind="stable")[:4]
            votes = np.bincount(y[near], minlength=3) / 4.0
            np.testing.assert_array_equal(got[i], votes)
        monkeypatch.setattr(ovr, "BLOCK_CELLS", 7 * len(X))  # blocks of 7 rows
        np.testing.assert_array_equal(model.predict_proba(q), got)

    def test_minkowski_p1(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0], [0.9, 0.9]])
        y = np.array([0, 1, 1])
        # under L1 the third row is 1.8 from origin, closer than row 2
        model = KnnClassifier(n_neighbors=1, p=1.0).fit(X, y)
        assert model.predict([[0.5, 0.5]])[0] == 1

    def test_k_larger_than_train_rejected(self):
        with pytest.raises(ValueError):
            KnnClassifier(n_neighbors=5).fit(np.zeros((3, 2)), np.array([0, 1, 0]))


def _block_distances(model: KnnClassifier, q: np.ndarray) -> np.ndarray:
    """The model's distances from the rows of q, computed as one block."""
    d = np.empty((len(q), len(model._x)))
    if model.p == 2.0:
        ovr._sq_distances(q, model._x, (model._x**2).sum(axis=1), d)
    else:
        ovr._fold_distances(q, model._x, model.p, d, np.empty_like(d))
    return d


def _partition_proba(model: KnnClassifier, d: np.ndarray) -> np.ndarray:
    """The vote fractions of the neighbours np.argpartition picks from d."""
    k = model.n_neighbors
    labels = model._yi[np.argpartition(d, k - 1, axis=1)[:, :k]]
    return (labels[:, :, None] == np.arange(len(model.classes_))).sum(axis=1) / k


def _spy_argpartition(monkeypatch) -> list[np.ndarray]:
    """Copies of the arrays handed to np.argpartition from now on."""
    seen = []
    real = np.argpartition

    def spy(a, *args, **kwargs):
        seen.append(np.array(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "argpartition", spy)
    return seen


class TestKnnSelection:
    """The k nearest from argmin passes, with argpartition's choice on rows
    whose k-th and (k+1)-th distances are not strictly ordered, give the
    votes of argpartition alone, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(10, 40),
        rows=st.integers(2, 30),
        features=st.integers(1, 4),
        p=st.sampled_from([1.0, 2.0, 3.0]),
    )
    def test_votes_equal_argpartition_votes(self, data, seed, n, rows, features, p):
        k = data.draw(st.one_of(st.integers(1, n), st.sampled_from([8, 9, n - 1])), label="k")
        rng = np.random.default_rng(seed)
        # an integer grid: exact distances, many of them tied
        X = rng.integers(0, 4, size=(n, features)).astype(float)
        q = rng.integers(0, 4, size=(rows, features)).astype(float)
        model = KnnClassifier(n_neighbors=k, p=p).fit(X, rng.integers(0, 3, n))
        want = _partition_proba(model, _block_distances(model, q))
        assert model.predict_proba(q).tobytes() == want.tobytes()

    def test_rows_without_a_boundary_tie_take_no_partition(self, monkeypatch):
        rng = np.random.default_rng(51)
        X = rng.normal(size=(300, 4))
        q = rng.normal(size=(40, 4))
        model = KnnClassifier(n_neighbors=knn.ARGMIN_MAX_K).fit(X, rng.integers(0, 3, 300))
        want = _partition_proba(model, _block_distances(model, q))
        seen = _spy_argpartition(monkeypatch)
        assert model.predict_proba(q).tobytes() == want.tobytes()
        assert seen == []
        model.n_neighbors += 1  # past ARGMIN_MAX_K every row is partitioned
        model.predict_proba(q)
        assert [len(a) for a in seen] == [len(q)]

    def test_duplicate_training_rows_tie_at_the_kth_distance(self, monkeypatch):
        rng = np.random.default_rng(52)
        X = rng.integers(0, 5, size=(20, 3)).astype(float)
        X = np.vstack([X, X])  # every distance comes twice
        q = rng.integers(0, 5, size=(12, 3)) + 0.5  # exact distances
        model = KnnClassifier(n_neighbors=3).fit(X, rng.integers(0, 3, 40))
        d = _block_distances(model, q)
        want = _partition_proba(model, d)
        seen = _spy_argpartition(monkeypatch)
        assert model.predict_proba(q).tobytes() == want.tobytes()
        # every row falls back, with its distances restored
        assert [a.tobytes() for a in seen] == [d.tobytes()]

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_nan_distances_fall_back(self, monkeypatch, p):
        rng = np.random.default_rng(53)
        X = rng.normal(size=(30, 3))
        q = rng.normal(size=(10, 3))
        q[[2, 7], 1] = np.nan
        model = KnnClassifier(n_neighbors=4, p=p).fit(X, rng.integers(0, 3, 30))
        d = _block_distances(model, q)
        want = _partition_proba(model, d)
        seen = _spy_argpartition(monkeypatch)
        assert model.predict_proba(q).tobytes() == want.tobytes()
        assert [a.tobytes() for a in seen] == [d[[2, 7]].tobytes()]

    def test_inf_distances_restore_cells_taken_twice(self, monkeypatch):
        rng = np.random.default_rng(54)
        X = rng.normal(size=(10, 2))
        X[3:] = np.inf  # under p = 1 these rows are at distance inf
        q = rng.normal(size=(6, 2))
        model = KnnClassifier(n_neighbors=5, p=1.0).fit(X, np.arange(10) % 3)
        d = _block_distances(model, q)
        assert np.isfinite(d[:, :3]).all() and np.isinf(d[:, 3:]).all()
        want = _partition_proba(model, d)
        seen = _spy_argpartition(monkeypatch)
        assert model.predict_proba(q).tobytes() == want.tobytes()
        # passes 4 and 5 take cell 0 again, after pass 1 took its finite
        # distance; the partition still sees that finite distance
        assert [a.tobytes() for a in seen] == [d.tobytes()]


def _float64_proba(model: KnnClassifier, q: np.ndarray) -> np.ndarray:
    """predict_proba as the float64 path alone scores every row of q."""
    return model._float64_votes(np.asarray(q, dtype=np.float64)) / model.n_neighbors


def _spy_float64_distances(monkeypatch) -> list[np.ndarray]:
    """Copies of the query rows handed to kNN's float64 distance from now on."""
    seen = []
    real = knn._sq_distances

    def spy(q, x, sq_x, out):
        seen.append(np.array(q))
        return real(q, x, sq_x, out)

    monkeypatch.setattr(knn, "_sq_distances", spy)
    return seen


class TestKnnFloat32Screen:
    """Neighbours picked from float32 distances, with the rows that the
    rounding bound cannot separate scored again in float64, give the float64
    path's votes, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["grid", "near", "scale"]),
        n=st.integers(8, 40),
        rows=st.sampled_from([0, 1, 2, 3, 7, 40]),
        features=st.integers(1, 5),
        nan_rows=st.booleans(),
    )
    def test_screened_votes_equal_the_float64_path(
        self, data, seed, kind, n, rows, features, nan_rows
    ):
        k = data.draw(st.integers(1, min(knn.ARGMIN_MAX_K, n)), label="k")
        rng = np.random.default_rng(seed)
        if kind == "grid":  # exact distances, many of them tied
            X = rng.integers(0, 3, size=(n, features)).astype(float)
            q = rng.integers(0, 3, size=(rows, features)).astype(float)
        elif kind == "near":  # training rows, as given or one part in 1e12 away
            X = rng.normal(size=(n, features)) * 10.0 ** rng.integers(-3, 4)
            q = X[rng.integers(0, n, rows)]
            q = q * (1 + 1e-12 * rng.integers(-1, 2, size=q.shape))
        else:  # from 1e-30 to 1e25, past float32's range, row by row
            X = rng.normal(size=(n, features)) * 10.0 ** rng.integers(-30, 26)
            q = rng.normal(size=(rows, features)) * 10.0 ** rng.integers(-30, 26, size=(rows, 1))
        if nan_rows and rows:
            q[rng.integers(0, rows, 1 + rows // 4), rng.integers(0, features)] = np.nan
        model = KnnClassifier(n_neighbors=k).fit(X, rng.integers(0, 3, n))
        want = _float64_proba(model, q)
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")
            mp.setattr(ovr, "BLOCK_CELLS", 3 * n)  # float32 blocks of 6 rows
            assert model.predict_proba(q).tobytes() == want.tobytes()

    def test_rows_with_a_clear_gap_never_reach_the_float64_distance(self, monkeypatch):
        rng = np.random.default_rng(61)
        X = rng.normal(size=(300, 4))
        q = rng.normal(size=(40, 4))
        model = KnnClassifier().fit(X, rng.integers(0, 3, 300))
        want = _float64_proba(model, q)
        seen = _spy_float64_distances(monkeypatch)
        assert model.predict_proba(q).tobytes() == want.tobytes()
        # a one-row query is screened too
        assert model.predict_proba(q[:1]).tobytes() == want[:1].tobytes()
        assert seen == []
        q[[2, 7], 1] = np.nan
        want = _float64_proba(model, q)
        seen.clear()
        assert model.predict_proba(q).tobytes() == want.tobytes()
        assert [a.tobytes() for a in seen] == [q[[2, 7]].tobytes()]

    def test_a_lone_flagged_row_is_scored_by_a_gemm(self, monkeypatch):
        rng = np.random.default_rng(62)
        X = rng.normal(size=(300, 4))
        q = rng.normal(size=(40, 4))
        model = KnnClassifier().fit(X, rng.integers(0, 3, 300))
        want = _float64_proba(model, q)
        bound = knn._rounding_bound
        select = KnnClassifier._neighbor_labels
        distances = []

        def fail_row_5(sq, n):
            return np.where(np.arange(len(sq)) == 5, np.inf, bound(sq, n))

        def spy(self, d):
            distances.append(d.copy())
            return select(self, d)

        monkeypatch.setattr(knn, "_rounding_bound", fail_row_5)
        monkeypatch.setattr(KnnClassifier, "_neighbor_labels", spy)
        seen = _spy_float64_distances(monkeypatch)
        assert model.predict_proba(q).tobytes() == want.tobytes()
        assert [a.tobytes() for a in seen] == [q[[5]].tobytes()]
        # its distances are row 0 of a two-row GEMM, not a one-row gemv's
        pair = _block_distances(model, q[[5, 6]])
        assert [d.tobytes() for d in distances] == [pair[:1].tobytes()]

    def test_near_ties_are_scored_in_float64(self, monkeypatch):
        # each query sits between two training rows of different classes
        # whose distances differ by two parts in 1e9: float64 orders them,
        # float32 rounding (about 1e-5 here) cannot
        rng = np.random.default_rng(63)
        centres = rng.normal(size=(60, 6)) * 10.0
        v = rng.normal(size=(60, 6))
        X = np.vstack([centres + v, centres - v * (1 + 1e-9)])
        y = np.repeat([0, 1], 60)
        model = KnnClassifier(n_neighbors=1).fit(X, y)
        want = _float64_proba(model, centres)
        assert (want[:, 0] == 1.0).all()
        seen = _spy_float64_distances(monkeypatch)
        assert model.predict_proba(centres).tobytes() == want.tobytes()
        assert sum(len(a) for a in seen) == len(centres)

    def test_float32_ties_are_scored_in_float64_under_a_zero_bound(self, monkeypatch):
        # on a small integer grid the float32 distances are exact, so with
        # a zero bound only a strict float32 gap may keep a row's neighbours
        rng = np.random.default_rng(64)
        X = rng.integers(0, 3, size=(40, 3)).astype(float)
        q = rng.integers(0, 3, size=(60, 3)).astype(float)
        model = KnnClassifier(n_neighbors=3).fit(X, rng.integers(0, 3, 40))
        want = _float64_proba(model, q)
        monkeypatch.setattr(knn, "_rounding_bound", lambda sq, n: np.zeros_like(sq))
        seen = _spy_float64_distances(monkeypatch)
        assert model.predict_proba(q).tobytes() == want.tobytes()
        assert 0 < sum(len(a) for a in seen) < len(q)

    @pytest.mark.parametrize("scale", [1e-30, 1e-20, 1e15, 2e19, 1e25, 1e39])
    def test_extreme_magnitudes_raise_no_warning(self, scale):
        rng = np.random.default_rng(65)
        X = rng.normal(size=(50, 4))
        q = rng.normal(size=(20, 4))
        q[::3] *= scale
        for train in (X, X * scale):
            model = KnnClassifier(n_neighbors=4).fit(train, rng.integers(0, 3, 50))
            want = _float64_proba(model, q)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert model.predict_proba(q).tobytes() == want.tobytes()
                model.fit(train, rng.integers(0, 3, 50))


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
        scores = (
            _rbf(X, model.support_vectors_[0], model.gamma_) @ model.dual_coef_[0]
            + model.intercept_[0]
        )
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
        a = SvmRbf().fit(X, y).predict_proba(X)
        b = SvmRbf().fit(X, y).predict_proba(X)
        assert a.tobytes() == b.tobytes()

    def test_rbf_matches_plain_expression(self):
        rng = np.random.default_rng(36)
        a = rng.normal(size=(37, 4))
        b = rng.normal(size=(23, 4))
        # numpy takes x @ x.T through a symmetric BLAS product that rounds
        # differently from the GEMM; the kernel takes the GEMM whether or
        # not its two arguments are one array, so the reference multiplies
        # by a copy
        for x, z in ((a, b), (a, a)):
            z = z.copy()
            d = (x**2).sum(axis=1)[:, None] - 2.0 * (x @ z.T) + (z**2).sum(axis=1)
            np.maximum(d, 0.0, out=d)
            want = np.exp(-0.3 * d)
            got = _rbf(x, z, 0.3)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_kernel_rows_equal_a_per_cell_fold(self):
        rng = np.random.default_rng(38)
        X = rng.normal(size=(31, 5))
        X[7] = X[3]
        n, p = X.shape
        rows = svm._KernelRows(X, 0.3)
        got = rows.stack(np.arange(n))
        d = np.zeros((n, n))
        for j in range(n):
            for i in range(n):
                acc = 0.0
                for f in range(p):
                    diff = X[i, f] - X[j, f]
                    acc += diff * diff
                d[j, i] = acc
        want = np.exp(-0.3 * d)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert (got == got.T).all()
        assert (np.diag(got) == 1.0).all()
        assert got[3, 7] == 1.0

    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_smo_on_lazy_rows_equals_smo_on_dense_rows(self, n_classes):
        rng = np.random.default_rng(39 + n_classes)
        X = rng.normal(size=(150, 4))
        y = np.digitize(X[:, 0] + 0.5 * X[:, 1] * X[:, 2], [-0.4, 0.4][: n_classes - 1])
        rows = svm._KernelRows(X, 0.25)
        for t in ovr_targets(y)[1]:
            y_pm = 2.0 * t - 1.0
            lazy_alpha, lazy_b = svm._smo(rows, y_pm, 1.0, 1e-3, 1500)
            dense = rows.stack(np.arange(len(X)))
            dense_alpha, dense_b = svm._smo(dense, y_pm, 1.0, 1e-3, 1500)
            assert (lazy_alpha > 0).any()
            assert lazy_alpha.tobytes() == dense_alpha.tobytes()
            assert np.float64(lazy_b).tobytes() == np.float64(dense_b).tobytes()

    def test_fit_holds_no_gram_past_4096_rows(self, monkeypatch):
        rng = np.random.default_rng(37)
        X = np.vstack([rng.normal(-2, 0.4, (2049, 2)), rng.normal(2, 0.4, (2048, 2))])
        y = np.array([0] * 2049 + [1] * 2048)
        n = len(X)
        dtypes = set()
        read = svm._KernelRows.__getitem__

        def spy(rows, j):
            row = read(rows, j)
            dtypes.add(row.dtype)
            return row

        monkeypatch.setattr(svm._KernelRows, "__getitem__", spy)
        tracemalloc.start()
        try:
            model = SvmRbf().fit(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an eighth of a float64 n x n Gram matrix
        assert peak < 8 * n * n / 8
        assert dtypes == {np.dtype(np.float64)}
        assert (model.predict(X) == y).all()


def _block_sizes(n: int, cols: int) -> list[int]:
    return [b.stop - b.start for b in row_blocks(n, cols)]


class TestScoringBlocks:
    """kNN and SVM scores do not depend on the cell budget that blocks them,
    for these shapes: `ovr._sq_distances` gives a one-row block the bits of a
    two-row one, but the GEMM bits of a row can differ between larger block
    sizes against 193 or more stored rows that are not a multiple of 8
    (OpenBLAS 0.3.31, Haswell kernels)."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(0, 300),
        cols=st.integers(1, 5000),
        itemsize=st.sampled_from([4, 8]),
        budget=st.integers(1, 1 << 17),
    )
    def test_blocks_cover_the_rows_in_steps_of_two_or_more(self, n, cols, itemsize, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ovr, "BLOCK_CELLS", budget)
            blocks = row_blocks(n, cols, itemsize=itemsize)
        step = max(2, budget * 8 // itemsize // cols)
        sizes = [b.stop - b.start for b in blocks]
        assert sum(sizes) == n
        assert all(b.stop == c.start for b, c in zip(blocks, blocks[1:]))
        assert all(b.start % step == 0 for b in blocks)
        assert all(size == step for size in sizes[:-1])
        assert sizes[-1:] <= [step] and 0 not in sizes
        assert step * cols * itemsize <= 8 * budget or step == 2

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 7),
        n=st.integers(1, 40),
        p=st.sampled_from([2.0, 1.0, 3.0]),
        grid=st.booleans(),
    )
    def test_knn_bits_do_not_depend_on_the_budget(self, seed, rows, n, p, grid):
        rng = np.random.default_rng(seed)
        if grid:  # a 0.3-step grid: many distances tie, or tie but for rounding
            X = rng.integers(0, 3, size=(60, 10)) * 0.3
            q = rng.integers(0, 3, size=(n, 10)) * 0.3
        else:
            X = rng.normal(size=(60, 10))
            q = rng.normal(size=(n, 10))
        model = KnnClassifier(n_neighbors=4, p=p).fit(X, rng.integers(0, 3, 60))
        perm = rng.permutation(n)
        whole = model.predict_proba(q)
        assert _block_sizes(n, len(X)) == [n]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ovr, "BLOCK_CELLS", rows * len(X))  # a one-row tail where n % step == 1
            assert max(_block_sizes(n, len(X))) <= max(rows, 2)
            small = model.predict_proba(q)
            shuffled = model.predict_proba(q[perm])
        alone = [model.predict_proba(q[i : i + 1]) for i in range(n)]
        assert small.tobytes() == whole.tobytes()
        assert shuffled.tobytes() == whole[perm].tobytes()
        assert b"".join(a.tobytes() for a in alone) == whole.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        n_classes=st.sampled_from([2, 3]),
        budget=st.integers(1, 300 * 90),
    )
    def test_svm_bits_do_not_depend_on_the_budget(self, seed, n, n_classes, budget):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(90, 10))
        y = np.digitize(X[:, 0] + X[:, 1] * X[:, 2], [-0.5, 0.5][: n_classes - 1])
        model = SvmRbf().fit(X, y)
        q = rng.normal(size=(n, 10))
        shuffled = q[rng.permutation(n)]
        # the default budget scores these queries as one block per machine
        assert all(_block_sizes(n, len(sv)) == [n] for sv in model.support_vectors_)
        whole = [model.predict_proba(q), model.predict_proba(shuffled)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ovr, "BLOCK_CELLS", budget)  # blocks of 2 or more rows, any tail
            small = [model.predict_proba(q), model.predict_proba(shuffled)]
        alone = [model.predict_proba(q[i : i + 1]) for i in range(n)]
        assert [s.tobytes() for s in small] == [w.tobytes() for w in whole]
        assert b"".join(a.tobytes() for a in alone) == whole[0].tobytes()

    def test_knn_predict_holds_a_few_blocks(self):
        rng = np.random.default_rng(41)
        X = rng.normal(size=(7000, 10))
        model = KnnClassifier().fit(X, rng.integers(0, 2, 7000))
        q = rng.normal(size=(4096, 10))
        tracemalloc.start()
        try:
            model.predict_proba(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1,024-row chunks held a 57 MB distance block here
        assert peak < 4 * 8 * ovr.BLOCK_CELLS

    def test_svm_predict_holds_a_few_blocks(self):
        rng = np.random.default_rng(41)
        X = rng.normal(size=(1000, 10))
        model = SvmRbf().fit(X, rng.integers(0, 2, 1000))  # noise: many support vectors
        assert len(model.support_vectors_[0]) > 256
        q = rng.normal(size=(16384, 10))
        tracemalloc.start()
        try:
            model.predict_proba(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one unblocked 16,384 x 326 kernel array is 43 MB
        assert peak < 4 * 8 * ovr.BLOCK_CELLS


class TestOneVsRest:
    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("family", list(_FAMILIES))
    def test_every_family_predicts_the_argmax_of_predict_proba(self, family, n_classes):
        cls = _FAMILIES[family][0]
        assert issubclass(cls, ProbaClassifier)
        assert cls.predict is ProbaClassifier.predict
        rng = np.random.default_rng(70 + n_classes)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, n_classes, 60)
        small = {"n_estimators": 5} if "n_estimators" in default_params(family) else {}
        model = train_model(family, X, y, seed=2, overrides=small)
        want = model.classes_[np.argmax(model.predict_proba(X), axis=1)]
        np.testing.assert_array_equal(model.predict(X), want)

    def test_binary_has_one_scorer_for_the_higher_label(self):
        classes, targets = ovr_targets(np.array([4, 0, 4, 4]))
        np.testing.assert_array_equal(classes, [0, 4])
        assert len(targets) == 1
        np.testing.assert_array_equal(targets[0], [1.0, 0.0, 1.0, 1.0])

    def test_multiclass_has_one_scorer_per_class(self):
        classes, targets = ovr_targets(np.array([2, 0, 1, 2]))
        np.testing.assert_array_equal(classes, [0, 1, 2])
        np.testing.assert_array_equal(np.column_stack(targets), np.eye(3)[[2, 0, 1, 2]])

    @pytest.mark.parametrize("cls", [LogisticRegression, SvmRbf, GradientBoosting])
    def test_single_class_rejected(self, cls):
        with pytest.raises(ValueError, match="two classes"):
            cls().fit(np.zeros((4, 2)), np.ones(4))


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

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), data=st.data())
    def test_coalition_proba_scores_the_hybrid_rows(self, seed, m, data):
        rng = np.random.default_rng(seed)
        p = m + int(rng.integers(0, 3))
        k = int(rng.integers(2, 4))
        X = rng.normal(size=(60, p))
        y = np.arange(60) % k
        model = MlpClassifier(hidden_units=int(rng.integers(1, 9)), epochs=2, seed=5)
        model.fit(X, y)
        who = rng.permutation(p)[:m]
        x, b = rng.normal(size=(2, int(rng.integers(1, 4)), p))
        size = 1 << data.draw(st.integers(0, m), label="block bits")
        start = size * data.draw(st.integers(0, (1 << m) // size - 1), label="block")
        # bit t of a row's index takes feature who[t] from x
        pick = np.zeros((size, p), dtype=bool)
        pick[:, who] = (np.arange(start, start + size)[:, None] >> np.arange(m)) & 1
        rows = np.where(pick, x[:, None], b[:, None]).reshape(-1, p)
        want = model.predict_proba(rows).reshape(len(x), size, k)
        got = model.coalition_proba(x, b, who, start, size)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


class TestDispatchAndSerialization:
    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown hyperparameters"):
            resolve_params(ModelFamily.KNN, {"bogus": 3})

    def test_gbdt_presets_differ_in_depth(self):
        lgbm = default_params(ModelFamily.GBDT_LGBM_LIKE)
        cat = default_params(ModelFamily.GBDT_CATBOOST_LIKE)
        assert lgbm["max_depth"] == 10
        assert cat["max_depth"] == 6
        assert lgbm["learning_rate"] == cat["learning_rate"] == 0.03

    def test_documented_defaults(self):
        gbdt = {"n_estimators": 100, "learning_rate": 0.03, "max_depth": 10, "min_samples_leaf": 1}
        want = {
            "decision_tree": {"max_depth": 50, "min_samples_leaf": 4, "min_samples_split": 2},
            "random_forest": {
                "n_estimators": 100,
                "max_depth": 50,
                "min_samples_leaf": 1,
                "min_samples_split": 2,
                "bootstrap": True,
            },
            "mlp": {
                "hidden_units": 16,
                "dropout": 0.1,
                "epochs": 5,
                "batch_size": 100,
                "learning_rate": 1e-3,
            },
            "knn": {"n_neighbors": 5, "p": 2.0},
            "svm_rbf": {"c": 1.0, "gamma": "auto", "tol": 1e-3, "updates_per_row": 10},
            "adaboost": {
                "n_estimators": 200,
                "learning_rate": 1.0,
                "base_max_depth": 50,
                "base_min_samples_leaf": 1,
            },
            "gbdt_lgbm_like": gbdt,
            "gbdt_catboost_like": {**gbdt, "max_depth": 6},
            "logistic_regression": {"c": 1.0, "max_iter": 1000, "class_weight": "balanced"},
        }
        got = {f.value: default_params(f) for f in ModelFamily}
        assert got == want

    def test_seed_reaches_only_seeded_families(self):
        rng = np.random.default_rng(35)
        X = rng.normal(size=(40, 3))
        y = (X[:, 0] > 0).astype(int)
        forest = train_model("random_forest", X, y, seed=1, overrides={"n_estimators": 2})
        assert forest.seed == derive_seed(1, "train", "random_forest")
        assert not hasattr(train_model("knn", X, y, seed=1), "seed")
