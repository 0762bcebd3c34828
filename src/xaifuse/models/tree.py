"""Axis-aligned decision trees with a vectorized level-synchronous builder.

The builder handles one depth level at a time: rows are bucketed by node,
prefix sums over presorted feature columns score every candidate threshold
in a single pass, and segment argmax picks each node's winner. Ties resolve
to the lowest feature index, then the lowest threshold, so a refit is
bit-for-bit reproducible. No randomness anywhere.

Both criteria reduce to the same algebra: maximizing
sum_side (sum_k stat_k)^2 / weight_side, where stat is the weighted one-hot
label matrix for gini and the weighted target column for mse.
"""

from __future__ import annotations

import numpy as np


def _check_rows(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a nonempty 2-d array")
    return X


class DecisionTree:
    """CART-style tree for weighted classification (gini, `fit`) or
    regression (mse, `fit_regression`).

    After fit the tree is a set of flat arrays: feature_ (-1 marks a leaf),
    threshold_, children_left_, children_right_, value_ (class distribution
    per node, or scalar mean for regression), n_node_samples_.
    """

    def __init__(
        self,
        max_depth: int = 50,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
    ):
        if max_depth < 0 or min_samples_leaf < 1 or min_samples_split < 2:
            raise ValueError("invalid tree size limits")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split

    # -- fitting ---------------------------------------------------------

    def fit(self, X, y, sample_weight=None) -> "DecisionTree":
        """Grow a classification tree (gini) on labels y."""
        X = _check_rows(X)
        n = X.shape[0]
        w = (
            np.ones(n, dtype=np.float64)
            if sample_weight is None
            else np.asarray(sample_weight, dtype=np.float64).copy()
        )
        if w.shape != (n,) or np.any(w < 0):
            raise ValueError("sample_weight must be nonnegative with one entry per row")
        self.classes_, self._yi = np.unique(np.asarray(y), return_inverse=True)
        k = len(self.classes_)
        stat = np.zeros((n, k), dtype=np.float64)
        stat[np.arange(n), self._yi] = w
        self._grow(X, stat, w, k)
        return self

    def fit_regression(self, X, y) -> "DecisionTree":
        """Grow a regression tree (mse) on real targets y, every row weight 1."""
        X = _check_rows(X)
        self.classes_ = None
        self._yv = np.asarray(y, dtype=np.float64)
        self._grow(X, self._yv[:, None], np.ones(X.shape[0], dtype=np.float64), 1)
        return self

    def _grow(self, X: np.ndarray, stat: np.ndarray, w: np.ndarray, k: int) -> None:
        n, p = X.shape
        order = np.argsort(X, axis=0, kind="stable")
        min_leaf = self.min_samples_leaf

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        n_samples: list[int] = []
        leaf_stat: list[np.ndarray | None] = []

        def new_node() -> int:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            n_samples.append(0)
            leaf_stat.append(None)
            return len(feature) - 1

        node_of = np.zeros(n, dtype=np.int64)
        active = [new_node()]

        for depth in range(self.max_depth + 1):
            if not active:
                break
            n_active = len(active)
            slot_arr = np.full(len(feature), -1, dtype=np.int64)
            slot_arr[active] = np.arange(n_active)
            slot = slot_arr[node_of]
            ra = slot >= 0

            tot = np.zeros((n_active, k), dtype=np.float64)
            if k > 1:
                np.add.at(tot, (slot[ra], self._yi[ra]), w[ra])
            else:
                np.add.at(tot[:, 0], slot[ra], stat[ra, 0])
            tw = np.zeros(n_active)
            np.add.at(tw, slot[ra], w[ra])
            tn = np.bincount(slot[ra], minlength=n_active)
            with np.errstate(invalid="ignore", divide="ignore"):
                parent_score = np.where(tw > 0, (tot**2).sum(axis=1) / tw, 0.0)
            if self.classes_ is not None:
                impurity = tw - parent_score
            else:
                sq = np.zeros(n_active)
                np.add.at(sq, slot[ra], w[ra] * self._yv[ra] ** 2)
                impurity = sq - parent_score
            # relative purity tolerance: constant nodes may carry fp dust
            pure = impurity <= np.maximum(tw, 1.0) * 1e-12
            splittable = (
                (tn >= self.min_samples_split)
                & (tn >= 2 * min_leaf)
                & ~pure
                & (depth < self.max_depth)
            )

            best_gain = np.full(n_active, -np.inf)
            best_feat = np.full(n_active, -1, dtype=np.int64)
            best_thr = np.zeros(n_active)

            if splittable.any():
                for f in range(p):
                    idxf = order[:, f]
                    sf = slot[idxf]
                    kp = sf >= 0
                    idxf = idxf[kp]
                    sf = sf[kp]
                    g = np.argsort(sf, kind="stable")
                    idxf = idxf[g]
                    sf = sf[g]
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
                    left_s = cum - base_s
                    left_w = cumw - base_w
                    right_s = tot[sf] - left_s
                    right_w = tw[sf] - left_w

                    sfc = sf[:-1]
                    mid = (xv[:-1] + xv[1:]) / 2.0
                    cand = (sfc == sf[1:]) & (mid > xv[:-1]) & (mid < xv[1:])
                    cand &= splittable[sfc]
                    left_n = pos_in_node[:-1]
                    cand &= (left_n >= min_leaf) & (tn[sfc] - left_n >= min_leaf)
                    if not cand.any():
                        continue
                    lw = left_w[:-1]
                    rw = right_w[:-1]
                    with np.errstate(invalid="ignore", divide="ignore"):
                        sl = np.where(lw > 0, (left_s[:-1] ** 2).sum(axis=1) / lw, 0.0)
                        sr = np.where(rw > 0, (right_s[:-1] ** 2).sum(axis=1) / rw, 0.0)
                    gain = np.where(cand, sl + sr - parent_score[sfc], -np.inf)

                    seg_best = np.full(n_active, -np.inf)
                    np.maximum.at(seg_best, sfc, gain)
                    hit = np.isfinite(gain) & (gain >= seg_best[sfc])
                    pos = np.flatnonzero(hit)
                    if len(pos) == 0:
                        continue
                    first = np.full(n_active, m, dtype=np.int64)
                    np.minimum.at(first, sf[pos], pos)
                    found = np.flatnonzero(first < m)
                    # strict > keeps the lowest feature index on cross-feature ties
                    improved = found[seg_best[found] > best_gain[found]]
                    if len(improved) == 0:
                        continue
                    fp = first[improved]
                    best_gain[improved] = seg_best[improved]
                    best_feat[improved] = f
                    best_thr[improved] = mid[fp]

            # zero-gain splits are accepted (they still shrink both sides,
            # and parity-style labelings need them); the tolerance only
            # absorbs cancellation noise in the prefix sums
            tol = np.maximum(tw, 1.0) * 1e-12
            accept = (best_feat >= 0) & (best_gain >= -tol)

            next_active: list[int] = []
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
                else:
                    if tw[s_idx] > 0:
                        leaf_stat[node] = tot[s_idx] / tw[s_idx]
                    else:
                        # only zero-weight rows reached this node; fall back
                        # to unweighted stats so the leaf still answers
                        sel = ra & (slot == s_idx)
                        if k > 1:
                            cnt = np.bincount(self._yi[sel], minlength=k).astype(float)
                            leaf_stat[node] = cnt / max(cnt.sum(), 1.0)
                        else:
                            vals = self._yv[sel]
                            leaf_stat[node] = np.array(
                                [vals.mean() if len(vals) else 0.0]
                            )

            if next_active:
                rows = np.flatnonzero(ra & accept[np.maximum(slot, 0)])
                srows = slot[rows]
                go_left = X[rows, best_feat[srows]] <= best_thr[srows]
                node_of[rows] = np.where(go_left, lc[srows], rc[srows])
            active = next_active

        self.feature_ = np.array(feature, dtype=np.int64)
        self.threshold_ = np.array(threshold, dtype=np.float64)
        self.children_left_ = np.array(left, dtype=np.int64)
        self.children_right_ = np.array(right, dtype=np.int64)
        self.n_node_samples_ = np.array(n_samples, dtype=np.int64)
        value = np.zeros((len(feature), k), dtype=np.float64)
        for i, dist in enumerate(leaf_stat):
            if dist is not None:
                value[i] = dist
        self.value_ = value
        if self.classes_ is not None:
            del self._yi
        else:
            del self._yv

    # -- inference -------------------------------------------------------

    def apply(self, X) -> np.ndarray:
        """Leaf node id for each row."""
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            f = self.feature_[node]
            live = f >= 0
            if not live.any():
                return node
            rows = np.flatnonzero(live)
            xv = X[rows, f[rows]]
            go_left = xv <= self.threshold_[node[rows]]
            node[rows] = np.where(
                go_left,
                self.children_left_[node[rows]],
                self.children_right_[node[rows]],
            )

    def predict_proba(self, X) -> np.ndarray:
        if self.classes_ is None:
            raise ValueError("probability output requires a classification tree")
        return self.value_[self.apply(X)]

    def predict(self, X) -> np.ndarray:
        leaf = self.apply(X)
        if self.classes_ is None:
            return self.value_[leaf, 0]
        return self.classes_[np.argmax(self.value_[leaf], axis=1)]

    def set_leaf_values(self, leaf_ids: np.ndarray, values: np.ndarray) -> None:
        """Overwrite regression outputs at the given leaves (boosting hook)."""
        if self.classes_ is not None:
            raise ValueError("leaf override only applies to regression trees")
        self.value_[leaf_ids, 0] = values

    @property
    def node_count(self) -> int:
        return len(self.feature_)
