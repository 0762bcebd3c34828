"""Bagged ensemble of decision trees.

Randomness is bootstrap resampling only; every tree sees all features, so a
single-tree forest without bootstrap is exactly the base tree. Per-tree
seeds derive from (seed, "tree", index), making results independent of
build order.

A bootstrap tree is fitted on the distinct drawn rows, each counted as
often as it was drawn and weighted by that count (as scikit-learn does).
Its class sums are integers, so they are exact, and the tree equals the one
grown on the drawn rows with their repeats, bit for bit. Each tree's
presort is the forest's one stable argsort of the training matrix, kept to
the drawn rows.

Trees grow in groups of consecutive trees, each group through one level
loop of `tree._grow` whose first level holds one root per tree, so a
forest pays the builder's fixed cost per level once per group rather than
once per tree. A group's rows are its trees' drawn rows laid end to end;
since the class sums are integers, the level-wide prefix sums are exact
whichever trees' rows come first, and each tree splits as if grown alone.
Each tree reads out its own node arrays, classes_ and value_ as a tree
fitted on its draw alone. A group's rows times the forest's varying
features stay within half of `ovr.BLOCK_CELLS`, so a level's dozen or so
(features x rows) arrays stay near 3 MB; a group holds at least one tree.
At the whole budget a group of the 20-tree sensor_planted forest raised the
benchmark's peak RSS by 2 MB, and half of it was about as fast.
"""

from __future__ import annotations

import numpy as np

from ..seeding import rng_for
from . import ovr
from .ovr import ProbaClassifier
from .tree import DecisionTree, TreeStack, _check_rows, _grow, _presort


class RandomForest(ProbaClassifier):
    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int = 50,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
        bootstrap: bool = True,
        seed: int = 0,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be positive")
        DecisionTree(max_depth, min_samples_leaf, min_samples_split)  # a tree's size checks
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.bootstrap = bootstrap
        self.seed = seed

    def fit(self, X, y) -> "RandomForest":
        X = _check_rows(X)
        n = X.shape[0]
        self.classes_, yi = np.unique(np.asarray(y), return_inverse=True)
        self.trees_ = [
            DecisionTree(self.max_depth, self.min_samples_leaf, self.min_samples_split)
            for _ in range(self.n_estimators)
        ]
        draws = []  # each tree's distinct rows, and how often each was drawn
        for t in range(self.n_estimators):
            if self.bootstrap:
                idx = rng_for(self.seed, "tree", t).integers(0, n, size=n)
                counts = np.bincount(idx, minlength=n)
                rows = np.flatnonzero(counts)
                draws.append((rows, counts[rows]))
            else:
                draws.append((np.arange(n), None))
        feats, xt, order = _presort(X)
        # consecutive trees share a level loop while their rows times the
        # varying features fit half the cell budget (module docstring)
        groups, cells = [[]], 0
        for t, (rows, _) in enumerate(draws):
            cells += len(rows) * len(feats)
            if groups[-1] and cells > ovr.BLOCK_CELLS // 2:
                groups.append([])
                cells = len(rows) * len(feats)
            groups[-1].append(t)
        for group in groups:
            trees = [self.trees_[t] for t in group]
            sizes = [len(draws[t][0]) for t in group]
            rows = np.concatenate([draws[t][0] for t in group])
            cnt = None if not self.bootstrap else np.concatenate([draws[t][1] for t in group])
            m = len(rows)
            # each tree's position of each of its rows; -1 where not drawn
            pos = np.full((len(group), n), -1)
            pos[np.repeat(np.arange(len(group)), sizes), rows] = np.arange(m)
            at = pos[:, order].transpose(1, 0, 2)  # (features, trees, rows)
            stat = np.zeros((len(self.classes_), m), dtype=np.int64)
            stat[yi[rows], np.arange(m)] = 1 if cnt is None else cnt
            presorted = feats, xt[:, rows], at[at >= 0].reshape(len(feats), m)
            _grow(trees, sizes, stat, yi[rows], None, cnt, presorted)
            for tree, t in zip(trees, group):
                # the classes its draw holds, as a tree fitted on it alone
                present = np.unique(yi[draws[t][0]])
                tree.classes_ = self.classes_[present]
                tree.value_ = tree.value_[:, present]
        self._stack = TreeStack(self.trees_)
        # value_ is each stacked node's class distribution over classes_;
        # bootstrap samples can miss rare classes, so align by label
        self.value_ = np.zeros((len(self._stack.feature), len(self.classes_)))
        for tree, root in zip(self.trees_, self._stack.roots):
            cols = np.searchsorted(self.classes_, tree.classes_)
            self.value_[root : root + tree.node_count, cols] = tree.value_
        return self

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.zeros((X.shape[0], len(self.classes_)))
        return self._stack.tree_sum(X, self.value_, out) / len(self.trees_)
