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
"""

from __future__ import annotations

import numpy as np

from ..seeding import rng_for
from .ovr import ProbaClassifier
from .tree import DecisionTree, TreeStack, _presort, _presort_rows


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
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        n = X.shape[0]
        self.classes_ = np.unique(y)
        self.trees_ = []
        presorted = _presort(X)
        for t in range(self.n_estimators):
            tree = DecisionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                min_samples_split=self.min_samples_split,
            )
            if self.bootstrap:
                # each drawn row once, standing for as many rows as its draws
                idx = rng_for(self.seed, "tree", t).integers(0, n, size=n)
                counts = np.bincount(idx, minlength=n)
                rows = np.flatnonzero(counts)
                tree._fit(
                    X[rows], y[rows], presorted=_presort_rows(presorted, rows), counts=counts[rows]
                )
            else:
                tree._fit(X, y, presorted=presorted)
            self.trees_.append(tree)
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
