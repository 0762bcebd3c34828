"""Boosted tree ensembles: real-valued adaptive boosting and gradient boosting.

AdaBoost follows the real (probability-based) variant: each round fits a
weighted tree, adds the symmetrized log-probability vote, and reweights rows
by the coded-label margin. A round that classifies the weighted sample
perfectly ends training, so a memorizing base tree yields a one-tree
ensemble identical to that tree. The class probabilities are the softmax of
the mean vote over k - 1 (SAMME.R), and a prediction is their argmax.

GradientBoosting fits regression trees to logistic-loss residuals and
replaces each leaf's mean with a Newton step (sum of residuals over sum of
hessians). Multiclass trains one scorer per class and normalizes.
"""

from __future__ import annotations

import numpy as np

from .ovr import ProbaClassifier, ovr_proba, ovr_targets, sigmoid, softmax
from .tree import DecisionTree, TreeStack, _end_to_end, _presort

_PROBA_FLOOR = 1e-10


class AdaBoost(ProbaClassifier):
    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 1.0,
        base_max_depth: int = 50,
        base_min_samples_leaf: int = 1,
    ):
        if n_estimators < 1 or learning_rate <= 0:
            raise ValueError("invalid boosting parameters")
        DecisionTree(base_max_depth, base_min_samples_leaf)  # a tree's size checks
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.base_max_depth = base_max_depth
        self.base_min_samples_leaf = base_min_samples_leaf

    def fit(self, X, y) -> "AdaBoost":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        self.classes_, yi = np.unique(y, return_inverse=True)
        k = len(self.classes_)
        if k < 2:
            raise ValueError("need at least two classes")
        n = X.shape[0]
        w = np.full(n, 1.0 / n)
        # coded labels: 1 for the true class, -1/(k-1) elsewhere
        coded = np.full((n, k), -1.0 / (k - 1))
        coded[np.arange(n), yi] = 1.0

        presorted = _presort(X)
        self.trees_: list[DecisionTree] = []
        for _ in range(self.n_estimators):
            tree = DecisionTree(
                max_depth=self.base_max_depth,
                min_samples_leaf=self.base_min_samples_leaf,
            )
            leaves = tree._fit(X, yi, w, presorted)
            proba = tree.value_[leaves]
            self.trees_.append(tree)
            err = float(w @ (np.argmax(proba, axis=1) != yi))
            if err <= 0.0:
                break
            log_p = np.log(np.maximum(proba, _PROBA_FLOOR))
            # weight update uses the margin between coded labels and votes
            w = w * np.exp(
                -self.learning_rate * ((k - 1.0) / k) * (coded * log_p).sum(axis=1)
            )
            total = w.sum()
            if total <= 0 or not np.isfinite(total):
                break
            w /= total
        self._stack = TreeStack(self.trees_)
        # each leaf's symmetrized log-probability vote, as a row would get it
        leaf_p = np.concatenate([t.value_ for t in self.trees_])
        log_p = np.log(np.maximum(leaf_p, _PROBA_FLOOR))
        self._votes = (k - 1.0) * (log_p - log_p.mean(axis=1, keepdims=True))
        return self

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        k = len(self.classes_)
        votes = self._stack.tree_sum(X, self._votes, np.zeros((X.shape[0], k)))
        return softmax(votes / len(self.trees_) / (k - 1.0))


class GradientBoosting(ProbaClassifier):
    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.03,
        max_depth: int = 10,
        min_samples_leaf: int = 1,
    ):
        if n_estimators < 0 or learning_rate < 0:
            raise ValueError("invalid boosting parameters")
        DecisionTree(max_depth, min_samples_leaf)  # a tree's size checks
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf

    def fit(self, X, y) -> "GradientBoosting":
        """One additive stage list per one-vs-rest scorer: its prior
        log-odds, its trees and their leaf steps."""
        X = np.asarray(X, dtype=np.float64)
        self.classes_, targets = ovr_targets(y)
        presorted = _presort(X)
        self.priors_, self.trees_, self._stacks, self._steps = [], [], [], []
        for y01 in targets:
            pos = min(max(y01.mean(), 1e-12), 1.0 - 1e-12)
            prior = float(np.log(pos / (1.0 - pos)))
            f = np.full(X.shape[0], prior)
            trees = []
            for _ in range(self.n_estimators):
                p = sigmoid(f)
                residual = y01 - p
                tree = DecisionTree(
                    max_depth=self.max_depth,
                    min_samples_leaf=self.min_samples_leaf,
                )
                leaves = tree._fit(X, residual, presorted=presorted, regression=True)
                size = tree.node_count
                num = np.bincount(leaves, weights=residual, minlength=size)
                den = np.bincount(leaves, weights=p * (1.0 - p), minlength=size)
                leaf = tree.feature_ < 0  # every leaf holds a fit row
                tree.value_[leaf, 0] = num[leaf] / np.maximum(den[leaf], 1e-12)
                trees.append(tree)
                f += self.learning_rate * tree.value_[leaves, 0]
            self.priors_.append(prior)
            self.trees_.append(trees)
            self._stacks.append(TreeStack(trees))
            steps = _end_to_end([t.value_[:, 0] for t in trees], np.float64)
            self._steps.append(self.learning_rate * steps)
        return self

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        raw = [
            stack.tree_sum(X, steps, np.full(X.shape[0], prior))
            for prior, stack, steps in zip(self.priors_, self._stacks, self._steps)
        ]
        return ovr_proba(np.column_stack(raw))
