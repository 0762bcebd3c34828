"""L2-regularized logistic regression fit by Newton iterations.

Binary problems use a single IRLS solve; multiclass trains one-vs-rest and
normalizes the per-class sigmoids. class_weight="balanced" reweights rows by
n / (n_classes * count(class)) so minority classes pull their weight.
"""

from __future__ import annotations

import numpy as np

from .ovr import ProbaClassifier, ovr_proba, ovr_targets, sigmoid

# Newton iterations stop once no coefficient moves by more than this
TOL = 1e-8


class LogisticRegression(ProbaClassifier):
    def __init__(
        self,
        c: float = 1.0,
        max_iter: int = 1000,
        class_weight: str | None = "balanced",
    ):
        if c <= 0 or max_iter < 1:
            raise ValueError("c and max_iter must be positive")
        if class_weight not in (None, "balanced"):
            raise ValueError("class_weight must be None or 'balanced'")
        self.c = c
        self.max_iter = max_iter
        self.class_weight = class_weight

    def fit(self, X, y) -> "LogisticRegression":
        X = np.asarray(X, dtype=np.float64)
        self.classes_, targets = ovr_targets(y)
        n, p = X.shape
        k = len(self.classes_)

        if self.class_weight == "balanced":
            yi = np.searchsorted(self.classes_, np.asarray(y))
            counts = np.bincount(yi, minlength=k)
            w_class = n / (k * counts.astype(np.float64))
            row_w = w_class[yi]
        else:
            row_w = np.ones(n)

        self.coef_ = np.zeros((len(targets), p))
        self.intercept_ = np.zeros(len(targets))
        xb = np.column_stack([X, np.ones(n)])
        lam = 1.0 / self.c
        for m, target in enumerate(targets):
            beta = self._irls(xb, target, row_w, lam, p)
            self.coef_[m] = beta[:p]
            self.intercept_[m] = beta[p]
        return self

    def _irls(
        self, xb: np.ndarray, t: np.ndarray, row_w: np.ndarray, lam: float, p: int
    ) -> np.ndarray:
        beta = np.zeros(xb.shape[1])
        # intercept is not penalized
        reg = np.full(xb.shape[1], lam)
        reg[p] = 0.0
        for _ in range(self.max_iter):
            z = xb @ beta
            mu = sigmoid(z)
            grad = xb.T @ (row_w * (mu - t)) + reg * beta
            s = row_w * mu * (1.0 - mu)
            h = (xb * s[:, None]).T @ xb + np.diag(reg)
            # separable data drives the hessian singular; ridge the solve
            h[np.diag_indices_from(h)] += 1e-10
            step = np.linalg.solve(h, grad)
            beta = beta - step
            if np.max(np.abs(step)) < TOL:
                break
        return beta

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return ovr_proba(X @ self.coef_.T + self.intercept_)
