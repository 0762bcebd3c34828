"""RBF-kernel support vector classifier trained by sequential minimal optimization.

The dual solve follows the simplified SMO scheme: scan rows for KKT
violations, pair each violator with the row maximizing |E_i - E_j|, and
update the pair analytically. The second choice is an argmax, not a random
draw, so training is deterministic. Total pair updates are capped at
updates_per_row * n to bound runtime on hard problems.

Probabilities come from a sigmoid fit to the decision values on the
training set (Platt's regularized targets, Newton solve). One-vs-rest:
`_smo` solves one machine per scorer, and multiclass rows normalize the
sigmoids.

No n x n Gram matrix is built. As in LIBSVM (Chang & Lin 2011), a fit reads
the training kernel through `_KernelRows`, which computes a row the first
time SMO or the Platt step reads it and keeps it until `fit` returns. SMO
reads only the rows of the pairs it tries to update, and the Platt step
those of the support vectors, so a fit holds at most n rows and usually a
small share of them.

`predict_proba` scores each machine in the row blocks of `ovr.row_blocks`,
so a (rows x support vectors) kernel block holds about BLOCK_CELLS cells.
The kernel values come from `ovr._sq_distances`, and each row's product
with the dual coefficients is summed by `einsum` in the same order for
every row, not by BLAS gemv, which rounds a row by its place in the block.
So a row's score does not depend on the rows scored with it, except where
the distances' own GEMM bits do (for some support-vector counts of 193 or
more, see `ovr._sq_distances`).
"""

from __future__ import annotations

import numpy as np

from .ovr import ProbaClassifier, ovr_proba, ovr_targets, row_blocks, sigmoid
from .ovr import _fold_distances, _sq_distances


def _rbf(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    # the squared distances become the kernel in place
    d = np.empty((len(a), len(b)))
    _sq_distances(a, b, (b**2).sum(axis=1), d)
    d *= -gamma
    return np.exp(d, out=d)


class _KernelRows:
    """The RBF kernel of one fit's training rows, read one row at a time.

    Row j is exp(-gamma * d), where `ovr._fold_distances` (p = 2) sums
    (x_jf - x_f)**2 over the features in feature order, so K[i, j] ==
    K[j, i] and K[i, i] == 1 exactly. Each row is computed on its first
    read and kept.
    """

    def __init__(self, X: np.ndarray, gamma: float):
        self._X = X
        self._gamma = gamma
        self._rows: dict[int, np.ndarray] = {}
        self._term = np.empty((1, len(X)))

    def __getitem__(self, j: int) -> np.ndarray:
        j = int(j)
        row = self._rows.get(j)
        if row is None:
            d = np.empty((1, len(self._X)))
            _fold_distances(self._X[j : j + 1], self._X, 2.0, d, self._term)
            d *= -self._gamma
            row = self._rows[j] = np.exp(d, out=d)[0]
        return row

    def stack(self, idx: np.ndarray) -> np.ndarray:
        """Rows `idx` as one len(idx) x n array."""
        out = np.empty((len(idx), len(self._X)))
        for k, j in enumerate(idx):
            out[k] = self[j]
        return out


def _platt_fit(scores: np.ndarray, labels01: np.ndarray) -> tuple[float, float]:
    """Fit p(y=1|f) = sigmoid(a*f + b) by Newton descent on regularized NLL."""
    n_pos = int(labels01.sum())
    n_neg = len(labels01) - n_pos
    t = np.where(labels01 == 1, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (n_neg + 2.0))
    a, b = 0.0, np.log((n_neg + 1.0) / (n_pos + 1.0))
    for _ in range(100):
        z = a * scores + b
        p = sigmoid(z)
        g = p - t
        ga = float(g @ scores)
        gb = float(g.sum())
        w = np.maximum(p * (1.0 - p), 1e-12)
        haa = float(w @ (scores**2)) + 1e-12
        hab = float(w @ scores)
        hbb = float(w.sum()) + 1e-12
        det = haa * hbb - hab * hab
        if abs(det) < 1e-18:
            break
        da = (hbb * ga - hab * gb) / det
        db = (haa * gb - hab * ga) / det
        a -= da
        b -= db
        if max(abs(da), abs(db)) < 1e-10:
            break
    return a, b


def _smo(
    rows: _KernelRows, y_pm: np.ndarray, c: float, tol: float, max_updates: int
) -> tuple[np.ndarray, float]:
    """The dual coefficients and intercept of one machine for labels coded
    -1/+1. `rows[j]` is row j of the training RBF kernel, whose diagonal is
    1; a dense symmetric kernel array serves as well."""
    n = len(y_pm)
    alpha = np.zeros(n)
    b = 0.0
    err = -y_pm  # f(x) - y with f == 0 initially
    updates = 0
    passes_clean = 0
    while passes_clean < 1 and updates < max_updates:
        changed = 0
        for i in range(n):
            yi = y_pm[i]
            ei = err[i]
            r = ei * yi
            if not ((r < -tol and alpha[i] < c) or (r > tol and alpha[i] > 0)):
                continue
            gap = np.abs(err - ei)
            gap[i] = -1.0
            j = int(np.argmax(gap))
            yj = y_pm[j]
            ej = err[j]
            ai_old, aj_old = alpha[i], alpha[j]
            if yi != yj:
                lo = max(0.0, aj_old - ai_old)
                hi = min(c, c + aj_old - ai_old)
            else:
                lo = max(0.0, ai_old + aj_old - c)
                hi = min(c, ai_old + aj_old)
            if lo >= hi:
                continue
            kij = rows[j][i]
            eta = 2.0 * kij - 2.0
            if eta >= 0:
                continue
            aj = aj_old - yj * (ei - ej) / eta
            aj = min(max(aj, lo), hi)
            if abs(aj - aj_old) < 1e-12:
                continue
            ai = ai_old + yi * yj * (aj_old - aj)
            alpha[i], alpha[j] = ai, aj
            di = yi * (ai - ai_old)
            dj = yj * (aj - aj_old)
            b1 = b - ei - di - dj * kij
            b2 = b - ej - di * kij - dj
            if 0 < ai < c:
                b_new = b1
            elif 0 < aj < c:
                b_new = b2
            else:
                b_new = (b1 + b2) / 2.0
            err += di * rows[i] + dj * rows[j] + (b_new - b)
            b = b_new
            changed += 1
            updates += 1
            if updates >= max_updates:
                break
        passes_clean = passes_clean + 1 if changed == 0 else 0
    return alpha, b


class SvmRbf(ProbaClassifier):
    """RBF-kernel SVM with one binary machine per one-vs-rest scorer. `fit`
    reads the training kernel through one `_KernelRows` that every machine
    shares and that is dropped when `fit` returns; the rows it computes are
    8n bytes each, at most n of them. The model keeps per scorer its
    support vectors, dual coefficients, intercept and Platt pair."""

    def __init__(
        self,
        c: float = 1.0,
        gamma: float | str = "auto",
        tol: float = 1e-3,
        updates_per_row: int = 10,
    ):
        if c <= 0 or tol <= 0 or updates_per_row < 1:
            raise ValueError("c and tol must be positive, updates_per_row at least 1")
        if gamma != "auto" and (isinstance(gamma, str) or gamma <= 0):
            raise ValueError("gamma must be a positive number or 'auto'")
        self.c = c
        self.gamma = gamma
        self.tol = tol
        self.updates_per_row = updates_per_row

    def fit(self, X, y) -> "SvmRbf":
        X = np.asarray(X, dtype=np.float64)
        n, p = X.shape
        self.classes_, targets = ovr_targets(y)
        self.gamma_ = 1.0 / p if self.gamma == "auto" else float(self.gamma)
        rows = _KernelRows(X, self.gamma_)
        self.support_vectors_, self.dual_coef_, self.intercept_, self.platt_ = [], [], [], []
        for t in targets:
            y_pm = 2.0 * t - 1.0
            alpha, b = _smo(rows, y_pm, self.c, self.tol, self.updates_per_row * n)
            sv = np.flatnonzero(alpha > 1e-12)
            coef = alpha[sv] * y_pm[sv]
            self.support_vectors_.append(X[sv])
            self.dual_coef_.append(coef)
            self.intercept_.append(b)
            self.platt_.append(_platt_fit(coef @ rows.stack(sv) + b, y_pm == 1))
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Each scorer's decision value on the logit scale of its Platt
        sigmoid, through the one-vs-rest rule."""
        X = np.asarray(X, dtype=np.float64)
        scores = np.empty((len(X), len(self.support_vectors_)))
        for m, (sv, coef, b, (a, pb)) in enumerate(
            zip(self.support_vectors_, self.dual_coef_, self.intercept_, self.platt_)
        ):
            for rows in row_blocks(len(X), len(sv)):
                kernel = _rbf(X[rows], sv, self.gamma_)
                scores[rows, m] = a * (np.einsum("ij,j->i", kernel, coef) + b) + pb
        return ovr_proba(scores)
