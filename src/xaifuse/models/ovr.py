"""The logistic sigmoid, the softmax, the one-vs-rest rule and the argmax
prediction shared by the classifier families. All nine families are
`ProbaClassifier`s: each defines `predict_proba` and nothing else scores.

A binary problem gets one scorer whose positive class is the higher label;
a multiclass problem gets one scorer per class. Each scorer's raw score goes
through the sigmoid, and multiclass rows are normalized to sum to one.

The families that score query rows against stored rows (kNN against its
training rows, the SVM against each machine's support vectors, the tree
walker against its trees) score them in the row blocks of `row_blocks`, so
one block's (rows x stored rows) array of 8-byte cells holds about
BLOCK_CELLS cells and stays in cache; kNN's float32 screen fills the same
512 KiB with twice as many 4-byte cells. kNN and the SVM take their
distances from `_sq_distances` (kNN with p = 2, SVM prediction) or
`_fold_distances` (kNN with any other p, the kernel rows of an SVM fit).
`_sq_distances` is the one BLAS product against stored rows whose bits a
score keeps (kNN's float32 screen is bounded for any summation order), and
it alone knows numpy's one-row rule (its docstring), so blocks may have any
number of rows.
"""

from __future__ import annotations

import numpy as np


def sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-z) overflows to inf for z < -709, which correctly yields 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by the row maximum so exp cannot overflow."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def ovr_targets(y) -> tuple[np.ndarray, list[np.ndarray]]:
    """The sorted classes of y and the 0/1 float target of each scorer."""
    classes, yi = np.unique(np.asarray(y), return_inverse=True)
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    positives = [1] if len(classes) == 2 else range(len(classes))
    return classes, [(yi == c).astype(np.float64) for c in positives]


def ovr_proba(scores: np.ndarray) -> np.ndarray:
    """Class probabilities from raw scores of shape (n, n_scorers)."""
    probs = sigmoid(scores)
    if probs.shape[1] == 1:
        return np.column_stack([1.0 - probs[:, 0], probs[:, 0]])
    total = probs.sum(axis=1, keepdims=True)
    total[total == 0] = 1.0
    return probs / total


# 8-byte cells of one kNN distance, SVM kernel or tree walk block: 512 KiB.
# kNN (k = 5) scored fastest at 2^17 cells against 1,400, 3,360 and 7,000
# training rows, 6-11% slower at 2^16 and 7-25% slower at 2^18. kNN's
# float32 screen fills the same 512 KiB with 2 * BLOCK_CELLS 4-byte cells:
# 16,384 queries against 1,400 rows took 44 ms, and 56 ms at 2^16 cells
BLOCK_CELLS = 1 << 16


def row_blocks(n_rows: int, cols: int, itemsize: int = 8) -> list[slice]:
    """Consecutive slices over n_rows query rows, each scored as one
    (rows x cols) block of itemsize-byte cells: step rows each, the most with
    step * cols * itemsize <= 8 * BLOCK_CELLS but at least 2, so that only a
    one-row query or a one-row tail is a block of one row."""
    step = max(2, BLOCK_CELLS * 8 // itemsize // max(1, cols))
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def _sq_distances(q: np.ndarray, x: np.ndarray, sq_x: np.ndarray, out: np.ndarray) -> None:
    """Squared euclidean distances between the rows of q and of x (sq_x =
    (x**2).sum(1)) by one GEMM, clipped at 0, written into the len(q) x
    len(x) array out; the bits of (q**2).sum(1)[:, None] - 2.0 * q @ x.T +
    sq_x. The factor goes on q first: `q @ q.T` would take a symmetric BLAS
    product that rounds differently.

    numpy sends a one-row product to BLAS gemv, which rounds unlike the gemm
    of two or more rows, so a one-row q is scored as two copies of itself and
    keeps the first: it gets the bits of a two-row call. This is the one place
    that knows the rule, and callers block their rows freely. A row's gemm
    bits are not the same in every block for every shape, though: on OpenBLAS
    0.3.31's Haswell kernels, a 2-row and a 64-row call can differ in the last
    bits when len(x) is 193 or more and not a multiple of 8."""
    if len(q) == 1:
        pair = np.empty((2, len(x)))
        _sq_distances(np.repeat(q, 2, axis=0), x, sq_x, pair)
        out[:] = pair[:1]
        return
    np.matmul(-2.0 * q, x.T, out=out)
    out += (q**2).sum(axis=1)[:, None]
    out += sq_x
    np.maximum(out, 0.0, out=out)


def _fold_distances(
    q: np.ndarray, x: np.ndarray, p: float, out: np.ndarray, term: np.ndarray
) -> None:
    """Sum of |q_f - x_f|**p over the features, added in feature order into
    the len(q) x len(x) array out, each feature's terms held in term (same
    shape); every cell is a per-cell fold's, whatever the block."""
    out.fill(0.0)
    for f in range(q.shape[1]):
        np.subtract.outer(q[:, f], x[:, f], out=term)
        np.abs(term, out=term)
        term **= p
        out += term


class ProbaClassifier:
    """Predicts each row's most probable class; a subclass sets `classes_`
    and defines `predict_proba`, and no family overrides `predict`."""

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]
