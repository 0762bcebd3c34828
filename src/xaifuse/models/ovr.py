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
BLOCK_CELLS cells and stays in cache.
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


# cells of one kNN distance, SVM kernel or tree walk block: 512 KiB. kNN
# (k = 5) scored fastest at 2^17 cells against 1,400, 3,360 and 7,000
# training rows, 6-11% slower at 2^16 and 7-25% slower at 2^18
BLOCK_CELLS = 1 << 16


def row_blocks(n_rows: int, cols: int, multiple: int = 1) -> list[slice]:
    """Consecutive slices over n_rows query rows, each scored as one
    (rows x cols) block. A block starts every `step` rows: the largest
    multiple of `multiple` with step * cols <= BLOCK_CELLS, but at least
    max(2, multiple). A one-row tail joins the block before it, because
    numpy scores a one-row product through BLAS gemv, which rounds
    differently from the gemm of a block of two or more rows."""
    step = max(2, multiple, BLOCK_CELLS // max(1, cols) // multiple * multiple)
    bounds = list(range(0, n_rows, step))
    if len(bounds) > 1 and n_rows - bounds[-1] == 1:
        bounds.pop()
    bounds.append(n_rows)
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


class ProbaClassifier:
    """Predicts each row's most probable class; a subclass sets `classes_`
    and defines `predict_proba`, and no family overrides `predict`."""

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]
