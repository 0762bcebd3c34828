"""The logistic sigmoid, the softmax, the one-vs-rest rule and the argmax
prediction shared by the classifier families. All nine families are
`ProbaClassifier`s: each defines `predict_proba` and nothing else scores.

A binary problem gets one scorer whose positive class is the higher label;
a multiclass problem gets one scorer per class. Each scorer's raw score goes
through the sigmoid, and multiclass rows are normalized to sum to one.
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


class ProbaClassifier:
    """Predicts each row's most probable class; a subclass sets `classes_`
    and defines `predict_proba`, and no family overrides `predict`."""

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]
