"""k-nearest-neighbor classifier with chunked distance evaluation."""

from __future__ import annotations

import numpy as np

# query rows per distance block; bounds the block at CHUNK_SIZE x n_train
CHUNK_SIZE = 1024


class KnnClassifier:
    """Majority vote over the k closest training rows (minkowski metric).

    Votes are unweighted; probability output is the vote fraction per
    class. Boundary ties resolve by partition order, which is fixed for
    identical inputs, so repeated queries agree exactly.
    """

    def __init__(self, n_neighbors: int = 5, p: float = 2.0):
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be positive")
        if p <= 0:
            raise ValueError("minkowski exponent must be positive")
        self.n_neighbors = n_neighbors
        self.p = p

    def fit(self, X, y) -> "KnnClassifier":
        self._x = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        self.classes_, self._yi = np.unique(y, return_inverse=True)
        if self.n_neighbors > self._x.shape[0]:
            raise ValueError("k exceeds the number of training rows")
        return self

    def _neighbor_votes(self, X: np.ndarray) -> np.ndarray:
        n_query = X.shape[0]
        k = self.n_neighbors
        n_classes = len(self.classes_)
        votes = np.zeros((n_query, n_classes))
        sq_train = None
        if self.p == 2.0:
            sq_train = (self._x**2).sum(axis=1)
        for lo in range(0, n_query, CHUNK_SIZE):
            q = X[lo : lo + CHUNK_SIZE]
            if self.p == 2.0:
                d = (q**2).sum(axis=1)[:, None] - 2.0 * q @ self._x.T + sq_train
                np.maximum(d, 0.0, out=d)
            else:
                d = (
                    np.abs(q[:, None, :] - self._x[None, :, :]) ** self.p
                ).sum(axis=2)
            if k < d.shape[1]:
                nearest = np.argpartition(d, k - 1, axis=1)[:, :k]
            else:
                nearest = np.broadcast_to(np.arange(d.shape[1]), d.shape).copy()
            labels = self._yi[nearest]
            for c in range(n_classes):
                votes[lo : lo + q.shape[0], c] = (labels == c).sum(axis=1)
        return votes

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return self._neighbor_votes(X) / self.n_neighbors

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]
