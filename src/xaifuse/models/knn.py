"""k-nearest-neighbor classifier with chunked distance evaluation.

Query rows are scored in chunks of CHUNK_SIZE: one squared-distance block
(CHUNK_SIZE x n_train) per chunk, from one GEMM. The k nearest of each row
are then selected in sub-blocks of PARTITION_ROWS rows of that block, so
the partition's index array stays PARTITION_ROWS x n_train instead of a
second block-sized array. Every row is partitioned on its own, so neither
size changes which neighbours a row gets.
"""

from __future__ import annotations

import numpy as np

from .ovr import ProbaClassifier

# query rows per distance block; bounds the block at CHUNK_SIZE x n_train
CHUNK_SIZE = 1024
# distance rows per neighbour selection; bounds the partition's index array
# at PARTITION_ROWS x n_train
PARTITION_ROWS = 128


def _sq_distances(q: np.ndarray, x: np.ndarray, sq_x: np.ndarray) -> np.ndarray:
    """Squared euclidean distances between the rows of q and of x (sq_x =
    (x**2).sum(1)), clipped at 0. Built in place, so the result is the only
    q-by-x temporary; the bits equal those of the plain expression
    (q**2).sum(1)[:, None] - 2.0 * q @ x.T + sq_x. The factor goes on q
    first, as there: `q @ q.T` would take a symmetric BLAS product that
    rounds differently."""
    d = (-2.0 * q) @ x.T
    d += (q**2).sum(axis=1)[:, None]
    d += sq_x
    np.maximum(d, 0.0, out=d)
    return d


class KnnClassifier(ProbaClassifier):
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
        n_classes = len(self.classes_)
        votes = np.zeros((X.shape[0], n_classes))
        sq_train = (self._x**2).sum(axis=1) if self.p == 2.0 else None
        for lo in range(0, X.shape[0], CHUNK_SIZE):
            labels = self._neighbor_labels(X[lo : lo + CHUNK_SIZE], sq_train)
            votes[lo : lo + len(labels)] = (
                labels[:, :, None] == np.arange(n_classes)
            ).sum(axis=1)
        return votes

    def _neighbor_labels(self, q: np.ndarray, sq_train) -> np.ndarray:
        """Class index of each query row's k nearest training rows. The
        distance block dies on return, so it never overlaps the next
        chunk's. Each row is partitioned on its own, so selecting in
        sub-blocks of PARTITION_ROWS rows picks what one partition of the
        whole block would."""
        if self.p == 2.0:
            d = _sq_distances(q, self._x, sq_train)
        else:
            d = np.zeros((len(q), len(self._x)))
            for j in range(q.shape[1]):  # one feature at a time: no p-fold temporary
                term = np.abs(np.subtract.outer(q[:, j], self._x[:, j]))
                term **= self.p
                d += term
        k = self.n_neighbors
        if k == d.shape[1]:
            return np.broadcast_to(self._yi, d.shape)
        labels = np.empty((len(d), k), dtype=self._yi.dtype)
        for lo in range(0, len(d), PARTITION_ROWS):
            part = np.argpartition(d[lo : lo + PARTITION_ROWS], k - 1, axis=1)
            labels[lo : lo + len(part)] = self._yi[part[:, :k]]
        return labels

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return self._neighbor_votes(X) / self.n_neighbors
