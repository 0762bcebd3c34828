"""k-nearest-neighbor classifier scored in cache-sized blocks.

Query rows are scored in the blocks of `ovr.row_blocks`: about
BLOCK_CELLS // n_train rows each, and never one row alone unless the query
has one row, since a one-row product takes BLAS gemv and rounds its
distances differently. Each block gets one squared-distance array
(rows x n_train) from one GEMM, which stays in cache, and its distances
have the same bits in every block of two or more rows.

Selection takes a row's k nearest with k passes of `argmin` over the
block, writing inf over each cell it takes; one last `min` gives the
(k+1)-th distance. Where the k-th distance is strictly below it, the k
nearest are the only choice, and the row keeps them. Every other row (a
tie at the k-th distance, a NaN distance, or an inf among the k nearest)
gets its cells back and takes `argpartition`'s choice, as does every row
when k exceeds ARGMIN_MAX_K. So the selection is argpartition's, row by
row, and the block size does not change which neighbours a row gets.
"""

from __future__ import annotations

import numpy as np

from .ovr import ProbaClassifier, row_blocks

# the largest k that selects by argmin passes: against 1,400 to 7,000
# training rows the passes were 2-9% faster than argpartition at k = 12 and
# 4-23% slower at k = 16
ARGMIN_MAX_K = 8


def _sq_distances(q: np.ndarray, x: np.ndarray, sq_x: np.ndarray, d: np.ndarray) -> None:
    """Squared euclidean distances between the rows of q and of x (sq_x =
    (x**2).sum(1)), clipped at 0, written into the len(q) x len(x) array d
    with no q-by-x temporary; the bits equal those of the plain expression
    (q**2).sum(1)[:, None] - 2.0 * q @ x.T + sq_x. The factor goes on q
    first, as there: `q @ q.T` would take a symmetric BLAS product that
    rounds differently."""
    np.matmul(-2.0 * q, x.T, out=d)
    d += (q**2).sum(axis=1)[:, None]
    d += sq_x
    np.maximum(d, 0.0, out=d)


class KnnClassifier(ProbaClassifier):
    """Majority vote over the k closest training rows (minkowski metric).

    Votes are unweighted; probability output is the vote fraction per
    class. Tie rule: where a row's k-th and (k+1)-th distances are not
    strictly ordered (or a distance is NaN), the neighbours are
    `np.argpartition`'s choice, which is fixed for identical inputs, so
    repeated queries agree exactly.
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
        blocks = row_blocks(X.shape[0], len(self._x))
        # one distance array serves every block: a fresh one per block can
        # be handed out by mmap and page-faulted in each time
        dist = np.empty((max((b.stop - b.start for b in blocks), default=0), len(self._x)))
        for rows in blocks:
            labels = self._neighbor_labels(X[rows], sq_train, dist[: rows.stop - rows.start])
            votes[rows] = (labels[:, :, None] == np.arange(n_classes)).sum(axis=1)
        return votes

    def _distances(self, q: np.ndarray, sq_train, d: np.ndarray) -> None:
        """The minkowski distances (squared for p = 2) between the rows of
        the block q and the training rows, written into the array d."""
        if self.p == 2.0:
            _sq_distances(q, self._x, sq_train, d)
        else:
            d.fill(0.0)
            for j in range(q.shape[1]):  # one feature at a time: no p-fold temporary
                term = np.abs(np.subtract.outer(q[:, j], self._x[:, j]))
                term **= self.p
                d += term

    def _neighbor_labels(self, q: np.ndarray, sq_train, d: np.ndarray) -> np.ndarray:
        """Class indices of the k nearest training rows of each row of the
        block q, selected from the distances that this writes into the
        len(q) x n_train array d (left overwritten)."""
        self._distances(q, sq_train, d)
        k = self.n_neighbors
        if k == d.shape[1]:
            return np.broadcast_to(self._yi, d.shape)
        if k > ARGMIN_MAX_K:
            return self._yi[np.argpartition(d, k - 1, axis=1)[:, :k]]
        rows = np.arange(len(d))
        near = np.empty((len(d), k), dtype=np.intp)
        taken = np.empty((len(d), k))
        for i in range(k):
            near[:, i] = j = d.argmin(axis=1)
            taken[:, i] = d[rows, j]
            d[rows, j] = np.inf
        # NaN fails this test: max and min propagate it
        tied = ~(taken.max(axis=1) < d.min(axis=1))
        if tied.any():
            tied = np.flatnonzero(tied)
            # reverse pass order: a cell taken twice (once every cell left
            # is inf) gets back the distance its first pass read
            for i in reversed(range(k)):
                d[tied, near[tied, i]] = taken[tied, i]
            near[tied] = np.argpartition(d[tied], k - 1, axis=1)[:, :k]
        return self._yi[near]

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return self._neighbor_votes(X) / self.n_neighbors
