"""k-nearest-neighbor classifier scored in cache-sized blocks.

Query rows are scored in the blocks of `ovr.row_blocks`: about
BLOCK_CELLS // n_train rows each, and never one row alone unless the query
has one row, since a one-row product takes BLAS gemv and rounds its
distances differently. Each block's (rows x n_train) distances go into one
array that stays in cache: the GEMM of `ovr._sq_distances` for p = 2, the
same bits in every block of two or more rows, else `ovr._fold_distances`.

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

from .ovr import ProbaClassifier, _fold_distances, _sq_distances, row_blocks

# the largest k that selects by argmin passes: against 1,400 to 7,000
# training rows the passes were 2-9% faster than argpartition at k = 12 and
# 4-23% slower at k = 16
ARGMIN_MAX_K = 8


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
        # one distance array (and one fold term array) serves every block: a
        # fresh one per block can be handed out by mmap and page-faulted in
        dist = np.empty((max((b.stop - b.start for b in blocks), default=0), len(self._x)))
        term = None if self.p == 2.0 else np.empty_like(dist)
        for rows in blocks:
            d = dist[: rows.stop - rows.start]
            if term is None:
                _sq_distances(X[rows], self._x, sq_train, d)
            else:
                _fold_distances(X[rows], self._x, self.p, d, term[: len(d)])
            labels = self._neighbor_labels(d)
            votes[rows] = (labels[:, :, None] == np.arange(n_classes)).sum(axis=1)
        return votes

    def _neighbor_labels(self, d: np.ndarray) -> np.ndarray:
        """Class indices of the k nearest training rows of each row of a
        block, from its distances d (rows x n_train, left overwritten)."""
        k = self.n_neighbors
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
