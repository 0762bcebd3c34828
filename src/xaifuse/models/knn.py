"""k-nearest-neighbor classifier scored in cache-sized blocks.

Query rows are scored in the blocks of `ovr.row_blocks`, about
BLOCK_CELLS // n_train rows each. Each block's (rows x n_train) distances go
into one array that stays in cache: the GEMM of `ovr._sq_distances` for
p = 2 (a one-row block gets the bits of a two-row one; other block sizes
can move the last bits for some n_train, see that docstring), else
`ovr._fold_distances`, whose cells do not depend on the block.

Selection takes a row's k nearest with k passes of `argmin` over the
block, writing inf over each cell it takes; one last `min` gives the
(k+1)-th distance. Where the k-th distance is strictly below it, the k
nearest are the only choice, and the row keeps them. Every other row (a
tie at the k-th distance, a NaN distance, or an inf among the k nearest)
gets its cells back and takes `argpartition`'s choice, as does every row
when k exceeds ARGMIN_MAX_K. So the selection is argpartition's, row by
row, and given its distances the block size does not change which
neighbours a row gets.

A float32 screen goes first for p = 2 and k <= ARGMIN_MAX_K. It leaves
|q|^2 out of the GEMM expansion: a row's own norm shifts all its distances
alike, so the order and the gaps of its distances D are those of D~ =
-2 q.t + |t|^2. One float32 GEMM per block gives D~: rows [-2q | 1]
against the columns [t | |t|^2] that `fit` keeps.
A block holds 2 * BLOCK_CELLS 4-byte cells (`row_blocks` with itemsize 4),
and the same argmin passes pick k neighbours. A row keeps them only when
its float32 (k+1)-th value exceeds its k-th by more than
`_rounding_bound`, which is at least 2(E32 + E64): E32 bounds the float32
error of D~, E64 the float64 path's error of D. For a neighbour i and any
other training row j, D_j - D_i = D~_j - D~_i, so the float64 distances
obey D64_j - D64_i >= D~32_j - D~32_i - 2(E32 + E64) > 0. The float64
path then takes the same k rows with a strict gap, and the row's votes
are its votes. Every other row (a tie, a near tie, a NaN, or a row
outside the range of `_f32_safe`) is scored again by the float64 path.
The bound holds for any summation order, so a one-row block, which BLAS
sums by gemv, is screened like any other.

The bound. Take a query row q and a training row t of n features, S =
|q|^2 + |t|^2, u = 2^-24, eta = 2^-126 (the smallest normal float32: the
most an underflowed value moves, with or without flush-to-zero) and
gamma_m = m u / (1 - m u), the dot-product error bound of Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, section
3.1. |q|.|t| is the dot of the absolute values, and 2|q|.|t| <= S.
- Rounding q and t to float32 (q', t') moves each cell x by at most u|x| +
  eta, so -2 q'.t' is within (2u + u^2) 2|q|.|t| <= gamma_2 S of -2 q.t,
  plus 2(1 + u) eta (|q|_1 + |t|_1) + 2n eta^2.
- The float32 |t|^2 is the float64 sum of t^2 rounded to float32: within
  gamma_2 |t|^2 + 1.01 eta of |t|^2.
- The GEMM adds n + 1 terms, in any order, with or without FMA, and each
  is rounded at most n + 1 times. So the sum is within gamma_{n+1} times
  the sum of their absolute values (Higham's (3.5)), 2|q'|.|t'| + |t|^2 <=
  2(1 + gamma_2) S, plus 1.01 eta for each product that underflows.
  So E32 <= (gamma_2 + gamma_2 + 2 gamma_{n+1} (1 + gamma_2)) S <=
  2 gamma_{n+5} S, plus the eta terms.
- The float64 path's distance is a sum of 3n products (from the sum of
  q^2, the GEMM dot and |t|^2), each rounded at most n + 2 times, then
  clipped at 0, which moves nothing away from D >= 0. So it is within
  2 gamma64_{n+2} S <= u S of D (n < 2^27), plus 1.01 * 2^-1022 for each
  product that underflows.
With n u <= 2^-10, |q|_1 + |t|_1 <= sqrt(2nS) and 2.01 eta sqrt(2nS) <=
u S + 2.02 n eta^2 / u, the terms add up to E32 + E64 <= 2 gamma_{n+6} S
+ 2(n + 1) eta. The screen takes S = |q|^2 + max |t|^2 over the training
rows and asks for a gap above 4 gamma_{n+7} S + 8(n + 1) eta: the last
gamma step and the spare 4(n + 1) eta cover the float64 rounding of the
norms, of the bound and of the gap.

The range. A row is screened only when its float64 |q|^2 is at most
2^100, and `fit` keeps the float32 columns only when every training row's
|t|^2 is too and n <= 2^14. Then no float32 value in the GEMM exceeds
about 2^102, far below float32's largest, near 2^128. A NaN or infinite
row fails the test and enters the GEMM as zeros, so no float32 operation
overflows or warns.
"""

from __future__ import annotations

import numpy as np

from .ovr import ProbaClassifier, _fold_distances, _sq_distances, row_blocks

# the largest k that selects by argmin passes: against 1,400 to 7,000
# training rows the passes were 2-9% faster than argpartition at k = 12 and
# 4-23% slower at k = 16
ARGMIN_MAX_K = 8


def _f32_safe(sq_norms: np.ndarray) -> np.ndarray:
    """Whether rows of these float64 squared norms are in the float32
    screen's range (see the module docstring); False for NaN and inf."""
    return sq_norms <= 2.0**100


def _rounding_bound(sq_norms: np.ndarray, n_features: int) -> np.ndarray:
    """The float32 gap between a row's k-th and (k+1)-th distances above
    which the float64 distances order the same k rows first, for rows with
    squared norm bound sq_norms = |q|^2 + max |t|^2 (module docstring)."""
    mu = (n_features + 7) * 2.0**-24
    return 4 * mu / (1 - mu) * sq_norms + 8 * (n_features + 1) * 2.0**-126


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
        with np.errstate(over="ignore"):
            self._sq_x = (self._x**2).sum(axis=1)
        # the training side of the float32 screen's GEMM, where its bound
        # holds: one column per training row t, its float32 cells over |t|^2
        self._xt32 = None
        if self.p == 2.0 and self._x.shape[1] <= 2**14 and _f32_safe(self._sq_x).all():
            self._xt32 = np.vstack([self._x.T, self._sq_x]).astype(np.float32)
            self._sq_x_max = self._sq_x.max()
        return self

    def _neighbor_votes(self, X: np.ndarray) -> np.ndarray:
        if self._xt32 is None or self.n_neighbors > ARGMIN_MAX_K:
            return self._float64_votes(X)
        votes, flagged = self._screened_votes(X)
        votes[flagged] = self._float64_votes(X[flagged])
        return votes

    def _float64_votes(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros((X.shape[0], len(self.classes_)))
        blocks = row_blocks(X.shape[0], len(self._x))
        # one distance array (and one fold term array) serves every block: a
        # fresh one per block can be handed out by mmap and page-faulted in
        dist = np.empty((max((b.stop - b.start for b in blocks), default=0), len(self._x)))
        term = None if self.p == 2.0 else np.empty_like(dist)
        for rows in blocks:
            d = dist[: rows.stop - rows.start]
            if term is None:
                _sq_distances(X[rows], self._x, self._sq_x, d)
            else:
                _fold_distances(X[rows], self._x, self.p, d, term[: len(d)])
            votes[rows] = self._vote_counts(self._neighbor_labels(d))
        return votes

    def _screened_votes(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The votes of the rows of X whose float32 neighbours pass the
        screen (zeros elsewhere), and the indices of the other rows."""
        with np.errstate(over="ignore"):
            sq_q = (X**2).sum(axis=1)
        safe = _f32_safe(sq_q)
        bound = _rounding_bound(sq_q + self._sq_x_max, X.shape[1])
        # each row [-2q | 1], with zeros for q outside the range
        qa = np.zeros((len(X), X.shape[1] + 1), np.float32)
        np.copyto(qa[:, :-1], X, casting="same_kind", where=safe[:, None])
        qa[:, :-1] *= -2
        qa[:, -1] = 1
        votes = np.zeros((len(X), len(self.classes_)))
        kept = np.zeros(len(X), dtype=bool)
        n_train = self._xt32.shape[1]
        blocks = row_blocks(len(X), n_train, itemsize=4)
        dist = np.empty((max((b.stop - b.start for b in blocks), default=0), n_train), np.float32)
        for rows in blocks:
            d = dist[: rows.stop - rows.start]
            np.matmul(qa[rows], self._xt32, out=d)
            near, taken = self._argmin_passes(d)
            keep = kept[rows] = (d.min(axis=1) - taken.max(axis=1) > bound[rows]) & safe[rows]
            votes[rows][keep] = self._vote_counts(self._yi[near[keep]])
        return votes, np.flatnonzero(~kept)

    def _vote_counts(self, labels: np.ndarray) -> np.ndarray:
        """Each row's count of neighbours per class, from their class indices."""
        return (labels[:, :, None] == np.arange(len(self.classes_))).sum(axis=1)

    def _argmin_passes(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices (rows x k) of the k nearest cells of each row of d, by k
        argmin passes that write inf over each cell they take, and the
        distances taken (float64)."""
        k = self.n_neighbors
        rows = np.arange(len(d))
        near = np.empty((len(d), k), dtype=np.intp)
        taken = np.empty((len(d), k))
        for i in range(k):
            near[:, i] = j = d.argmin(axis=1)
            taken[:, i] = d[rows, j]
            d[rows, j] = np.inf
        return near, taken

    def _neighbor_labels(self, d: np.ndarray) -> np.ndarray:
        """Class indices of the k nearest training rows of each row of a
        block, from its distances d (rows x n_train, left overwritten)."""
        k = self.n_neighbors
        if k > ARGMIN_MAX_K:
            return self._yi[np.argpartition(d, k - 1, axis=1)[:, :k]]
        near, taken = self._argmin_passes(d)
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
