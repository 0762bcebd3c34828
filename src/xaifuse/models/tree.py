"""Axis-aligned decision trees: one exact CART builder and one stacked
walker serve every tree family (decision tree, random forest, AdaBoost and
the gradient-boosted judges).

Building. `_grow`, the one builder, grows trees one depth level at a time
and searches the splits of every node at that level over all features at
once, in a (features, positions) layout, one statistic column at a time.
`DecisionTree._fit` grows one tree through it, for the decision tree,
AdaBoost and the gradient-boosted judges; a random forest passes groups of
its bootstrap trees, each group through one level loop whose first level
holds one root per tree:

- A row may stand for several rows (a bootstrap draws some rows more than
  once): it carries a count, and node sizes, min_samples_leaf,
  min_samples_split and n_node_samples_ add the counts, so the tree is the
  one grown on the rows repeated. Positions hold distinct rows.
- Each feature keeps its rows in (node, value) order. At the root that is
  a stable argsort of the column; a forest's group lays its trees' drawn
  rows end to end and takes each tree's order from one argsort of the
  training matrix, keeping that tree's rows. A level's order is the
  previous level's without the rows that ended in leaves, each parent's
  rows split stably into its left child's and then its right child's, so
  no level sorts again. A column that is constant on the fit rows has no
  threshold and is left out (in a forest, constant on its training rows).
- Node totals are `np.bincount` sums over the active rows in row order.
- The statistic columns are the target for mse, and for gini one column
  per class holding each row's weight in its class. Where rows weigh
  their counts (no sample_weight) the class columns are integers: every
  sum is exact, the left weight is the left count, and the last class is
  the count less the other classes.
- Per feature and column, one cumulative sum runs over the rows of every
  active node of the level, in that order, and a node's left-side
  statistic at a threshold is the difference of two of its prefix sums.
  With float weights (AdaBoost) or float targets (gradient boosting) that
  difference carries rounding from the rows of earlier nodes, nodes that
  cannot split included, so which rows enter the sum decides trees at
  rounding level. The sum keeps running over every active row:
  restricting it to the rows of splittable nodes changed 1 of 12 ranked
  classification trees and 20 of 120 judge trees on one VeReMi run.
  With integer class counts every prefix sum is exact whichever rows come
  first, so the trees of a forest's group share each level's sums and
  each still splits as if grown alone. Only such counted trees share a
  loop (`_grow` refuses others); AdaBoost and the judges grow one tree at a
  time.
- A candidate threshold is a midpoint strictly between two distinct
  adjacent values in one node that leaves at least min_samples_leaf rows
  on each side; the gain algebra runs over every adjacent pair at once and
  keeps the candidates' gains. Its sum over the columns adds them one
  after another in column order.
- Each node takes its highest gain. Ties resolve to the lowest feature
  index, then the lowest threshold, so a refit is bit-for-bit
  reproducible. No randomness anywhere.
- After the last level each tree reads out its own nodes in level order,
  numbered from 0 as if grown alone, with its own child ids; a forest's
  tree then keeps the columns of the classes its draw holds.
- The builder also returns the leaf each fit row reached, routed by the
  walker's `x <= threshold` test, so boosting reads its fit rows' leaves
  without walking the tree.

Both criteria reduce to the same algebra: maximizing
sum_side (sum_k stat_k)^2 / weight_side, where stat is the weighted one-hot
label matrix for gini and the target column for mse.

Walking. `TreeStack` concatenates the node arrays of an ensemble's trees
with per-tree offsets and walks every tree for a block of rows together,
in the row blocks of `ovr.row_blocks`, about BLOCK_CELLS (row, tree) cells
each. `TreeStack.tree_sum`, the one walk entry, adds the trees' leaf values
in tree order, so sums do not depend on the blocking. A fitted
`DecisionTree` sums a stack of itself from zeros, its leaf's values
exactly; an ensemble stacks its members, which build no walker.
"""

from __future__ import annotations

import numpy as np

from .ovr import ProbaClassifier, row_blocks


def _check_rows(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("X must be a nonempty 2-d array")
    return X


def _presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What every tree grown on X starts from: the columns that vary (a
    constant one has no threshold), their values as (features, rows), and
    each one's stable row order. Ensembles compute it once per fit."""
    feats = np.flatnonzero((X[1:] != X[:1]).any(axis=0))
    xt = np.ascontiguousarray(X[:, feats].T)
    return feats, xt, np.argsort(xt, axis=1, kind="stable")


def _left_sums(v: np.ndarray, order: np.ndarray, base: np.ndarray, out=None) -> np.ndarray:
    """(features, positions - 1): in column i, the sum of v over the rows at
    positions base[i] through i of each row of order, i.e. over the left
    side of a split after position i. It is the difference of two entries
    of one prefix sum per row of order, which runs over every position."""
    n_feat, m = order.shape
    cum = np.zeros((n_feat, m + 1), dtype=v.dtype)
    np.cumsum(np.take(v, order), axis=1, out=cum[:, 1:])
    return np.subtract(cum[:, 1:m], np.take(cum, base, axis=1), out=out)


def _best_splits(
    xt, order, seg, start, stat, w, cnt, tot, tw, tn, parent_score, splittable, min_leaf
):
    """Best (gain, feature, threshold) per active node; feature -1 where no
    candidate exists. xt is (features, rows); order[f] lists the active
    rows grouped by node in node order, by value of feature f inside a
    node, seg[i] is the node at position i and start[s] the first position
    of node s. A split between positions i and i + 1 is scored in column i
    of the (features, positions) arrays. stat holds one statistic column
    per row of it; w is None where each row weighs its count, and cnt is
    None where each row counts once."""
    n_active = len(tn)
    best_gain = np.full(n_active, -np.inf)
    best_feat = np.full(n_active, -1, dtype=np.int64)
    best_thr = np.zeros(n_active)
    if not splittable.any():
        return best_gain, best_feat, best_thr
    n_feat, m = order.shape
    s0 = seg[:-1]
    base = start[s0]
    if cnt is None:
        left_n = np.arange(1, m) - base
    else:
        left_n = _left_sums(cnt, order, base)
    xs = np.take(xt, order + xt.shape[1] * np.arange(n_feat)[:, None])
    xa, xb = xs[:, :-1], xs[:, 1:]
    mid = (xa + xb) / 2.0
    cand = (s0 == seg[1:]) & splittable[s0] & (mid > xa) & (mid < xb)
    # (features, positions) arrays are freed once used: a forest's group
    # makes them large
    del xs, xa, xb, mid
    if min_leaf > 1:  # each side of a split inside a node holds a row
        cand &= (left_n >= min_leaf) & (tn[s0] - left_n >= min_leaf)
    if not cand.any():
        return best_gain, best_feat, best_thr
    # the left sides come from level-wide prefix sums (see the module
    # docstring), one (features, positions) slab per statistic column at a
    # time. Integer statistics (class counts) sum exactly, so the last
    # class holds what the other classes leave of the count
    if w is None:
        left_w = left_n.astype(np.float64)  # integers: the count, exactly
    else:
        left_w = _left_sums(w, order, base)
    del left_n
    right_w = tw[s0] - left_w
    counted = stat.dtype.kind == "i"
    if counted:
        taken = np.zeros((n_feat, m - 1))
    for c in range(len(stat)):  # in column order, which fixes the float bits
        if counted and c == len(stat) - 1:
            left = np.subtract(left_w, taken, out=taken)
        else:
            left = _left_sums(stat[c], order, base, out=np.empty((n_feat, m - 1)))
            if counted:
                taken += left
        right = np.subtract(tot[s0, c], left)
        left *= left
        right *= right
        if c == 0:
            gain, sr = left, right
        else:
            gain += left
            sr += right
        del left, right
    with np.errstate(invalid="ignore", divide="ignore"):
        gain /= left_w
        sr /= right_w
    if w is not None:  # a side of zero-weight rows scores 0 (a counted row weighs 1 or more)
        gain[~(left_w > 0)] = 0.0
        sr[~(right_w > 0)] = 0.0
    gain += sr
    gain -= parent_score[s0]
    gain[~cand] = -np.inf

    # per node: the highest gain, then the lowest feature, then the lowest
    # position reaching it, which is the lowest feature-major index among
    # the node's columns (they run from start[node])
    col = np.full(m, -np.inf)
    col[:-1] = gain.max(axis=0)
    top = np.maximum.reduceat(col, start)
    hit = np.flatnonzero(cand & (gain >= top[s0]))
    none = n_feat * (m - 1)
    win = np.full(n_active, none)
    np.minimum.at(win, s0[hit % (m - 1)], hit)
    found = win < none
    wf, wp = np.divmod(win[found], m - 1)
    best_gain[found] = top[found]
    best_feat[found] = wf
    best_thr[found] = (xt[wf, order[wf, wp]] + xt[wf, order[wf, wp + 1]]) / 2.0
    return best_gain, best_feat, best_thr


def _child_order(order, go_right, n_left, n_right):
    """order[f] of the next level: each parent's rows with the left child's
    first, keeping their order inside each child. Positions of `order` are
    grouped by parent, in parent order."""
    n_feat, m = order.shape
    size = n_left + n_right
    parent = np.repeat(np.arange(len(size)), size)
    right_lo = (np.cumsum(size) - n_right)[parent]
    right_before = (np.cumsum(n_right) - n_right)[parent]
    r = go_right[order]
    # right rows before each position inside its parent
    rb = np.cumsum(r, axis=1)
    rb -= r
    rb -= right_before
    # a left row moves back past the right rows before it; a right row goes
    # to the right block after them
    dest = np.subtract(np.arange(m), rb)
    rb += right_lo
    np.copyto(dest, rb, where=r)
    del rb
    dest += m * np.arange(n_feat)[:, None]
    out = np.empty(order.size, dtype=order.dtype)
    out[dest.ravel()] = order.ravel()  # a scatter; np.put took twice as long
    return out.reshape(n_feat, m)


def _grow(trees, sizes, stat: np.ndarray, yi, w, cnt, presorted) -> list[np.ndarray]:
    """Grow `trees`, which share their size limits, through one level loop
    whose first level holds one root per tree: the rows of tree t are the
    sizes[t] rows after those of the trees before it. stat is (statistic
    columns, rows); yi holds the class index of each row, or None for
    regression. w holds the row weights, or None where each row weighs its
    count; cnt holds the row counts, or None where each row counts once.
    presorted is `_presort` of the rows, each feature's order running over
    the trees' rows tree by tree.

    A level's prefix sums run over the rows of every tree, so trees share a
    loop only where the statistics are integer counts (w is None and stat
    integer): then every sum is exact and each tree is the one grown alone.
    Each tree gets its node arrays, numbered level by level as if grown
    alone; returns the leaf each of its rows reached, per tree."""
    if len(trees) > 1 and not (w is None and stat.dtype.kind == "i"):
        raise ValueError("only trees of counted rows share a level loop")
    lead = trees[0]
    k, n = stat.shape
    min_leaf = lead.min_samples_leaf
    # node totals are bincounts of (node, col) weighted by sv: each row's
    # class and weight for gini, column 0 and the target for mse
    if yi is None:
        col, sv = np.zeros(n, dtype=np.int64), stat[0]
        sq = stat[0] ** 2
    else:
        col, sv = yi, (cnt if w is None else w)
    feats, xt, order = presorted
    act = np.arange(n)  # rows of active nodes, ascending
    n_active = len(trees)
    slot = np.repeat(np.arange(n_active), sizes)  # each row's node, by index in its level
    owner = np.arange(n_active)  # each active node's tree
    leaf_of = np.empty(n, dtype=np.int64)
    first_id = 0
    levels = []

    for depth in range(lead.max_depth + 1):
        s_act = slot[act]
        tot = np.bincount(
            s_act * k + col[act],
            weights=None if sv is None else sv[act],
            minlength=n_active * k,
        ).reshape(n_active, k).astype(np.float64, copy=False)
        nr = np.bincount(s_act, minlength=n_active)  # rows, each counted once
        tn = nr
        if cnt is not None:
            tn = np.bincount(s_act, weights=cnt[act], minlength=n_active).astype(np.int64)
        if w is None:
            tw = tn.astype(np.float64)
        else:
            tw = np.bincount(s_act, weights=w[act], minlength=n_active)
        with np.errstate(invalid="ignore", divide="ignore"):
            parent_score = np.where(tw > 0, (tot**2).sum(axis=1) / tw, 0.0)
        if yi is None:
            impurity = np.bincount(s_act, weights=sq[act], minlength=n_active)
            impurity -= parent_score
        else:
            impurity = tw - parent_score
        # relative purity tolerance: constant nodes may carry fp dust
        pure = impurity <= np.maximum(tw, 1.0) * 1e-12
        splittable = (
            (tn >= lead.min_samples_split)
            & (tn >= 2 * min_leaf)
            & ~pure
            & (depth < lead.max_depth)
        )
        seg = np.repeat(np.arange(n_active), nr)
        start = np.cumsum(nr) - nr
        best_gain, best_feat, best_thr = _best_splits(
            xt, order, seg, start, stat, w, cnt, tot, tw, tn, parent_score,
            splittable, min_leaf,
        )
        # zero-gain splits are accepted (they still shrink both sides,
        # and parity-style labelings need them); the tolerance only
        # absorbs cancellation noise in the prefix sums
        tol = np.maximum(tw, 1.0) * 1e-12
        accept = (best_feat >= 0) & (best_gain >= -tol)

        rank = np.cumsum(accept) - 1
        left_id = first_id + n_active + 2 * rank
        value = np.zeros((n_active, k))
        leaf = ~accept
        weighted = leaf & (tw > 0)
        value[weighted] = tot[weighted] / tw[weighted][:, None]
        for s in np.flatnonzero(leaf & (tw == 0)):
            # only zero-weight rows reached this node (classification
            # only: regression rows weigh 1); fall back to unweighted
            # class counts so the leaf still answers
            cc = np.bincount(yi[act[s_act == s]], minlength=k).astype(float)
            value[s] = cc / max(cc.sum(), 1.0)
        feature = np.full(n_active, -1, dtype=np.int64)
        feature[accept] = feats[best_feat[accept]]
        levels.append(
            (
                feature,
                np.where(accept, best_thr, 0.0),
                np.where(accept, left_id, -1),
                np.where(accept, left_id + 1, -1),
                tn,
                value,
                owner,
            )
        )
        keep = accept[s_act]
        leaf_of[act[~keep]] = first_id + s_act[~keep]
        if not accept.any():
            break

        rows, s_rows = act[keep], s_act[keep]
        # the walker's test: a row goes left where x <= threshold
        go_right = np.zeros(n, dtype=bool)
        go_right[rows] = ~(xt[best_feat[s_rows], rows] <= best_thr[s_rows])
        slot[rows] = 2 * rank[s_rows] + go_right[rows]
        counts = np.bincount(slot[rows], minlength=2 * int(accept.sum()))
        if depth + 1 < lead.max_depth:  # no node of the last level splits
            order = order[:, accept[seg]]  # and the last level's order is freed
            order = _child_order(order, go_right, counts[0::2], counts[1::2])
        act = rows
        owner = np.repeat(owner[accept], 2)
        first_id += n_active
        n_active = len(counts)

    # each tree reads out its nodes in level order, renumbered from 0
    feature, threshold, left, right, n_samples, value, owner = map(np.concatenate, zip(*levels))
    nodes = np.argsort(owner, kind="stable")
    n_nodes = np.bincount(owner, minlength=len(trees))
    local = np.empty(len(owner), dtype=np.int64)
    local[nodes] = np.arange(len(owner)) - np.repeat(np.cumsum(n_nodes) - n_nodes, n_nodes)
    left = np.where(left < 0, -1, local[left])
    right = np.where(right < 0, -1, local[right])
    for tree, ids in zip(trees, np.split(nodes, np.cumsum(n_nodes)[:-1])):
        tree.feature_ = feature[ids].astype(np.int64)
        tree.threshold_ = threshold[ids].astype(np.float64)
        tree.children_left_ = left[ids].astype(np.int64)
        tree.children_right_ = right[ids].astype(np.int64)
        tree.n_node_samples_ = n_samples[ids].astype(np.int64)
        tree.value_ = value[ids]
    return np.split(local[leaf_of], np.cumsum(sizes)[:-1])


class DecisionTree(ProbaClassifier):
    """CART-style tree for weighted classification (gini, `fit`); the
    gradient-boosted judges grow regression trees (mse) through `_fit`.

    After fit the tree is a set of flat arrays: feature_ (-1 marks a leaf),
    threshold_, children_left_, children_right_, value_ (class distribution
    per node, or scalar mean for regression), n_node_samples_. Node ids are
    numbered level by level.
    """

    def __init__(
        self,
        max_depth: int = 50,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
    ):
        if max_depth < 0 or min_samples_leaf < 1 or min_samples_split < 2:
            raise ValueError("invalid tree size limits")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split

    # -- fitting ---------------------------------------------------------

    def fit(self, X, y, sample_weight=None) -> "DecisionTree":
        """Grow a classification tree (gini) on labels y."""
        self._fit(X, y, sample_weight)
        self._stack = TreeStack([self])
        return self

    def _fit(self, X, y, w=None, presorted=None, counts=None, regression=False) -> np.ndarray:
        """Grow a gini tree on labels y, or with regression an mse tree on
        real targets y, every row weight 1; returns the leaf each row of X
        reached. w holds row weights; counts (without w) gives how many rows
        each row of X stands for: the tree is the one grown on X with each
        row repeated that many times. presorted is `_presort(X)`, for
        ensembles that grow many trees on one X. Builds no walker: the
        ensembles stack their trees themselves."""
        X = _check_rows(X)
        presorted = presorted or _presort(X)
        if regression:
            stat = np.asarray(y, dtype=np.float64)[None, :]
            return _grow([self], [len(X)], stat, None, None, None, presorted)[0]
        n = X.shape[0]
        if w is not None:
            w = np.asarray(w, dtype=np.float64)
            if w.shape != (n,) or np.any(w < 0):
                raise ValueError("sample_weight must be nonnegative with one entry per row")
        self.classes_, yi = np.unique(np.asarray(y), return_inverse=True)
        # one statistic column per class: each row's weight in its class,
        # integer where rows weigh their counts
        row_w = counts if w is None else w
        stat = np.zeros((len(self.classes_), n), dtype=np.int64 if w is None else np.float64)
        stat[yi, np.arange(n)] = 1 if row_w is None else row_w
        return _grow([self], [n], stat, yi, w, counts, presorted)[0]

    # -- inference -------------------------------------------------------

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return self._stack.tree_sum(X, self.value_, np.zeros((X.shape[0], len(self.classes_))))

    @property
    def node_count(self) -> int:
        return len(self.feature_)


def _end_to_end(arrays: list[np.ndarray], dtype) -> np.ndarray:
    """The arrays concatenated; an empty list gives an empty array."""
    return np.concatenate([np.zeros(0, dtype=dtype), *arrays])


class TreeStack:
    """The node arrays of fitted trees, concatenated: node i of tree t is
    stacked node roots[t] + i, and leaf marks the leaves. A leaf is its own
    child on both sides and splits on feature 0, so a walk may step past it
    and stay put."""

    def __init__(self, trees: list[DecisionTree]):
        sizes = np.array([t.node_count for t in trees], dtype=np.int64)
        self.roots = np.cumsum(sizes) - sizes
        feature = _end_to_end([t.feature_ for t in trees], np.int64)
        self.leaf = leaf = feature < 0
        ids = np.arange(len(feature))
        offset = np.repeat(self.roots, sizes)
        self.feature = np.where(leaf, 0, feature)
        self.threshold = _end_to_end([t.threshold_ for t in trees], np.float64)
        self.left, self.right = (
            np.where(leaf, ids, _end_to_end(c, np.int64) + offset)
            for c in (
                [t.children_left_ for t in trees],
                [t.children_right_ for t in trees],
            )
        )
        self.depth = 0  # edges on the longest root-to-leaf path
        frontier = self.roots[~leaf[self.roots]]
        while len(frontier):
            self.depth += 1
            frontier = np.concatenate([self.left[frontier], self.right[frontier]])
            frontier = frontier[~leaf[frontier]]

    def tree_sum(self, X, values: np.ndarray, start: np.ndarray) -> np.ndarray:
        """start plus values[leaf] of each tree in tree order, per row of X;
        values holds one entry (or row) per stacked node."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        for rows in row_blocks(X.shape[0], len(self.roots)):
            leaves = self._walk(X[rows])
            block = start[rows]
            for t in range(leaves.shape[1]):
                block += values[leaves[:, t]]
        return start

    def _walk(self, X: np.ndarray) -> np.ndarray:
        """One level per step for every (row, tree) cell at once; every
        8 steps the cells that reached a leaf leave the walk."""
        b, n_trees = X.shape[0], len(self.roots)
        node = np.tile(self.roots, b)  # cell c: row c // n_trees, tree c % n_trees
        at = np.repeat(np.arange(b) * X.shape[1], n_trees)
        x = X.ravel()
        cells = np.arange(b * n_trees)
        nd = node
        for step in range(1, self.depth + 1):
            go_left = x[at + self.feature[nd]] <= self.threshold[nd]
            nd = np.where(go_left, self.left[nd], self.right[nd])
            if step % 8 == 0 and step < self.depth:
                node[cells] = nd
                inner = self.left[nd] != nd
                cells, nd, at = cells[inner], nd[inner], at[inner]
        node[cells] = nd
        return node.reshape(b, n_trees)
