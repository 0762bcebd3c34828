"""Feature-importance computation: exact Shapley values, local linear
surrogates aggregated globally, and permutation importance.

Shapley values use the interventional value function: v(S) averages the
model output over background rows with the features in S pinned to the
explained instance. v is linear in the background rows, so the values are
the mean over rows b of the Shapley values of the game v_b(S) of one
(instance, b) pair. Both paths below compute those exactly, so the axioms
(efficiency, dummy, symmetry) hold to floating-point precision rather than
in expectation:

- decision trees and random forests take interventional TreeSHAP
  (Lundberg et al., Nat. Mach. Intell. 2020): each leaf is a box, and its
  value is shared out among the path features that separate the instance
  from b, without scoring any coalition row, so it takes any feature count;
- every other model takes a reduced coalition enumeration. In v_b only the
  features that the model reads and on which the instance and b differ are
  players; every other feature is a dummy. So only the 2^m hybrid rows of
  those m players are scored, in blocks of at most ROW_BUDGET rows. A model
  with a `coalition_proba` method scores a block itself: the MLP adds each
  player's first-layer term to b's preactivation and builds no hybrid row.
  Every other model scores the hybrid rows built explicitly with
  `predict_proba`. A pair with more than MAX_PLAYERS players is refused
  before any row is scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_csv
from .fusion import to_ranks
from .models.forest import RandomForest
from .models.tree import DecisionTree
from .seeding import rng_for, subsample

# hybrid rows per coalition block, so a block's hybrid rows take at most
# ROW_BUDGET x p floats (ROW_BUDGET x hidden units on the MLP's coalition
# path); TreeSHAP blocks hold at most ROW_BUDGET
# (instance, background row, leaf) cells
ROW_BUDGET = 1 << 14
# players per (instance, background row) pair of the coalition enumeration,
# so a pair scores at most 2^MAX_PLAYERS rows
MAX_PLAYERS = 16


class ExplainError(Exception):
    """Raised when an explanation cannot be computed as configured."""


XAI_METHOD_NAMES = ("shap", "lime", "permutation")


@dataclass(frozen=True)
class ExplainerConfig:
    """The `explainers` section of a run config. The README's config
    reference gives each key with its type, default and constraint."""

    methods: tuple[str, ...] = XAI_METHOD_NAMES
    max_explained_instances: int = 2000
    background_size: int = 100
    lime_samples_per_instance: int = 1000
    lime_kernel_width: float | None = None  # None resolves to 0.75 * sqrt(p)
    lime_ridge: float = 1e-3
    permutation_rounds: int = 10

    def __post_init__(self) -> None:
        names = set(self.methods)
        if not names <= set(XAI_METHOD_NAMES) or len(names) != len(self.methods):
            raise ExplainError(
                f"methods must be distinct names from {XAI_METHOD_NAMES}, "
                f"got {list(self.methods)}"
            )
        counts = (
            self.max_explained_instances,
            self.background_size,
            self.lime_samples_per_instance,
            self.permutation_rounds,
        )
        if any(c < 1 for c in counts):
            raise ExplainError("all explainer counts must be positive")
        if self.lime_kernel_width is not None and self.lime_kernel_width <= 0:
            raise ExplainError("kernel width must be positive")
        if self.lime_ridge <= 0:
            raise ExplainError("ridge damping must be positive")

    def kernel_width(self, p: int) -> float:
        if self.lime_kernel_width is not None:
            return self.lime_kernel_width
        return 0.75 * math.sqrt(p)


@dataclass(frozen=True)
class ImportanceVector:
    """Non-negative global importance per feature for one (model, method),
    with the number of model rows the explainer scored."""

    scores: np.ndarray
    method: str
    model: str
    model_rows: int = 0

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 1:
            raise ExplainError("scores must be one-dimensional")
        if not np.all(np.isfinite(scores)) or np.any(scores < 0):
            raise ExplainError("scores must be finite and non-negative")
        scores = scores.copy()
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)


@dataclass(frozen=True)
class ShapMatrix:
    """Per-instance attributions with one slice per explained model output.

    values has shape (n_instances, n_outputs, n_features); binary models
    expose a single output (the positive-class probability), multiclass
    models one output per class. For every instance and output,
    values.sum(last axis) + base_values equals the model output exactly
    (up to accumulated rounding well below 1e-9). model_rows counts the
    instances, the background rows and the hybrid rows scored, whether
    passed to predict_proba or scored by the model's coalition_proba.
    """

    values: np.ndarray
    base_values: np.ndarray
    outputs: np.ndarray
    model_rows: int = 0


def _target_columns(model) -> list[int]:
    """Which probability columns to explain: positive class for binary
    models, every class otherwise."""
    k = len(model.classes_)
    return [1] if k == 2 else list(range(k))


def select_background(train_rows: np.ndarray, size: int, seed: int) -> np.ndarray:
    """The training rows themselves if few, else a seeded subsample."""
    train_rows = np.asarray(train_rows, dtype=np.float64)
    n = train_rows.shape[0]
    if n == 0:
        raise ExplainError("background must be non-empty")
    return train_rows[subsample(n, size, seed, "background")]


def _coalition_weights(p: int) -> np.ndarray:
    """w[s] = s! (p-s-1)! / p! for coalition sizes s = 0..p-1."""
    fact = [math.factorial(i) for i in range(p + 1)]
    return np.array(
        [fact[s] * fact[p - s - 1] / fact[p] for s in range(p)], dtype=np.float64
    )


def shap_values(model, instances: np.ndarray, background: np.ndarray) -> ShapMatrix:
    """Exact interventional Shapley values: TreeSHAP for decision trees and
    random forests, reduced coalition enumeration for every other model,
    which refuses a pair with more than MAX_PLAYERS players. The result is
    deterministic, so no seed is taken."""
    X = np.asarray(instances, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    bg = np.asarray(background, dtype=np.float64)
    if bg.ndim != 2 or bg.shape[0] == 0:
        raise ExplainError("background must be a non-empty 2-d array")
    n, p = X.shape
    if bg.shape[1] != p:
        raise ExplainError("background and instances disagree on feature count")

    cols = _target_columns(model)
    outputs = model.predict_proba(X)[:, cols]
    base = model.predict_proba(bg)[:, cols].mean(axis=0)
    leaves = _leaf_boxes(model, cols, p)
    if leaves is not None:
        values, rows = _tree_shap(*leaves, X, bg), 0
    else:
        values, rows = _coalition_shap(model, cols, X, bg)
    return ShapMatrix(
        values=values,
        base_values=np.tile(base, (n, 1)),
        outputs=outputs,
        model_rows=n + bg.shape[0] + rows,
    )


# -- TreeSHAP -------------------------------------------------------------------


def _leaf_boxes(model, cols: list[int], p: int):
    """(lo, hi, value) per leaf of a model whose predict_proba averages
    per-leaf class distributions, or None for any other model. A row
    reaches a leaf iff lo < x <= hi on every feature (the walk goes left on
    <=); value holds the leaf's share of the explained columns."""
    if not isinstance(model, (RandomForest, DecisionTree)):
        return None
    stack = model._stack  # both keep value_ per stacked node
    lo = np.full((len(stack.leaf), p), -np.inf)
    hi = np.full((len(stack.leaf), p), np.inf)
    nodes = stack.roots
    while len(nodes):
        nodes = nodes[~stack.leaf[nodes]]
        f, t = stack.feature[nodes], stack.threshold[nodes]
        left, right = stack.left[nodes], stack.right[nodes]
        for child in (left, right):
            lo[child], hi[child] = lo[nodes], hi[nodes]
        hi[left, f] = np.minimum(hi[left, f], t)
        lo[right, f] = np.maximum(lo[right, f], t)
        nodes = np.concatenate([left, right])
    leaf = stack.leaf
    return lo[leaf], hi[leaf], model.value_[leaf][:, cols] / len(stack.roots)


def _leaf_shares(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Shares of a leaf's value per feature, indexed [a, b]. A hybrid row
    reaches the leaf iff it takes the a path features that only the instance
    satisfies from the instance, and the b that only the background row
    satisfies from the background row. Each of the a features gains
    (a-1)! b! / (a+b)!, each of the b loses a! (b-1)! / (a+b)!: the
    Shapley weights of coalition sizes a-1 and a among a+b players."""
    gain = np.zeros((p + 1, p + 1))
    loss = np.zeros((p + 1, p + 1))
    for m in range(1, p + 1):
        a = np.arange(m)
        gain[a + 1, m - a - 1] = loss[a, m - a] = _coalition_weights(m)
    return gain, loss


def _inside(rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(leaf, row, feature) 1.0 where the row's value lies in the leaf box."""
    z = rows[None, :, :]
    return ((lo[:, None, :] < z) & (z <= hi[:, None, :])).astype(np.float64)


def _tree_shap(
    lo: np.ndarray,
    hi: np.ndarray,
    leaf_values: np.ndarray,
    X: np.ndarray,
    bg: np.ndarray,
) -> np.ndarray:
    """Interventional TreeSHAP over the leaf boxes, averaged over the
    background rows; (n, n_out, p). A feature on no leaf's path gets
    exactly 0."""
    n, p = X.shape
    n_bg = bg.shape[0]
    gain, loss = _leaf_shares(p)
    total = np.zeros((leaf_values.shape[1], n, p))
    leaf_step = max(1, ROW_BUDGET // n_bg)
    for l0 in range(0, len(lo), leaf_step):
        sl = slice(l0, l0 + leaf_step)
        b_in = _inside(bg, lo[sl], hi[sl])  # (leaf, bg, p)
        b_out = 1.0 - b_in
        b_count = b_in.sum(axis=2)[:, None, :]
        step = max(1, ROW_BUDGET // (b_in.shape[0] * n_bg))
        for s in range(0, n, step):
            x_in = _inside(X[s : s + step], lo[sl], hi[sl])  # (leaf, inst, p)
            x_count = x_in.sum(axis=2)[:, :, None]
            both = x_in @ b_in.transpose(0, 2, 1)  # (leaf, inst, bg)
            only_x = (x_count - both).astype(np.int64)
            only_b = (b_count - both).astype(np.int64)
            # a path feature that fails both rows closes the leaf to every hybrid
            reach = only_x + only_b + both == p
            g = np.where(reach, gain[only_x, only_b], 0.0)
            q = np.where(reach, loss[only_x, only_b], 0.0)
            share = x_in * (g @ b_out) - (1.0 - x_in) * (q @ b_in)
            total[:, s : s + step] += np.tensordot(leaf_values[sl], share, axes=(0, 0))
    return total.transpose(1, 0, 2) / n_bg


# -- reduced coalition enumeration ---------------------------------------------


def _read_features(model, p: int) -> np.ndarray:
    """Mask of the features a model's output can depend on: the split
    features of a tree ensemble, every feature for other models."""
    stack = getattr(model, "_stack", None)
    if stack is None:
        return np.ones(p, dtype=bool)
    read = np.zeros(p, dtype=bool)
    read[stack.feature[~stack.leaf]] = True
    return read


def _coalition_shap(
    model, cols: list[int], X: np.ndarray, bg: np.ndarray
) -> tuple[np.ndarray, int]:
    """Shapley values by enumerating, for each (instance, background row)
    pair, only the coalitions of its players; (n, n_out, p) and the hybrid
    rows scored. Pairs are grouped by player set, and each group is scored
    in aligned blocks of the largest power of two <= ROW_BUDGET rows: by the
    model's coalition_proba if it has one, else by predict_proba on the
    hybrid rows built explicitly."""
    n, p = X.shape
    n_bg = bg.shape[0]
    players = (X[:, None, :] != bg[None, :, :]) & _read_features(model, p)
    most = int(players.sum(axis=2).max(initial=0))
    if most > MAX_PLAYERS:
        raise ExplainError(
            f"an (instance, background row) pair has {most} players, above the "
            f"exact enumeration cap of {MAX_PLAYERS}"
        )
    score = getattr(model, "coalition_proba", None) or (
        lambda *block: _hybrid_proba(model, *block)
    )
    block = 1 << (ROW_BUDGET.bit_length() - 1)
    sets, group = np.unique(players.reshape(-1, p), axis=0, return_inverse=True)
    group = group.reshape(-1)
    ends = np.cumsum(np.bincount(group, minlength=len(sets)))
    by_set = np.split(np.argsort(group, kind="stable"), ends[:-1])
    total = np.zeros((n, p, len(cols)))
    rows = 0
    for in_set, pairs in zip(sets, by_set):
        who = np.flatnonzero(in_set)
        m = len(who)
        if m == 0:  # the pair's game is constant: every feature is a dummy
            continue
        inst, back = np.divmod(pairs, n_bg)
        n_s = 1 << m
        size = np.zeros(1, dtype=np.int64)  # coalition size per index
        for _ in range(m):
            size = np.concatenate([size, size + 1])
        weight = _coalition_weights(m)[np.minimum(size, m - 1)]
        # per player t, the weights of the coalitions without t, in index order
        weights = [weight.reshape(n_s >> (t + 1), 2, 1 << t)[:, 0].ravel() for t in range(m)]
        span = min(n_s, block)
        step = max(1, block >> m)
        for s in range(0, len(pairs), step):
            i, b = inst[s : s + step], back[s : s + step]
            v = np.empty((len(i), n_s, len(cols)))
            for c0 in range(0, n_s, span):
                v[:, c0 : c0 + span] = score(X[i], bg[b], who, c0, span)[:, :, cols]
            rows += v.shape[0] * v.shape[1]
            np.add.at(total, (i[:, None], who), _pair_shapley(v, weights))
    return total.transpose(0, 2, 1) / n_bg, rows


def _hybrid_proba(
    model, x: np.ndarray, b: np.ndarray, who: np.ndarray, start: int, size: int
) -> np.ndarray:
    """predict_proba of hybrid rows start..start+size-1 of each pair
    (x[i], b[i]), built explicitly; (pairs, size, n_classes). Bit t of a
    row's index takes feature who[t] from x, every other feature comes
    from b."""
    p = x.shape[1]
    pick = np.zeros((size, p), dtype=bool)
    pick[:, who] = (np.arange(start, start + size)[:, None] >> np.arange(len(who))) & 1
    z = np.where(pick, x[:, None, :], b[:, None, :])
    return model.predict_proba(z.reshape(-1, p)).reshape(len(x), size, -1)


# `_pair_shapley` subtracts down the high bits, one low column at a time,
# where a run of low bits holds fewer elements than this. For 16 pairs of
# 2^16 coalitions: 5.7 -> 1.8 ms at runs of 2 elements, 1.5 -> 1.0 ms at 3,
# but 3.2 -> 3.7 ms at 4 and 1.9 -> 4.2 ms at 6 (best of 20, one thread)
PAIR_RUN = 4


def _pair_shapley(v: np.ndarray, weights: list[np.ndarray]) -> np.ndarray:
    """Shapley values of m players from v over all 2^m coalitions, where bit
    t of a coalition's index marks player t and weights[t] holds w(|S|) for
    every S without player t, in index order; (pairs, m, n_out). A player
    whose marginal contributions are all exactly 0 gets exactly 0."""
    k, n_s, n_out = v.shape
    phi = np.empty((k, len(weights), n_out))
    delta = np.empty((k, n_s >> 1, n_out))
    for t, w in enumerate(weights):
        # split each coalition index at bit t: (high bits, bit t, low bits
        # and outputs), one run of low bits per high index
        high, low = k * (n_s >> (t + 1)), (1 << t) * n_out
        vt = v.reshape(high, 2, low)
        dt = delta.reshape(high, low)
        for cols in [slice(None)] if low >= PAIR_RUN else range(low):
            np.subtract(vt[:, 1, cols], vt[:, 0, cols], out=dt[:, cols])
        phi[:, t] = w @ delta
    return phi


def shap_global(m: ShapMatrix, model_tag: str = "") -> ImportanceVector:
    """Mean absolute attribution per feature, pooled over instances and
    outputs."""
    if m.values.size == 0:
        raise ExplainError("empty attribution matrix")
    scores = np.abs(m.values).mean(axis=(0, 1))
    return ImportanceVector(
        scores=scores, method="shap", model=model_tag, model_rows=m.model_rows
    )


def _lime_target_column(model, instance: np.ndarray) -> int:
    """Binary models explain the positive class; multiclass models the
    class predicted for the instance."""
    if len(model.classes_) == 2:
        return 1
    proba = model.predict_proba(instance[None, :])[0]
    return int(np.argmax(proba))


def lime_explain_instance(
    model,
    instance: np.ndarray,
    sd: np.ndarray,
    cfg: ExplainerConfig,
    seed: int,
    instance_index: int = 0,
) -> np.ndarray:
    """Signed coefficients of a locally weighted linear surrogate.

    Perturbations are gaussian around the instance with the training
    split's per-feature sd; sample weights decay with standardized
    euclidean distance under an exponential kernel. The least-squares solve
    carries ridge damping on the coefficients (never the intercept). The
    perturbations come from the (seed, "lime", instance_index) stream.
    """
    x = np.asarray(instance, dtype=np.float64)
    p = x.shape[0]
    sd = np.asarray(sd, dtype=np.float64)
    sd_safe = np.where(sd > 0, sd, 1.0)
    rng = rng_for(seed, "lime", instance_index)
    z = x + rng.normal(size=(cfg.lime_samples_per_instance, p)) * sd
    col = _lime_target_column(model, x)
    y = model.predict_proba(z)[:, col]

    offsets = (z - x) / sd_safe
    d2 = (offsets**2).sum(axis=1)
    kw = cfg.kernel_width(p)
    w = np.exp(-d2 / kw**2)

    a = np.column_stack([offsets, np.ones(len(z))])
    aw = a * w[:, None]
    m = a.T @ aw
    damp = np.full(p + 1, cfg.lime_ridge)
    damp[p] = 0.0
    m[np.diag_indices_from(m)] += damp
    rhs = aw.T @ y
    try:
        beta = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        raise ExplainError(
            f"weighted surrogate system is singular for instance {instance_index}"
        ) from None
    if not np.all(np.isfinite(beta)):
        raise ExplainError(
            f"weighted surrogate produced non-finite coefficients for "
            f"instance {instance_index}"
        )
    return beta[:p]


def lime_global(
    model,
    rows: np.ndarray,
    sd: np.ndarray,
    cfg: ExplainerConfig,
    seed: int,
    model_tag: str = "",
) -> ImportanceVector:
    """Mean absolute surrogate coefficient over the rows explained,
    perturbed with the training split's per-feature sd. Fails loudly if
    more than 10% of instances cannot be explained; fewer failures are
    skipped, though their samples still count in model_rows."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ExplainError("need a non-empty 2-d array of rows to explain")
    n_explain, p = rows.shape
    acc = np.zeros(p)
    failures = 0
    for i, row in enumerate(rows):
        try:
            coef = lime_explain_instance(model, row, sd, cfg, seed, i)
        except ExplainError:
            failures += 1
            continue
        acc += np.abs(coef)
    if failures > 0.1 * n_explain:
        raise ExplainError(
            f"{failures} of {n_explain} instances failed to explain"
        )
    # multiclass models also score each instance once to pick its class
    per_instance = cfg.lime_samples_per_instance + (len(model.classes_) > 2)
    return ImportanceVector(
        scores=acc / (n_explain - failures),
        method="lime",
        model=model_tag,
        model_rows=n_explain * per_instance,
    )


def permutation_importance(
    model,
    rows: np.ndarray,
    labels: np.ndarray,
    rounds: int,
    seed: int,
    model_tag: str = "",
) -> ImportanceVector:
    """Mean accuracy drop when one column is shuffled, clamped at zero.

    Each (feature, round) pair draws its own sub-seed, so scores do not
    depend on evaluation order.
    """
    rows = np.asarray(rows, dtype=np.float64)
    labels = np.asarray(labels)
    if rounds < 1:
        raise ExplainError("rounds must be positive")
    n, p = rows.shape
    baseline = float(np.mean(model.predict(rows) == labels))
    scores = np.empty(p)
    for j in range(p):
        drops = np.empty(rounds)
        for r in range(rounds):
            perm = rng_for(seed, "perm", j, r).permutation(n)
            shuffled = rows.copy()
            shuffled[:, j] = rows[perm, j]
            drops[r] = baseline - float(np.mean(model.predict(shuffled) == labels))
        scores[j] = max(0.0, float(drops.mean()))
    return ImportanceVector(
        scores=scores,
        method="permutation",
        model=model_tag,
        model_rows=n * (1 + p * rounds),
    )


def write_importance_csv(
    path: str | Path,
    feature_names: tuple[str, ...] | list[str],
    vectors: list[ImportanceVector],
) -> None:
    """One row per (vector, feature): feature, score, rank, method, model."""
    if any(len(iv.scores) != len(feature_names) for iv in vectors):
        raise ExplainError("importance length does not match feature names")
    write_csv(
        path,
        ["feature", "score", "rank", "method", "model"],
        (
            [name, score, rank, iv.method, iv.model]
            for iv in vectors
            for name, score, rank in zip(
                feature_names, iv.scores.tolist(), to_ranks(iv.scores).tolist()
            )
        ),
    )
