"""Feature-importance computation: exact Shapley values, local linear
surrogates aggregated globally, and permutation importance, plus the
score-to-rank conversion shared by all three.

Shapley values use the interventional value function: v(S) averages the
model output over background rows with the features in S pinned to the
explained instance. All 2^p coalitions are enumerated, so the axioms
(efficiency, dummy, symmetry) hold to floating-point precision rather
than in expectation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeding import rng_for


class ExplainError(Exception):
    """Raised when an explanation cannot be computed as configured."""


@dataclass(frozen=True)
class ExplainerConfig:
    seed: int
    background_size: int = 100
    lime_samples_per_instance: int = 1000
    lime_kernel_width: float | None = None  # None resolves to 0.75 * sqrt(p)
    lime_instances: int = 2000
    lime_ridge: float = 1e-3
    permutation_rounds: int = 10
    shap_exact_cap: int = 16

    def __post_init__(self) -> None:
        counts = (
            self.background_size,
            self.lime_samples_per_instance,
            self.lime_instances,
            self.permutation_rounds,
            self.shap_exact_cap,
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
    """Non-negative global importance per feature for one (model, method)."""

    scores: np.ndarray
    method: str
    model: str

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
    (up to accumulated rounding well below 1e-9).
    """

    values: np.ndarray
    base_values: np.ndarray
    outputs: np.ndarray

    @property
    def n_features(self) -> int:
        return self.values.shape[2]


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
    if n <= size:
        return train_rows
    idx = rng_for(seed, "background").choice(n, size=size, replace=False)
    return train_rows[np.sort(idx)]


def _coalition_weights(p: int) -> np.ndarray:
    """w[s] = s! (p-s-1)! / p! for coalition sizes s = 0..p-1."""
    fact = [math.factorial(i) for i in range(p + 1)]
    return np.array(
        [fact[s] * fact[p - s - 1] / fact[p] for s in range(p)], dtype=np.float64
    )


def shap_values(
    model,
    instances: np.ndarray,
    background: np.ndarray,
    exact_cap: int = 16,
) -> ShapMatrix:
    """Exact interventional Shapley values by coalition enumeration; the
    result is deterministic, so no seed is taken."""
    X = np.asarray(instances, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    bg = np.asarray(background, dtype=np.float64)
    if bg.ndim != 2 or bg.shape[0] == 0:
        raise ExplainError("background must be a non-empty 2-d array")
    n, p = X.shape
    if bg.shape[1] != p:
        raise ExplainError("background and instances disagree on feature count")
    if p > exact_cap:
        raise ExplainError(
            f"{p} features exceed the exact enumeration cap of {exact_cap}; "
            "subsample features or raise the cap explicitly"
        )

    cols = _target_columns(model)
    n_out = len(cols)
    n_masks = 1 << p
    masks = np.arange(n_masks, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(p)) & 1).astype(bool)  # (n_masks, p)
    popcount = bits.sum(axis=1)
    w_by_size = _coalition_weights(p)

    # per feature: every coalition excluding it, paired with itself plus it
    without = [masks[~bits[:, j]] for j in range(p)]
    n_bg = bg.shape[0]

    values = np.empty((n, n_out, p))
    base_values = np.empty((n, n_out))
    outputs = np.empty((n, n_out))
    for i in range(n):
        z = np.where(bits[:, None, :], X[i], bg[None, :, :])  # (n_masks, n_bg, p)
        proba = model.predict_proba(z.reshape(-1, p))[:, cols]
        v = proba.reshape(n_masks, n_bg, n_out).mean(axis=1)  # (n_masks, n_out)
        base_values[i] = v[0]
        outputs[i] = v[-1]
        for j in range(p):
            lo = without[j]
            hi = lo | (1 << j)
            delta = v[hi] - v[lo]
            values[i, :, j] = w_by_size[popcount[lo]] @ delta
    return ShapMatrix(values=values, base_values=base_values, outputs=outputs)


def shap_global(m: ShapMatrix, model_tag: str = "") -> ImportanceVector:
    """Mean absolute attribution per feature, pooled over instances and
    outputs."""
    if m.values.size == 0:
        raise ExplainError("empty attribution matrix")
    scores = np.abs(m.values).mean(axis=(0, 1))
    return ImportanceVector(scores=scores, method="shap", model=model_tag)


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
    instance_index: int = 0,
) -> np.ndarray:
    """Signed coefficients of a locally weighted linear surrogate.

    Perturbations are gaussian around the instance with the training
    split's per-feature sd; sample weights decay with standardized
    euclidean distance under an exponential kernel. The least-squares solve
    carries ridge damping on the coefficients (never the intercept).
    """
    x = np.asarray(instance, dtype=np.float64)
    p = x.shape[0]
    sd = np.asarray(sd, dtype=np.float64)
    sd_safe = np.where(sd > 0, sd, 1.0)
    rng = rng_for(cfg.seed, "lime", instance_index)
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
    model_tag: str = "",
) -> ImportanceVector:
    """Mean absolute surrogate coefficient over the first lime_instances
    rows, perturbed with the training split's per-feature sd. Fails loudly
    if more than 10% of instances cannot be explained."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ExplainError("need a non-empty 2-d array of rows to explain")
    n_explain = min(cfg.lime_instances, rows.shape[0])
    acc = np.zeros(rows.shape[1])
    failures = 0
    for i in range(n_explain):
        try:
            coef = lime_explain_instance(model, rows[i], sd, cfg, instance_index=i)
        except ExplainError:
            failures += 1
            continue
        acc += np.abs(coef)
    if failures > 0.1 * n_explain:
        raise ExplainError(
            f"{failures} of {n_explain} instances failed to explain"
        )
    return ImportanceVector(scores=acc / n_explain, method="lime", model=model_tag)


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
    return ImportanceVector(scores=scores, method="permutation", model=model_tag)


def to_ranks(scores) -> np.ndarray:
    """Ordinal ranks 1..p by descending score; ties go to the lower index."""
    if isinstance(scores, ImportanceVector):
        scores = scores.scores
    scores = np.asarray(scores, dtype=np.float64)
    p = len(scores)
    order = np.lexsort((np.arange(p), -scores))
    ranks = np.empty(p, dtype=np.int64)
    ranks[order] = np.arange(1, p + 1)
    return ranks


def write_importance_csv(
    path: str | Path,
    feature_names: tuple[str, ...] | list[str],
    vectors: list[ImportanceVector],
) -> None:
    """One row per (vector, feature): feature, score, rank, method, model."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "score", "rank", "method", "model"])
        for iv in vectors:
            if len(iv.scores) != len(feature_names):
                raise ExplainError("importance length does not match feature names")
            ranks = to_ranks(iv)
            for name, score, rank in zip(feature_names, iv.scores, ranks):
                writer.writerow([name, repr(float(score)), int(rank), iv.method, iv.model])
