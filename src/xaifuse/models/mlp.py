"""Single-hidden-layer neural classifier trained with Adam.

The loss and its gradient live in one pure function of the flat parameter
vector so the trainer and a finite-difference check share the exact same
code path. Dropout applies only during training (inverted scaling keeps
the expected activation unchanged); evaluation is deterministic.
"""

from __future__ import annotations

import numpy as np

from ..seeding import rng_for
from .ovr import ProbaClassifier, ovr_proba, sigmoid, softmax


class MlpClassifier(ProbaClassifier):
    def __init__(
        self,
        hidden_units: int = 16,
        dropout: float = 0.1,
        epochs: int = 5,
        batch_size: int = 100,
        learning_rate: float = 1e-3,
        seed: int = 0,
    ):
        if hidden_units < 1 or epochs < 1 or batch_size < 1 or learning_rate <= 0:
            raise ValueError("hidden_units, epochs, batch_size, learning_rate must be positive")
        if not 0.0 <= dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        self.hidden_units = hidden_units
        self.dropout = dropout
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed

    # -- parameter layout --------------------------------------------------

    def _shapes(self, p: int, k_out: int) -> list[tuple[int, ...]]:
        h = self.hidden_units
        return [(p, h), (h,), (h, k_out), (k_out,)]

    def _unpack(self, flat: np.ndarray, p: int, k_out: int):
        parts = []
        pos = 0
        for shape in self._shapes(p, k_out):
            size = int(np.prod(shape))
            parts.append(flat[pos : pos + size].reshape(shape))
            pos += size
        return parts

    def _init_params(self, p: int, k_out: int, rng: np.random.Generator) -> np.ndarray:
        chunks = []
        for shape in self._shapes(p, k_out):
            if len(shape) == 2:
                fan_in, fan_out = shape
                limit = np.sqrt(6.0 / (fan_in + fan_out))
                chunks.append(rng.uniform(-limit, limit, size=shape).ravel())
            else:
                chunks.append(np.zeros(shape))
        return np.concatenate(chunks)

    # -- loss --------------------------------------------------------------

    def loss_and_grad(
        self,
        flat: np.ndarray,
        X: np.ndarray,
        target: np.ndarray,
        dropout_mask: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray]:
        """Mean cross-entropy over the batch and its gradient.

        target is the 0..k-1 encoded label vector. dropout_mask, when given,
        is the pre-scaled keep mask for the hidden layer (entries 0 or
        1/(1-rate)); None disables dropout entirely.
        """
        n, p = X.shape
        k_out = 1 if self._binary else len(self.classes_)
        w1, b1, w2, b2 = self._unpack(flat, p, k_out)

        a1 = X @ w1 + b1
        h = np.maximum(a1, 0.0)
        if dropout_mask is not None:
            h = h * dropout_mask
        z = h @ w2 + b2

        if self._binary:
            zf = z[:, 0]
            t = target.astype(np.float64)
            # stable log(1 + exp(.)) form of the bernoulli cross-entropy
            loss = float(np.mean(np.maximum(zf, 0.0) - zf * t + np.log1p(np.exp(-np.abs(zf)))))
            dz = ((sigmoid(zf) - t) / n)[:, None]
        else:
            probs = softmax(z)
            loss = float(-np.mean(np.log(np.maximum(probs[np.arange(n), target], 1e-300))))
            dz = probs.copy()
            dz[np.arange(n), target] -= 1.0
            dz /= n

        gw2 = h.T @ dz
        gb2 = dz.sum(axis=0)
        dh = dz @ w2.T
        if dropout_mask is not None:
            dh = dh * dropout_mask
        da1 = dh * (a1 > 0.0)
        gw1 = X.T @ da1
        gb1 = da1.sum(axis=0)
        grad = np.concatenate([gw1.ravel(), gb1, gw2.ravel(), gb2])
        return loss, grad

    # -- training ------------------------------------------------------------

    def fit(self, X, y) -> "MlpClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        self.classes_, yi = np.unique(y, return_inverse=True)
        if len(self.classes_) < 2:
            raise ValueError("need at least two classes")
        self._binary = len(self.classes_) == 2
        n, p = X.shape
        k_out = 1 if self._binary else len(self.classes_)

        flat = self._init_params(p, k_out, rng_for(self.seed, "mlp-init"))
        m = np.zeros_like(flat)
        v = np.zeros_like(flat)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        for epoch in range(self.epochs):
            order = rng_for(self.seed, "mlp-shuffle", epoch).permutation(n)
            drop_rng = rng_for(self.seed, "mlp-dropout", epoch)
            for lo in range(0, n, self.batch_size):
                batch = order[lo : lo + self.batch_size]
                mask = None
                if self.dropout > 0.0:
                    keep = drop_rng.random((len(batch), self.hidden_units)) >= self.dropout
                    mask = keep / (1.0 - self.dropout)
                _, grad = self.loss_and_grad(flat, X[batch], yi[batch], mask)
                step += 1
                m = beta1 * m + (1.0 - beta1) * grad
                v = beta2 * v + (1.0 - beta2) * grad**2
                m_hat = m / (1.0 - beta1**step)
                v_hat = v / (1.0 - beta2**step)
                flat = flat - self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        self.params_ = flat
        self.n_features_ = p
        return self

    # -- inference -------------------------------------------------------

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        k_out = 1 if self._binary else len(self.classes_)
        w1, b1, w2, b2 = self._unpack(self.params_, self.n_features_, k_out)
        h = np.maximum(X @ w1 + b1, 0.0)
        z = h @ w2 + b2
        return ovr_proba(z) if self._binary else softmax(z)
