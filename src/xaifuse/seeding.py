"""Deterministic seed derivation for nested pipeline stages.

Every source of randomness in the toolkit draws from a numpy Generator
seeded through `derive_seed`, so results never depend on call order or
thread scheduling.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(master: int, *parts: object) -> int:
    """Derive a stable 64-bit sub-seed from a master seed and context labels.

    Parts may be strings or integers (e.g. stage name, model name, row
    index). The same (master, parts) always yields the same seed,
    independent of platform or process.
    """
    h = hashlib.sha256()
    h.update(str(int(master)).encode("ascii"))
    for part in parts:
        h.update(b"\x1f")
        h.update(str(part).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


def rng_for(master: int, *parts: object) -> np.random.Generator:
    """Generator seeded with `derive_seed(master, *parts)`."""
    return np.random.default_rng(derive_seed(master, *parts))


def subsample(n: int, size: int, master: int, *parts: object) -> np.ndarray:
    """Every index of n rows if n <= size, else the sorted indices of `size`
    rows drawn without replacement from `rng_for(master, *parts)`."""
    if n <= size:
        return np.arange(n)
    return np.sort(rng_for(master, *parts).choice(n, size=size, replace=False))
