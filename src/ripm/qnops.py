"""Limited-memory quasi-Newton curvature operators.

Each operator keeps a symmetric approximation B of the Hessian with three
capabilities: a matrix-vector product, an update from a (step, gradient
difference) pair, and an estimate of the operator 2-norm.  All operators
start from the identity.  Products are formed from the cached rank-one
factors of the direct update recursions replayed over the stored pairs, so a
pair eviction rebuilds the factors from scratch.
"""
from __future__ import annotations

from collections import deque

import numpy as np

CURVATURE_SKIP = 1e-8  # relative threshold below which an update is dropped
SIGMA_MIN = 1e-6
SIGMA_MAX = 1e12
DEFAULT_MEMORY = 5


def _power_norm(apply_fn, n: int, iters: int = 20) -> float:
    """Power-iteration estimate of the spectral norm of a symmetric operator."""
    rng = np.random.default_rng(12345)
    best = 0.0
    for _ in range(2):  # two starts guard against an unlucky initial vector
        v = rng.standard_normal(n)
        nv = np.linalg.norm(v)
        v /= nv
        for _ in range(iters):
            w = apply_fn(v)
            nw = float(np.linalg.norm(w))
            best = max(best, nw)
            if nw == 0.0:
                break
            v = w / nw
    return best


class _FactoredOp:
    """Shared machinery: B v = v + sum_j sign_j * u_j (u_j . v)."""

    def __init__(self, n: int, memory: int = DEFAULT_MEMORY):
        self.n = int(n)
        self.memory = int(memory)
        self.pairs: deque = deque()
        self._factors: list[tuple[np.ndarray, float]] = []
        self._norm_cache: float | None = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = v.copy()
        for u, sign in self._factors:
            out += (sign * float(u @ v)) * u
        return out

    def norm_estimate(self) -> float:
        if self._norm_cache is None:
            if not self._factors:
                self._norm_cache = 1.0
            else:
                self._norm_cache = max(_power_norm(self.apply, self.n), 1e-12)
        return self._norm_cache

    def update(self, s: np.ndarray, y: np.ndarray) -> bool:
        if not self._accept(s, y):
            return False
        self.pairs.append((s.copy(), y.copy()))
        if len(self.pairs) > self.memory:
            self.pairs.popleft()
        self._rebuild()
        self._norm_cache = None
        return True

    def _accept(self, s, y) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _rebuild(self):  # pragma: no cover - abstract
        raise NotImplementedError


class LBFGS(_FactoredOp):
    """Direct (Hessian-side) BFGS with limited memory.

    Update: B <- B - (B s)(B s)^T / (s.B s) + y y^T / (y.s), accepted only
    when y.s exceeds the curvature threshold, which keeps B positive
    definite.
    """

    def _accept(self, s, y) -> bool:
        sy = float(s @ y)
        return sy > CURVATURE_SKIP * np.linalg.norm(s) * np.linalg.norm(y)

    def _rebuild(self):
        self._factors = []
        for s, y in self.pairs:
            bs = self.apply(s)
            sbs = float(s @ bs)
            sy = float(s @ y)
            if sbs <= 0.0 or sy <= 0.0:
                continue
            self._factors.append((bs / np.sqrt(sbs), -1.0))
            self._factors.append((y / np.sqrt(sy), 1.0))


class LSR1(_FactoredOp):
    """Limited-memory SR1: B <- B + r r^T / (r.s) with r = y - B s.

    Updates whose denominator is too small relative to ||r|| ||s|| are
    skipped to keep the product well defined; the operator may be indefinite.
    """

    def _accept(self, s, y) -> bool:
        r = y - self.apply(s)
        rs = float(r @ s)
        return abs(rs) > CURVATURE_SKIP * np.linalg.norm(r) * np.linalg.norm(s)

    def _rebuild(self):
        self._factors = []
        for s, y in self.pairs:
            r = y - self.apply(s)
            rs = float(r @ s)
            if abs(rs) <= CURVATURE_SKIP * np.linalg.norm(r) * np.linalg.norm(s) or rs == 0.0:
                continue
            self._factors.append((r / np.sqrt(abs(rs)), 1.0 if rs > 0 else -1.0))


class SpectralDiag:
    """Spectral-gradient diagonal sigma * I with sigma clamped to a safe range."""

    def __init__(self, n: int):
        self.n = int(n)
        self.sigma = 1.0

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.sigma * v

    def update(self, s: np.ndarray, y: np.ndarray) -> bool:
        ss = float(s @ s)
        if ss == 0.0:
            return False
        self.sigma = float(np.clip((s @ y) / ss, SIGMA_MIN, SIGMA_MAX))
        return True

    def norm_estimate(self) -> float:
        return self.sigma

    def diagonal(self) -> np.ndarray:
        return np.full(self.n, self.sigma)

