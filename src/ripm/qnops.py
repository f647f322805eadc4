"""Limited-memory quasi-Newton curvature operators.

Each operator keeps a symmetric approximation B of the Hessian with three
capabilities: a matrix-vector product, an update from a (step, gradient
difference) pair, and the operator 2-norm.  All operators start from the
identity.

LBFGS and LSR1 hold B = I + W^T diag(signs) W, where the k rows of W are
rank-one factors, so one product is two matrix products with W.  The
factors come from the direct update recursions replayed over the stored
pairs: every accepted pair replays them all from the identity, with the
skip rules of the recursions, into a preallocated (2 memory) x n row buffer.
B equals the identity on the orthogonal complement of range(W^T) and maps
that range into itself, so `norm_estimate` is exact: Rayleigh-Ritz on an
orthonormal basis Q of range(W^T) gives the eigenvalues of B there as those
of the small matrix Q^T B Q, and B has the eigenvalue 1 besides whenever Q
spans less than the whole space.  That takes one product per column of Q.
`factors` hands out W and the signs, from which a quadratic model takes
t.B t = t.t + sum signs (W t)^2 with one k-row product.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np

CURVATURE_SKIP = 1e-8  # relative threshold below which an update is dropped
SIGMA_MIN = 1e-6
SIGMA_MAX = 1e12
DEFAULT_MEMORY = 5


class _FactoredOp:
    """Shared machinery: B v = v + W^T (signs * (W v)) with W the first k buffer rows."""

    def __init__(self, n: int, memory: int = DEFAULT_MEMORY):
        self.n = int(n)
        self.memory = int(memory)
        self.pairs: deque = deque()
        self._rows = np.empty((2 * self.memory, self.n))
        self._signs = np.empty(2 * self.memory)
        self._k = 0
        self._norm_cache: float | None = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        W = self._rows[:self._k]
        return v + ((W @ v) * self._signs[:self._k]) @ W

    def factors(self):
        """W and signs of B = I + W^T diag(signs) W; views that the next update rewrites."""
        return self._rows[:self._k], self._signs[:self._k]

    def norm_estimate(self) -> float:
        """||B||_2, exact up to rounding (see the module docstring); cached until an update."""
        if self._norm_cache is None:
            if self._k == 0:
                self._norm_cache = 1.0
            else:
                Q = np.linalg.qr(self._rows[:self._k].T)[0]
                BQ = np.column_stack([self.apply(q) for q in Q.T])
                H = Q.T @ BQ
                eig = np.linalg.eigvalsh(0.5 * (H + H.T))
                norm = float(np.max(np.abs(eig)))
                if Q.shape[1] < self.n:
                    norm = max(norm, 1.0)
                self._norm_cache = max(norm, 1e-12)
        return self._norm_cache

    def update(self, s: np.ndarray, y: np.ndarray) -> bool:
        if not self._accept(s, y):
            return False
        self.pairs.append((s.copy(), y.copy()))
        if len(self.pairs) > self.memory:
            self.pairs.popleft()
        self._k = 0
        self._rebuild()
        self._norm_cache = None
        return True

    def _push(self, v: np.ndarray, scale: float, sign: float) -> None:
        """Append the factor v / scale with its sign as the next row of W."""
        np.divide(v, scale, out=self._rows[self._k])
        self._signs[self._k] = sign
        self._k += 1

    def _accept(self, s, y) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _rebuild(self):  # pragma: no cover - abstract
        raise NotImplementedError


class LBFGS(_FactoredOp):
    """Direct (Hessian-side) BFGS with limited memory.

    Update: B <- B - (B s)(B s)^T / (s.B s) + y y^T / (y.s), accepted only
    when y.s exceeds the curvature threshold, which keeps B positive
    definite.  Each pair adds two rows to W.
    """

    def _accept(self, s, y) -> bool:
        sy = float(s @ y)
        return sy > CURVATURE_SKIP * math.sqrt(s @ s) * math.sqrt(y @ y)

    def _rebuild(self):
        for s, y in self.pairs:
            bs = self.apply(s)
            sbs = float(s @ bs)
            sy = float(s @ y)
            if sbs <= 0.0 or sy <= 0.0:
                continue
            self._push(bs, math.sqrt(sbs), -1.0)
            self._push(y, math.sqrt(sy), 1.0)


class LSR1(_FactoredOp):
    """Limited-memory SR1: B <- B + r r^T / (r.s) with r = y - B s.

    Updates whose denominator is too small relative to ||r|| ||s|| are
    skipped to keep the product well defined; the operator may be indefinite.
    Each pair adds at most one row to W.
    """

    def _accept(self, s, y) -> bool:
        r = y - self.apply(s)
        rs = float(r @ s)
        return abs(rs) > CURVATURE_SKIP * math.sqrt(r @ r) * math.sqrt(s @ s)

    def _rebuild(self):
        for s, y in self.pairs:
            r = y - self.apply(s)
            rs = float(r @ s)
            if abs(rs) <= CURVATURE_SKIP * math.sqrt(r @ r) * math.sqrt(s @ s) or rs == 0.0:
                continue
            self._push(r, math.sqrt(abs(rs)), 1.0 if rs > 0 else -1.0)


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
        self.sigma = min(max(float(s @ y) / ss, SIGMA_MIN), SIGMA_MAX)
        return True

    def norm_estimate(self) -> float:
        return self.sigma

    def diagonal(self) -> np.ndarray:
        return np.full(self.n, self.sigma)

