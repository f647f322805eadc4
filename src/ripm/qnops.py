"""Limited-memory quasi-Newton curvature operators.

Each operator keeps a symmetric approximation B of the Hessian with three
capabilities: a matrix-vector product, an update from a (step, gradient
difference) pair, and the operator 2-norm.  All operators start from the
identity.  ``update(s, y, bs)`` takes bs = B s under the operator as it
stands, before the update: the product the trust-region loop formed for its
model decrease.

LSR1 holds B = I + W^T diag(signs) W, where the k rows of W are rank-one
factors, so one product is two matrix products with W.  The factors are
those of the SR1 recursion replayed over the stored pairs from the
identity, in a preallocated MEMORY x n row buffer.  `_row(s, y, bs)` states
the recursion once: the row a pair adds given bs = B s, or None under its
skip rule.  A taken pair is appended to the kept pairs, the oldest is
evicted when they are full, and `_rebuild` replays every kept pair, one
product each.

B equals the identity on the orthogonal complement of range(W^T) and maps
that range into itself, so `norm_estimate` is exact: Rayleigh-Ritz on an
orthonormal basis Q of range(W^T) gives the eigenvalues of B there as those
of the small matrix Q^T B Q, and B has the eigenvalue 1 besides whenever Q
spans less than the whole space.  That takes one product per column of Q.
Q comes from LAPACK's dgeqrf and dorgqr, the routines behind `np.linalg.qr`,
called without its wrapper, which costs more than the factorization itself
on k <= 5 columns; Q^T B Q is formed from a C-ordered copy of Q, whose
layout keeps the bits of the `np.linalg.qr` form (see `norm_estimate`).
`factors` hands out W and the signs, from which a quadratic model takes
t.B t = t.t + sum signs (W t)^2 with one k-row product.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np
from scipy.linalg import lapack

CURVATURE_SKIP = 1e-8  # relative threshold below which an update is dropped
SIGMA_MIN = 1e-6
SIGMA_MAX = 1e12
MEMORY = 5  # pairs an operator keeps; read when it is built


class LSR1:
    """Limited-memory SR1: B <- B + r r^T / (r.s) with r = y - B s.

    Updates whose denominator is too small relative to ||r|| ||s|| are
    skipped to keep the product well defined; the operator may be indefinite.
    Each pair adds one row to W: B v = v + W^T (signs * (W v)) with W the
    first k buffer rows.
    """

    def __init__(self, n: int):
        self.n = int(n)
        self.memory = MEMORY
        self.pairs: deque = deque(maxlen=self.memory)  # the oldest pair is evicted
        self._rows = np.empty((self.memory, self.n))
        self._signs = np.empty(self.memory)
        self._k = 0
        self._norm_cache: float | None = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        W = self._rows[:self._k]
        return v + (W.dot(v) * self._signs[:self._k]).dot(W)

    def factors(self):
        """W and signs of B = I + W^T diag(signs) W; views that the next update rewrites."""
        return self._rows[:self._k], self._signs[:self._k]

    def norm_estimate(self) -> float:
        """||B||_2, exact up to rounding (see the module docstring); cached until an update.

        Q is the Householder QR basis of W^T, in Fortran order in the factors'
        memory; with more rows than dimensions (k > n), dorgqr forms its first
        n columns.  The products B q run on Q's contiguous columns, stacked as rows.
        H = Q^T (B Q) is formed from a C-ordered copy of Q, the layout
        `np.linalg.qr` returns: the matrix product rounds differently when
        its left factor is the Fortran-ordered Q, not when its right factor
        changes layout.  dsyevd without vectors, on the lower triangle, is
        what `eigvalsh` calls.
        """
        if self._norm_cache is None:
            if self._k == 0:
                self._norm_cache = 1.0
            else:
                qr, tau = lapack.dgeqrf(self._rows[:self._k].T)[:2]
                Q = lapack.dorgqr(qr[:, :tau.size], tau, overwrite_a=1)[0]
                BQt = np.array([self.apply(q) for q in Q.T])  # row j is B q_j
                H = np.ascontiguousarray(Q).T @ BQt.T
                eig = lapack.dsyevd(0.5 * (H + H.T), compute_v=0, lower=1)[0]
                norm = max(-eig[0], eig[-1])  # the largest modulus of the ascending eig
                if Q.shape[1] < self.n:
                    norm = max(norm, 1.0)
                self._norm_cache = max(float(norm), 1e-12)
        return self._norm_cache

    def update(self, s: np.ndarray, y: np.ndarray, bs: np.ndarray) -> bool:
        """Take the pair (s, y) given bs = B s, unless the skip rule drops it; True if taken."""
        if self._row(s, y, bs) is None:
            return False
        self.pairs.append((s.copy(), y.copy()))
        self._rebuild()
        self._norm_cache = None
        return True

    def _rebuild(self) -> None:
        """Replay the SR1 recursion over the kept pairs from the identity.

        The factor r / sqrt|r.s| of each pair taken, with its sign, is the next row of W."""
        self._k = 0
        for s, y in self.pairs:
            row = self._row(s, y, self.apply(s))
            if row is not None:
                r, scale, sign = row
                np.divide(r, scale, out=self._rows[self._k])
                self._signs[self._k] = sign
                self._k += 1

    def _row(self, s, y, bs):
        """(r, sqrt|r.s|, sign of r.s) for the pair (s, y), with bs = B s; None if skipped."""
        r = y - bs
        rs = float(r.dot(s))
        if not abs(rs) > CURVATURE_SKIP * math.sqrt(r.dot(r)) * math.sqrt(s.dot(s)):
            return None
        return r, math.sqrt(abs(rs)), 1.0 if rs > 0 else -1.0


# LBFGS is bound here only for perfbench/tracer.py, which wraps the methods
# it inherits from LSR1; it builds no operator
class LBFGS(LSR1):
    def __init__(self, n: int):
        raise TypeError("qnops.LBFGS was removed; use qnops.LSR1")


class SpectralDiag:
    """Spectral-gradient diagonal sigma * I with sigma clamped to a safe range."""

    def __init__(self, n: int):
        self.n = int(n)
        self.sigma = 1.0

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.sigma * v

    def update(self, s: np.ndarray, y: np.ndarray, bs: np.ndarray) -> bool:
        """sigma = s.y / s.s, clamped; the update needs no B s, so ``bs`` is unused."""
        ss = float(s.dot(s))
        if ss == 0.0:
            return False
        self.sigma = min(max(float(s.dot(y)) / ss, SIGMA_MIN), SIGMA_MAX)
        return True

    def norm_estimate(self) -> float:
        return self.sigma

    def diagonal(self) -> float:
        return self.sigma  # every component of the diagonal
