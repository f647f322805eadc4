"""Separable regularizers, coordinate boxes, and scaled proximal maps.

Every feasible set the solvers touch (l-inf trust regions, shifted bound
boxes, fraction-to-boundary sets) is a coordinate box, so each proximal
subproblem splits into independent one-dimensional problems

    min_{lo_i <= s_i <= hi_i}  d_i (s_i - q_i)^2 / 2 + h_i(s_i or x_i + s_i)

with closed-form solutions for the supported regularizers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryPoint, EmptyBox

L1 = "l1"
L0 = "l0"
ZERO = "zero"
_KINDS = (L1, L0, ZERO)


def _vec(v, n: int | None = None) -> np.ndarray:
    a = np.atleast_1d(np.asarray(v, dtype=float))
    if n is not None and a.size == 1 and n != 1:
        a = np.full(n, a[0])
    return a


@dataclass
class Box:
    """Coordinate box {v : lo <= v <= hi}; entries may be infinite.

    Construction raises :class:`EmptyBox` when lo_i > hi_i somewhere, which
    callers treat as an algorithmic bug (the sets intersected here are
    guaranteed nonempty when the current point is strictly interior).
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo, hi = _vec(self.lo), _vec(self.hi)
        n = max(lo.size, hi.size)
        self.lo, self.hi = _vec(lo, n), _vec(hi, n)
        if np.any(self.lo > self.hi):
            i = int(np.argmax(self.lo > self.hi))
            raise EmptyBox(f"empty box: lo={self.lo[i]} > hi={self.hi[i]} at component {i}")

    @property
    def dim(self) -> int:
        return self.lo.size

    @classmethod
    def full(cls, n: int) -> "Box":
        return cls(np.full(n, -np.inf), np.full(n, np.inf))

    @classmethod
    def ball(cls, n: int, radius: float) -> "Box":
        """l-inf ball of the given radius centered at the origin."""
        return cls(np.full(n, -radius), np.full(n, radius))

    def clamp(self, v) -> np.ndarray:
        return np.minimum(np.maximum(_vec(v, self.dim), self.lo), self.hi)

    def contains(self, v, tol: float = 0.0) -> bool:
        v = _vec(v, self.dim)
        return bool(np.all(v >= self.lo - tol) and np.all(v <= self.hi + tol))

    def shifted(self, x) -> "Box":
        """Box for steps s such that x + s stays in this box."""
        x = _vec(x, self.dim)
        return Box(self.lo - x, self.hi - x)


def intersect_boxes(a: Box, b: Box) -> Box:
    """Componentwise intersection; raises EmptyBox when disjoint."""
    return Box(np.maximum(a.lo, b.lo), np.minimum(a.hi, b.hi))


@dataclass
class Regularizer:
    """Separable term lam * sum_i w_i * r(x_i) with r one of |.|, 1[. != 0], 0.

    ``weights`` (optional, defaults to all ones) lets a single instance apply
    the penalty to a block of variables only, as needed by matrix
    factorization objectives that regularize one factor.
    """

    kind: str
    lam: float = 0.0
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if np.any(self.weights < 0):
                raise ValueError("weights must be nonnegative")

    def lam_per_component(self, n: int) -> np.ndarray:
        if self.weights is None:
            return np.full(n, self.lam)
        return self.lam * self.weights

    def value(self, x) -> float:
        x = _vec(x)
        if self.kind == ZERO or self.lam == 0.0:
            return 0.0
        lam = self.lam_per_component(x.size)
        if self.kind == L1:
            return float(np.dot(lam, np.abs(x)))
        return float(np.sum(lam[x != 0.0]))

    def shifted(self, origin) -> "ShiftedRegularizer":
        return ShiftedRegularizer(self, np.asarray(origin, dtype=float))

    def prox_shifted(self, d, q, x, box: Box) -> np.ndarray:
        return iprox_shifted(self, d, q, x, box)


@dataclass
class ShiftedRegularizer:
    """View of a regularizer evaluated at origin + v; composes with itself."""

    base: Regularizer
    origin: np.ndarray

    @property
    def lam(self) -> float:
        return self.base.lam

    def value(self, v) -> float:
        return self.base.value(self.origin + _vec(v, self.origin.size))

    def prox_shifted(self, d, q, x, box: Box) -> np.ndarray:
        x = _vec(x, self.origin.size)
        return self.base.prox_shifted(d, q, self.origin + x, box)


def iprox_shifted(h: Regularizer, d, q, x, box: Box) -> np.ndarray:
    """Componentwise argmin over box of d_i (s_i - q_i)^2 / 2 + h_i(x_i + s_i).

    This is the step kernel of every solver: the l1 objective splits at
    s_i = -x_i and reduces to a soft threshold in the variable u = x + s; the
    l0 objective compares the clamped quadratic minimizer against the
    sparsity candidate s_i = -x_i when feasible (ties prefer the sparse
    candidate).  At x = 0 this is the plain separable prox.  Requires d > 0.
    """
    q = _vec(q)
    n = q.size
    d = _vec(d, n)
    x = _vec(x, n)
    box = _box_of_dim(box, n)
    if not np.all(d > 0):
        raise ValueError("iprox_shifted requires strictly positive d")
    if h.kind == ZERO or h.lam == 0.0:
        return box.clamp(q)
    lam = h.lam_per_component(n)
    if h.kind == L1:
        u = x + q
        u = np.sign(u) * np.maximum(np.abs(u) - lam / d, 0.0)
        u = np.minimum(np.maximum(u, x + box.lo), x + box.hi)
        return u - x
    # l0
    c = box.clamp(q)
    cost_c = 0.5 * d * (c - q) ** 2 + np.where(x + c != 0.0, lam, 0.0)
    z_ok = (box.lo <= -x) & (-x <= box.hi)
    cost_z = 0.5 * d * (x + q) ** 2
    return np.where(z_ok & (cost_z <= cost_c), -x, c)


def fraction_to_boundary_box(x, delta: float, bounds: Box) -> Box:
    """Step box keeping a delta fraction of the smallest gap on each side.

    Lower side: x_i + s_i - lo_i >= delta * min_j (x_j - lo_j), minimum over
    finite lower bounds; the upper side mirrors it.  Components with an
    infinite bound are unconstrained on that side, so for lo = 0, hi = +inf
    this is exactly {s : min_i (x + s)_i >= delta * min_i x_i}.
    """
    x = _vec(x)
    n = x.size
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    bounds = _box_of_dim(bounds, n)
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    mask_l = np.isfinite(bounds.lo)
    if mask_l.any():
        gap_l = x[mask_l] - bounds.lo[mask_l]
        if np.any(gap_l <= 0):
            raise BoundaryPoint("x is not strictly interior (lower side)")
        lo[mask_l] = delta * gap_l.min() - gap_l
    mask_u = np.isfinite(bounds.hi)
    if mask_u.any():
        gap_u = bounds.hi[mask_u] - x[mask_u]
        if np.any(gap_u <= 0):
            raise BoundaryPoint("x is not strictly interior (upper side)")
        hi[mask_u] = gap_u - delta * gap_u.min()
    return Box(lo, hi)


def _box_of_dim(box: Box, n: int) -> Box:
    if box.dim == n:
        return box
    if box.dim == 1:
        return Box(np.full(n, box.lo[0]), np.full(n, box.hi[0]))
    raise ValueError(f"box dimension {box.dim} does not match {n}")
