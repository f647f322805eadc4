"""Separable regularizers, coordinate boxes, and scaled proximal maps.

Every feasible set the solvers touch (l-inf trust regions around the
current point, the bounds, the fraction-to-boundary sets that
`interior.fraction_to_boundary_box` builds) is a coordinate box of points,
so each proximal subproblem splits into independent one-dimensional
problems

    min_{lo_i <= u_i <= hi_i}  d_i (u_i - q_i)^2 / 2 + h_i(u_i)

with closed-form solutions for the supported regularizers.  Its solution
is the trial point itself; a step is the difference of two points.

A regularizer is of one of two kinds, l1 or l0, with a finite lam >= 0;
lam = 0 means h = 0, for which the formulas of both kinds give the value 0
and the clamp into the box as the prox.

Hot-path rule: code that runs once per iteration or per prox calls ufuncs
and ndarray methods directly.  It uses no `np.clip`, no function-form
`np.any`/`np.all` and no `np.linalg.norm`, which go through numpy's Python
wrappers.  At n = 512, where the bpdn solves are bound by per-call cost,
one `np.clip` into ``out=`` takes 4.7 us against 1.6 us for `np.maximum`
then `np.minimum` into ``out=`` (2 vCPU x86 host, numpy 2.4), and one
round of the six bpdn solves makes hundreds of thousands of each of these
calls.  `np.maximum`/`np.minimum`,
``.any()``/``.all()`` and ``math.sqrt(v @ v)`` give the same bits on the
solvers' inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBox

L1 = "l1"
L0 = "l0"
_KINDS = (L1, L0)


@dataclass
class Box:
    """Coordinate box {v : lo <= v <= hi} of float vectors; entries may be infinite.

    Construction raises :class:`EmptyBox` when lo_i > hi_i somewhere, which
    callers treat as an algorithmic bug (the sets intersected here are
    guaranteed nonempty when the current point is strictly interior).
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.ndim != 1 or self.lo.shape != self.hi.shape:
            raise ValueError(f"box bounds must be vectors of one size, "
                             f"not shapes {self.lo.shape} and {self.hi.shape}")
        if (self.lo > self.hi).any():
            i = int(np.argmax(self.lo > self.hi))
            raise EmptyBox(f"empty box: lo={self.lo[i]} > hi={self.hi[i]} at component {i}")

    def ball(self, x: np.ndarray, r: float) -> "Box":
        """The l-inf ball of radius r around the point x within this box.

        Built in one pass as max(x - r, lo), min(x + r, hi), with one
        emptiness check; the trust-region loop forms both of its boxes so.
        """
        lo = x - r
        hi = x + r
        return Box(np.maximum(lo, self.lo, out=lo), np.minimum(hi, self.hi, out=hi))

    def clamp(self, v: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(v, self.lo), self.hi)

    def shifted(self, x: np.ndarray) -> "Box":
        """Box for steps s such that x + s stays in this box.

        No solver takes a box of steps; the name stays bound because
        perfbench/tracer.py wraps it.
        """
        return Box(self.lo - x, self.hi - x)


def intersect_boxes(a: Box, b: Box) -> Box:
    """Componentwise intersection; raises EmptyBox when disjoint."""
    return Box(np.maximum(a.lo, b.lo), np.minimum(a.hi, b.hi))


@dataclass
class Regularizer:
    """Separable term lam * sum_i w_i * r(x_i) with r one of |.| (l1) and 1[. != 0] (l0).

    ``weights`` (optional, defaults to all ones) lets a single instance apply
    the penalty to a block of variables only, as needed by matrix
    factorization objectives that regularize one factor.  lam and the
    weights are finite and nonnegative; lam = 0 means h = 0.
    """

    kind: str
    lam: float = 0.0
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and nonnegative, not {self.lam}")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if not (np.isfinite(self.weights).all() and (self.weights >= 0).all()):
                raise ValueError("weights must be finite and nonnegative")
        self._lam_full = ((None, None), None)  # ((n, lam), read-only np.full(n, lam))

    def lam_per_component(self, n: int) -> np.ndarray:
        """Per-component weights lam * w_i; without weights, a cached read-only array."""
        if self.weights is not None:
            return self.lam * self.weights
        key, full = self._lam_full
        if key != (n, self.lam):
            full = np.full(n, self.lam)
            full.flags.writeable = False
            self._lam_full = ((n, self.lam), full)
        return full

    def value(self, x: np.ndarray) -> float:
        lam = self.lam_per_component(x.size)
        if self.kind == L1:
            return float(np.dot(lam, np.abs(x)))
        return float(lam[x != 0.0].sum())


def iprox_shifted(h: Regularizer, d, q, box: Box) -> np.ndarray:
    """Componentwise argmin over box of d_i (u_i - q_i)^2 / 2 + h_i(u_i).

    This is the prox kernel of every solver, which reaches it only through
    `r2.first_order_step`: the l1 objective reduces to a soft threshold of q
    clamped to the box; the l0 objective compares the clamped quadratic
    minimizer against the sparse candidate u_i = 0 when the box holds it
    (ties prefer the sparse candidate).  q and the box are vectors of one
    size; d > 0 is a scalar or a vector of that size.
    """
    if not ((d > 0).all() if isinstance(d, np.ndarray) else d > 0):
        raise ValueError("iprox_shifted requires strictly positive d")
    if h.kind == L1:
        # the threshold q - min(max(q, -c), c) equals sign(q) max(|q| - c, 0)
        # bit for bit, up to the sign of a zero
        c = (h.lam if h.weights is None else h.lam * h.weights) / d
        u = np.maximum(q, -c)
        np.minimum(u, c, out=u)
        np.subtract(q, u, out=u)
        np.maximum(u, box.lo, out=u)
        return np.minimum(u, box.hi, out=u)
    # l0
    lam = h.lam_per_component(q.size)
    c = box.clamp(q)
    cost_c = 0.5 * d * (c - q) ** 2 + np.where(c != 0.0, lam, 0.0)
    z_ok = (box.lo <= 0.0) & (0.0 <= box.hi)
    cost_z = 0.5 * d * q ** 2
    return np.where(z_ok & (cost_z <= cost_c), 0.0, c)

