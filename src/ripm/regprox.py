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
and the clamp into the box as the prox.  `iprox_shifted` counts its calls
on h, ``h.n_prox``, a count per run on the copy a solve gets (see `report`).

Hot-path rule: code that runs once per iteration, per R2 sub-iteration or
per prox (`r2`, `trust_region`, `interior`, `oracles.QuadModelOracle`,
`qnops` and this module) reaches numpy's C entry points directly.  At n =
512, where the bpdn solves are bound by per-call cost, numpy's Python
wrappers cost as much as the arithmetic, and one round of the six bpdn
solves makes hundreds of thousands of these calls.  Times are per call on a
2 vCPU x86 host with numpy 2.4, for vectors of 512 and a 5 x 512 W:

- a vector product is ``a.dot(b)``, which calls the BLAS ddot or dgemv that
  ``a @ b`` calls: ``W.dot(t)`` takes 0.68 us against 1.11 us for ``W @
  t``, and ``t.dot(u)`` 0.38 us against 0.73 us for ``t @ u``;
- a max, min or sum is the ufunc's reduce, `np.maximum.reduce`,
  `np.minimum.reduce` or `np.add.reduce`, which ``.max()``, ``.min()`` and
  ``.sum()`` reach through numpy's `_methods` wrappers (1.0 us against
  1.1 us), and "any" is `np.count_nonzero` (0.63 us against 1.16 us for
  ``.any()``);
- a test of equal points is a shape test and ``(a == b).all()``, not
  `np.array_equal` (1.6 us against 1.9 us);
- a box that the loop builds from a point inside a checked box, `Box.ball`
  and `interior.fraction_to_boundary_box`, is built by `Box._unchecked`
  and not checked again; ``Box(...)`` checks every box that enters from
  outside;
- there is no `np.clip` (4.7 us into ``out=`` against 1.6 us for
  `np.maximum` then `np.minimum`), no function-form `np.any`/`np.all` and
  no `np.linalg.norm`: a norm is ``math.sqrt(v.dot(v))``.

Each form gives the bits of the one it replaces.  Two kinds of product keep
``@``: the 2-D products of `qnops.LSR1.norm_estimate`, whose layout is
pinned for its bits, and those of the problem oracles, which run once per
value or gradient.
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
    guaranteed nonempty when the current point is strictly interior).  The
    boxes a solver's loop builds around a point it holds, `ball` and
    `interior.fraction_to_boundary_box`, hold that point, and `_unchecked`
    builds them without the check.
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
        """The l-inf ball of radius r >= 0 around the point x within this box.

        Built in one pass as max(x - r, lo), min(x + r, hi); it holds x, which
        lies in this box, so it is not checked again.  The trust-region loop
        forms both of its boxes so.
        """
        lo = x - r
        hi = x + r
        return Box._unchecked(np.maximum(lo, self.lo, out=lo), np.minimum(hi, self.hi, out=hi))

    @classmethod
    def _unchecked(cls, lo: np.ndarray, hi: np.ndarray) -> "Box":
        """The box of float vectors lo and hi of one size with lo <= hi, taken as given."""
        box = object.__new__(cls)
        box.lo, box.hi = lo, hi
        return box

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
    weights are finite and nonnegative; lam = 0 means h = 0.  ``n_prox``,
    0 in a new copy, counts the `iprox_shifted` calls on it.
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
        self.n_prox = 0

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
            return float(lam.dot(np.abs(x)))
        return float(np.add.reduce(lam[x != 0.0]))


def iprox_shifted(h: Regularizer, d, q, box: Box) -> np.ndarray:
    """Componentwise argmin over box of d_i (u_i - q_i)^2 / 2 + h_i(u_i).

    This is the prox kernel of every solver, which reaches it only through
    `r2.first_order_step`: the l1 objective reduces to a soft threshold of q
    clamped to the box; the l0 objective compares the clamped quadratic
    minimizer against the sparse candidate u_i = 0 when the box holds it
    (ties prefer the sparse candidate).  q and the box are vectors of one
    size; d > 0 is a scalar or a vector of that size.
    """
    if not (np.logical_and.reduce(d > 0) if isinstance(d, np.ndarray) else d > 0):
        raise ValueError("iprox_shifted requires strictly positive d")
    h.n_prox += 1
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

