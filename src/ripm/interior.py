"""Barrier interior-point solver with proximal trust-region inner iterations.

The outer loop drives the barrier parameter mu to zero; for each mu the inner
loop approximately minimizes f + phi_mu + h with the trust-region iteration
of `trust_region.tr_iterate`.  `BarrierTerms` is the constraint object it
passes: trial points are restricted to the box of points

    [x - Delta, x + Delta]  intersected with  the fraction-to-boundary box
    [lo + tau min gap_l, hi - tau min gap_u],

and the quadratic model adds the barrier gradient and the capped barrier
curvature Theta = min(z / gap, kappa_bar) summed over bounded sides to the
quasi-Newton operator B.  `BarrierTerms` forms every barrier quantity of a
point itself: `phi` the gaps and phi_mu, which `barrier_value` shares, or
(+inf, None) outside the bounds, `at` the model terms and `accept` the dual
update, which refuse gaps of None.  `outer_solve` builds one `BarrierTerms`
per solve, sets its mu > 0 for each stage and reads the duals, mu and
measure back from it; the loop carries none, and hands back the gaps that
`phi` formed.  `outer_solve` also hands each stage its start radius, and
ends the solve before a stage that would start below the radius x can
resolve.  The duals start at 1 and `accept` updates them: a linearized
complementarity update projected into a safeguard interval, so they stay
strictly positive.  The measure follows h: the primal one, based on the
barrier gradient, for the nonconvex l0 penalty, and the Lagrangian one,
based on grad f - zl + zu, for a convex h.

Each barrier quantity is one formula over the sides of the bounds.  A side
is an index i of its finite components, its bound b[i], a sign, +1 on the
lower and -1 on the upper side, and its multiplier, zl or zu: its gaps are
sign * (x[i] - b[i]) and its barrier gradient is -sign mu / gap.  A side
takes one of three layouts.  When every component is finite, as on both
sides of qp and the lower side of bpdn and nnmf, i is slice(None), so x[i],
b[i] and z[i] are views and the side's terms are full-length vectors with no
gather or scatter.  When only some are finite, i is the boolean mask of
those.  A side with no finite component, as the upper side of bpdn, is left
out, so it costs nothing.  A multiplier is written on i only, so it stays
zero where the bound is infinite.

The loop constants, with their symbols in the method's description:
MU_FACTOR multiplies mu_k after each stage (mu_{k+1} = 0.1 mu_k) and stage k
stops at eps_k = mu_k ** EPS_EXPONENT; DELTA0_FACTOR gives its first radius
Delta_{k,0} = 1000 mu_k; DELTA_FRAC is the fraction-to-boundary parameter tau;
KAPPA_BAR caps Theta; KAPPA_ZUL and KAPPA_ZUU (kappa_zl, kappa_zu) bound the
dual safeguard interval; INNER_CAP and MAX_OUTER cap the inner iterations of a
stage and the stages; EPS_A (epsilon_a) is the absolute part of the global
tolerance of `outer_solve`.  The trust-region constants are those of
`trust_region`.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import BoundaryPoint
# r2_solve and intersect_boxes are bound here only for perfbench/tracer.py,
# which wraps them in this module and in trust_region; the trust-region loop
# calls r2_solve from trust_region.  No solver calls intersect_boxes or
# regprox.Box.shifted, which stay bound for the tracer too
from .r2 import r2_solve  # noqa: F401
from .regprox import L0, Box, intersect_boxes  # noqa: F401
from .report import BUDGET, CONVERGED, MAX_ITER, STALLED, TR_RECORD, IterLog, SolveResult
from .trust_region import DELTA_MAX, InnerResult, stall_radius, tr_iterate

MODE_CP = "cp"
MODE_LAGRANGIAN = "lagrangian"
MU_FACTOR = 0.1
EPS_EXPONENT = 1.01
# fraction of the smallest bound gap every step must keep.  Small values let
# iterates crash into the boundary faster than the linearized dual update can
# track, which blows up the capped barrier curvature and stalls the whole
# solve; 0.5 keeps the duals locked to the gaps.
DELTA_FRAC = 0.5
DELTA0_FACTOR = 1000.0
KAPPA_BAR = 1e6
KAPPA_ZUL = 0.5
KAPPA_ZUU = 1e10
INNER_CAP = 200
MAX_OUTER = 30
EPS_A = 1e-4


class DualEstimate(NamedTuple):
    """Bound multipliers, one vector per side; zero where the bound is infinite."""

    zl: np.ndarray
    zu: np.ndarray


def _sides(bounds: Box):
    """The sides with a finite component, as (index i, bound[i], sign, multiplier).

    i is slice(None) when every component of the side is finite and the mask
    of the finite components otherwise; the multiplier is 0 for zl, 1 for zu.
    """
    sides = []
    for which, (bound, sign) in enumerate(((bounds.lo, 1.0), (bounds.hi, -1.0))):
        finite = np.isfinite(bound)
        if finite.all():
            sides.append((slice(None), bound, sign, which))
        elif finite.any():
            sides.append((finite, bound[finite], sign, which))
    return tuple(sides)


def _gap(x, side):
    """sign * (x - bound) on the finite components of one side."""
    i, bound, sign, _ = side
    return sign * (x[i] - bound)


def _full(values, i, n: int, total=None):
    """total (zero when None) plus a side's values on its components, at length n.

    On a side that is finite everywhere, the values themselves are the sum
    with zero, so nothing is copied.
    """
    if total is None:
        if isinstance(i, slice):
            return values
        total = np.zeros(n)
    total[i] += values
    return total


def _phi(mu: float, x, sides):
    """The barrier value at x and the gaps of x, a tuple of each side's gaps;
    (+inf, None) outside the bounds, where a gap is not positive."""
    gaps = tuple(_gap(x, side) for side in sides)
    if any(np.count_nonzero(g <= 0.0) for g in gaps):
        return np.inf, None
    val = 0.0
    for g in gaps:
        val -= mu * float(np.add.reduce(np.log(g)))
    return val, gaps


def barrier_value(mu: float, x, bounds: Box) -> float:
    """-mu * sum log(gaps) over finite bounds; +inf encodes infeasibility."""
    return _phi(mu, x, _sides(bounds))[0]


def fraction_to_boundary_box(min_gaps, bounds: Box) -> Box:
    """The box [lo + tau min gap_l, hi - tau min gap_u] of points, tau = DELTA_FRAC.

    ``min_gaps`` holds the smallest gap of a point x on each side, min_j
    (x_j - lo_j) and min_j (hi_j - x_j) over finite bounds, or +inf for a
    side with none; an infinite bound stays as it is.  For lo = 0, hi = +inf
    this is {u : min_i u_i >= tau min_i x_i}.  With tau = 1/2, the gaps of x
    give a box that holds x, rounding included, so it is built unchecked
    (see `regprox`).
    """
    m_l, m_u = min_gaps
    if not (m_l > 0.0 and m_u > 0.0):
        raise BoundaryPoint("x is not strictly interior")
    lo = bounds.lo + DELTA_FRAC * m_l if m_l < np.inf else bounds.lo
    hi = bounds.hi - DELTA_FRAC * m_u if m_u < np.inf else bounds.hi
    return Box._unchecked(lo, hi)


def crossover(x, z: DualEstimate, mu_final: float, bounds: Box):
    """Snap near-boundary primal components and near-zero multipliers.

    Side by side, lower first: gap < sqrt(mu) snaps x onto the bound; z <
    sqrt(mu) zeroes the multiplier; when both gap and z are below mu**(1/4)
    both are zeroed.  A final sweep zeroes any multiplier whose side still
    has a positive gap, so gap * z == 0 holds exactly on every side
    afterwards.  Returns new arrays; x and z are left as they are.
    """
    if mu_final <= 0:
        raise ValueError("mu_final must be positive")
    rt = np.sqrt(mu_final)
    qt = mu_final**0.25
    sides = _sides(bounds)
    x, zs = np.array(x, dtype=float), (z.zl.copy(), z.zu.copy())
    for side in sides:
        i, bound, _, which = side
        gap, zm = _gap(x, side), zs[which][i]
        joint = (gap < qt) & (zm < qt)
        x[i] = np.where((gap < rt) | joint, bound, x[i])
        zs[which][i] = np.where((zm < rt) | joint, 0.0, zm)
    for side in sides:
        i, _, _, which = side
        zs[which][i] = np.where(_gap(x, side) > 0.0, 0.0, zs[which][i])
    return x, DualEstimate(*zs)


class BarrierTerms:
    """Constraint object of the barrier subproblems for `trust_region.tr_iterate`.

    Holds the barrier parameter ``mu`` > 0, which `outer_solve` sets for each
    stage, and the dual estimate ``z``: 1 on the finite components of each
    side at the start and 0 elsewhere, updated by `accept` on every accepted
    step and, at s = 0, on a zero model step.  The sides are built once.
    """

    def __init__(self, bounds: Box, mu: float, mode: str):
        self.bounds, self.mu, self.mode = bounds, mu, mode
        self._sides = _sides(bounds)
        self.z = DualEstimate(np.zeros(bounds.lo.size), np.zeros(bounds.hi.size))
        for i, _, _, which in self._sides:
            self.z[which][i] = 1.0

    def phi(self, x):
        """The barrier value at x and the gaps of x; (+inf, None) outside the bounds."""
        return _phi(self.mu, x, self._sides)

    def at(self, x, gx, gaps):
        if gaps is None:
            raise BoundaryPoint("barrier gradient needs a strictly interior point")
        # per side: the barrier gradient -sign mu/gap, the capped curvature
        # min(z/gap, KAPPA_BAR) and the complementarity residual gap*z - mu
        n, mu = x.size, self.mu
        g_phi = theta = None
        compl = 0.0
        smallest = [np.inf, np.inf]  # the least gap of each side
        for (i, _, sign, which), gap in zip(self._sides, gaps):
            zm = self.z[which][i]
            g_phi = _full((-sign * mu) / gap, i, n, g_phi)
            theta = _full(np.minimum(zm / gap, KAPPA_BAR), i, n, theta)
            compl += float(np.add.reduce((gap * zm - mu) ** 2))
            smallest[which] = float(np.minimum.reduce(gap))
        if g_phi is None:  # no finite bound
            g_phi = theta = np.zeros(n)
        box = fraction_to_boundary_box(smallest, self.bounds)
        g_meas = gx - self.z.zl + self.z.zu if self.mode == MODE_LAGRANGIAN else None
        return gx + g_phi, theta, box, g_meas, math.sqrt(compl)

    def accept(self, gaps, gaps_t, s) -> None:
        """Update z on the step s from the point of ``gaps`` to that of ``gaps_t``.

        The linearized complementarity update projected into the safeguard
        interval: per side, z_hat = mu/gap - (z/gap) sign s is clipped to
        [KAPPA_ZUL * min(1, z, mu/gap_t), max(KAPPA_ZUU, z, KAPPA_ZUU/mu,
        KAPPA_ZUU * mu/gap_t)] on the finite components; the others get z = 0.
        """
        if gaps is None or gaps_t is None:
            raise BoundaryPoint("dual update needs strictly interior points")
        n, mu = s.size, self.mu
        z_new = [None, None]
        # min and max are exact, so the scalar bounds are merged first and the
        # vector terms formed in place, with the bits of the formula above
        hi_scalar = max(KAPPA_ZUU, KAPPA_ZUU / mu)
        for (i, _, sign, which), g_old, g_new in zip(self._sides, gaps, gaps_t):
            zm = self.z[which][i]
            zhat = np.divide(zm, g_old)
            zhat *= sign * s[i]
            np.subtract(mu / g_old, zhat, out=zhat)
            lo = np.divide(mu, g_new)
            np.minimum(lo, zm, out=lo)
            np.minimum(lo, 1.0, out=lo)
            lo *= KAPPA_ZUL
            hi = np.divide(KAPPA_ZUU * mu, g_new)
            np.maximum(hi, zm, out=hi)
            np.maximum(hi, hi_scalar, out=hi)
            np.maximum(zhat, lo, out=zhat)
            z_new[which] = _full(np.minimum(zhat, hi, out=zhat), i, n)
        self.z = DualEstimate(*(np.zeros(n) if z is None else z for z in z_new))


def measure_mode(h) -> str:
    """The primal measure for the nonconvex l0 penalty; the Lagrangian one needs a convex h."""
    return MODE_CP if h.kind == L0 else MODE_LAGRANGIAN


def inner_solve(smooth, h, barrier: BarrierTerms, qn, x, fx: float, hx: float, gx,
                delta0: float, eps_d_rel: float, records: IterLog) -> InnerResult:
    """Approximately minimize f + phi_mu + h from a strictly interior x, at radius delta0.

    f(x), h(x) and grad f(x) are given; ``barrier`` holds mu and the dual estimate
    at x, which it updates in place.  The stage ends with "tol" once the measure
    of the barrier's mode (`measure_mode`) falls below eps_k + eps_d_rel *
    (measure at entry) and the complementarity residual below eps_k =
    mu**EPS_EXPONENT, with "budget" once the budget allows no evaluation, with
    "cap" after INNER_CAP iterations, or with "stalled" once the radius
    collapses to the rounding of x; each iteration is a row of ``records``.
    """
    return tr_iterate(smooth, h, barrier, qn, x, fx, hx, gx, delta0, max_iter=INNER_CAP,
                      abs_tol=barrier.mu**EPS_EXPONENT, rel_tol=eps_d_rel, records=records)


def outer_solve(smooth, h, bounds: Box, qn, x, fx: float, hx: float, gx, *,
                mu_init: float = 1.0, eps_r: float = 1e-4, eps_ri: float = 0.1) -> SolveResult:
    """Barrier outer loop from a strictly interior x, with f(x), h(x) and grad
    f(x) given: shrink mu, solve inner subproblems, cross over.

    The first stage runs at mu = mu_init (mu_0) > 0, and every stage stops its
    measure at eps_k + eps_ri * (measure at the stage's entry): eps_ri is
    the relative factor in the inner dual tolerance (see `inner_solve`).
    Convergence is declared when mu, the complementarity residual, and the
    criticality measure at the inner exit all fall below
    EPS_A + eps_r * (measure at the very first inner iteration), so eps_r
    (epsilon_r) is the relative part of the global tolerance.  The
    measure is the primal one when h is the (nonconvex) l0 penalty and the
    Lagrangian one otherwise; the step follows the operator ``qn``.

    The stages run with one evaluation of the budget kept back for the
    crossover point, so a stage ends "budget" (see `trust_region.tr_iterate`)
    with that evaluation still left.  The crossover point is returned, with
    its z, only if f + h there is not above f + h at the interior point;
    otherwise the interior point and its z are returned and
    ``diagnostics["crossover"]["applied"]`` is false, as it is when the
    crossover point differs from x and ``smooth.evals_left()`` is 0: a point
    the budget would refuse is not valued.

    The status says which limit stopped the loop: BUDGET when a stage ran
    out of evaluations, STALLED when the next stage's start radius
    min(DELTA0_FACTOR mu, DELTA_MAX) is below `trust_region.stall_radius(x)`
    (it counts in "stages", and every later one would start smaller still),
    and MAX_ITER after MAX_OUTER stages.  The crossover uses the mu of the
    last stage counted; crit is the last measure taken, inf if none ran.
    """
    if not mu_init > 0:
        raise ValueError(f"mu_init must be positive, not {mu_init!r}")
    if not np.isfinite(barrier_value(mu_init, x, bounds)):
        raise BoundaryPoint("outer solve requires a strictly interior start")

    records = IterLog(TR_RECORD)  # the inner iterations of every stage
    mu = mu_init
    barrier = BarrierTerms(bounds, mu, measure_mode(h))
    status, crit, eps_glob, n_prox0 = MAX_ITER, np.inf, None, h.n_prox
    with smooth.held_back():
        for stages in range(1, MAX_OUTER + 1):
            barrier.mu, delta0 = mu, min(DELTA0_FACTOR * mu, DELTA_MAX)
            if delta0 < stall_radius(x):
                status = STALLED
                break
            res = inner_solve(smooth, h, barrier, qn, x, fx, hx, gx, delta0, eps_ri, records)
            x, fx, hx, gx, crit = res.x, res.fx, res.hx, res.gx, res.crit
            if eps_glob is None:
                eps_glob = EPS_A + eps_r * res.measure0
            if res.status == "budget":
                status = BUDGET
                break
            # convergence only off a tolerance exit: a cap exit may report a measure that
            # cancellation drove to 0, and a stall exit one taken before the radius collapsed
            if (res.status == "tol" and mu < eps_glob
                    and res.compl < eps_glob and crit < eps_glob):
                status = CONVERGED
                break
            mu *= MU_FACTOR

    z = barrier.z
    x_cross, z_cross = crossover(x, z, barrier.mu, bounds)
    cross_info = {"mu": barrier.mu, "applied": False}
    moved = not np.array_equal(x_cross, x)
    # the interior point is kept when the budget would refuse a moved one
    if not moved or smooth.evals_left() > 0:
        f_cross, h_cross = (smooth.value(x_cross), h.value(x_cross)) if moved else (fx, hx)
        if f_cross + h_cross <= fx + hx:
            x, z, fx, hx = x_cross, z_cross, f_cross, h_cross
            smooth.mark(fx + hx)
            cross_info["applied"] = True

    return SolveResult(x, fx, hx, crit, h.n_prox - n_prox0, status,
                       {"inner": records, "crossover": cross_info, "mode": barrier.mode,
                        "stages": stages}, z=z)
