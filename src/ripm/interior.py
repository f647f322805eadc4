"""Barrier interior-point solver with proximal trust-region inner iterations.

The outer loop drives the barrier parameter mu to zero; for each mu the inner
loop approximately minimizes f + phi_mu + h with the trust-region iteration
of `trust_region.tr_iterate`.  `BarrierTerms` is the constraint object it
passes: trial points are restricted to the box of points

    [x - Delta, x + Delta]  intersected with  the fraction-to-boundary box
    [lo + tau min gap_l, hi - tau min gap_u],

and the quadratic model adds the barrier gradient and the capped barrier
curvature Theta = min(z / gap, kappa_bar) summed over bounded sides to the
quasi-Newton operator B.  Dual estimates come from `dual_update`, a
linearized complementarity update projected into a safeguard interval, so
they stay strictly positive.  The measure follows h: the primal one, based
on the barrier gradient, for the nonconvex l0 penalty, and the Lagrangian
one, based on grad f - zl + zu, for a convex h.

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
import time
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryPoint, BudgetExhausted
# r2_solve and intersect_boxes are bound here only for perfbench/tracer.py,
# which wraps them in this module and in trust_region; the trust-region loop
# calls r2_solve from trust_region.  No solver calls intersect_boxes,
# regprox.Box.ball or regprox.Box.shifted, which stay bound for the tracer too
from .r2 import r2_solve  # noqa: F401
from .regprox import L0, Box, fraction_to_boundary_box, intersect_boxes  # noqa: F401
from .report import CONVERGED, MAX_ITER, SolverReport, evaluate_start, make_report
from .trust_region import DELTA_MAX, InnerResult, tr_iterate

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


@dataclass
class IpmOptions:
    mu_init: float = 1.0
    eps_r: float = 1e-4
    eps_ri: float = 0.1  # relative factor in the inner dual tolerance


@dataclass
class DualEstimate:
    """Bound multipliers, one vector per side; zero where the bound is infinite."""

    zl: np.ndarray
    zu: np.ndarray

    @classmethod
    def ones_for(cls, bounds: Box) -> "DualEstimate":
        return cls(np.where(np.isfinite(bounds.lo), 1.0, 0.0),
                   np.where(np.isfinite(bounds.hi), 1.0, 0.0))


def _finite_sides(bounds: Box):
    """Masks of the finite lower and upper bounds."""
    return np.isfinite(bounds.lo), np.isfinite(bounds.hi)


def _gaps(x, bounds: Box, ml, mu_):
    """Gaps to the bounds, +inf on the infinite sides that the masks ml and mu_
    leave out, and whether every gap is positive (x strictly interior)."""
    gl = np.where(ml, x - bounds.lo, np.inf)
    gu = np.where(mu_, bounds.hi - x, np.inf)
    return gl, gu, not ((gl <= 0.0).any() or (gu <= 0.0).any())


def _barrier(mu: float, gaps, ml, mu_) -> float:
    """The barrier formula of `barrier_value`, from the gaps of `_gaps`."""
    gl, gu, interior = gaps
    if not interior:
        return np.inf
    val = 0.0
    val -= mu * float(np.log(gl[ml]).sum())
    val -= mu * float(np.log(gu[mu_]).sum())
    return val


def barrier_value(mu: float, x, bounds: Box) -> float:
    """-mu * sum log(gaps) over finite bounds; +inf encodes infeasibility."""
    ml, mu_ = _finite_sides(bounds)
    return _barrier(mu, _gaps(x, bounds, ml, mu_), ml, mu_)


def _compl_residual(zl, zu, gl, gu, ml, mu_, mu: float) -> float:
    """Euclidean norm of gap*z - mu stacked over all finite bound sides."""
    acc = float(((gl[ml] * zl[ml] - mu) ** 2).sum()) + float(((gu[mu_] * zu[mu_] - mu) ** 2).sum())
    return math.sqrt(acc)


def dual_update(x_new, x_old, z_old: DualEstimate, s, mu, bounds: Box) -> DualEstimate:
    """Linearized complementarity update projected into the safeguard interval.

    Per side, z_hat = mu/gap - (z/gap) s (s enters with a minus sign on the
    upper side) is clipped to [KAPPA_ZUL * min(1, z, mu/gap_new),
    max(KAPPA_ZUU, z, KAPPA_ZUU/mu, KAPPA_ZUU * mu/gap_new)].  Entries for
    infinite bounds stay at zero because every interval bound vanishes there.
    """
    ml, mu_ = _finite_sides(bounds)
    return _dual_update(_gaps(x_old, bounds, ml, mu_), _gaps(x_new, bounds, ml, mu_),
                        z_old, s, mu)


def _dual_update(gaps_old, gaps_new, z_old: DualEstimate, s, mu) -> DualEstimate:
    """`dual_update` from the gaps of `_gaps` at the old and the new point."""
    gl_old, gu_old, interior_old = gaps_old
    gl_new, gu_new, interior_new = gaps_new
    if not (interior_old and interior_new):
        raise BoundaryPoint("dual update needs strictly interior points")

    def one_side(z, g_old, g_new, s_signed):
        zhat = mu / g_old - (z / g_old) * s_signed
        lo = KAPPA_ZUL * np.minimum(np.minimum(1.0, z), mu / g_new)
        hi = np.maximum(np.maximum(KAPPA_ZUU, z),
                        np.maximum(KAPPA_ZUU / mu, KAPPA_ZUU * mu / g_new))
        np.maximum(zhat, lo, out=zhat)
        return np.minimum(zhat, hi, out=zhat)

    return DualEstimate(one_side(z_old.zl, gl_old, gl_new, s),
                        one_side(z_old.zu, gu_old, gu_new, -s))


def crossover(x, z: DualEstimate, mu_final: float, bounds: Box):
    """Snap near-boundary primal components and near-zero multipliers.

    Gap < sqrt(mu) snaps x onto the bound; z < sqrt(mu) zeroes the
    multiplier; when both gap and z are below mu**(1/4) both are zeroed.  A
    final sweep zeroes any multiplier whose side still has a positive gap, so
    gap * z == 0 holds exactly on every side afterwards.
    """
    if mu_final <= 0:
        raise ValueError("mu_final must be positive")
    zl, zu = z.zl, z.zu
    rt = np.sqrt(mu_final)
    qt = mu_final**0.25

    ml, mu_ = _finite_sides(bounds)
    gl = _gaps(x, bounds, ml, mu_)[0]
    joint = (gl < qt) & (zl < qt) & ml
    x = np.where(ml & ((gl < rt) | joint), bounds.lo, x)
    zl = np.where(ml & ((zl < rt) | joint), 0.0, zl)

    gu = np.where(mu_, bounds.hi - x, np.inf)
    joint = (gu < qt) & (zu < qt) & mu_
    x = np.where(mu_ & ((gu < rt) | joint), bounds.hi, x)
    zu = np.where(mu_ & ((zu < rt) | joint), 0.0, zu)

    gl, gu, _ = _gaps(x, bounds, ml, mu_)
    zl = np.where(ml & (gl > 0.0), 0.0, zl)
    zu = np.where(mu_ & (gu > 0.0), 0.0, zu)
    return x, DualEstimate(zl, zu)


class BarrierTerms:
    """Constraint object of a barrier subproblem for `trust_region.tr_iterate`.

    Holds the barrier parameter and the dual estimate ``z``, which it
    updates on every accepted step and, from exact perturbed
    complementarity, on a zero model step.

    The loop asks for the gaps of one point several times: at x (`at`, and
    `phi` at the start), at the trial point (`phi`) and at both on
    acceptance.  They are computed once per point and kept for the current
    point and the last other point, keyed on the array object, which the
    loop never modifies.
    """

    records_exits = True

    def __init__(self, bounds: Box, mu: float, z: DualEstimate, mode: str):
        self.bounds, self.mu, self.z, self.mode = bounds, mu, z, mode
        self._masks = _finite_sides(bounds)
        self._current = self._other = (None, None)  # (point, its gaps)

    def _gaps_at(self, x):
        for point, gaps in (self._current, self._other):
            if point is x:
                return gaps
        gaps = _gaps(x, self.bounds, *self._masks)
        self._other = (x, gaps)
        return gaps

    def at(self, x, gx):
        gaps = self._gaps_at(x)
        self._current = (x, gaps)
        gl, gu, interior = gaps
        ml, mu_ = self._masks
        if not interior:
            raise BoundaryPoint("barrier gradient needs a strictly interior point")
        # the barrier gradient -mu/(x-lo) + mu/(hi-x), terms dropped at infinite bounds
        g_phi = np.where(ml, -self.mu / gl, 0.0) + np.where(mu_, self.mu / gu, 0.0)
        zl, zu = self.z.zl, self.z.zu
        theta = (np.where(ml, np.minimum(zl / gl, KAPPA_BAR), 0.0)
                 + np.where(mu_, np.minimum(zu / gu, KAPPA_BAR), 0.0))
        box = fraction_to_boundary_box(x, DELTA_FRAC, self.bounds)
        g_meas = gx - zl + zu if self.mode == MODE_LAGRANGIAN else None
        return gx + g_phi, theta, box, g_meas, _compl_residual(zl, zu, gl, gu, ml, mu_, self.mu)

    def phi(self, x) -> float:
        return _barrier(self.mu, self._gaps_at(x), *self._masks)

    def zero_step(self, x) -> bool:
        # the model is stationary at x: refresh the duals (the update at s = 0)
        # so that the dual tolerance can still be met; x and Delta stay put
        self.accept(x, x, np.zeros(x.size))
        return True

    def accept(self, x, x_t, s) -> None:
        self.z = _dual_update(self._gaps_at(x), self._gaps_at(x_t), self.z, s, self.mu)


def measure_mode(h) -> str:
    """The primal measure for the nonconvex l0 penalty; the Lagrangian one needs a convex h."""
    return MODE_CP if h.kind == L0 else MODE_LAGRANGIAN


def inner_solve(smooth, h, bounds: Box, qn, x, fx: float, hx: float, gx, z: DualEstimate,
                mu: float, eps_d_rel: float, trace: list, records: list) -> InnerResult:
    """Approximately minimize f + phi_mu + h from a strictly interior x.

    f(x), h(x), grad f(x) and the dual estimate z at x are given.  The stage
    starts at radius min(DELTA0_FACTOR * mu, DELTA_MAX) and ends with "tol"
    once the measure of `measure_mode` falls below eps_k + eps_d_rel *
    (measure at entry) and the complementarity residual below eps_k =
    mu**EPS_EXPONENT, with "budget" when the evaluation budget runs out,
    with "cap" after INNER_CAP iterations, or with "stalled" once the radius
    collapses to the rounding of x.  Accepted points extend ``trace`` and
    every iteration extends ``records`` (see `trust_region.tr_iterate`).
    """
    eps_k = mu**EPS_EXPONENT
    return tr_iterate(
        smooth, h, BarrierTerms(bounds, mu, z, measure_mode(h)), qn, x, fx, hx, gx,
        min(DELTA0_FACTOR * mu, DELTA_MAX), max_iter=INNER_CAP, abs_tol=eps_k,
        rel_tol=eps_d_rel, eps_p=eps_k, trace=trace, records=records)


def outer_solve(smooth, h, bounds: Box, qn_factory, x0, opts: IpmOptions | None = None,
                solver_name: str = "RIPM-R2") -> SolverReport:
    """Barrier outer loop: shrink mu, solve inner subproblems, cross over.

    Convergence is declared when mu, the complementarity residual, and the
    criticality measure at the inner exit all fall below
    EPS_A + eps_r * (measure at the very first inner iteration).  A stage
    that stalls at entry ends the loop with MAX_ITER, and the crossover uses
    its mu.  The measure is the primal one when h is the (nonconvex) l0
    penalty and the Lagrangian one otherwise; the step follows the operators
    of ``qn_factory``.
    """
    opts = opts or IpmOptions()
    t0 = time.perf_counter()
    x = np.array(x0, dtype=float)
    if not np.isfinite(barrier_value(opts.mu_init, x, bounds)):
        raise BoundaryPoint("outer solve requires a strictly interior start")

    qn = qn_factory(x.size)
    trace: list = []
    records: list = []
    z = DualEstimate.ones_for(bounds)
    status, res, eps_glob, n_prox, stages = MAX_ITER, None, None, 0, 0
    mu = mu_last = opts.mu_init
    fx, hx = np.inf, 0.0

    try:
        fx, hx, gx = evaluate_start(smooth, h, x, trace)
        for k in range(MAX_OUTER):
            res = inner_solve(smooth, h, bounds, qn, x, fx, hx, gx, z, mu, opts.eps_ri,
                              trace, records)
            x, z, fx, hx, gx = res.x, res.z, res.fx, res.hx, res.gx
            n_prox += res.n_prox
            mu_last = mu
            stages = k + 1
            if eps_glob is None:
                eps_glob = EPS_A + opts.eps_r * res.measure0
            # a stage that stalls at entry (no prox: it never measured) leaves x
            # and z as they were, and every later stage starts at a smaller
            # radius, so it would stall as well
            if res.status == "budget" or (res.status == "stalled" and res.n_prox == 0):
                break
            # declare convergence only off a genuine tolerance exit: a cap exit
            # may report a measure that cancellation drove to 0, and a stalled
            # stage measured nothing at its collapsed radius
            if (res.status == "tol" and mu < eps_glob
                    and res.compl < eps_glob and res.crit < eps_glob):
                status = CONVERGED
                break
            mu *= MU_FACTOR
    except BudgetExhausted:
        pass

    x_cross, z_cross = crossover(x, z, mu_last, bounds)
    cross_info = {"mu": mu_last, "applied": False}
    try:
        if not np.array_equal(x_cross, x):
            fx, hx = smooth.value(x_cross), h.value(x_cross)
        x, z = x_cross, z_cross
        trace.append((smooth.n_grad, fx + hx))
        cross_info["applied"] = True
    except BudgetExhausted:
        pass  # keep the pre-crossover point so report and x stay consistent

    return make_report(solver_name, smooth, h, x, fx, hx, res.crit if res else np.inf, n_prox,
                       t0, status, trace, {"inner": records, "crossover": cross_info,
                                           "mode": measure_mode(h), "stages": stages}, z=z)
