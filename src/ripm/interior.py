"""Barrier interior-point solver with proximal trust-region inner iterations.

The outer loop drives the barrier parameter mu to zero; for each mu the inner
loop approximately minimizes f + phi_mu + h with the trust-region iteration
of `trust_region.tr_iterate`.  `BarrierTerms` is the constraint object it
passes: steps are restricted to

    Delta * B_inf  intersected with  the fraction-to-boundary box,

and the quadratic model adds the barrier gradient and the capped barrier
curvature Theta = min(z / gap, kappa_bar) summed over bounded sides to the
quasi-Newton operator B.  Dual estimates come from `dual_update`, a
linearized complementarity update projected into a safeguard interval, so
they stay strictly positive.  Two stopping measures are supported: the
primal one based on the barrier gradient (valid for any h) and the
primal-dual one based on grad f - z (used when h is convex).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryPoint, BudgetExhausted
# r2_solve and intersect_boxes are bound here only for perfbench/tracer.py,
# which wraps them in this module; the trust-region loop calls them from trust_region
from .r2 import r2_solve  # noqa: F401
from .regprox import L0, Box, fraction_to_boundary_box, intersect_boxes  # noqa: F401
from .report import CONVERGED, MAX_ITER, UNBOUNDED, SolverReport, evaluate_start, make_report
from .trust_region import InnerResult, TrustRegionOptions, tr_iterate

MODE_CP = "cp"
MODE_LAGRANGIAN = "lagrangian"


@dataclass
class IpmOptions:
    mu_init: float = 1.0
    mu_factor: float = 0.1
    eps_exponent: float = 1.01  # stage tolerance eps_k = mu_k ** exponent
    eps_a: float = 1e-4
    eps_r: float = 1e-4
    eps_ri: float = 0.1  # relative factor in the inner dual tolerance
    # fraction of the smallest bound gap every step must keep.  Small values
    # let iterates crash into the boundary faster than the linearized dual
    # update can track, which blows up the capped barrier curvature and
    # stalls the whole solve; 0.5 keeps the duals locked to the gaps.
    delta_frac: float = 0.5
    delta0_factor: float = 1000.0  # stage k starts from Delta = delta0_factor * mu_k
    kappa_bar: float = 1e6
    kappa_zul: float = 0.5
    kappa_zuu: float = 1e10
    inner_cap: int = 200
    max_outer: int = 30
    objective_floor: float = -1e30
    mode: str = "auto"  # "auto" | "cp" | "lagrangian"
    step: str = "r2"  # "r2" | "diagonal"
    tr: TrustRegionOptions = field(default_factory=TrustRegionOptions)


@dataclass
class DualEstimate:
    """Bound multipliers, one vector per side; zero where the bound is infinite."""

    zl: np.ndarray
    zu: np.ndarray

    @classmethod
    def ones_for(cls, bounds: Box) -> "DualEstimate":
        return cls(np.where(np.isfinite(bounds.lo), 1.0, 0.0),
                   np.where(np.isfinite(bounds.hi), 1.0, 0.0))


def _gaps(x, bounds: Box):
    """Finite-side masks and gaps to the bounds; gaps are +inf on infinite sides."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    ml = np.isfinite(bounds.lo)
    mu_ = np.isfinite(bounds.hi)
    gl = np.where(ml, x - bounds.lo, np.inf)
    gu = np.where(mu_, bounds.hi - x, np.inf)
    return ml, gl, mu_, gu


def _interior(gl, gu) -> bool:
    """Every gap to a finite bound is positive (infinite bounds have gap +inf)."""
    return not (np.any(gl <= 0.0) or np.any(gu <= 0.0))


def barrier_value(mu: float, x, bounds: Box) -> float:
    """-mu * sum log(gaps) over finite bounds; +inf encodes infeasibility."""
    ml, gl, mu_, gu = _gaps(x, bounds)
    if not _interior(gl, gu):
        return np.inf
    val = 0.0
    val -= mu * float(np.sum(np.log(gl[ml])))
    val -= mu * float(np.sum(np.log(gu[mu_])))
    return val


def barrier_grad(mu: float, x, bounds: Box) -> np.ndarray:
    """Gradient -mu/(x-lo) + mu/(hi-x), terms dropped at infinite bounds."""
    ml, gl, mu_, gu = _gaps(x, bounds)
    if not _interior(gl, gu):
        raise BoundaryPoint("barrier gradient needs a strictly interior point")
    return np.where(ml, -mu / gl, 0.0) + np.where(mu_, mu / gu, 0.0)


def _compl_residual(zl, zu, gl, gu, ml, mu_, mu: float) -> float:
    """Euclidean norm of gap*z - mu stacked over all finite bound sides."""
    acc = float(np.sum((gl[ml] * zl[ml] - mu) ** 2)) + float(np.sum((gu[mu_] * zu[mu_] - mu) ** 2))
    return float(np.sqrt(acc))


def _max_gap_times_z(x, z: DualEstimate, bounds: Box) -> float:
    """Largest complementarity product gap * z over the finite bound sides."""
    ml, gl, mu_, gu = _gaps(x, bounds)
    return float(max(np.max(gl[ml] * z.zl[ml], initial=0.0),
                     np.max(gu[mu_] * z.zu[mu_], initial=0.0)))


def dual_update(x_new, x_old, z_old: DualEstimate, s, mu, bounds: Box,
                kappa_zul: float = 0.5, kappa_zuu: float = 1e10) -> DualEstimate:
    """Linearized complementarity update projected into the safeguard interval.

    Per side, z_hat = mu/gap - (z/gap) s (s enters with a minus sign on the
    upper side) is clipped to [kappa_zul * min(1, z, mu/gap_new),
    max(kappa_zuu, z, kappa_zuu/mu, kappa_zuu * mu/gap_new)].  Entries for
    infinite bounds stay at zero because every interval bound vanishes there.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    _, gl_old, _, gu_old = _gaps(x_old, bounds)
    _, gl_new, _, gu_new = _gaps(x_new, bounds)
    if not (_interior(gl_old, gu_old) and _interior(gl_new, gu_new)):
        raise BoundaryPoint("dual update needs strictly interior points")

    def one_side(z, g_old, g_new, s_signed):
        zhat = mu / g_old - (z / g_old) * s_signed
        lo = kappa_zul * np.minimum(np.minimum(1.0, z), mu / g_new)
        hi = np.maximum(np.maximum(kappa_zuu, z),
                        np.maximum(kappa_zuu / mu, kappa_zuu * mu / g_new))
        return np.clip(zhat, lo, hi)

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
    x = np.atleast_1d(np.asarray(x, dtype=float))
    zl, zu = z.zl, z.zu
    rt = np.sqrt(mu_final)
    qt = mu_final**0.25

    ml, gl, mu_, _ = _gaps(x, bounds)
    joint = (gl < qt) & (zl < qt) & ml
    x = np.where(ml & ((gl < rt) | joint), bounds.lo, x)
    zl = np.where(ml & ((zl < rt) | joint), 0.0, zl)

    gu = np.where(mu_, bounds.hi - x, np.inf)
    joint = (gu < qt) & (zu < qt) & mu_
    x = np.where(mu_ & ((gu < rt) | joint), bounds.hi, x)
    zu = np.where(mu_ & ((zu < rt) | joint), 0.0, zu)

    _, gl, _, gu = _gaps(x, bounds)
    zl = np.where(ml & (gl > 0.0), 0.0, zl)
    zu = np.where(mu_ & (gu > 0.0), 0.0, zu)
    return x, DualEstimate(zl, zu)


def kkt_residuals(x, z: DualEstimate, smooth, h, bounds: Box):
    """Diagnostic (eps_p, eps_d): complementarity products and dual distance.

    eps_p is the largest gap * z product over bounded sides; eps_d is the
    Euclidean distance from -(grad f - zl + zu) to the subdifferential of h
    at x, computed in closed form per component.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = -(smooth.grad(x) - z.zl + z.zu)
    return _max_gap_times_z(x, z, bounds), _dist_to_subdifferential(v, x, h)


def _dist_to_subdifferential(v, x, h) -> float:
    if h.kind == "zero" or h.lam == 0.0:
        return float(np.linalg.norm(v))
    lam = h.lam_per_component(x.size)
    if h.kind == "l1":
        at_zero = x == 0.0
        d = np.where(at_zero,
                     np.maximum(np.abs(v) - lam, 0.0),
                     v - lam * np.sign(x))
        return float(np.linalg.norm(d))
    # l0: subdifferential is {w : w_i = 0 if x_i != 0}, free elsewhere
    return float(np.linalg.norm(v[x != 0.0]))


class BarrierTerms:
    """Constraint object of a barrier subproblem for `trust_region.tr_iterate`.

    Holds the barrier parameter and the dual estimate ``z``, which it
    updates on every accepted step and, from exact perturbed
    complementarity, on a zero model step.
    """

    records_exits = True

    def __init__(self, bounds: Box, mu: float, z: DualEstimate, opts: IpmOptions, mode: str):
        self.bounds, self.mu, self.z, self.opts, self.mode = bounds, mu, z, opts, mode
        self.floor = opts.objective_floor

    def at(self, x, gx):
        g_phi = barrier_grad(self.mu, x, self.bounds)  # raises unless x is interior
        ml, gl, mu_, gu = _gaps(x, self.bounds)
        zl, zu, kappa = self.z.zl, self.z.zu, self.opts.kappa_bar
        theta = (np.where(ml, np.minimum(zl / gl, kappa), 0.0)
                 + np.where(mu_, np.minimum(zu / gu, kappa), 0.0))
        box = fraction_to_boundary_box(x, self.opts.delta_frac, self.bounds)
        g_meas = gx - zl + zu if self.mode == MODE_LAGRANGIAN else None
        return gx + g_phi, theta, box, g_meas, _compl_residual(zl, zu, gl, gu, ml, mu_, self.mu)

    def phi(self, x) -> float:
        return barrier_value(self.mu, x, self.bounds)

    def trial(self, x, s):
        return x + s, s

    def zero_step(self, x) -> bool:
        # the model is stationary at x: refresh the duals (the update at s = 0)
        # so that the dual tolerance can still be met; x and Delta stay put
        self.accept(x, x, np.zeros(x.size))
        return True

    def accept(self, x, x_t, s) -> None:
        self.z = dual_update(x_t, x, self.z, s, self.mu, self.bounds,
                             self.opts.kappa_zul, self.opts.kappa_zuu)


def inner_solve(smooth, h, bounds: Box, qn, x0, z0: DualEstimate, mu: float,
                opts: IpmOptions | None = None, *, eps_d_abs: float | None = None,
                eps_d_rel: float = 0.0, eps_p: float | None = None,
                delta0: float | None = None, mode: str = MODE_CP,
                trace: list | None = None, records: list | None = None,
                warm=None) -> InnerResult:
    """Approximately minimize f + phi_mu + h from a strictly interior x0.

    Stops when the mode's criticality measure sqrt(xi/nu) falls below
    eps_d_abs + eps_d_rel * (measure at entry) and the perturbed
    complementarity residual falls below eps_p, or after ``inner_cap``
    iterations.  ``warm`` may carry (f, h, grad) at x0 to avoid re-evaluation
    across stages.  Accepted points extend ``trace`` and every iteration
    extends ``records`` (see `trust_region.tr_iterate`).
    """
    opts = opts or IpmOptions()
    trace = [] if trace is None else trace
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    eps_k = mu**opts.eps_exponent
    fx, hx, gx = warm if warm is not None else evaluate_start(smooth, h, x, trace)
    delta = min(opts.delta0_factor * mu if delta0 is None else delta0, opts.tr.delta_max)
    return tr_iterate(
        smooth, h, BarrierTerms(bounds, mu, z0, opts, mode), qn, x, fx, hx, gx, delta, opts.tr,
        diagonal=opts.step == "diagonal", max_iter=opts.inner_cap,
        abs_tol=eps_k if eps_d_abs is None else eps_d_abs, rel_tol=eps_d_rel,
        eps_p=eps_k if eps_p is None else eps_p, trace=trace,
        records=[] if records is None else records)


def outer_solve(smooth, h, bounds: Box, qn_factory, x0, opts: IpmOptions | None = None,
                solver_name: str = "RIPM-R2") -> SolverReport:
    """Barrier outer loop: shrink mu, solve inner subproblems, cross over.

    Convergence is declared when mu, the complementarity residual, and the
    criticality measure at the inner exit all fall below
    eps_a + eps_r * (measure at the very first inner iteration).  The mode is
    forced to the primal measure when h is the (nonconvex) l0 penalty.
    """
    opts = opts or IpmOptions()
    t0 = time.perf_counter()
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if not np.isfinite(barrier_value(opts.mu_init, x, bounds)):
        raise BoundaryPoint("outer solve requires a strictly interior start")

    mode = opts.mode
    if mode == "auto" or h.kind == L0:
        # the primal-dual measure assumes a convex h
        mode = MODE_CP if h.kind == L0 else MODE_LAGRANGIAN

    qn = qn_factory(x.size)
    if opts.step == "diagonal" and not hasattr(qn, "diagonal"):
        raise ValueError("diagonal step mode needs an operator with a diagonal() view")
    trace: list = []
    records: list = []
    n_prox = 0
    z = DualEstimate.ones_for(bounds)
    status = MAX_ITER
    res = None
    mu = opts.mu_init
    mu_last = mu
    eps_glob = None
    fx = np.inf
    hx = 0.0
    stages = 0

    try:
        fx, hx, gx = evaluate_start(smooth, h, x, trace)
        for k in range(opts.max_outer):
            res = inner_solve(smooth, h, bounds, qn, x, z, mu, opts, eps_d_rel=opts.eps_ri,
                              mode=mode, trace=trace, records=records, warm=(fx, hx, gx))
            x, z, fx, hx, gx = res.x, res.z, res.fx, res.hx, res.gx
            n_prox += res.n_prox
            mu_last = mu
            stages = k + 1
            if eps_glob is None:
                eps_glob = opts.eps_a + opts.eps_r * res.measure0
            if res.status == "budget":
                break
            # declare convergence only off a genuine tolerance exit: measures
            # reported from cap exits at collapsed radii are cancellation noise
            if (res.status == "tol" and mu < eps_glob
                    and res.compl < eps_glob and res.crit < eps_glob):
                status = CONVERGED
                break
            mu *= opts.mu_factor
    except BudgetExhausted:
        pass

    if res is not None and res.status == "unbounded" and status != CONVERGED:
        status = UNBOUNDED

    x_cross, z_cross = crossover(x, z, mu_last, bounds)
    cross_info = {"mu": mu_last, "applied": False}
    try:
        if not np.array_equal(x_cross, x):
            fx, hx = smooth.value(x_cross), h.value(x_cross)
        x, z = x_cross, z_cross
        trace.append((smooth.n_grad, fx + hx))
        cross_info.update(applied=True, max_gap_times_z=_max_gap_times_z(x, z, bounds))
    except BudgetExhausted:
        pass  # keep the pre-crossover point so report and x stay consistent

    return make_report(solver_name, smooth, h, x, fx, hx, res.crit if res else np.inf, n_prox,
                       t0, status, trace, {"inner": records, "crossover": cross_info,
                                           "mode": mode, "stages": stages}, z=z)
