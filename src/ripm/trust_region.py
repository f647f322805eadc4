"""The proximal quasi-Newton trust-region iteration, and the TR and TRDH solvers.

`tr_iterate` is the one trust-region loop of the package.  Each iteration
computes a proximal-gradient (Cauchy) step s1 whose model decrease xi defines
the criticality measure sqrt(xi / nu), then a model step capped at
min(Delta, beta * ||s1||_inf): the R2 solve of the quadratic model, or the
closed-form separable minimizer with a diagonal operator.  A ratio test
accepts or rejects the trial point, the radius follows `update_radius`, and
the quasi-Newton operator is updated on acceptance.

The bounds enter through a constraint object.  TR and TRDH fold the box
indicator into the nonsmooth term and pass `ShiftedBounds`, so every step
lives in Delta*B_inf intersected with the bounds shifted to x.  The barrier
subproblems of RIPM pass `interior.BarrierTerms`, which restricts steps to
the fraction-to-boundary box and adds the barrier gradient and curvature.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted
from .oracles import QuadModelOracle
from .qnops import SpectralDiag
from .r2 import R2Options, r2_solve
from .regprox import Box, intersect_boxes
from .report import CONVERGED, MAX_ITER, SolverReport, evaluate_start, make_report


@dataclass
class TrustRegionOptions:
    delta_init: float = 1.0
    delta_max: float = 1e12
    eta1: float = 1e-3
    eta2: float = 0.9
    gamma2: float = 0.5
    gamma3: float = 2.0
    alpha: float = 1.0
    beta: float = 10.0
    max_iter: int = 10_000
    abs_tol: float = 1e-4
    rel_tol: float = 1e-4
    subsolver_max_iter: int = 200
    subsolver_rel_tol: float = 0.1

    def __post_init__(self):
        ok = 0 < self.eta1 <= self.eta2 < 1
        ok &= 0 < self.gamma2 < 1 < self.gamma3
        ok &= self.delta_init <= self.delta_max
        if not ok:
            raise ValueError("trust-region constants violate their ordering constraints")


def update_radius(delta: float, rho: float, o: TrustRegionOptions) -> float:
    """Radius schedule: grow on very successful steps, shrink on failures.

    Shrinking stops at 1e-30 so that repeated failures cannot underflow.
    """
    if rho >= o.eta2:
        return min(o.gamma3 * delta, o.delta_max)
    if rho >= o.eta1:
        return min(delta, o.delta_max)
    return max(o.gamma2 * delta, 1e-30)


def first_order_step(h, x, hx: float, g, nu: float, box: Box):
    """Proximal-gradient step for the linear model g.s + ||s||^2 / (2 nu) + h(x + s).

    Minimizes over steps s in ``box``; ``hx`` is h(x).  Returns s and its
    model decrease xi = h(x) - g.s - h(x + s) >= ||s||^2 / (2 nu), clipped at
    zero.  sqrt(xi / nu) is the criticality measure of every solver here.
    """
    s = h.prox_shifted(1.0 / nu, -nu * g, x, box)
    return s, max(hx - float(g @ s) - h.value(x + s), 0.0)


class ShiftedBounds:
    """Constraint object of TR and TRDH: no barrier, steps stay in the bounds."""

    mu = 0.0
    z = None
    floor = -np.inf
    records_exits = False

    def __init__(self, bounds: Box):
        self.bounds = bounds

    def at(self, x, gx):
        """Model gradient, extra curvature, step box, measure gradient and
        complementarity residual at x (None: no extra curvature, measure
        with the model gradient)."""
        return gx, None, self.bounds.shifted(x), None, 0.0

    def phi(self, x) -> float:
        return 0.0

    def trial(self, x, s):
        """The trial point and the step that the quasi-Newton update sees."""
        x_t = self.bounds.clamp(x + s)
        return x_t, x_t - x

    def zero_step(self, x) -> bool:
        """Handle a zero model step; True skips the trial evaluation."""
        return False

    def accept(self, x, x_t, s) -> None:
        pass


@dataclass
class InnerResult:
    """Outcome of `tr_iterate`; status is "tol", "cap", "unbounded" or "budget"."""

    x: np.ndarray
    z: object
    fx: float
    hx: float
    gx: np.ndarray
    crit: float
    compl: float
    measure0: float
    status: str
    accepted: int
    n_prox: int


def tr_iterate(smooth, h, cons, qn, x, fx: float, hx: float, gx, delta: float,
               opts: TrustRegionOptions, *, diagonal: bool, max_iter: int,
               abs_tol: float, rel_tol: float, eps_p: float = 0.0,
               trace: list, records: list) -> InnerResult:
    """Minimize f + phi + h from x, where f(x), h(x) and grad f(x) are given.

    ``cons`` supplies the constraint terms through the methods of
    `ShiftedBounds` and the attributes mu, z (returned), floor and
    records_exits.  The loop stops with "tol" once the measure falls below
    abs_tol + rel_tol * (measure at entry) and the complementarity residual
    below eps_p, with "unbounded" when f + phi + h drops below ``cons.floor``,
    with "budget" when the evaluation budget runs out, and with "cap" after
    ``max_iter`` steps, measuring once more at the final point.  Accepted
    points append (n_grad, f + h) to ``trace``.

    Every iteration that tries a step appends one record to ``records``; an
    iteration that stops the loop appends one only if ``cons.records_exits``.
    Its keys:

    - j: iteration index; mu: barrier parameter (0 without barrier);
    - nu: step length of the measure, 1 / (||B|| + max theta + 1/(alpha Delta));
    - delta_before, delta_after: the radius before and after the iteration;
    - xi, s1_norm2: decrease and Euclidean norm of the Cauchy step s1;
    - xi_meas, s_meas_norm2: the same for the step that defines the measure
      (s1 itself, or the Lagrangian step grad f - zl + zu);
    - crit: sqrt(xi_meas / nu); compl: complementarity residual (0 without barrier);
    - obj_before, obj_after: f + phi + h at x and at an accepted trial (else NaN);
    - rho: ratio of actual to model decrease (NaN if no trial, 0 on a zero step);
    - accepted; exit: "tol", "unbounded" or None;
    - s_inf: ||s||_inf of the model step; cap_inf: its cap min(Delta, beta ||s1||_inf).
    """
    n = x.size
    phi = cons.phi(x)
    sub_opts = R2Options(max_iter=opts.subsolver_max_iter, abs_tol=0.0,
                         rel_tol=opts.subsolver_rel_tol)
    n_prox = accepted = 0
    crit, compl, crit0 = np.inf, np.inf, None
    status = "cap"
    try:
        for j in range(max_iter + 1):
            g, theta, box, g_meas, compl = cons.at(x, gx)
            lip = qn.norm_estimate()
            if theta is not None:
                lip += float(theta.max())
            nu = 1.0 / (lip + 1.0 / (opts.alpha * delta))
            tr_box = intersect_boxes(Box.ball(n, delta), box)
            s1, xi = first_order_step(h, x, hx, g, nu, tr_box)
            s_m, xi_m = s1, xi
            if g_meas is not None:
                s_m, xi_m = first_order_step(h, x, hx, g_meas, nu, tr_box)
            n_prox += 1 if g_meas is None else 2
            crit = float(np.sqrt(xi_m / nu))
            if crit0 is None:
                crit0 = crit
            if j == max_iter:
                break
            obj = fx + phi + hx
            rec = {"j": j, "mu": cons.mu, "nu": nu, "delta_before": delta, "delta_after": delta,
                   "xi": xi, "s1_norm2": float(np.linalg.norm(s1)), "xi_meas": xi_m,
                   "s_meas_norm2": float(np.linalg.norm(s_m)), "crit": crit, "compl": compl,
                   "obj_before": obj, "obj_after": np.nan, "rho": np.nan, "accepted": False,
                   "exit": None, "s_inf": 0.0, "cap_inf": np.nan}
            if crit <= abs_tol + rel_tol * crit0 and compl <= eps_p:
                status = "tol"
            elif obj < cons.floor:
                status = "unbounded"
            if status != "cap":
                if cons.records_exits:
                    rec["exit"] = status
                    records.append(rec)
                break
            cap = min(delta, opts.beta * float(np.max(np.abs(s1))))
            cap_box = intersect_boxes(Box.ball(n, cap), box)
            if diagonal:
                d = qn.diagonal() if theta is None else qn.diagonal() + theta
                s = h.prox_shifted(d, -g / d, x, cap_box)
                n_prox += 1
            else:
                sub = r2_solve(QuadModelOracle(g, qn.apply, theta), h.shifted(x), cap_box,
                               s1, sub_opts)
                s = sub.x
                n_prox += sub.n_prox
            if not np.any(s) and cons.zero_step(x):
                rec["rho"] = 0.0
                records.append(rec)
                continue
            bs = qn.apply(s) if theta is None else qn.apply(s) + theta * s
            decrease = hx - float(g @ s) - 0.5 * float(s @ bs) - h.value(x + s)
            x_t, step = cons.trial(x, s)
            f_t = smooth.value(x_t)
            h_t = h.value(x_t)
            phi_t = cons.phi(x_t)
            rho = (obj - (f_t + phi_t + h_t)) / decrease if decrease > 0 else -np.inf
            new_delta = update_radius(delta, rho, opts)
            rec.update(rho=float(rho), accepted=bool(rho >= opts.eta1), delta_after=new_delta,
                       s_inf=float(np.max(np.abs(s))), cap_inf=cap)
            if rec["accepted"]:
                cons.accept(x, x_t, s)
                x, fx, hx, phi = x_t, f_t, h_t, phi_t
                g_new = smooth.grad(x)
                qn.update(step, g_new - gx)
                gx = g_new
                trace.append((smooth.n_grad, fx + hx))
                accepted += 1
                rec["obj_after"] = fx + phi + hx
            records.append(rec)
            delta = new_delta
    except BudgetExhausted:
        status = "budget"

    return InnerResult(x=x, z=cons.z, fx=fx, hx=hx, gx=gx, crit=crit, compl=compl,
                       measure0=crit0, status=status, accepted=accepted, n_prox=n_prox)


def tr_solve(smooth, h, bounds: Box, qn, x0, opts: TrustRegionOptions | None = None,
             solver_name: str = "TR-R2") -> SolverReport:
    """Quasi-Newton proximal trust region with R2 as subproblem solver."""
    return _tr_solve(smooth, h, bounds, qn, x0, opts or TrustRegionOptions(), False, solver_name)


def trdh_solve(smooth, h, bounds: Box, x0, opts: TrustRegionOptions | None = None,
               solver_name: str = "TRDH", sigma0: float = 1.0) -> SolverReport:
    """Diagonal-Hessian trust region: closed-form steps from the spectral diagonal."""
    qn = SpectralDiag(np.atleast_1d(np.asarray(x0)).size, sigma0)
    return _tr_solve(smooth, h, bounds, qn, x0, opts or TrustRegionOptions(), True, solver_name)


def _tr_solve(smooth, h, bounds, qn, x0, opts, diagonal, solver_name):
    t0 = time.perf_counter()
    x = bounds.clamp(np.asarray(x0, dtype=float))
    fx, hx, crit, n_prox, status = np.inf, 0.0, np.inf, 0, MAX_ITER
    trace: list = []
    records: list = []
    try:
        fx, hx, gx = evaluate_start(smooth, h, x, trace)
        res = tr_iterate(smooth, h, ShiftedBounds(bounds), qn, x, fx, hx, gx,
                         opts.delta_init, opts, diagonal=diagonal, max_iter=opts.max_iter,
                         abs_tol=opts.abs_tol, rel_tol=opts.rel_tol, trace=trace,
                         records=records)
        x, fx, hx, crit, n_prox = res.x, res.fx, res.hx, res.crit, res.n_prox
        status = CONVERGED if res.status == "tol" else MAX_ITER
    except BudgetExhausted:
        pass
    return make_report(solver_name, smooth, h, x, fx, hx, crit, n_prox, t0, status, trace,
                       {"iters": records})
