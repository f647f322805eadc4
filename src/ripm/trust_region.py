"""The proximal quasi-Newton trust-region iteration, and the TR and TRDH solvers.

`tr_iterate` is the one trust-region loop of the package.  It works on
points: every box it forms is a box of points around x, and every prox or
subsolve output is the trial point itself.  Each iteration takes the
first-order step of `r2.first_order_step` over the box of radius Delta around
x; its Cauchy point u1 and model decrease xi define the criticality measure
sqrt(sigma * xi).  The model step is then capped at min(Delta, beta *
||u1 - x||_inf), and its trial point follows the operator: one with a
``diagonal()`` view gets the closed-form separable minimizer, any other the
R2 solve of the quadratic model over the cap box, started at u1, whose
trials change the model by a closed form in the operator's factors (see `r2`
and `oracles.QuadModelOracle`).  A ratio test accepts or rejects the trial
point, the radius follows `update_radius`, and the quasi-Newton operator is
updated on acceptance.  Once Delta falls below eps (1 + ||x||_inf), with eps
the machine epsilon, the box around x rounds to x in its largest components:
neither a trial point nor the measure can resolve a step there, so the loop
stops as stalled before it measures.

The loop keeps the hot-path rule of `regprox`: no `np.clip`, no
function-form `np.any`/`np.all` and no `np.linalg.norm` in code that runs
once per iteration.  One round of the six bpdn solves at n = 512 made 261k
function-form `np.any`/`np.all`, 228k `np.clip` and 157k `np.linalg.norm`
calls, whose Python wrappers cost more than their arithmetic at that size.
Norms are ``math.sqrt(v @ v)``, which is what `np.linalg.norm` computes for
a vector.  Each box of the loop, the ball of radius r around x within the
constraint box, is built in one pass as max(x - r, lo), min(x + r, hi),
with one emptiness check.

The bounds enter through a constraint object, which supplies the box of
points every trial stays in.  TR and TRDH fold the box indicator into the
nonsmooth term and pass `ShiftedBounds`, whose box is the bounds
themselves.  The barrier subproblems of RIPM pass `interior.BarrierTerms`,
whose box is the fraction-to-boundary box, and which adds the barrier
gradient and curvature.

The loop constants are those of TR in Aravkin, Baraldi & Orban (2022) and of
TRDH in Leconte & Orban (2023): DELTA_INIT is Delta_0 and DELTA_MAX caps the
radius; rho >= ETA1 (eta_1) accepts a step and rho >= ETA2 (eta_2) grows the
radius by GAMMA3 (gamma_3), a rejection shrinks it by GAMMA2 (gamma_2); ALPHA
(alpha) and BETA (beta) scale nu and the step cap; ITER_CAP caps the
iterations of TR and TRDH, which stop once the measure falls below ABS_TOL
(epsilon_a) plus rel_tol times its value at x0; SUBSOLVER_MAX_ITER and
SUBSOLVER_REL_TOL stop the R2 subsolve.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted
from .oracles import QuadModelOracle
from .qnops import SpectralDiag
from .r2 import R2Options, first_order_step, r2_solve
# intersect_boxes is bound here only for perfbench/tracer.py, which wraps it
from .regprox import Box, intersect_boxes  # noqa: F401
from .report import CONVERGED, MAX_ITER, SolverReport, evaluate_start, make_report

DELTA_INIT = 1.0
DELTA_MAX = 1e12
ETA1 = 1e-3
ETA2 = 0.9
GAMMA2 = 0.5
GAMMA3 = 2.0
ALPHA = 1.0
BETA = 10.0
ABS_TOL = 1e-4
ITER_CAP = 10_000
SUBSOLVER_MAX_ITER = 200
SUBSOLVER_REL_TOL = 0.1


@dataclass
class TrustRegionOptions:
    rel_tol: float = 1e-4


def update_radius(delta: float, rho: float) -> float:
    """Radius schedule: grow on very successful steps, shrink on failures.

    Shrinking stops at 1e-30 so that repeated failures cannot underflow.
    """
    if rho >= ETA2:
        return min(GAMMA3 * delta, DELTA_MAX)
    if rho >= ETA1:
        return min(delta, DELTA_MAX)
    return max(GAMMA2 * delta, 1e-30)


def _ball_within(x, r: float, box: Box) -> Box:
    """The l-inf ball of radius r around the point x intersected with ``box``."""
    lo = x - r
    hi = x + r
    return Box(np.maximum(lo, box.lo, out=lo), np.minimum(hi, box.hi, out=hi))


class ShiftedBounds:
    """Constraint object of TR and TRDH: no barrier, trial points stay in the bounds."""

    mu = 0.0
    z = None
    records_exits = False

    def __init__(self, bounds: Box):
        self.bounds = bounds

    def at(self, x, gx):
        """Model gradient, extra curvature, box of points, measure gradient and
        complementarity residual at x (None: no extra curvature, measure
        with the model gradient)."""
        return gx, None, self.bounds, None, 0.0

    def phi(self, x) -> float:
        return 0.0

    def zero_step(self, x) -> bool:
        """Handle a zero model step; True skips the trial evaluation."""
        return False

    def accept(self, x, x_t, s) -> None:
        pass


@dataclass
class InnerResult:
    """Outcome of `tr_iterate`; status is "tol", "cap", "budget" or "stalled"."""

    x: np.ndarray
    z: object
    fx: float
    hx: float
    gx: np.ndarray
    crit: float
    compl: float
    measure0: float
    status: str
    n_prox: int


def tr_iterate(smooth, h, cons, qn, x, fx: float, hx: float, gx, delta: float, *,
               max_iter: int, abs_tol: float, rel_tol: float, eps_p: float = 0.0,
               trace: list, records: list) -> InnerResult:
    """Minimize f + phi + h from x, where f(x), h(x) and grad f(x) are given.

    ``cons`` supplies the constraint terms through the methods of
    `ShiftedBounds` and the attributes mu, z (returned) and records_exits.
    The loop stops with "tol" once the measure falls below abs_tol + rel_tol *
    (measure at entry) and the complementarity residual below eps_p, with
    "budget" when the evaluation budget runs out, with "cap" after
    ``max_iter`` steps, measuring once more at the final point, and with
    "stalled" once Delta < eps (1 + ||x||_inf), before measuring at that
    radius: crit is then the last measure taken (inf if none).  Accepted
    points append (n_grad, f + h) to ``trace``.

    Every iteration that tries a step appends one record to ``records``; an
    iteration that stops the loop on the tolerance appends one only if
    ``cons.records_exits``, and a stall appends none.
    Its keys:

    - j: iteration index; mu: barrier parameter (0 without barrier);
    - nu: step length of the measure, 1 / sigma with
      sigma = ||B|| + max theta + 1/(alpha Delta);
    - delta_before, delta_after: the radius before and after the iteration;
    - xi, s1_norm2: decrease and Euclidean norm of the Cauchy step s1 = u1 - x;
    - xi_meas, s_meas_norm2: the same for the step that defines the measure
      (s1 itself, or the Lagrangian step grad f - zl + zu);
    - crit: sqrt(sigma * xi_meas); compl: complementarity residual (0 without barrier);
    - obj_before, obj_after: f + phi + h at x and at an accepted trial (else NaN);
    - rho: ratio of actual to model decrease (NaN if no trial, 0 on a zero step);
    - accepted; exit: "tol" or None;
    - s_inf: ||s||_inf of the model step; cap_inf: its cap min(Delta, beta ||s1||_inf).
    """
    phi = cons.phi(x)
    sub_opts = R2Options(max_iter=SUBSOLVER_MAX_ITER, abs_tol=0.0, rel_tol=SUBSOLVER_REL_TOL)
    n_prox = 0
    crit, compl, crit0 = np.inf, np.inf, np.inf
    status = "cap"
    try:
        for j in range(max_iter + 1):
            if delta < np.finfo(float).eps * (1.0 + float(np.abs(x).max())):
                status = "stalled"
                break
            g, theta, box, g_meas, compl = cons.at(x, gx)
            lip = qn.norm_estimate()
            if theta is not None:
                lip += float(theta.max())
            sigma = lip + 1.0 / (ALPHA * delta)
            tr_box = _ball_within(x, delta, box)
            u1, s1, _, _, xi = first_order_step(h, x, hx, g, sigma, tr_box)
            s_m, xi_m = s1, xi
            if g_meas is not None:
                _, s_m, _, _, xi_m = first_order_step(h, x, hx, g_meas, sigma, tr_box)
            n_prox += 1 if g_meas is None else 2
            crit = math.sqrt(sigma * xi_m)
            if j == 0:
                crit0 = crit
            if j == max_iter:
                break
            obj = fx + phi + hx
            rec = {"j": j, "mu": cons.mu, "nu": 1.0 / sigma, "delta_before": delta,
                   "delta_after": delta, "xi": xi, "s1_norm2": math.sqrt(s1 @ s1),
                   "xi_meas": xi_m, "s_meas_norm2": math.sqrt(s_m @ s_m), "crit": crit,
                   "compl": compl, "obj_before": obj, "obj_after": np.nan, "rho": np.nan,
                   "accepted": False, "exit": None, "s_inf": 0.0, "cap_inf": np.nan}
            if crit <= abs_tol + rel_tol * crit0 and compl <= eps_p:
                status = "tol"
                if cons.records_exits:
                    rec["exit"] = status
                    records.append(rec)
                break
            cap = min(delta, BETA * float(np.abs(s1).max()))
            cap_box = _ball_within(x, cap, box)
            if hasattr(qn, "diagonal"):
                d = qn.diagonal() if theta is None else qn.diagonal() + theta
                x_t = h.prox_shifted(d, x - g / d, cap_box)
                n_prox += 1
            else:
                sub = r2_solve(QuadModelOracle(g, qn, theta, x), h, cap_box, u1, sub_opts)
                x_t = sub.x
                n_prox += sub.n_prox
            s = x_t - x
            if not s.any() and cons.zero_step(x):
                rec["rho"] = 0.0
                records.append(rec)
                continue
            bs = qn.apply(s) if theta is None else qn.apply(s) + theta * s
            h_t = h.value(x_t)
            decrease = hx - float(g @ s) - 0.5 * float(s @ bs) - h_t
            f_t = smooth.value(x_t)
            phi_t = cons.phi(x_t)
            rho = (obj - (f_t + phi_t + h_t)) / decrease if decrease > 0 else -np.inf
            new_delta = update_radius(delta, rho)
            rec.update(rho=float(rho), accepted=bool(rho >= ETA1), delta_after=new_delta,
                       s_inf=float(np.abs(s).max()), cap_inf=cap)
            if rec["accepted"]:
                cons.accept(x, x_t, s)
                x, fx, hx, phi = x_t, f_t, h_t, phi_t
                g_new = smooth.grad(x)
                qn.update(s, g_new - gx)
                gx = g_new
                trace.append((smooth.n_grad, fx + hx))
                rec["obj_after"] = fx + phi + hx
            records.append(rec)
            delta = new_delta
    except BudgetExhausted:
        status = "budget"

    return InnerResult(x=x, z=cons.z, fx=fx, hx=hx, gx=gx, crit=crit, compl=compl,
                       measure0=crit0, status=status, n_prox=n_prox)


def tr_solve(smooth, h, bounds: Box, qn, x0, opts: TrustRegionOptions | None = None,
             solver_name: str = "TR-R2") -> SolverReport:
    """Quasi-Newton proximal trust region; the step follows ``qn`` (see `tr_iterate`)."""
    opts = opts or TrustRegionOptions()
    t0 = time.perf_counter()
    x = bounds.clamp(np.asarray(x0, dtype=float))
    fx, hx, crit, n_prox, status = np.inf, 0.0, np.inf, 0, MAX_ITER
    trace: list = []
    records: list = []
    try:
        fx, hx, gx = evaluate_start(smooth, h, x, trace)
        res = tr_iterate(smooth, h, ShiftedBounds(bounds), qn, x, fx, hx, gx, DELTA_INIT,
                         max_iter=ITER_CAP, abs_tol=ABS_TOL, rel_tol=opts.rel_tol,
                         trace=trace, records=records)
        x, fx, hx, crit, n_prox = res.x, res.fx, res.hx, res.crit, res.n_prox
        status = CONVERGED if res.status == "tol" else MAX_ITER
    except BudgetExhausted:
        pass
    return make_report(solver_name, smooth, h, x, fx, hx, crit, n_prox, t0, status, trace,
                       {"iters": records})


def trdh_solve(smooth, h, bounds: Box, x0, opts: TrustRegionOptions | None = None,
               solver_name: str = "TRDH") -> SolverReport:
    """Diagonal-Hessian trust region: `tr_solve` with the spectral diagonal operator."""
    return tr_solve(smooth, h, bounds, SpectralDiag(len(x0)), x0, opts, solver_name)
