"""The proximal quasi-Newton trust-region iteration, and the TR solver.

`tr_iterate` is the one trust-region loop of the package.  It works on
points: every box it forms is a box of points around x, and every prox or
subsolve output is the trial point itself.  Each iteration takes the
first-order step of `r2.first_order_step` over the box of radius Delta around
x; its Cauchy point u1 and model decrease xi define the criticality measure
sqrt(sigma * xi).  The model step is then capped at min(Delta, beta *
||u1 - x||_inf), and its trial point follows the operator.  One with a
``diagonal()`` view D has a separable model, whose minimizer over the cap
box is the first-order step with sigma = D, or D + Theta in a barrier
stage: `first_order_step` again, so one function forms every
prox-gradient trial.  Any other operator gets the R2 solve of the quadratic
model over the cap box, started at u1, whose trials change the model by a
closed form in the operator's factors (see `r2` and
`oracles.QuadModelOracle`).  The loop hands it the start it holds: f = 0,
h(u1) from the Cauchy step and the model gradient g + (B + Theta) s1, and
takes the trial point and h there from its result; both count on the
solve's views (see `report`).  A ratio test accepts
or rejects the trial point, the radius follows `update_radius`, and the
quasi-Newton operator is updated on acceptance.  The loop asks for f only
where the ratio test reads it: a trial whose model decrease is not
positive gets rho = -inf, the unsuccessful step of TR, without a value, and
a trial equal to the last point valued keeps the f it had, so the
objective's n_f counts only values that a decision reads.  Once Delta
falls below `stall_radius`, eps (1 + ||x||_inf) with eps the machine
epsilon EPS_MACH, the box around x rounds to x in its largest components:
neither a trial point nor the measure can resolve a step there, so the
loop stops as stalled before it measures.  Once the objective's budget
allows no evaluation, the loop measures at x and tests the tolerance, then
stops before it builds a trial point whose value the budget would refuse:
for a subsolve step that is a whole R2 solve.

The loop keeps the hot-path rule of `regprox`: products by ``.dot``, max
and min by the ufunc's reduce, no `np.clip`, no function-form
`np.any`/`np.all` and no `np.linalg.norm` in code that runs once per
iteration.  Norms are ``math.sqrt(v.dot(v))``, what `np.linalg.norm`
computes for a vector.  Each box of the loop is the ball of radius r around
x within the constraint box, `Box.ball`, built in one pass and not checked
again: x lies in the constraint box and r >= 0, so the ball holds x.

The bounds enter through a constraint object, which supplies the box of
points every trial stays in.  TR and TRDH fold the box indicator into the
nonsmooth term and pass `ShiftedBounds`, whose box is the bounds
themselves: `tr_solve` runs the loop once, from the valued start that
`bench.run_solver` forms, and returns a `report.SolveResult`; TRDH is
`tr_solve` with the spectral diagonal `qnops.SpectralDiag`.  The barrier
subproblems of RIPM pass `interior.BarrierTerms`, whose box is the
fraction-to-boundary box, and which adds the barrier gradient and curvature
and owns the duals.  Both have the barrier parameter mu, 0 in
`ShiftedBounds`, and the methods `phi` and `at`; a run with mu > 0 is a
barrier stage.  `phi` returns a point's term and its gaps, a tuple per
side, () in `ShiftedBounds`, or (+inf, None) outside a barrier's bounds.
The loop hands them back to `at` with the step that reached the point,
(gaps of the point left, s), None at entry; `at` updates the duals on it
and always returns a curvature vector Theta, zero in `ShiftedBounds`, and
a complementarity residual, 0 there, which the stop test holds to abs_tol.
A zero model step of a barrier stage tries no trial: x and Delta stay
put, and the next `at` refreshes the duals on s = 0, so that the dual
tolerance can still be met.  The loop asks `at` at entry, after an
accepted step and after such a zero step, and keeps its terms, with the
stall threshold and max Theta.

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
from dataclasses import dataclass

import numpy as np

from .oracles import QuadModelOracle
from .r2 import first_order_step, r2_solve
# intersect_boxes is bound here only for perfbench/tracer.py, which wraps it
from .regprox import Box, intersect_boxes  # noqa: F401
from .report import BUDGET, CONVERGED, MAX_ITER, STALLED, TR_RECORD, IterLog, SolveResult

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
EPS_MACH = np.finfo(float).eps


def update_radius(delta: float, rho: float) -> float:
    """Radius schedule: grow on very successful steps, shrink on failures.

    Shrinking stops at 1e-30 so that repeated failures cannot underflow.
    """
    if rho >= ETA2:
        return min(GAMMA3 * delta, DELTA_MAX)
    if rho >= ETA1:
        return min(delta, DELTA_MAX)
    return max(GAMMA2 * delta, 1e-30)


def stall_radius(x) -> float:
    """eps (1 + ||x||_inf): below this radius the box around x rounds to x."""
    return EPS_MACH * (1.0 + float(np.maximum.reduce(np.abs(x))))


class ShiftedBounds:
    """Constraint object of TR and TRDH: no barrier, trial points stay in the bounds."""

    mu = 0.0
    # no barrier curvature: a 0-d zero, so that the diagonal step's sigma
    # diag(B) + Theta stays a scalar
    theta = np.float64(0.0)

    def __init__(self, bounds: Box):
        self.bounds = bounds

    def phi(self, x):
        """The constraint term at x and the gaps of x: those of a constraint with no side."""
        return 0.0, ()

    def at(self, gx, gaps, step=None):
        """Model gradient, curvature Theta (zero here), box of points, measure gradient
        (None: the model gradient) and complementarity residual, whatever the step."""
        return gx, self.theta, self.bounds, None, 0.0


@dataclass
class InnerResult:
    """Outcome of `tr_iterate`; status is "tol", "cap", "budget" or "stalled"."""

    x: np.ndarray
    fx: float
    hx: float
    gx: np.ndarray
    crit: float
    compl: float
    measure0: float
    status: str


def tr_iterate(smooth, h, cons, qn, x, fx: float, hx: float, gx, delta: float, *,
               max_iter: int, abs_tol: float, rel_tol: float, records: IterLog) -> InnerResult:
    """Minimize f + phi + h from x, where f(x), h(x) and grad f(x) are given.

    ``cons`` supplies the constraint terms through mu and the methods of
    `ShiftedBounds`; mu > 0 makes the run a barrier stage.  The loop stops
    with "tol" once the measure falls below abs_tol + rel_tol * (measure at
    entry) and the complementarity residual below abs_tol, with "cap" after
    ``max_iter`` steps, measuring once more at the final point, and with
    "stalled" once Delta < eps (1 + ||x||_inf), before measuring at that
    radius: crit is then the last measure taken, inf when none was.  It
    stops with "budget" when ``smooth.evals_left()`` is 0 after it has
    measured at x and tested the tolerance, before it builds the cap box and
    the trial point, whose value the budget would refuse; crit and compl are
    then those of x.  Each accepted point is a trace row (``smooth.mark``).

    f is asked at a trial point only if its model decrease is positive and
    it differs from the last point valued (x at entry, where f(x) is given);
    otherwise no value can change the decision.  A trial with decrease <= 0
    is rejected with rho = -inf, and a repeated trial reuses its f, while
    phi and rho are formed again, since a zero step may have moved the
    barrier's curvature.  h is valued at every trial.

    Every iteration that tries a step appends one row of `report.TR_RECORD`,
    whose keys are documented there, to the store ``records``; an iteration
    that stops the loop on the tolerance appends one only in a barrier
    stage, and a stall or a budget exit appends none.
    """
    phi, gaps = cons.phi(x)
    crit, compl, crit0 = np.inf, np.inf, np.inf
    status = "cap"
    terms = None  # cons.at(gx, gaps, step) at x, asked at entry and after each step
    step = None  # the step that reached x, (gaps of the point left, s), not yet handed to at
    x_f, f_t = x, fx  # the last point valued and its f
    for j in range(max_iter + 1):
        if terms is None or step is not None:
            terms, step = cons.at(gx, gaps, step), None
            stall = stall_radius(x)
            theta_max = float(np.maximum.reduce(terms[1], axis=None))
        if delta < stall:
            status = "stalled"
            break
        g, theta, box, g_meas, compl = terms
        sigma = qn.norm_estimate() + theta_max + 1.0 / (ALPHA * delta)
        tr_box = box.ball(x, delta)
        u1, s1, h1, _, xi = first_order_step(h, x, hx, g, sigma, tr_box)
        s_m, xi_m = s1, xi
        if g_meas is not None:
            _, s_m, _, _, xi_m = first_order_step(h, x, hx, g_meas, sigma, tr_box)
        crit = math.sqrt(sigma * xi_m)
        if j == 0:
            crit0 = crit
        if j == max_iter:
            break
        obj = fx + phi + hx
        # the fields of this iteration's record that come before its outcome
        head = (j, cons.mu, 1.0 / sigma, delta, xi, math.sqrt(s1.dot(s1)), xi_m,
                math.sqrt(s_m.dot(s_m)), crit, compl, obj)
        if crit <= abs_tol + rel_tol * crit0 and compl <= abs_tol:
            status = "tol"
            if cons.mu > 0:
                records.append(*head, np.nan, False, status, delta, np.nan, 0.0, np.nan)
            break
        if smooth.evals_left() == 0:
            status = "budget"
            break
        cap = min(delta, BETA * float(np.maximum.reduce(np.abs(s1))))
        cap_box = box.ball(x, cap)
        if hasattr(qn, "diagonal"):
            d = qn.diagonal() + theta
            x_t, s, h_t, gs, _ = first_order_step(h, x, hx, g, d, cap_box)
        else:
            # the model at u1: f = 0, h(u1) and its gradient g + (B + Theta) s1
            sub = r2_solve(QuadModelOracle(qn, theta), h, cap_box, u1, 0.0, h1,
                           g + (qn.apply(s1) + theta * s1),
                           max_iter=SUBSOLVER_MAX_ITER, abs_tol=0.0, rel_tol=SUBSOLVER_REL_TOL)
            x_t, h_t = sub.x, sub.h
            s = x_t - x
            gs = float(g.dot(s))
        if cons.mu > 0 and not np.count_nonzero(s):
            step = (gaps, s)  # s is all +-0: the next at makes the dual update at s = 0
            records.append(*head, 0.0, False, None, delta, np.nan, 0.0, np.nan)
            continue
        bqs = qn.apply(s)  # B s, which the operator's update takes on acceptance
        bs = bqs + theta * s
        decrease = hx - gs - 0.5 * float(s.dot(bs)) - h_t
        rho = -np.inf  # a step the model does not decrease fails whatever f says
        if decrease > 0:
            if x_t.shape != x_f.shape or not (x_t == x_f).all():
                x_f, f_t = x_t, smooth.value(x_t)
            phi_t, gaps_t = cons.phi(x_t)
            rho = (obj - (f_t + phi_t + h_t)) / decrease
        new_delta = update_radius(delta, rho)
        accepted = bool(rho >= ETA1)
        obj_after = np.nan
        if accepted:
            step = (gaps, s)
            x, fx, hx, phi, gaps = x_t, f_t, h_t, phi_t, gaps_t
            g_new = smooth.grad(x)
            qn.update(s, g_new - gx, bs=bqs)
            gx = g_new
            smooth.mark(fx + hx)
            obj_after = fx + phi + hx
        records.append(*head, float(rho), accepted, None, new_delta, obj_after,
                       float(np.maximum.reduce(np.abs(s))), cap)
        delta = new_delta

    return InnerResult(x=x, fx=fx, hx=hx, gx=gx, crit=crit, compl=compl,
                       measure0=crit0, status=status)


# the report status of each `tr_iterate` exit
_STATUS = {"tol": CONVERGED, "budget": BUDGET, "cap": MAX_ITER, "stalled": STALLED}


def tr_solve(smooth, h, bounds: Box, qn, x, fx: float, hx: float, gx, *,
             rel_tol: float = 1e-4) -> SolveResult:
    """Quasi-Newton proximal trust region from x in ``bounds``, with f(x), h(x)
    and grad f(x) given; the step follows ``qn`` (see `tr_iterate`)."""
    records, n_prox0 = IterLog(TR_RECORD), h.n_prox
    res = tr_iterate(smooth, h, ShiftedBounds(bounds), qn, x, fx, hx, gx, DELTA_INIT,
                     max_iter=ITER_CAP, abs_tol=ABS_TOL, rel_tol=rel_tol, records=records)
    return SolveResult(res.x, res.fx, res.hx, res.crit, h.n_prox - n_prox0, _STATUS[res.status],
                       {"iters": records})
