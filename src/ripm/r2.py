"""Quadratic-regularization proximal method (R2), and the first-order step of every solver.

`first_order_step` is the one proximal-gradient step and criticality
measure of the package, and the only caller of the prox kernel
`regprox.iprox_shifted`: R2, the trust-region loop, its diagonal trial and
the barrier stages all call it.  Every box it sees is a box of points, so
the trial point is

    u = argmin_{u in box}  sigma (u - q)^2 / 2 + h(u),   q = x - grad/sigma,

the plain prox of h over the box, already feasible.  The step t = u - x
has the first-order model decrease

    xi = h(x) - grad.t - h(u)  >=  sigma ||t||^2 / 2,

and the criticality measure is sqrt(sigma * xi), the sqrt(xi / nu) form
with nu = 1 / sigma.  For the separable model of a diagonal operator, sigma
is a positive vector, and sigma ||t||^2 becomes sum_i sigma_i t_i^2.

R2 iterates on points over one fixed box: it accepts u by a ratio test
against xi and adapts sigma.  It starts from a point in the box whose f, h
and gradient its caller has formed (`bench.run_solver` for the R2 baseline,
the trust-region loop for a subsolve), and it returns a
`report.SolveResult`, so a subsolve builds no report and takes no trace
list: its points and prox calls count on its views (see `report`).  The
trial follows the oracle.  A true objective is evaluated at u; once its
budget allows no evaluation, R2 stops after it measures, with status
BUDGET, instead of asking for a value the budget would refuse.  The
quadratic model of a trust-region step (`oracles.QuadModelOracle`) changes
by grad.t + c / 2 with c = t.(B + Theta)t in closed form from the
operator's factors, so rho = (xi - c / 2) / xi, and the model gradient is
updated by (B + Theta) t, from the products that gave c, only when the
trial is accepted.

The loop constants are those of R2 in Aravkin, Baraldi & Orban (2022):
SIGMA_INIT is sigma_0 and SIGMA_MIN is sigma_min; a step is successful when
rho >= ETA1 (eta_1) and very successful when rho >= ETA2 (eta_2); a very
successful step multiplies sigma by GAMMA_DEC, a failed one by GAMMA_INC (gamma).
"""
from __future__ import annotations

import math

import numpy as np

from . import regprox
from .regprox import Box
from .report import BUDGET, CONVERGED, MAX_ITER, R2_RECORD, IterLog, SolveResult

SIGMA_INIT = 1.0
SIGMA_MIN = 1e-8
ETA1 = 0.25
ETA2 = 0.75
GAMMA_DEC = 0.5
GAMMA_INC = 3.0


def first_order_step(h, x, hx: float, g, sigma, box: Box):
    """Proximal-gradient step from x for the model g.t + sum sigma t^2 / 2 + h(x + t).

    ``sigma`` is a positive scalar or vector, ``box`` is a box of points and
    ``hx`` is h(x).  Returns the trial point u in ``box``, the step t = u - x,
    h(u), g.t and the model decrease xi = h(x) - g.t - h(u), clipped at zero.
    `regprox.iprox_shifted` is looked up at each call, so a wrapper put there sees it.
    """
    q = np.divide(g, -sigma)
    q += x
    u = regprox.iprox_shifted(h, sigma, q, box)
    t = u - x
    gt = float(g.dot(t))
    hu = h.value(u)
    return u, t, hu, gt, max(hx - gt - hu, 0.0)


def r2_solve(smooth, reg, box: Box, x, fx: float, hx: float, gx, *, max_iter: int = 10_000,
             abs_tol: float = 1e-4, rel_tol: float = 1e-4) -> SolveResult:
    """Minimize smooth(x) + reg(x) subject to x in box, from x in box with
    f(x), h(x) and grad f(x) given.

    ``reg`` is a `regprox.Regularizer`.  ``smooth`` is a `SmoothOracle`; one
    with a ``curvature`` method is a quadratic model and gets the closed-form
    ratio (see the module docstring): its start is f = 0.0 and the model
    gradient that its caller holds.  The status is CONVERGED at the
    tolerance abs_tol + rel_tol * (measure at x), BUDGET once the budget
    allows no value at the next trial, and MAX_ITER after ``max_iter``
    iterations; a model has no budget, so a subsolve ends on one of the
    others.  Each accepted point is a trace row (``smooth.mark``), and
    n_prox is how far ``reg.n_prox`` moved during the solve.
    """
    model = hasattr(smooth, "curvature")
    sigma = SIGMA_INIT
    n_prox0 = reg.n_prox
    crit = np.inf
    tol = None
    status = MAX_ITER
    records = IterLog(R2_RECORD)
    for _ in range(max_iter):
        u, t, h_trial, gt, xi = first_order_step(reg, x, hx, gx, sigma, box)
        crit = math.sqrt(sigma * xi)
        if tol is None:
            tol = abs_tol + rel_tol * crit
        if crit <= tol:
            status = CONVERGED
            break
        if model:
            c, products = smooth.curvature(t)
            f_trial = fx + gt + 0.5 * c
            rho = (xi - 0.5 * c) / xi
        elif smooth.evals_left() == 0:
            status = BUDGET
            break
        else:
            f_trial = smooth.value(u)
            rho = ((fx + hx) - (f_trial + h_trial)) / xi
        records.append(sigma, rho, xi, bool(rho >= ETA1))
        if rho >= ETA1:
            gx = smooth.grad_after(gx, products) if model else smooth.grad(u)
            x, fx, hx = u, f_trial, h_trial
            smooth.mark(fx + hx)
            if rho >= ETA2:
                sigma = max(SIGMA_MIN, GAMMA_DEC * sigma)
        else:
            sigma = GAMMA_INC * sigma
    return SolveResult(x, fx, hx, crit, reg.n_prox - n_prox0, status, {"iters": records})
