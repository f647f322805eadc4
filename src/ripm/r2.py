"""Quadratic-regularization proximal method (R2), and the first-order step of every solver.

`first_order_step` is the one proximal-gradient step and criticality
measure of the package; R2, the trust-region loop and the barrier stages
all call it.  Every box it sees is a box of points, so the trial point is

    u = argmin_{u in box}  sigma (u - q)^2 / 2 + h(u),   q = x - grad/sigma,

the plain prox of h over the box, already feasible.  The step t = u - x
has the first-order model decrease

    xi = h(x) - grad.t - h(u)  >=  sigma ||t||^2 / 2,

and the criticality measure is sqrt(sigma * xi), the sqrt(xi / nu) form
with nu = 1 / sigma.

R2 iterates on points over one fixed box: it accepts u by a ratio test
against xi and adapts sigma.  The trial follows the oracle.  A true
objective is evaluated at u.  The quadratic model of a trust-region step
(`oracles.QuadModelOracle`) changes by grad.t + c / 2 with c = t.(B + Theta)t
in closed form from the operator's factors, so rho = (xi - c / 2) / xi, and
the model gradient is updated by (B + Theta) t only when the trial is
accepted.

The loop constants are those of R2 in Aravkin, Baraldi & Orban (2022):
SIGMA_INIT is sigma_0 and SIGMA_MIN is sigma_min; a step is successful when
rho >= ETA1 (eta_1) and very successful when rho >= ETA2 (eta_2); a very
successful step multiplies sigma by GAMMA_DEC, a failed one by GAMMA_INC (gamma).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted
from .regprox import Box
from .report import CONVERGED, MAX_ITER, SolverReport, evaluate_start, make_report

SIGMA_INIT = 1.0
SIGMA_MIN = 1e-8
ETA1 = 0.25
ETA2 = 0.75
GAMMA_DEC = 0.5
GAMMA_INC = 3.0


@dataclass
class R2Options:
    max_iter: int = 10_000
    abs_tol: float = 1e-4
    rel_tol: float = 1e-4


def first_order_step(h, x, hx: float, g, sigma: float, box: Box):
    """Proximal-gradient step from x for the model g.t + sigma ||t||^2 / 2 + h(x + t).

    ``box`` is a box of points and ``hx`` is h(x).  Returns the trial point u
    in ``box``, the step t = u - x, h(u), g.t and the model decrease
    xi = h(x) - g.t - h(u), clipped at zero.
    """
    q = np.divide(g, -sigma)
    q += x
    u = h.prox_shifted(sigma, q, box)
    t = u - x
    gt = float(g @ t)
    hu = h.value(u)
    return u, t, hu, gt, max(hx - gt - hu, 0.0)


def r2_solve(smooth, reg, box: Box, x0, opts: R2Options | None = None,
             solver_name: str = "R2") -> SolverReport:
    """Minimize smooth(x) + reg(x) subject to x in box, starting from x0.

    ``reg`` needs ``value`` and ``prox_shifted``.  ``smooth`` is a
    `SmoothOracle`; one with a ``curvature`` method is a quadratic model and
    gets the closed-form ratio (see the module docstring).
    """
    opts = opts or R2Options()
    t0 = time.perf_counter()
    x = box.clamp(np.asarray(x0, dtype=float))
    model = hasattr(smooth, "curvature")
    sigma = SIGMA_INIT
    n_prox = 0
    crit = np.inf
    tol = None
    status = MAX_ITER
    trace: list = []
    diag: list = []
    fx, hx = np.inf, 0.0

    try:
        fx, hx, gx = evaluate_start(smooth, reg, x, trace)
        for _ in range(opts.max_iter):
            u, t, h_trial, gt, xi = first_order_step(reg, x, hx, gx, sigma, box)
            n_prox += 1
            crit = math.sqrt(sigma * xi)
            if tol is None:
                tol = opts.abs_tol + opts.rel_tol * crit
            if crit <= tol:
                status = CONVERGED
                break
            if model:
                c = smooth.curvature(t)
                f_trial = fx + gt + 0.5 * c
                rho = (xi - 0.5 * c) / xi
            else:
                f_trial = smooth.value(u)
                rho = ((fx + hx) - (f_trial + h_trial)) / xi
            diag.append({"sigma": sigma, "rho": rho, "xi": xi,
                         "s_norm2": math.sqrt(t @ t), "accepted": bool(rho >= ETA1)})
            if rho >= ETA1:
                gx = smooth.grad_after(gx, t) if model else smooth.grad(u)
                x, fx, hx = u, f_trial, h_trial
                trace.append((smooth.n_grad, fx + hx))
                if rho >= ETA2:
                    sigma = max(SIGMA_MIN, GAMMA_DEC * sigma)
            else:
                sigma = GAMMA_INC * sigma
    except BudgetExhausted:
        status = MAX_ITER

    return make_report(solver_name, smooth, reg, x, fx, hx, crit, n_prox, t0, status, trace,
                       {"iters": diag})
