"""Quadratic-regularization proximal method (R2).

Used standalone as a baseline and as the subproblem solver inside the
trust-region and barrier methods.  Each iteration takes one proximal step
in the frame of the nonsmooth term: the trial point is

    u = argmin_{u in box}  sigma (u - q)^2 / 2 + h(u),   q = x - grad/sigma,

the plain prox of h over the fixed box, so that u is already feasible and
no step box follows x.  The step t = u - x is accepted by a ratio test
against the first-order model decrease

    xi = h(x) - grad.t - h(u)  >=  sigma ||t||^2 / 2,

and sigma adapts.  The criticality measure is sqrt(sigma * xi), the
sqrt(xi / nu) form with nu = 1 / sigma.

The trial follows the oracle.  A true objective is evaluated at u.  The
quadratic model of a trust-region step (`oracles.QuadModelOracle`) changes
by grad.t + c / 2 with c = t.(B + Theta)t in closed form from the
operator's factors, so rho = (xi - c / 2) / xi, and the model gradient is
updated by (B + Theta) t only when the trial is accepted.

The loop constants are those of R2 in Aravkin, Baraldi & Orban (2022):
SIGMA_INIT is sigma_0 and SIGMA_MIN is sigma_min; a step is successful when
rho >= ETA1 (eta_1) and very successful when rho >= ETA2 (eta_2); a very
successful step multiplies sigma by GAMMA_DEC, a failed one by GAMMA_INC (gamma).
"""
from __future__ import annotations

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
            q = np.divide(gx, -sigma)
            q += x
            u = reg.prox_shifted(sigma, q, 0.0, box)
            n_prox += 1
            t = u - x
            gt = float(gx @ t)
            h_trial = reg.value(u)
            xi = max(hx - gt - h_trial, 0.0)
            crit = float(np.sqrt(sigma * xi))
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
                         "s_norm2": float(np.linalg.norm(t)), "accepted": bool(rho >= ETA1)})
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
