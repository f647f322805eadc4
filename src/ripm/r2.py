"""Quadratic-regularization proximal method (R2).

Used standalone as a baseline and as the subproblem solver inside the
trust-region and barrier methods.  Each iteration takes one proximal step

    s = argmin_{x + s in box}  sigma (s - q)^2 / 2 + h(x + s),   q = -grad/sigma,

accepts it by a ratio test against the first-order model decrease

    xi = h(x) - grad.s - h(x + s)  >=  sigma ||s||^2 / 2,

and adapts sigma.  The criticality measure is sqrt(sigma * xi), the
sqrt(xi / nu) form with nu = 1 / sigma.

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

    ``reg`` needs ``value`` and ``prox_shifted``; a plain Regularizer handles
    bounds through the box argument, a ShiftedRegularizer makes the same loop
    solve trust-region models in the step variable.
    """
    opts = opts or R2Options()
    t0 = time.perf_counter()
    x = box.clamp(np.asarray(x0, dtype=float))
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
        step_box = box.shifted(x)  # the steps from x; rewritten in place as x moves
        for _ in range(opts.max_iter):
            s = reg.prox_shifted(sigma, -gx / sigma, x, step_box)
            n_prox += 1
            xi = hx - float(gx @ s) - reg.value(x + s)
            xi = max(xi, 0.0)
            crit = float(np.sqrt(sigma * xi))
            if tol is None:
                tol = opts.abs_tol + opts.rel_tol * crit
            if crit <= tol:
                status = CONVERGED
                break
            x_trial = box.clamp(x + s)
            f_trial = smooth.value(x_trial)
            h_trial = reg.value(x_trial)
            rho = ((fx + hx) - (f_trial + h_trial)) / xi
            diag.append({"sigma": sigma, "rho": rho, "xi": xi,
                         "s_norm2": float(np.linalg.norm(s)), "accepted": bool(rho >= ETA1)})
            if rho >= ETA1:
                x, fx, hx = x_trial, f_trial, h_trial
                np.subtract(box.lo, x, out=step_box.lo)
                np.subtract(box.hi, x, out=step_box.hi)
                gx = smooth.grad(x)
                trace.append((smooth.n_grad, fx + hx))
                if rho >= ETA2:
                    sigma = max(SIGMA_MIN, GAMMA_DEC * sigma)
            else:
                sigma = GAMMA_INC * sigma
    except BudgetExhausted:
        status = MAX_ITER

    return make_report(solver_name, smooth, reg, x, fx, hx, crit, n_prox, t0, status, trace,
                       {"iters": diag})
