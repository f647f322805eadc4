"""Correctness checks computed apart from the solver stack.

Every quantity here is recomputed from the instance data with the
benchmark's own code: the smooth objective, the regularizer, the bpdn
optimum (scipy's L-BFGS-B on the equivalent smooth problem) and the fh
finite differences (from a separate RK4 integration of the model).  None of
them calls an oracle, a prox or a solver of the program, so the checks
neither share a fault with it nor move its counters.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.optimize

from ripm.problems import FH_STATE0

# |reported - recomputed| allowed on f and h/lam, relative to max(1, |value|).
# Recomputation sums in another order than the program, which moves the
# last few digits; a result off by 1e-6 relative must still be rejected.
VALUE_RTOL = 1e-9
# The last trace entry is f + h at the returned x, recorded by the solver.
TRACE_RTOL = 1e-12
# A bpdn solve that reports `converged` must be this close, relative, to the
# L-BFGS-B optimum.  The worst converged solve on the default seeds is
# RIPMDH on seed 0 at 2.4e-3 above the optimum.
BPDN_RTOL = 5e-3
# fh: the two solves agree on F to this relative tolerance.
FH_AGREE_RTOL = 1e-8
# fh: central differences of f at the returned x vanish on the free support
# within this absolute tolerance, and at the active bound x2 = 0.5 they are
# no smaller than -FH_GRAD_TOL.  The converged solves reach 9e-5 on x3; the
# differences are 7 to 233 in absolute value at x0.  FH_FD_STEP is the
# relative step.
FH_GRAD_TOL = 1e-3
FH_FD_STEP = 1e-5
FH_BOUND_INDEX = 1


# ---------------------------------------------------------------------------
# objectives from the instance data


def qp_f(H, c, x) -> float:
    """c.x + x.Hx / 2, summed entry by entry over the nonzeros of H."""
    Hc = H.tocoo()
    quad = float(np.sum(Hc.data * x[Hc.row] * x[Hc.col]))
    return math.fsum(c * x) + 0.5 * quad


def bpdn_f(A, b, x) -> float:
    """||Ax - b||^2 / 2."""
    r = np.einsum("ij,j->i", A, x) - b
    return 0.5 * math.fsum(r * r)


def fh_f(oracle, x) -> float:
    """Least-squares misfit of the two-state model, integrated by own RK4.

    The grid, start state and data come from the instance; the right-hand
    side V' = (V - V^3/3 - W + x1)/x2, W' = x2 (x3 V - x4 W + x5) is written
    out here.  A state that leaves |v| < 1e8 gives +inf.
    """
    x1, x2, x3, x4, x5 = (float(v) for v in x)

    def rhs(v, w):
        return (v - v ** 3 / 3.0 - w + x1) / x2, x2 * (x3 * v - x4 * w + x5)

    v, w = FH_STATE0
    dt, stride = oracle.dt, oracle.stride
    misfit = [(v - oracle.v_data[0]) ** 2, (w - oracle.w_data[0]) ** 2]
    for step in range(1, oracle.n_steps + 1):
        a1, b1 = rhs(v, w)
        a2, b2 = rhs(v + dt / 2 * a1, w + dt / 2 * b1)
        a3, b3 = rhs(v + dt / 2 * a2, w + dt / 2 * b2)
        a4, b4 = rhs(v + dt * a3, w + dt * b3)
        v += dt * (a1 + 2 * a2 + 2 * a3 + a4) / 6
        w += dt * (b1 + 2 * b2 + 2 * b3 + b4) / 6
        if not (abs(v) < 1e8 and abs(w) < 1e8):
            return math.inf
        if step % stride == 0:
            k = step // stride
            misfit += [(v - oracle.v_data[k]) ** 2, (w - oracle.w_data[k]) ** 2]
    return 0.5 * math.fsum(misfit)


def smooth_f(instance, x) -> float:
    s = instance.smooth
    if instance.name == "qp":
        return qp_f(s.H, s.c, x)
    if instance.name == "bpdn":
        return bpdn_f(s.A, s.b, x)
    if instance.name == "fh":
        return fh_f(s, x)
    raise ValueError(f"no independent objective for {instance.name!r}")


def h_over_lam(instance, x) -> float:
    """sum |x_i| for l1, the count of nonzeros for l0 (unit weights)."""
    h = instance.h
    if h.weights is not None:
        raise ValueError("weighted regularizers are not benchmarked")
    if h.kind == "l1":
        return math.fsum(np.abs(x))
    if h.kind == "l0":
        return float(np.count_nonzero(x))
    raise ValueError(f"unsupported regularizer {h.kind!r}")


def objective(instance, x) -> float:
    """F(x) = f(x) + lam * h(x)/lam, both recomputed."""
    return smooth_f(instance, x) + instance.h.lam * h_over_lam(instance, x)


# ---------------------------------------------------------------------------
# references computed before timing


def bpdn_reference(instance) -> float:
    """min ||Ax - b||^2/2 + lam * sum(x) over x >= 0, by L-BFGS-B.

    On x >= 0, lam * ||x||_1 equals lam * sum(x), so the problem is smooth
    and bound-constrained.
    """
    A, b, lam = instance.smooth.A, instance.smooth.b, instance.h.lam

    def fun(x):
        r = A @ x - b
        return 0.5 * float(r @ r) + lam * float(x.sum()), A.T @ r + lam

    n = A.shape[1]
    res = scipy.optimize.minimize(
        fun, np.zeros(n), jac=True, method="L-BFGS-B", bounds=[(0.0, None)] * n,
        options={"maxiter": 20_000, "maxcor": 30, "ftol": 1e-15, "gtol": 1e-12})
    return objective(instance, res.x)


def fh_central_differences(instance, x, step: float = FH_FD_STEP) -> np.ndarray:
    """Central differences of the recomputed f; the value only, no gradient."""
    x = np.asarray(x, dtype=float)
    g = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = step * max(1.0, abs(x[i]))
        g[i] = (fh_f(instance.smooth, x + e) - fh_f(instance.smooth, x - e)) / (2 * e[i])
    return g


# ---------------------------------------------------------------------------
# checks; each returns a list of failure messages, empty when the check holds


def _close(a: float, b: float, rtol: float) -> bool:
    return bool(np.isfinite(a) and np.isfinite(b) and abs(a - b) <= rtol * max(1.0, abs(b)))


def check_solve(instance, report, budget: int, F0: float, reference: float | None = None):
    """Checks that hold for every solve; `F0` is the recomputed F(x0).

    `reference` is the independent optimum, for convex families; it is
    checked only when the solve reports `converged`.
    """
    fails = []
    if report.error is not None:
        return [f"solver raised: {report.error}"]
    x = np.asarray(report.x, dtype=float)
    lo, hi = instance.bounds.lo, instance.bounds.hi
    if x.shape != instance.x0.shape or not np.all(np.isfinite(x)):
        return [f"x has shape {x.shape} or non-finite entries"]
    if not (np.all(x >= lo) and np.all(x <= hi)):
        fails.append("x outside the bounds")
    f_own = smooth_f(instance, x)
    if not _close(report.f, f_own, VALUE_RTOL):
        fails.append(f"reported f {report.f!r} != recomputed {f_own!r}")
    h_own = h_over_lam(instance, x)
    if not _close(report.h_over_lam, h_own, VALUE_RTOL):
        fails.append(f"reported h/lam {report.h_over_lam!r} != recomputed {h_own!r}")
    F = f_own + instance.h.lam * h_own
    if not F <= F0:
        fails.append(f"F(x) {F!r} above F(x0) {F0!r}")
    if report.n_f > budget:
        fails.append(f"n_f {report.n_f} above the budget {budget}")
    if not report.trace or not _close(report.trace[-1][1], report.objective, TRACE_RTOL):
        last = report.trace[-1][1] if report.trace else None
        fails.append(f"last trace value {last!r} != reported objective {report.objective!r}")
    if reference is not None and report.termination == "converged":
        if not abs(F - reference) <= BPDN_RTOL * abs(reference):
            fails.append(f"converged at F {F!r}, reference optimum {reference!r}")
    return fails


def check_fh_solution(instance, x):
    """First-order conditions at x from finite differences of f alone.

    l0 makes every zero component locally optimal, so only nonzero entries
    are tested; the bounded x2 is a free entry unless it sits on 0.5.
    """
    fails = []
    x = np.asarray(x, dtype=float)
    g = fh_central_differences(instance, x)
    lo = instance.bounds.lo[FH_BOUND_INDEX]
    for i in np.flatnonzero(x):
        if i == FH_BOUND_INDEX and x[i] == lo:
            if g[i] < -FH_GRAD_TOL:
                fails.append(f"df/dx{i + 1} = {g[i]:.3g} < 0 at the active bound")
        elif abs(g[i]) > FH_GRAD_TOL:
            fails.append(f"df/dx{i + 1} = {g[i]:.3g} on the free support")
    return fails


def check_agreement(objectives):
    """The fh solves converge to one optimum, so their F must agree."""
    F = np.asarray(objectives, dtype=float)
    if F.size < 2 or _close(F.min(), F.max(), FH_AGREE_RTOL):
        return []
    return [f"solves disagree on F: {F.min()!r} vs {F.max()!r}"]
