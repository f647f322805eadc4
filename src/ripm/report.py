"""Solve reports shared by every solver.

A report's termination says which limit stopped the run: CONVERGED (the
tolerance), BUDGET (the objective-evaluation budget), MAX_ITER (the
iteration cap, or the stage cap of the barrier loop), STALLED (the trust
radius collapsed to the rounding of x) or ORACLE_FAILURE.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

CONVERGED = "converged"
BUDGET = "budget"
MAX_ITER = "iter_cap"
STALLED = "stalled"
ORACLE_FAILURE = "oracle_failure"


@dataclass
class SolverReport:
    solver: str
    x: np.ndarray
    f: float
    h_over_lam: float
    criticality: float
    n_f: int
    n_grad: int
    n_prox: int
    wall_time_s: float
    termination: str
    trace: list = field(default_factory=list)  # (n_grad_so_far, f + h) pairs
    dist_to_xstar: float | None = None
    z: object | None = None
    diagnostics: dict | None = None
    error: str | None = None
    lam: float = 0.0
    certificate: float = np.nan  # r̄ at x (see `bench.certificate`), NaN if not formed

    # the fields `to_dict` saves to reports.json, under their own names
    SAVED = ("solver", "f", "h_over_lam", "criticality", "certificate", "dist_to_xstar", "n_f",
             "n_grad", "n_prox", "wall_time_s", "termination", "lam", "trace", "error")

    @property
    def objective(self) -> float:
        """f + h at the final point (h recovered from the h/lam column; f when lam = 0)."""
        return self.f + (self.h_over_lam * self.lam if self.lam else 0.0)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.SAVED}

    @classmethod
    def from_dict(cls, d: dict) -> "SolverReport":
        """Report of saved fields ``d``; x is empty, since it is not saved.

        A file saved before the certificate was reported reads it as NaN.
        """
        saved = {name: d[name] for name in cls.SAVED if name != "certificate"}
        return cls(x=np.empty(0), certificate=d.get("certificate", np.nan), **saved)


def evaluate_start(smooth, h, x, trace: list):
    """f(x), h(x) and grad f(x) at the start of a solve, logged as its first trace point."""
    fx = smooth.value(x)
    hx = h.value(x)
    gx = smooth.grad(x)
    trace.append((smooth.n_grad, fx + hx))
    return fx, hx, gx


def make_report(solver, smooth, h, x, fx, hx, crit, n_prox, t0, status, trace, diagnostics,
                z=None) -> SolverReport:
    """Report of a finished solve started at perf_counter() time ``t0``.

    The criticality is reported as measured: inf when the solve stopped
    before measuring it, NaN when the measure itself was not a number.
    h/lam is NaN when lam = 0, where the ratio is undefined.
    """
    lam = h.lam
    return SolverReport(
        solver=solver, x=x, f=fx, h_over_lam=(hx / lam) if lam else np.nan,
        criticality=float(crit), n_f=smooth.n_f, n_grad=smooth.n_grad, n_prox=n_prox,
        wall_time_s=time.perf_counter() - t0, termination=status, trace=trace, z=z,
        diagnostics=diagnostics, lam=lam)
