"""Solve reports shared by every solver."""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

CONVERGED = "converged"
MAX_ITER = "max_iter"
UNBOUNDED = "unbounded"
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

    @property
    def h_value(self) -> float:
        return self.h_over_lam * self.lam if self.lam else 0.0

    @property
    def objective(self) -> float:
        """f + h at the final point (h recovered from the h/lam column)."""
        return self.f + self.h_value

    def to_dict(self) -> dict:
        return {
            "solver": self.solver,
            "final_f": self.f,
            "final_h_over_lambda": self.h_over_lam,
            "final_criticality": self.criticality,
            "dist_to_xstar": self.dist_to_xstar,
            "n_f": self.n_f,
            "n_grad": self.n_grad,
            "n_prox": self.n_prox,
            "wall_time_s": self.wall_time_s,
            "termination": self.termination,
            "lam": self.lam,
            "trace": [[int(g), float(v)] for g, v in self.trace],
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SolverReport":
        return cls(
            solver=d["solver"],
            x=np.empty(0),
            f=d["final_f"],
            h_over_lam=d["final_h_over_lambda"],
            criticality=d["final_criticality"],
            n_f=d["n_f"],
            n_grad=d["n_grad"],
            n_prox=d["n_prox"],
            wall_time_s=d["wall_time_s"],
            termination=d["termination"],
            trace=[(g, v) for g, v in d.get("trace", [])],
            dist_to_xstar=d.get("dist_to_xstar"),
            error=d.get("error"),
            lam=d.get("lam", 0.0),
        )


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
    """
    lam = getattr(h, "lam", 0.0)
    return SolverReport(
        solver=solver, x=x, f=fx, h_over_lam=(hx / lam) if lam else 0.0,
        criticality=float(crit), n_f=smooth.n_f, n_grad=smooth.n_grad, n_prox=n_prox,
        wall_time_s=time.perf_counter() - t0, termination=status, trace=trace, z=z,
        diagnostics=diagnostics, lam=lam)
