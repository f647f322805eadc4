"""What a solve returns and what a run reports, and their per-iteration records.

A solver starts from x with f(x), h(x) and grad f(x), which `evaluate_start`
forms, and returns a `SolveResult`.  `bench.run_solver` alone builds a
`SolverReport`, from that result; the R2 subsolve of the trust-region loop
is a solve that nobody reports.

A termination says which limit stopped the run: CONVERGED (the
tolerance), BUDGET (the objective-evaluation budget), MAX_ITER (the
iteration cap, or the stage cap of the barrier loop), STALLED (the trust
radius collapsed to the rounding of x) or ORACLE_FAILURE.

A solve keeps one record per iteration in an `IterLog`, a column store of
one schema: `TR_RECORD` for the trust-region loop, alone or in the barrier
stages, and `R2_RECORD` for R2.  A barrier solve makes thousands of inner
iterations: a dict per record would take about 800 bytes, and a row of
`TR_RECORD` takes about 140 in its columns.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

CONVERGED = "converged"
BUDGET = "budget"
MAX_ITER = "iter_cap"
STALLED = "stalled"
ORACLE_FAILURE = "oracle_failure"

# A schema pairs each key of a record with its type: float, int, bool, or a
# tuple of the values a flag takes.  The fields an iteration knows before it
# tries a step come first, then those of its outcome.
TR_RECORD = (
    ("j", int),  # iteration index
    ("mu", float),  # barrier parameter, 0 without barrier
    # step length of the measure, 1 / sigma with sigma = ||B|| + max Theta + 1/(alpha Delta)
    ("nu", float),
    ("delta_before", float),  # radius at the start of the iteration
    ("xi", float),  # model decrease of the Cauchy step s1 = u1 - x
    ("s1_norm2", float),  # Euclidean norm of s1
    # the same for the step that defines the measure: s1 itself, or the
    # step along the Lagrangian gradient grad f - zl + zu
    ("xi_meas", float),
    ("s_meas_norm2", float),
    ("crit", float),  # the measure sqrt(sigma * xi_meas)
    ("compl", float),  # complementarity residual, 0 without barrier
    ("obj_before", float),  # f + phi + h at x
    ("rho", float),  # actual over model decrease; NaN if no trial, 0 on a zero step
    ("accepted", bool),
    ("exit", (None, "tol")),  # "tol" on the iteration that stops at the tolerance
    ("delta_after", float),  # radius after the iteration
    ("obj_after", float),  # f + phi + h at an accepted trial, else NaN
    ("s_inf", float),  # ||s||_inf of the model step, 0 if none was tried
    ("cap_inf", float),  # the step cap min(Delta, beta ||s1||_inf), NaN if none
)
# R2's record: sigma, the ratio, the model decrease xi of the trial and whether it was taken
R2_RECORD = (("sigma", float), ("rho", float), ("xi", float), ("accepted", bool))

_TYPECODE = {float: "d", int: "q", bool: "b"}


class IterLog:
    """Per-iteration records of one schema, kept by column.

    Floats are kept in ``array("d")``, ints and bools in integer arrays, and
    a flag as the index of its value in the schema.  `append` takes a row's
    values in schema order.  A row read by index, negative too, or by
    iteration is a dict of the schema's keys and Python values, with the
    bits that were appended.
    """

    def __init__(self, schema):
        self.keys = tuple(key for key, _ in schema)
        self._cols = []
        self._adds = []  # per column, what stores a value
        self._reads = []  # per column, what turns a stored value back into the field
        for _, kind in schema:
            col = array(_TYPECODE.get(kind, "b"))
            self._cols.append(col)
            if isinstance(kind, tuple):
                self._adds.append(lambda v, add=col.append, index=kind.index: add(index(v)))
                self._reads.append(kind.__getitem__)
            else:
                self._adds.append(col.append)
                self._reads.append(kind)

    def append(self, *row) -> None:
        if len(row) != len(self._adds):
            raise ValueError(f"a row has {len(self._adds)} values, not {len(row)}")
        for add, value in zip(self._adds, row):
            add(value)

    def __len__(self) -> int:
        return len(self._cols[0])

    def __getitem__(self, i: int) -> dict:
        return {key: read(col[i]) for key, read, col in zip(self.keys, self._reads, self._cols)}

    def __iter__(self):
        keys, reads = self.keys, self._reads
        for row in zip(*self._cols):
            yield {key: read(v) for key, read, v in zip(keys, reads, row)}


@dataclass
class SolveResult:
    """What a solver returns: its final point x, f and h there, the last
    criticality measure (inf when it stopped before measuring), its prox
    count, its termination, its records, and the dual estimate z of RIPM."""

    x: np.ndarray
    f: float
    h: float
    crit: float
    n_prox: int
    termination: str
    diagnostics: dict
    z: object | None = None


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
