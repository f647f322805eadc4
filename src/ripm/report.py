"""What a solve returns and what a run reports, and their per-iteration records.

A solver starts from x with f(x), h(x) and grad f(x), which `evaluate_start`
forms, and returns a `SolveResult`.  `bench.run_solver` alone builds a
`SolverReport`, from that result and the solve's two views: its oracle,
which counts f and grad f and holds the ``trace``, whose every row
`oracles.SmoothOracle.mark` writes, and its copy of h, on which the prox
kernel counts, so a solve that raises keeps its counts; r̄ at x0
(``certificate0``) is formed from the start gradient of `evaluate_start`.
The R2 subsolve of the trust-region loop is never reported.

A termination says which limit stopped the run: CONVERGED (the tolerance),
BUDGET (the objective-evaluation budget), MAX_ITER (the iteration cap, or the
stage cap of the barrier loop), STALLED or ORACLE_FAILURE.  STALLED means that
the trust radius collapsed to the rounding of x (TR and TRDH), or that the
next barrier stage would start below the radius x can resolve (RIPM).

A solve keeps one record per iteration in an `IterLog`, a flat store of
one schema: `TR_RECORD` for the trust-region loop, alone or in the barrier
stages, and `R2_RECORD` for R2.  A barrier solve makes thousands of inner
iterations: a dict per record would take about 800 bytes, and a row of
`TR_RECORD` takes 144, eight per field.  A report without records, of a
start the budget refuses, of a solve that raises or loaded from
reports.json, has ``diagnostics`` {}.
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


class IterLog:
    """Per-iteration records of one schema, in one flat ``array("d")``.

    A row's fields are kept in schema order, each as a float: a float field
    as itself, an int as itself (exact below 2**53), a bool as 0 or 1 and a
    flag as the index of its value in the schema.  `append` takes a row's
    values in schema order and stores the row whole or not at all: a row of
    the wrong length, with a flag value not in the schema or with a value
    that is not a number raises and leaves the store as it was.  A row read
    by index, negative too, or by iteration is a dict of the schema's keys
    and Python values, with the bits that were appended.
    """

    def __init__(self, schema):
        self.keys, kinds = zip(*schema)
        self._data = array("d")
        self._flags = [(i, kind.index) for i, kind in enumerate(kinds) if type(kind) is tuple]
        # per field, what turns a stored float back into the field
        self._reads = [(lambda v, values=kind: values[int(v)]) if type(kind) is tuple else kind
                       for kind in kinds]

    def append(self, *row) -> None:
        if len(row) != len(self.keys):
            raise ValueError(f"a row has {len(self.keys)} values, not {len(row)}")
        row = list(row)
        for i, index in self._flags:
            row[i] = index(row[i])
        self._data += array("d", row)  # raises before it stores: a row is stored whole or not

    def __len__(self) -> int:
        return len(self._data) // len(self.keys)

    def _row(self, values) -> dict:
        return {key: read(v) for key, read, v in zip(self.keys, self._reads, values)}

    def __getitem__(self, i: int) -> dict:
        i, width = range(len(self))[i], len(self.keys)  # IndexError past either end
        return self._row(self._data[i * width:(i + 1) * width])

    def __iter__(self):
        return map(self._row, zip(*[iter(self._data)] * len(self.keys)))  # a row per chunk


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
    diagnostics: dict = field(default_factory=dict)
    error: str | None = None
    lam: float = 0.0
    certificate: float = np.nan  # r̄ at x (see `bench.certificate`), NaN if not formed
    certificate0: float = np.nan  # r̄ at the clamped x0, from the start gradient
    # the keyword settings the solve ran with, as `bench.solver_options` gave them
    options: dict = field(default_factory=dict)

    # the fields `to_dict` saves to reports.json, under their own names
    SAVED = ("solver", "options", "f", "h_over_lam", "criticality", "certificate",
             "certificate0", "dist_to_xstar", "n_f", "n_grad", "n_prox", "wall_time_s",
             "termination", "lam", "trace", "error")

    @property
    def objective(self) -> float:
        """f + h at the final point (h recovered from the h/lam column; f when lam = 0)."""
        return self.f + (self.h_over_lam * self.lam if self.lam else 0.0)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.SAVED}

    @classmethod
    def from_dict(cls, d: dict) -> "SolverReport":
        """Report of saved fields ``d``, which holds every key of SAVED; x is
        empty, since it is not saved."""
        return cls(x=np.empty(0), **{name: d[name] for name in cls.SAVED})


def evaluate_start(smooth, h, x):
    """f(x), h(x) and grad f(x) at the start of a solve, the first point of ``smooth.trace``."""
    fx = smooth.value(x)
    hx = h.value(x)
    gx = smooth.grad(x)
    smooth.mark(fx + hx)
    return fx, hx, gx
