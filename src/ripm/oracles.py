"""Smooth-oracle protocol: counted f / grad-f evaluations with a budget.

A solver takes the gradient at the point it has just valued, so an oracle
whose value and gradient share work (a product with the data, a residual,
an ODE trajectory) forms that work once per point.  The contract, in
`SmoothOracle._shared`: the work of the last point is kept with a copy of
that point, and a value or a gradient at an equal point reuses it: one of
the same shape with ``(a == b).all()``, what `np.array_equal` tests.  The
key is the contents of x, not the array: an equal point in another array
reuses the work, and an array modified in place since does not.  A value
refused by the budget computes nothing and leaves the kept point as it
was, and `fresh` keeps nothing.  The work is the same function
of x whether or not it was kept, so every result is the same bit for bit.
`fresh` makes the view `bench.run_solver` hands a solve, which also holds
the solve's ``trace``; `SmoothOracle.mark` writes its every row.

A quadratic model (`QuadModelOracle`) is never valued at a point: it moves
a gradient that its caller holds along steps, in closed form.

An infinite budget, the default, means unlimited.  A solver asks
`evals_left` before it builds a point it would evaluate, so that it builds
none the budget would refuse.  No solver or harness code in `ripm` catches
the refusal, `BudgetExhausted`, by name: a refused value fails the solve,
which `bench.run_solver` reports as ORACLE_FAILURE with an error that names
it.  `held_back` keeps one evaluation of the budget back
while a block runs, for a point to be valued after it.
"""
from __future__ import annotations

import contextlib
import copy
import math

import numpy as np

from .errors import BudgetExhausted


class SmoothOracle:
    """Base class for smooth objectives.

    Subclasses implement ``_value`` and ``_grad``.  Evaluation counters and
    the trace live on the oracle; a solve owns exactly one, so they are per-run.
    ``budget`` caps the number of objective evaluations (inf = unlimited).
    ``_value`` returns a float and ``_grad`` a float array of the size of x.
    A subclass whose value and gradient share work implements ``_work(x)``
    and reads it through ``_shared(x)`` (see the module docstring); the kept
    work is read only, never modified or returned.
    """

    def __init__(self):
        self.n_f = 0
        self.n_grad = 0
        self.budget: float = math.inf
        self.trace: list = []
        self._cache = None  # (copy of the last point, its `_work`)

    def value(self, x: np.ndarray) -> float:
        if self.n_f >= self.budget:
            raise BudgetExhausted(f"objective budget {self.budget} spent")
        self.n_f += 1
        return self._value(x)

    def grad(self, x: np.ndarray) -> np.ndarray:
        self.n_grad += 1
        return self._grad(x)

    def mark(self, F: float) -> None:
        """Append the trace row (n_grad so far, F), F = f + h at the solve's point."""
        self.trace.append((self.n_grad, F))

    def evals_left(self) -> float:
        """Objective evaluations the budget still allows (inf without a budget)."""
        return max(self.budget - self.n_f, 0)

    @contextlib.contextmanager
    def held_back(self):
        """Keep one evaluation of the budget back while the block runs."""
        self.budget -= 1
        try:
            yield
        finally:
            self.budget += 1

    def fresh(self) -> "SmoothOracle":
        """Copy sharing problem data, with zeroed counters and trace, no budget, no kept work."""
        other = copy.copy(self)
        SmoothOracle.__init__(other)  # the per-run state; a subclass's own stays shared
        return other

    def _shared(self, x):
        """``_work(x)``, kept for the last point and reused at an equal one."""
        cache = self._cache
        if cache is not None and cache[0].shape == x.shape and (cache[0] == x).all():
            return cache[1]
        work = self._work(x)
        self._cache = (np.array(x, dtype=float), work)
        return work

    def _value(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def _grad(self, x):  # pragma: no cover - abstract
        raise NotImplementedError


class QuadModelOracle(SmoothOracle):
    """Steps of the quadratic model with Hessian B + diag(theta), in closed form.

    ``qn`` is an LSR1 operator, B = I + W^T diag(signs) W, and
    ``theta`` the extra diagonal of a barrier, zero without one.  The model
    is never valued at a point: the caller of the R2 subsolve starts
    `r2.r2_solve` at f = 0 with the model gradient that it holds there.  Its
    counters, never merged into the true objective's, count trials and
    accepted steps.

    Along a step t the model changes by grad m . t + c / 2, where `curvature`
    returns c = t.(B + theta) t together with the products it took,
    signs * (W t) and (1 + theta) t; `grad_after` forms grad m(x + t) =
    grad m(x) + (B + theta) t from those products, so a caller hands it the
    products of the step it accepts.  The operator must not be updated while
    the model is in use.
    """

    def __init__(self, qn, theta):
        super().__init__()
        self.W, self.signs = qn.factors()
        self._diag = 1.0 + theta

    def curvature(self, t):
        """t.(B + theta) t and its products (signs * (W t), (1 + theta) t); one model value."""
        self.n_f += 1
        wt = self.W.dot(t)
        swt = wt * self.signs
        dt = self._diag * t
        return float(t.dot(dt)) + float(swt.dot(wt)), (swt, dt)

    def grad_after(self, gm, products) -> np.ndarray:
        """grad m(x + t) from gm = grad m(x) and the `curvature` products of t."""
        self.n_grad += 1
        swt, dt = products
        out = swt.dot(self.W)
        out += dt
        out += gm
        return out
