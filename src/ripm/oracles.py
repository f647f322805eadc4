"""Smooth-oracle protocol: counted f / grad-f evaluations with a budget."""
from __future__ import annotations

import copy

import numpy as np

from .errors import BudgetExhausted


class SmoothOracle:
    """Base class for smooth objectives.

    Subclasses implement ``_value`` and ``_grad``.  Evaluation counters live
    on the oracle; a solve owns exactly one oracle, so counters are per-run.
    ``budget`` caps the number of objective evaluations (None = unlimited).
    ``_value`` returns a float and ``_grad`` a float array of the size of x.
    """

    def __init__(self):
        self.n_f = 0
        self.n_grad = 0
        self.budget: int | None = None

    def value(self, x: np.ndarray) -> float:
        if self.budget is not None and self.n_f >= self.budget:
            raise BudgetExhausted(f"objective budget {self.budget} spent")
        self.n_f += 1
        return self._value(x)

    def grad(self, x: np.ndarray) -> np.ndarray:
        self.n_grad += 1
        return self._grad(x)

    def fresh(self) -> "SmoothOracle":
        """Copy sharing problem data but with zeroed counters and no budget."""
        other = copy.copy(self)
        other.n_f = 0
        other.n_grad = 0
        other.budget = None
        return other

    def _value(self, x):  # pragma: no cover - abstract
        raise NotImplementedError

    def _grad(self, x):  # pragma: no cover - abstract
        raise NotImplementedError


class CallableOracle(SmoothOracle):
    """Wraps plain callables; handy for small analytic test problems."""

    def __init__(self, f, g):
        super().__init__()
        self._f = f
        self._g = g

    def _value(self, x):
        return float(self._f(x))

    def _grad(self, x):
        return np.asarray(self._g(x), dtype=float)


class QuadModelOracle(SmoothOracle):
    """Quadratic model g.s + s.(B s + theta * s)/2 used by subproblem solves.

    ``apply_curv`` maps s to B s; ``theta`` is an optional extra diagonal.
    Counters on this oracle are model evaluations and are never merged into
    the true objective counters.

    A value keeps its point, by reference, with the product B s + theta s, and
    a gradient at that same array object reuses the product.  The reuse is
    keyed on the array object, not on its contents: a gradient at any other
    array, even an equal one, forms the product afresh, and the valued array
    must not be modified before its gradient is taken.
    """

    def __init__(self, g, apply_curv, theta=None):
        super().__init__()
        self.g = g
        self.apply_curv = apply_curv
        self.theta = theta
        self._last = (None, None)  # the last valued point and its product

    def _curv(self, s):
        w = self.apply_curv(s)
        if self.theta is not None:
            w = w + self.theta * s
        return w

    def _value(self, s):
        w = self._curv(s)
        self._last = (s, w)
        return float(self.g @ s + 0.5 * (s @ w))

    def _grad(self, s):
        last, w = self._last
        return self.g + (w if s is last else self._curv(s))
