import numpy as np
import pytest

from ripm.oracles import CallableOracle
from ripm.r2 import R2Options, r2_solve
from ripm.regprox import Box, Regularizer
from ripm.report import CONVERGED, MAX_ITER

from helpers import grid_min_1d


def _quad(center):
    c = np.asarray(center, dtype=float)
    return CallableOracle(lambda x: 0.5 * float(np.sum((x - c) ** 2)), lambda x: x - c)


def test_unconstrained_quadratic():
    rep = r2_solve(_quad([0.0]), Regularizer("zero"), Box.full(1), np.array([4.0]),
                   R2Options(abs_tol=1e-8, rel_tol=0.0))
    assert rep.termination == CONVERGED
    assert abs(rep.x[0]) < 1e-6
    vals = [v for _, v in rep.trace]
    assert all(b < a + 1e-15 for a, b in zip(vals, vals[1:]))  # monotone decrease


def test_soft_threshold_fixed_point():
    # min 0.5 (x-2)^2 + |x| has its minimum at x = 1
    rep = r2_solve(_quad([2.0]), Regularizer("l1", 1.0), Box.full(1), np.array([0.0]),
                   R2Options(abs_tol=1e-10, rel_tol=0.0))
    assert rep.x[0] == pytest.approx(1.0, abs=1e-6)
    xg, _ = grid_min_1d(lambda t: 0.5 * (t - 2.0) ** 2 + abs(t), -5, 5)
    assert rep.x[0] == pytest.approx(xg, abs=2e-3)


def test_active_bound():
    rep = r2_solve(_quad([-1.0]), Regularizer("zero"), Box(np.zeros(1), np.full(1, np.inf)),
                   np.array([1.0]),
                   R2Options(abs_tol=1e-10, rel_tol=0.0))
    assert rep.x[0] == pytest.approx(0.0, abs=1e-12)
    assert rep.termination == CONVERGED


def test_iterates_stay_in_box_and_descend():
    rng = np.random.default_rng(0)
    n = 6
    c = rng.standard_normal(n)
    bounds = Box(np.full(n, -0.5), np.full(n, 0.5))
    oracle = _quad(c)
    rep = r2_solve(oracle, Regularizer("l1", 0.1), bounds, np.zeros(n),
                   R2Options(abs_tol=1e-8, rel_tol=0.0))
    assert np.all(bounds.lo <= rep.x) and np.all(rep.x <= bounds.hi)
    vals = [v for _, v in rep.trace]
    assert all(b < a + 1e-12 * max(1, abs(a)) for a, b in zip(vals, vals[1:]))


def test_prox_count_matches_iterations():
    rep = r2_solve(_quad([3.0]), Regularizer("l1", 0.5), Box.full(1), np.array([0.0]),
                   R2Options(abs_tol=1e-8, rel_tol=0.0))
    stepped = len(rep.diagnostics["iters"])
    if rep.termination == CONVERGED:
        assert rep.n_prox == stepped + 1  # final iteration only measures
    else:
        assert rep.n_prox == stepped


def _quartic():
    return CallableOracle(lambda x: 0.25 * float(np.sum(x**4)), lambda x: x**3)


def test_max_iter_is_soft():
    rep = r2_solve(_quartic(), Regularizer("zero"), Box.full(1), np.array([3.0]),
                   R2Options(max_iter=2, abs_tol=1e-12, rel_tol=0.0))
    assert rep.termination == MAX_ITER
    assert np.isfinite(rep.f)


def test_budget_enforced():
    oracle = _quartic()
    oracle.budget = 3
    rep = r2_solve(oracle, Regularizer("zero"), Box.full(1), np.array([3.0]),
                   R2Options(abs_tol=1e-12, rel_tol=0.0))
    assert rep.termination == MAX_ITER
    assert rep.n_f <= 3


def test_relative_tolerance_scaling():
    # rel_tol alone: stops once the measure dropped by the requested factor
    rep = r2_solve(_quad([2.0]), Regularizer("zero"), Box.full(1), np.array([0.0]),
                   R2Options(abs_tol=0.0, rel_tol=1e-3))
    assert rep.termination == CONVERGED
    assert abs(rep.x[0] - 2.0) < 1e-2
