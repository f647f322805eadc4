import numpy as np
import pytest

from ripm.oracles import CallableOracle, QuadModelOracle
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


def _counted_product(M):
    calls = []

    def apply(s):
        calls.append(s)
        return M @ s
    return apply, calls


def _model_data():
    rng = np.random.default_rng(12)
    n = 5
    M = rng.standard_normal((n, n))
    return rng.standard_normal(n), M + M.T, rng.standard_normal(n)


@pytest.mark.parametrize("theta", [None, np.array([0.5, 1.0, 2.0, 0.25, 3.0])])
def test_model_value_then_grad_makes_one_product(theta):
    g, M, s = _model_data()
    apply, calls = _counted_product(M)
    model = QuadModelOracle(g, apply, theta)
    val = model.value(s)
    grad = model.grad(s)
    assert len(calls) == 1
    assert val == QuadModelOracle(g, lambda v: M @ v, theta).value(s)
    assert np.array_equal(grad, QuadModelOracle(g, lambda v: M @ v, theta).grad(s))
    # the reused product includes theta * s
    bs = M @ s if theta is None else M @ s + theta * s
    assert np.array_equal(grad, g + bs)


def test_model_grad_at_an_equal_but_distinct_array_recomputes():
    g, M, s = _model_data()
    apply, calls = _counted_product(M)
    model = QuadModelOracle(g, apply)
    model.value(s)
    grad = model.grad(s.copy())
    assert len(calls) == 2
    assert np.array_equal(grad, QuadModelOracle(g, lambda v: M @ v).grad(s))


def test_r2_builds_one_step_box_and_leaves_the_callers_box(monkeypatch):
    shifted = Box.shifted
    calls = []

    def counted(self, x):
        calls.append(x)
        return shifted(self, x)
    monkeypatch.setattr(Box, "shifted", counted)
    n = 6
    c = np.random.default_rng(13).standard_normal(n)
    d = np.linspace(0.2, 5.0, n)
    oracle = CallableOracle(lambda x: 0.5 * float(d @ (x - c) ** 2), lambda x: d * (x - c))
    bounds = Box(np.full(n, -0.5), np.full(n, 0.5))
    lo, hi = bounds.lo.copy(), bounds.hi.copy()
    for k in (1, 2):
        rep = r2_solve(oracle, Regularizer("l1", 0.1), bounds, np.zeros(n),
                       R2Options(abs_tol=1e-8, rel_tol=0.0))
        assert sum(r["accepted"] for r in rep.diagnostics["iters"]) > 3
        assert len(calls) == k
        assert np.array_equal(bounds.lo, lo) and np.array_equal(bounds.hi, hi)
