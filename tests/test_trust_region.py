import numpy as np
import pytest

from ripm.oracles import CallableOracle
from ripm.qnops import LBFGS, LSR1
from ripm.regprox import Box, Regularizer
from ripm.report import CONVERGED
from ripm.trust_region import TrustRegionOptions, tr_solve, trdh_solve, update_radius

from helpers import grid_min_1d


def _quad_shift(center):
    c = np.asarray(center, dtype=float)
    return CallableOracle(lambda x: 0.5 * float(np.sum((x - c) ** 2)), lambda x: x - c)


def _tight():
    return TrustRegionOptions(abs_tol=1e-8, rel_tol=0.0)


def test_options_validate_ordering():
    with pytest.raises(ValueError):
        TrustRegionOptions(gamma3=0.5)
    with pytest.raises(ValueError):
        TrustRegionOptions(eta1=0.95, eta2=0.5)


def test_tr_interior_minimum():
    n = 4
    bounds = Box(np.zeros(n), np.full(n, np.inf))
    rep = tr_solve(_quad_shift(np.ones(n)), Regularizer("zero"), bounds,
                   LBFGS(n), 0.5 * np.ones(n), _tight())
    assert rep.termination == CONVERGED
    assert np.allclose(rep.x, 1.0, atol=1e-6)


def test_tr_active_bounds():
    n = 3
    bounds = Box(np.zeros(n), np.full(n, np.inf))
    rep = tr_solve(_quad_shift(-np.ones(n)), Regularizer("zero"), bounds,
                   LBFGS(n), np.ones(n), _tight())
    assert np.allclose(rep.x, 0.0, atol=1e-9)


def test_tr_l1_unbounded_domain():
    rep = tr_solve(_quad_shift([2.0]), Regularizer("l1", 1.0), Box.full(1),
                   LSR1(1), np.array([0.0]), _tight())
    xg, _ = grid_min_1d(lambda t: 0.5 * (t - 2.0) ** 2 + abs(t), -4, 4)
    assert rep.x[0] == pytest.approx(1.0, abs=1e-6)
    assert rep.x[0] == pytest.approx(xg, abs=2e-3)


def test_trdh_interior_minimum():
    n = 4
    bounds = Box(np.zeros(n), np.full(n, np.inf))
    rep = trdh_solve(_quad_shift(np.ones(n)), Regularizer("zero"), bounds,
                     0.5 * np.ones(n), _tight())
    assert rep.termination == CONVERGED
    assert np.allclose(rep.x, 1.0, atol=1e-6)


def test_trdh_l1_matches_grid():
    rep = trdh_solve(_quad_shift([2.0]), Regularizer("l1", 1.0), Box.full(1),
                     np.array([0.0]), _tight())
    assert rep.x[0] == pytest.approx(1.0, abs=1e-6)


def test_trdh_separable_quadratic_soft_threshold_step():
    # with a separable objective the accepted TRDH step is the componentwise
    # soft threshold of the scaled gradient step, clamped into the step box
    n = 3
    c = np.array([2.0, -1.5, 0.5])
    rep = trdh_solve(_quad_shift(c), Regularizer("l1", 0.3), Box.full(n),
                     np.zeros(n), _tight())
    xg = np.sign(c) * np.maximum(np.abs(c) - 0.3, 0.0)
    assert np.allclose(rep.x, xg, atol=1e-6)


def test_trdh_two_prox_per_iteration():
    rep = trdh_solve(_quad_shift([3.0]), Regularizer("l1", 0.5), Box.full(1),
                     np.array([0.1]), _tight())
    stepped = len(rep.diagnostics["iters"])
    if rep.termination == CONVERGED:
        assert rep.n_prox == 2 * stepped + 1
    else:
        assert rep.n_prox == 2 * stepped


def test_radius_schedule_conformance():
    o = TrustRegionOptions(abs_tol=1e-6, rel_tol=0.0)
    oracle = CallableOracle(lambda x: float(np.sum(np.cosh(x))),
                            lambda x: np.sinh(x))
    rep = tr_solve(oracle, Regularizer("l1", 0.1), Box(-5.0, 5.0), LBFGS(1),
                   np.array([2.0]), o)
    iters = rep.diagnostics["iters"]
    assert iters, "expected at least one stepped iteration"
    assert any(it["rho"] >= o.eta2 for it in iters)
    for it in iters:
        db, da, rho = it["delta_before"], it["delta_after"], it["rho"]
        if rho >= o.eta2:
            assert da == min(o.gamma3 * db, o.delta_max)
        elif rho >= o.eta1:
            assert da == min(db, o.delta_max)
        else:
            assert da == max(o.gamma2 * db, 1e-30)
    # the schedule itself, at its caps
    assert update_radius(0.75 * o.delta_max, 1.0, o) == o.delta_max
    assert update_radius(2 * o.delta_max, 0.5, o) == o.delta_max
    assert update_radius(1e-30, -np.inf, o) == 1e-30


def test_step_cap_and_criticality_lower_bound():
    oracle = CallableOracle(lambda x: float(np.sum(np.cosh(x))),
                            lambda x: np.sinh(x))
    o = TrustRegionOptions(abs_tol=1e-6, rel_tol=0.0)
    rep = tr_solve(oracle, Regularizer("l1", 0.1), Box(-5.0, 5.0), LBFGS(1),
                   np.array([2.0]), o)
    for it in rep.diagnostics["iters"]:
        assert it["s_inf"] <= it["cap_inf"] + 1e-12
        assert it["cap_inf"] <= min(it["delta_before"], o.beta * it["s1_norm2"]) + 1e-12
        assert it["xi"] + 1e-10 * max(1.0, it["xi"]) >= 0.5 / it["nu"] * it["s1_norm2"] ** 2


def test_unsuccessful_iterations_do_not_move_x():
    # oscillatory objective: the quadratic model overshoots and gets rejected
    oracle = CallableOracle(lambda x: 0.5 * float(x @ x) + 2.0 * float(np.sum(np.sin(5 * x))),
                            lambda x: x + 10.0 * np.cos(5 * x))
    rep = trdh_solve(oracle, Regularizer("zero"), Box(-6.0, 6.0), np.array([2.0]),
                     TrustRegionOptions(abs_tol=1e-6, rel_tol=0.0))
    iters = rep.diagnostics["iters"]
    assert any(not it["accepted"] for it in iters)
    # gradients are evaluated only when x moves: one per accepted step plus x0
    assert len(rep.trace) == 1 + sum(1 for it in iters if it["accepted"])
    assert rep.termination == CONVERGED
