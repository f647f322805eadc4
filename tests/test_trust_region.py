import numpy as np
import pytest

from ripm import problems
from ripm import trust_region as tr
from ripm.interior import BarrierTerms, DualEstimate
from ripm.oracles import CallableOracle
from ripm.qnops import LBFGS, LSR1, SpectralDiag
from ripm.regprox import Box, Regularizer
from ripm.report import CONVERGED, evaluate_start
from ripm.trust_region import TrustRegionOptions, tr_solve, trdh_solve, update_radius

from helpers import grid_min_1d
from test_golden import BPDN_40x96


def _quad_shift(center):
    c = np.asarray(center, dtype=float)
    return CallableOracle(lambda x: 0.5 * float(np.sum((x - c) ** 2)), lambda x: x - c)


@pytest.fixture
def tight(monkeypatch):
    monkeypatch.setattr(tr, "ABS_TOL", 1e-8)
    return TrustRegionOptions(rel_tol=0.0)


def test_tr_interior_minimum(tight):
    n = 4
    bounds = Box(np.zeros(n), np.full(n, np.inf))
    rep = tr_solve(_quad_shift(np.ones(n)), Regularizer("zero"), bounds,
                   LBFGS(n), 0.5 * np.ones(n), tight)
    assert rep.termination == CONVERGED
    assert np.allclose(rep.x, 1.0, atol=1e-6)


def test_tr_active_bounds(tight):
    n = 3
    bounds = Box(np.zeros(n), np.full(n, np.inf))
    rep = tr_solve(_quad_shift(-np.ones(n)), Regularizer("zero"), bounds,
                   LBFGS(n), np.ones(n), tight)
    assert np.allclose(rep.x, 0.0, atol=1e-9)


def test_tr_l1_unbounded_domain(tight):
    rep = tr_solve(_quad_shift([2.0]), Regularizer("l1", 1.0), Box.full(1),
                   LSR1(1), np.array([0.0]), tight)
    xg, _ = grid_min_1d(lambda t: 0.5 * (t - 2.0) ** 2 + abs(t), -4, 4)
    assert rep.x[0] == pytest.approx(1.0, abs=1e-6)
    assert rep.x[0] == pytest.approx(xg, abs=2e-3)


def test_trdh_interior_minimum(tight):
    n = 4
    bounds = Box(np.zeros(n), np.full(n, np.inf))
    rep = trdh_solve(_quad_shift(np.ones(n)), Regularizer("zero"), bounds,
                     0.5 * np.ones(n), tight)
    assert rep.termination == CONVERGED
    assert np.allclose(rep.x, 1.0, atol=1e-6)


def test_trdh_l1_matches_grid(tight):
    rep = trdh_solve(_quad_shift([2.0]), Regularizer("l1", 1.0), Box.full(1),
                     np.array([0.0]), tight)
    assert rep.x[0] == pytest.approx(1.0, abs=1e-6)


def test_trdh_separable_quadratic_soft_threshold_step(tight):
    # with a separable objective the accepted TRDH step is the componentwise
    # soft threshold of the scaled gradient step, clamped into the step box
    n = 3
    c = np.array([2.0, -1.5, 0.5])
    rep = trdh_solve(_quad_shift(c), Regularizer("l1", 0.3), Box.full(n),
                     np.zeros(n), tight)
    xg = np.sign(c) * np.maximum(np.abs(c) - 0.3, 0.0)
    assert np.allclose(rep.x, xg, atol=1e-6)


def test_trdh_two_prox_per_iteration(tight):
    rep = trdh_solve(_quad_shift([3.0]), Regularizer("l1", 0.5), Box.full(1),
                     np.array([0.1]), tight)
    stepped = len(rep.diagnostics["iters"])
    if rep.termination == CONVERGED:
        assert rep.n_prox == 2 * stepped + 1
    else:
        assert rep.n_prox == 2 * stepped


def test_radius_schedule_conformance(monkeypatch):
    monkeypatch.setattr(tr, "ABS_TOL", 1e-6)
    o = TrustRegionOptions(rel_tol=0.0)
    oracle = CallableOracle(lambda x: float(np.sum(np.cosh(x))),
                            lambda x: np.sinh(x))
    rep = tr_solve(oracle, Regularizer("l1", 0.1), Box(np.full(1, -5.0), np.full(1, 5.0)),
                   LBFGS(1), np.array([2.0]), o)
    iters = rep.diagnostics["iters"]
    assert iters, "expected at least one stepped iteration"
    assert any(it["rho"] >= tr.ETA2 for it in iters)
    for it in iters:
        db, da, rho = it["delta_before"], it["delta_after"], it["rho"]
        if rho >= tr.ETA2:
            assert da == min(tr.GAMMA3 * db, tr.DELTA_MAX)
        elif rho >= tr.ETA1:
            assert da == min(db, tr.DELTA_MAX)
        else:
            assert da == max(tr.GAMMA2 * db, 1e-30)
    # the schedule itself, at its caps
    assert update_radius(0.75 * tr.DELTA_MAX, 1.0) == tr.DELTA_MAX
    assert update_radius(2 * tr.DELTA_MAX, 0.5) == tr.DELTA_MAX
    assert update_radius(1e-30, -np.inf) == 1e-30


def test_step_cap_and_criticality_lower_bound(monkeypatch):
    monkeypatch.setattr(tr, "ABS_TOL", 1e-6)
    oracle = CallableOracle(lambda x: float(np.sum(np.cosh(x))),
                            lambda x: np.sinh(x))
    o = TrustRegionOptions(rel_tol=0.0)
    rep = tr_solve(oracle, Regularizer("l1", 0.1), Box(np.full(1, -5.0), np.full(1, 5.0)),
                   LBFGS(1), np.array([2.0]), o)
    for it in rep.diagnostics["iters"]:
        assert it["s_inf"] <= it["cap_inf"] + 1e-12
        assert it["cap_inf"] <= min(it["delta_before"], tr.BETA * it["s1_norm2"]) + 1e-12
        assert it["xi"] + 1e-10 * max(1.0, it["xi"]) >= 0.5 / it["nu"] * it["s1_norm2"] ** 2


def test_unsuccessful_iterations_do_not_move_x(monkeypatch):
    monkeypatch.setattr(tr, "ABS_TOL", 1e-6)
    # oscillatory objective: the quadratic model overshoots and gets rejected
    oracle = CallableOracle(lambda x: 0.5 * float(x @ x) + 2.0 * float(np.sum(np.sin(5 * x))),
                            lambda x: x + 10.0 * np.cos(5 * x))
    rep = trdh_solve(oracle, Regularizer("zero"), Box(np.full(1, -6.0), np.full(1, 6.0)),
                     np.array([2.0]), TrustRegionOptions(rel_tol=0.0))
    iters = rep.diagnostics["iters"]
    assert any(not it["accepted"] for it in iters)
    # gradients are evaluated only when x moves: one per accepted step plus x0
    assert len(rep.trace) == 1 + sum(1 for it in iters if it["accepted"])
    assert rep.termination == CONVERGED


def test_diagonal_operator_takes_the_trdh_step(monkeypatch):
    # the step follows the operator: with the spectral diagonal, TR never calls
    # the R2 subsolver and gives TRDH's golden counters; with LSR1 it calls it
    def no_subsolve(*args):
        raise AssertionError("R2 subsolve")

    monkeypatch.setattr(tr, "r2_solve", no_subsolve)
    inst = problems.build("bpdn", 0, m=40, n=96, n_spikes=3)
    oracle = inst.smooth.fresh()
    oracle.budget = 1000
    rep = tr_solve(oracle, inst.h, inst.bounds, SpectralDiag(96), inst.x0)
    assert (rep.n_f, rep.n_grad, rep.n_prox, rep.termination) == BPDN_40x96["TRDH"]
    with pytest.raises(AssertionError, match="R2 subsolve"):
        tr_solve(inst.smooth.fresh(), inst.h, inst.bounds, LSR1(96), inst.x0)


def test_trdh_evaluates_h_once_at_each_point(monkeypatch):
    # h is evaluated at x0, at the Cauchy point of every iteration (the last one
    # measures and stops) and once at every trial point, which is the prox output
    value = Regularizer.value
    calls = []

    def counted(self, x):
        calls.append(1)
        return value(self, x)
    monkeypatch.setattr(Regularizer, "value", counted)
    inst = problems.build("bpdn", 0, m=40, n=96, n_spikes=3)
    oracle = inst.smooth.fresh()
    oracle.budget = 1000
    rep = trdh_solve(oracle, inst.h, inst.bounds, inst.x0)
    assert rep.termination == CONVERGED
    iters = rep.diagnostics["iters"]
    trials = sum(not np.isnan(it["rho"]) for it in iters)
    assert trials == len(iters) == rep.n_f - 1
    assert len(calls) == 1 + (len(iters) + 1) + trials


def test_a_collapsed_radius_stops_the_loop_as_stalled():
    # the fh regime: l0 with h(x) = 30 and x of order 1.  At Delta = 1e-30 the
    # step box rounds to x, so no step or measure is resolved there; the loop
    # stops before it measures and reports no measure, not a 0 one
    n = 3
    smooth = _quad_shift(np.full(n, 2.0))
    h = Regularizer("l0", 10.0)
    x = np.ones(n)
    trace = []
    fx, hx, gx = evaluate_start(smooth, h, x, trace)
    res = tr.tr_iterate(smooth, h, tr.ShiftedBounds(Box(np.full(n, -5.0), np.full(n, 5.0))),
                        SpectralDiag(n), x, fx, hx, gx, 1e-30, max_iter=10, abs_tol=1e-8,
                        rel_tol=0.0, trace=trace, records=[])
    assert res.status == "stalled" and res.crit == np.inf and res.n_prox == 0
    assert np.array_equal(res.x, x) and smooth.n_f == 1


@pytest.mark.parametrize("step", ["diagonal", "r2"])
@pytest.mark.parametrize("constraint, most", [("bounds", 2), ("barrier", 3)])
def test_boxes_built_per_iteration(monkeypatch, step, constraint, most):
    # each iteration builds its step box and its cap box in one pass each, and
    # a barrier stage adds the fraction-to-boundary box
    built = []
    post_init = Box.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    n = 6
    bounds = Box(np.array([0.0, -np.inf, 0.0, -1.0, -np.inf, 0.0]),
                 np.array([np.inf, 3.0, 4.0, np.inf, np.inf, 2.5]))
    if constraint == "bounds":
        cons = tr.ShiftedBounds(bounds)
    else:
        cons = BarrierTerms(bounds, 1e-2, DualEstimate.ones_for(bounds), "lagrangian")
    marks = []
    at = cons.at

    def marked_at(x, gx):
        marks.append(len(built))
        return at(x, gx)

    cons.at = marked_at
    # a coupled, badly scaled quadratic: no operator solves it in a few steps
    M = np.random.default_rng(3).standard_normal((n, n)) * np.logspace(0, 2, n)
    A, c = M.T @ M, np.array([3.0, 5.0, -1.0, 0.5, 2.0, 1.0])
    smooth = CallableOracle(lambda v: 0.5 * float((v - c) @ A @ (v - c)), lambda v: A @ (v - c))
    h = Regularizer("l1", 0.1)
    x = np.ones(n)
    trace = []
    fx, hx, gx = evaluate_start(smooth, h, x, trace)
    monkeypatch.setattr(Box, "__post_init__", counting)
    tr.tr_iterate(smooth, h, cons, SpectralDiag(n) if step == "diagonal" else LBFGS(n), x, fx,
                  hx, gx, 1.0, max_iter=6, abs_tol=0.0, rel_tol=0.0, trace=trace, records=[])
    per_iteration = np.diff(marks)
    assert per_iteration.size >= 3 and per_iteration.max() <= most
