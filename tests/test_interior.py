import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripm import interior
from ripm.errors import BoundaryPoint
from ripm.interior import (BarrierTerms, DualEstimate, barrier_value, crossover, dual_update,
                           inner_solve, outer_solve)
from ripm.oracles import CallableOracle
from ripm.qnops import LBFGS, SpectralDiag
from ripm.regprox import Box, Regularizer, intersect_boxes
from ripm.report import CONVERGED, evaluate_start
from ripm.trust_region import DELTA_MAX, first_order_step, tr_iterate

from helpers import bisect_root, grid_min_1d

POS = Box(np.zeros(1), np.full(1, np.inf))


def _box1(lo, hi):
    return Box(np.array([lo], dtype=float), np.array([hi], dtype=float))


def _oracle_quad(center):
    c = float(center)
    return CallableOracle(lambda x: 0.5 * float(np.sum((x - c) ** 2)), lambda x: x - c)


def _oracle_linear(slope=1.0):
    return CallableOracle(lambda x: slope * float(np.sum(x)),
                          lambda x: np.full_like(x, slope))


def _oracle_zero():
    return CallableOracle(lambda x: 0.0, lambda x: np.zeros_like(x))


# ---------------------------------------------------------------------------
# barrier pieces


def test_barrier_value_examples():
    ones = np.ones(3)
    assert barrier_value(1.0, ones, Box(np.zeros(3), np.full(3, np.inf))) == 0.0
    assert barrier_value(2.0, np.array([1.0]), _box1(0.0, 2.0)) == 0.0
    assert barrier_value(1.0, np.array([0.0]), POS) == np.inf


def test_barrier_value_two_sided():
    v = barrier_value(1.5, np.array([0.5]), _box1(0.0, 2.0))
    assert v == pytest.approx(-1.5 * (np.log(0.5) + np.log(1.5)))


def _barrier_grad(mu, x, bounds):
    """The barrier gradient: the model gradient of `BarrierTerms.at` where grad f = 0."""
    terms = BarrierTerms(bounds, mu, DualEstimate.ones_for(bounds), "cp")
    return terms.at(x, np.zeros(x.size))[0]


def test_barrier_grad_examples():
    assert _barrier_grad(1.0, np.array([1.0]), POS)[0] == pytest.approx(-1.0)
    assert _barrier_grad(1.0, np.array([1.0]), _box1(0.0, 2.0))[0] == pytest.approx(0.0)
    g = _barrier_grad(3.0, np.array([0.5, 2.0]), Box(np.zeros(2), np.full(2, np.inf)))
    assert np.allclose(g, [-6.0, -1.5])
    with pytest.raises(BoundaryPoint):
        _barrier_grad(1.0, np.array([0.0]), POS)


# ---------------------------------------------------------------------------
# first-order steps and measures


def _barrier_step(x, mu, nu, delta, smooth, h, bounds, z=None):
    """First-order step of the barrier model as the inner loop takes it.

    The gradients and the fraction-to-boundary box (at DELTA_FRAC) come from
    `BarrierTerms.at`.  Without ``z`` this is the Cauchy step s1 of the
    primal measure, with gradient grad f + grad phi; with ``z`` it is the
    step of the Lagrangian measure, with gradient grad f - zl + zu.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    z_at = DualEstimate.ones_for(bounds) if z is None else z
    terms = BarrierTerms(bounds, mu, z_at, "cp" if z is None else "lagrangian")
    g, _, box, g_meas, _ = terms.at(x, smooth.grad(x))
    return first_order_step(h, x, h.value(x), g if z is None else g_meas, nu,
                            intersect_boxes(Box.ball(x.size, delta), box))


def test_cauchy_step_zero_at_barrier_stationary_point():
    # f = x^2/2: barrier stationarity x - mu/x = 0 holds at x = 1 for mu = 1
    s1, xi = _barrier_step([1.0], 1.0, 0.1, 10.0, _oracle_quad(0.0), Regularizer("zero"), POS)
    assert s1[0] == pytest.approx(0.0, abs=1e-15)
    assert xi == pytest.approx(0.0, abs=1e-15)


def test_cauchy_step_moves_away_from_bound():
    nu = 1e-3
    s1, xi = _barrier_step([1.0], 1.0, nu, 10.0, _oracle_zero(), Regularizer("zero"), POS)
    assert s1[0] == pytest.approx(nu, rel=1e-12)  # step nu * mu / x > 0
    assert xi == pytest.approx(nu, rel=1e-12)


def test_cauchy_step_grid_oracle():
    # model: g_eff s + s^2/(2 nu) over the step box, g_eff = (x-2) - mu/x
    x, mu, nu, delta = 0.8, 0.7, 0.2, 0.5
    s1, xi = _barrier_step([x], mu, nu, delta, _oracle_quad(2.0), Regularizer("zero"), POS)
    g_eff = (x - 2.0) - mu / x
    lo = max(-delta, interior.DELTA_FRAC * x - x)
    sg, _ = grid_min_1d(lambda t: g_eff * t + t * t / (2 * nu), lo, delta, 1e-5)
    assert s1[0] == pytest.approx(sg, abs=1e-4)
    assert xi >= 0.5 / nu * s1[0] ** 2 - 1e-12


def test_xi_l_coincides_when_z_matches_barrier():
    rng = np.random.default_rng(0)
    x = rng.uniform(0.5, 2.0, size=4)
    mu = 0.3
    bounds = Box(np.zeros(4), np.full(4, np.inf))
    z = DualEstimate(mu / x, np.zeros(4))
    smooth = _oracle_quad(1.5)
    h = Regularizer("l1", 0.2)
    s_cp, xi_cp = _barrier_step(x, mu, 0.1, 1.0, smooth, h, bounds)
    s_l, xi_l_val = _barrier_step(x, mu, 0.1, 1.0, smooth, h, bounds, z)
    assert np.allclose(s_cp, s_l, atol=1e-12)
    assert xi_cp == pytest.approx(xi_l_val, abs=1e-12)


def test_xi_l_zero_at_kkt_point():
    # f = x, z = 1: Lagrangian gradient vanishes, so sL = 0 and xi = 0
    z = DualEstimate(np.array([1.0]), np.array([0.0]))
    sL, xi = _barrier_step([1.0], 0.5, 1.0, 10.0, _oracle_linear(), Regularizer("zero"), POS, z)
    assert sL[0] == pytest.approx(0.0, abs=1e-15)
    assert xi == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# dual update and crossover


def test_dual_update_fixed_point():
    x = np.array([1.3, 0.4])
    mu = 0.25
    bounds = Box(np.zeros(2), np.full(2, np.inf))
    z = DualEstimate(mu / x, np.zeros(2))
    out = dual_update(x, x, z, np.zeros(2), mu, bounds)
    assert np.allclose(out.zl, z.zl)


def test_dual_update_ones_fixed_point():
    x = np.ones(3)
    bounds = Box(np.zeros(3), np.full(3, np.inf))
    z = DualEstimate(np.ones(3), np.zeros(3))
    out = dual_update(x, x, z, np.zeros(3), 1.0, bounds)
    assert np.allclose(out.zl, 1.0)


def test_dual_update_clamps_to_safeguard_interval():
    # large step drives the linearized update negative; projection keeps z > 0
    mu, kzl = 1e-3, interior.KAPPA_ZUL
    x_old = np.array([1.0])
    s = np.array([0.9])
    x_new = x_old + s
    z_old = DualEstimate(np.array([1.0]), np.array([0.0]))
    out = dual_update(x_new, x_old, z_old, s, mu, POS)
    zhat = mu / 1.0 - 1.0 * 0.9
    assert zhat < 0
    expected_lo = kzl * min(1.0, 1.0, mu / x_new[0])
    assert out.zl[0] == pytest.approx(expected_lo)
    assert out.zl[0] > 0


@given(z=st.floats(0.0, 1e3), g_old=st.floats(1e-6, 1e3), s=st.floats(-1e3, 1e3),
       mu=st.floats(1e-12, 10.0), upper=st.booleans())
@settings(max_examples=100, deadline=None)
def test_dual_update_stays_in_safeguard_interval(z, g_old, s, mu, upper):
    kzl, kzu = interior.KAPPA_ZUL, interior.KAPPA_ZUU
    g_new = g_old + (-s if upper else s)
    if g_new <= 0.0:
        return
    bounds = _box1(-np.inf, 0.0) if upper else POS
    x_old = np.array([-g_old if upper else g_old])
    zv = np.array([z])
    z_old = DualEstimate(np.zeros(1), zv) if upper else DualEstimate(zv, np.zeros(1))
    out = dual_update(x_old + s, x_old, z_old, np.array([s]), mu, bounds)
    got = (out.zu if upper else out.zl)[0]
    assert kzl * min(1.0, z, mu / g_new) <= got <= max(kzu, z, kzu / mu, kzu * mu / g_new)
    assert (out.zl if upper else out.zu)[0] == 0.0  # the infinite side keeps z = 0


def test_dual_update_upper_side():
    bounds = _box1(-np.inf, 2.0)
    x_old, s = np.array([1.0]), np.array([0.5])
    z_old = DualEstimate(np.array([0.0]), np.array([0.3]))
    out = dual_update(x_old + s, x_old, z_old, s, 0.1, bounds)
    zhat = 0.1 / 1.0 + (0.3 / 1.0) * 0.5  # upper gap shrinks along +s
    assert out.zu[0] == pytest.approx(zhat)


def test_crossover_rules():
    mu = 1e-8
    bounds = Box(np.zeros(3), np.full(3, np.inf))
    x = np.array([1e-9, 1.0, 1e-3])
    zl = np.array([5.0, 1e-9, 1e-3])
    xc, zc = crossover(x, DualEstimate(zl, np.zeros(3)), mu, bounds)
    assert xc[0] == 0.0 and zc.zl[0] == 5.0   # gap < sqrt(mu): snap, keep z
    assert xc[1] == 1.0 and zc.zl[1] == 0.0   # z < sqrt(mu): zero the multiplier
    assert xc[2] == 0.0 and zc.zl[2] == 0.0   # both < mu**(1/4): zero both
    # exact complementarity on every side afterwards
    assert np.all(xc * zc.zl == 0.0)


def test_crossover_two_sided_and_cleanup():
    mu = 1e-8
    bounds = Box(np.zeros(2), np.full(2, 2.0))
    x = np.array([1.0, 2.0 - 1e-9])
    z = DualEstimate(np.array([0.7, 0.0]), np.array([0.0, 0.4]))
    xc, zc = crossover(x, z, mu, bounds)
    assert xc[1] == 2.0 and zc.zu[1] == 0.4
    # interior component with a large stale multiplier: cleanup zeroes it
    assert zc.zl[0] == 0.0
    gaps_l = xc - bounds.lo
    gaps_u = bounds.hi - xc
    assert np.all(gaps_l * zc.zl == 0.0)
    assert np.all(gaps_u * zc.zu == 0.0)


# ---------------------------------------------------------------------------
# inner solve against analytic barrier stationary points


def _stage(smooth, h, x0, z0, mu, qn, mode="cp", delta=100.0, tol=1e-9, records=None):
    """One barrier stage through the solver's loop, to ``tol`` on both residuals."""
    x0 = np.asarray(x0, dtype=float)
    trace = []
    fx, hx, gx = evaluate_start(smooth, h, x0, trace)
    return tr_iterate(smooth, h, BarrierTerms(POS, mu, z0, mode), qn, x0, fx, hx, gx, delta,
                      max_iter=interior.INNER_CAP, abs_tol=tol, rel_tol=0.0, eps_p=tol,
                      trace=trace, records=[] if records is None else records)


@pytest.mark.parametrize("step", ["diagonal", "r2"])
@pytest.mark.parametrize("mu", [1.0, 0.1, 0.01])
def test_inner_solve_quadratic_barrier_path(step, mu):
    # stationarity of 0.5 (x-2)^2 - mu log x:  x - 2 - mu / x = 0
    root = bisect_root(lambda t: t - 2.0 - mu / t, 1e-9, 10.0)
    qn = SpectralDiag(1) if step == "diagonal" else LBFGS(1)
    res = _stage(_oracle_quad(2.0), Regularizer("zero"), [1.0], DualEstimate.ones_for(POS), mu,
                 qn)
    assert res.status == "tol"
    assert res.x[0] == pytest.approx(root, abs=1e-6)
    assert abs(res.x[0] * res.z.zl[0] - mu) <= 1e-9


@pytest.mark.parametrize("mode", ["cp", "lagrangian"])
def test_inner_solve_l1_barrier_stationary_point(mode):
    # f = 0, h = lam |x|, x > 0: stationarity lam - mu / x = 0 -> x = mu / lam
    mu, lam = 0.5, 1.0
    res = _stage(_oracle_zero(), Regularizer("l1", lam), [2.0], DualEstimate.ones_for(POS), mu,
                 SpectralDiag(1), mode)
    assert res.status == "tol"
    assert res.x[0] == pytest.approx(mu / lam, abs=1e-6)


def test_inner_solve_immediate_exit():
    mu = 0.5
    root = bisect_root(lambda t: t - 2.0 - mu / t, 1e-9, 10.0)
    x0 = np.array([root])
    z0 = DualEstimate(mu / x0, np.zeros(1))
    records = []
    res = _stage(_oracle_quad(2.0), Regularizer("zero"), x0, z0, mu, SpectralDiag(1),
                 delta=10.0, tol=1e-6, records=records)
    assert res.status == "tol"
    assert [(r["exit"], r["accepted"]) for r in records] == [("tol", False)]
    assert res.x[0] == x0[0]


def test_inner_solve_requires_interior_start():
    smooth, h, x = _oracle_quad(2.0), Regularizer("zero"), np.array([0.0])
    fx, hx, gx = evaluate_start(smooth, h, x, [])
    with pytest.raises(BoundaryPoint):
        inner_solve(smooth, h, POS, SpectralDiag(1), x, fx, hx, gx, DualEstimate.ones_for(POS),
                    1.0, 0.0, [], [])


@pytest.mark.parametrize("kind", ["l0", "l1"])
def test_inner_solve_radius_tolerance_and_measure(kind):
    # the stage's first radius, its tolerance exit, and the measure that h selects
    mu, eps_rel = 0.1, 0.1
    bounds = Box(np.zeros(3), np.full(3, np.inf))
    smooth, h, x = _oracle_quad(2.0), Regularizer(kind, 0.3), np.array([1.0, 0.5, 3.0])
    trace, records = [], []
    fx, hx, gx = evaluate_start(smooth, h, x, trace)
    res = inner_solve(smooth, h, bounds, SpectralDiag(3), x, fx, hx, gx,
                      DualEstimate.ones_for(bounds), mu, eps_rel, trace, records)
    assert records[0]["delta_before"] == min(interior.DELTA0_FACTOR * mu, DELTA_MAX)
    assert res.status == "tol" and records[-1]["exit"] == "tol"
    eps_k = mu**interior.EPS_EXPONENT
    assert records[-1]["crit"] <= eps_k + eps_rel * res.measure0
    assert records[-1]["compl"] <= eps_k
    same = [r["xi_meas"] == r["xi"] for r in records]
    assert all(same) if kind == "l0" else not all(same)


# ---------------------------------------------------------------------------
# outer solve: mu -> 0 limits, crossover, invariants


def _outer(smooth, h, bounds, x0, step="diagonal"):
    # the step follows the operator: the spectral diagonal takes closed-form steps
    factory = SpectralDiag if step == "diagonal" else LBFGS
    return outer_solve(smooth, h, bounds, factory, x0)


@pytest.mark.parametrize("step", ["diagonal", "r2"])
def test_outer_quadratic_limit(step):
    rep = _outer(_oracle_quad(2.0), Regularizer("zero"), POS, np.array([1.0]), step)
    assert rep.termination == CONVERGED
    assert abs(rep.x[0] - 2.0) <= 1e-3


def test_outer_active_bound_multiplier():
    rep = _outer(_oracle_linear(), Regularizer("zero"), POS, np.array([1.0]))
    assert rep.termination == CONVERGED
    assert rep.x[0] == 0.0  # snapped exactly by the crossover
    assert rep.z.zl[0] == pytest.approx(1.0, abs=1e-2)


def test_outer_invariants_from_diagnostics():
    rep = _outer(_oracle_quad(2.0), Regularizer("l1", 0.3), POS, np.array([1.0]),
                 step="r2")
    assert rep.termination == CONVERGED
    iters = rep.diagnostics["inner"]
    assert iters
    for it in iters:
        # criticality lower bounds
        tol = 1e-10 * max(1.0, it["xi"])
        assert it["xi"] + tol >= 0.5 / it["nu"] * it["s1_norm2"] ** 2
        assert it["xi_meas"] + tol >= 0.5 / it["nu"] * it["s_meas_norm2"] ** 2
        if it["accepted"]:
            # the barrier value is finite only at strictly interior points
            assert np.isfinite(it["obj_after"])
            assert it["obj_after"] <= it["obj_before"] + 1e-12 * abs(it["obj_before"])
        if it["exit"] == "tol":
            assert it["compl"] <= it["mu"] ** 1.01 + 1e-15
    assert rep.diagnostics["crossover"]["applied"]
    assert np.all((rep.x - POS.lo) * rep.z.zl == 0.0)


def test_outer_mode_forced_to_cp_for_l0():
    rep = _outer(_oracle_quad(2.0), Regularizer("l0", 0.1), POS, np.array([1.0]))
    assert rep.diagnostics["mode"] == "cp"


def test_outer_budget_one():
    smooth = _oracle_quad(2.0)
    smooth.budget = 1
    rep = outer_solve(smooth, Regularizer("zero"), POS, SpectralDiag, np.array([1.0]))
    assert rep.termination == "max_iter"
    assert rep.n_f <= 2
