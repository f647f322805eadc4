import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripm import interior
from ripm.errors import BoundaryPoint
from ripm.interior import (DELTA_FRAC, BarrierTerms, DualEstimate, barrier_value, crossover,
                           fraction_to_boundary_box, inner_solve, measure_mode, outer_solve)
from ripm.qnops import LSR1, SpectralDiag
from ripm.r2 import first_order_step
from ripm.regprox import Box, Regularizer
from ripm.report import (BUDGET, CONVERGED, MAX_ITER, STALLED, TR_RECORD, IterLog,
                         evaluate_start)
from ripm.trust_region import DELTA_MAX, tr_iterate

from helpers import CallableOracle, bisect_root, grid_min_1d, valued_solve

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
    terms = BarrierTerms(bounds, mu, "cp")
    return terms.at(x, np.zeros(x.size), terms.phi(x)[1])[0]


def test_barrier_grad_examples():
    assert _barrier_grad(1.0, np.array([1.0]), POS)[0] == pytest.approx(-1.0)
    assert _barrier_grad(1.0, np.array([1.0]), _box1(0.0, 2.0))[0] == pytest.approx(0.0)
    g = _barrier_grad(3.0, np.array([0.5, 2.0]), Box(np.zeros(2), np.full(2, np.inf)))
    assert np.allclose(g, [-6.0, -1.5])
    with pytest.raises(BoundaryPoint):
        _barrier_grad(1.0, np.array([0.0]), POS)


def test_the_start_duals_are_one_on_each_finite_side():
    # in every layout of the sides: all finite, a mask of finite components,
    # and no finite component (the upper side of "lower only", both of "free")
    rng = np.random.default_rng(5)
    n = 30
    cases = dict(_layouts(rng, n), free=Box(np.full(n, -np.inf), np.full(n, np.inf)))
    for layout, bounds in cases.items():
        z = BarrierTerms(bounds, 1.0, "cp").z
        for got, bound in ((z.zl, bounds.lo), (z.zu, bounds.hi)):
            assert np.array_equal(got, np.where(np.isfinite(bound), 1.0, 0.0)), layout


def test_fraction_to_boundary_one_sided():
    bounds = Box(np.zeros(2), np.full(2, np.inf))
    b = fraction_to_boundary_box((1.0, np.inf), bounds)  # x = (1, 2)
    assert np.allclose(b.lo, [DELTA_FRAC, DELTA_FRAC])
    assert np.all(np.isinf(b.hi))


def test_fraction_to_boundary_two_sided():
    b = fraction_to_boundary_box((1.0, 1.0), _box1(0.0, 2.0))  # x = 1
    assert b.lo[0] == pytest.approx(DELTA_FRAC)
    assert b.hi[0] == pytest.approx(2.0 - DELTA_FRAC)


def test_fraction_to_boundary_requires_interior():
    with pytest.raises(BoundaryPoint):
        fraction_to_boundary_box((0.0, 2.0), _box1(0.0, 2.0))  # x = 0


@given(st.floats(-5, 5))
@settings(max_examples=50, deadline=None)
def test_fraction_to_boundary_membership(shift):
    # any point in the returned box keeps min(u) >= tau * min(x) (one-sided)
    x = np.array([1.0, 2.5, 0.7]) + 3.0 + shift / 10.0
    bounds = Box(np.zeros(3), np.full(3, np.inf))
    b = fraction_to_boundary_box((float(np.min(x)), np.inf), bounds)
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = rng.uniform(0, 1, size=3)
        u = b.lo + t * (np.minimum(b.hi, b.lo + 10.0) - b.lo)
        assert np.min(u) >= DELTA_FRAC * np.min(x) - 1e-12


# ---------------------------------------------------------------------------
# first-order steps and measures


def _barrier_step(x, mu, nu, delta, smooth, h, bounds, z=None):
    """First-order step of the barrier model as the inner loop takes it.

    The gradients and the fraction-to-boundary box of points (at DELTA_FRAC)
    come from `BarrierTerms.at`.  Without ``z`` this is the Cauchy step s1
    of the primal measure, with gradient grad f + grad phi; with ``z`` it is
    the step of the Lagrangian measure, with gradient grad f - zl + zu.
    Returns the step u - x and its model decrease.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    terms = BarrierTerms(bounds, mu, "cp" if z is None else "lagrangian")
    if z is not None:
        terms.z = z
    g, _, box, g_meas, _ = terms.at(x, smooth.grad(x), terms.phi(x)[1])
    _, s, _, _, xi = first_order_step(h, x, h.value(x), g if z is None else g_meas, 1.0 / nu,
                                      box.ball(x, delta))
    return s, xi


def test_cauchy_step_zero_at_barrier_stationary_point():
    # f = x^2/2: barrier stationarity x - mu/x = 0 holds at x = 1 for mu = 1
    s1, xi = _barrier_step([1.0], 1.0, 0.1, 10.0, _oracle_quad(0.0), Regularizer("l1"), POS)
    assert s1[0] == pytest.approx(0.0, abs=1e-15)
    assert xi == pytest.approx(0.0, abs=1e-15)


def test_cauchy_step_moves_away_from_bound():
    nu = 1e-3
    s1, xi = _barrier_step([1.0], 1.0, nu, 10.0, _oracle_zero(), Regularizer("l1"), POS)
    assert s1[0] == pytest.approx(nu, rel=1e-12)  # step nu * mu / x > 0
    assert xi == pytest.approx(nu, rel=1e-12)


def test_cauchy_step_grid_oracle():
    # model: g_eff s + s^2/(2 nu) over the step box, g_eff = (x-2) - mu/x
    x, mu, nu, delta = 0.8, 0.7, 0.2, 0.5
    s1, xi = _barrier_step([x], mu, nu, delta, _oracle_quad(2.0), Regularizer("l1"), POS)
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
    sL, xi = _barrier_step([1.0], 0.5, 1.0, 10.0, _oracle_linear(), Regularizer("l1"), POS, z)
    assert sL[0] == pytest.approx(0.0, abs=1e-15)
    assert xi == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# dual update and crossover


def _accepted_z(x_new, x_old, z_old, s, mu, bounds):
    """The dual estimate that `BarrierTerms.accept` makes on the step s from x_old to x_new."""
    terms = BarrierTerms(bounds, mu, "lagrangian")
    terms.z = z_old
    terms.accept(terms.phi(x_old)[1], terms.phi(x_new)[1], s)
    return terms.z


def test_dual_update_fixed_point():
    x = np.array([1.3, 0.4])
    mu = 0.25
    bounds = Box(np.zeros(2), np.full(2, np.inf))
    z = DualEstimate(mu / x, np.zeros(2))
    out = _accepted_z(x, x, z, np.zeros(2), mu, bounds)
    assert np.allclose(out.zl, z.zl)


def test_dual_update_ones_fixed_point():
    x = np.ones(3)
    bounds = Box(np.zeros(3), np.full(3, np.inf))
    z = DualEstimate(np.ones(3), np.zeros(3))
    out = _accepted_z(x, x, z, np.zeros(3), 1.0, bounds)
    assert np.allclose(out.zl, 1.0)


def test_dual_update_clamps_to_safeguard_interval():
    # large step drives the linearized update negative; projection keeps z > 0
    mu, kzl = 1e-3, interior.KAPPA_ZUL
    x_old = np.array([1.0])
    s = np.array([0.9])
    x_new = x_old + s
    z_old = DualEstimate(np.array([1.0]), np.array([0.0]))
    out = _accepted_z(x_new, x_old, z_old, s, mu, POS)
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
    out = _accepted_z(x_old + s, x_old, z_old, np.array([s]), mu, bounds)
    got = (out.zu if upper else out.zl)[0]
    assert kzl * min(1.0, z, mu / g_new) <= got <= max(kzu, z, kzu / mu, kzu * mu / g_new)
    assert (out.zl if upper else out.zu)[0] == 0.0  # the infinite side keeps z = 0


def test_dual_update_upper_side():
    bounds = _box1(-np.inf, 2.0)
    x_old, s = np.array([1.0]), np.array([0.5])
    z_old = DualEstimate(np.array([0.0]), np.array([0.3]))
    out = _accepted_z(x_old + s, x_old, z_old, s, 0.1, bounds)
    zhat = 0.1 / 1.0 + (0.3 / 1.0) * 0.5  # upper gap shrinks along +s
    assert out.zu[0] == pytest.approx(zhat)


def _raw_bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


def _mixed_bounds(rng, n):
    """Bounds with every mix of sides: both finite, one finite (either), none."""
    lo = rng.uniform(-2.0, 0.0, n)
    hi = lo + rng.uniform(0.5, 3.0, n)
    lo[::3] = -np.inf
    hi[::4] = np.inf
    return Box(lo, hi)


def _layouts(rng, n):
    """Bounds in the three side layouts of `interior`: every mix of sides, the
    upper side absent everywhere (lo = 0, hi = +inf, as in bpdn) and both sides
    finite everywhere (as in qp)."""
    lo = rng.uniform(-2.0, 0.0, n)
    return {"mixed": _mixed_bounds(rng, n),
            "lower only": Box(np.zeros(n), np.full(n, np.inf)),
            "both finite": Box(lo, lo + rng.uniform(0.5, 3.0, n))}


def _interior_point(bounds):
    lo, hi = bounds.lo, bounds.hi
    fl, fu = np.isfinite(lo), np.isfinite(hi)
    x = np.full(lo.size, 0.7)
    x[fl] = lo[fl] + 0.3
    x[fu & ~fl] = hi[fu & ~fl] - 0.3
    x[fl & fu] = 0.5 * (lo[fl & fu] + hi[fl & fu])
    return x


def _clip_dual_update(x_new, x_old, z, s, mu, bounds):
    """The dual update with the projection in its `np.clip` form, from scratch."""
    kzl, kzu = interior.KAPPA_ZUL, interior.KAPPA_ZUU

    def side(zv, g_old, g_new, s_signed):
        zhat = mu / g_old - (zv / g_old) * s_signed
        lo = kzl * np.minimum(np.minimum(1.0, zv), mu / g_new)
        hi = np.maximum(np.maximum(kzu, zv), np.maximum(kzu / mu, kzu * mu / g_new))
        return np.clip(zhat, lo, hi)

    fl, fu = np.isfinite(bounds.lo), np.isfinite(bounds.hi)
    gl_old = np.where(fl, x_old - bounds.lo, np.inf)
    gl_new = np.where(fl, x_new - bounds.lo, np.inf)
    gu_old = np.where(fu, bounds.hi - x_old, np.inf)
    gu_new = np.where(fu, bounds.hi - x_new, np.inf)
    return side(z.zl, gl_old, gl_new, s), side(z.zu, gu_old, gu_new, -s)


@pytest.mark.parametrize("mu", [1e-8, 1e-3, 1.0])
def test_dual_update_projection_equals_the_clip_form_bit_for_bit(mu):
    rng = np.random.default_rng(8)
    n = 300
    bounds = _mixed_bounds(rng, n)
    x_old = _interior_point(bounds)
    gl, gu = x_old - bounds.lo, bounds.hi - x_old
    ones = BarrierTerms(bounds, mu, "cp").z
    clipped = 0
    for _ in range(5):
        # steps up to 0.9 of the gap on either side keep the new point interior
        s = np.minimum(rng.uniform(-0.9, 0.9, n) * np.minimum(np.minimum(gl, gu), 1.0), 5.0)
        z = DualEstimate(ones.zl * 10.0 ** rng.uniform(-6, 6, n),
                         ones.zu * 10.0 ** rng.uniform(-6, 6, n))
        got = _accepted_z(x_old + s, x_old, z, s, mu, bounds)
        want_l, want_u = _clip_dual_update(x_old + s, x_old, z, s, mu, bounds)
        assert np.array_equal(_raw_bits(got.zl), _raw_bits(want_l))
        assert np.array_equal(_raw_bits(got.zu), _raw_bits(want_u))
        zhat = mu / gl - (z.zl / gl) * s
        clipped += int(np.count_nonzero(np.isfinite(bounds.lo) & (got.zl != zhat)))
    assert clipped > 0  # the projection is active somewhere


def _where_barrier_terms(x, z, mu, bounds):
    """The barrier gradient, Theta and the complementarity residual of
    `BarrierTerms.at` in their full-length `np.where` forms, from scratch:
    +inf gaps on the infinite sides, masked out of every term."""
    fl, fu = np.isfinite(bounds.lo), np.isfinite(bounds.hi)
    gl = np.where(fl, x - bounds.lo, np.inf)
    gu = np.where(fu, bounds.hi - x, np.inf)
    g_phi = np.where(fl, -mu / gl, 0.0) + np.where(fu, mu / gu, 0.0)
    theta = (np.where(fl, np.minimum(z.zl / gl, interior.KAPPA_BAR), 0.0)
             + np.where(fu, np.minimum(z.zu / gu, interior.KAPPA_BAR), 0.0))
    compl = math.sqrt(float(((gl[fl] * z.zl[fl] - mu) ** 2).sum())
                      + float(((gu[fu] * z.zu[fu] - mu) ** 2).sum()))
    return g_phi, theta, compl


def _where_crossover(x, z, mu, bounds):
    """`crossover` in its full-length `np.where` form, from scratch."""
    rt, qt = np.sqrt(mu), mu**0.25
    fl, fu = np.isfinite(bounds.lo), np.isfinite(bounds.hi)
    zl, zu = z.zl, z.zu
    gl = np.where(fl, x - bounds.lo, np.inf)
    joint = (gl < qt) & (zl < qt) & fl
    x = np.where(fl & ((gl < rt) | joint), bounds.lo, x)
    zl = np.where(fl & ((zl < rt) | joint), 0.0, zl)
    gu = np.where(fu, bounds.hi - x, np.inf)
    joint = (gu < qt) & (zu < qt) & fu
    x = np.where(fu & ((gu < rt) | joint), bounds.hi, x)
    zu = np.where(fu & ((zu < rt) | joint), 0.0, zu)
    zl = np.where(fl & (x - bounds.lo > 0.0), 0.0, zl)
    zu = np.where(fu & (bounds.hi - x > 0.0), 0.0, zu)
    return x, zl, zu


def _near_the_bounds(rng, bounds):
    """A strictly interior point whose gap to one finite side, picked at
    random where both are finite, runs from 1e-9 to 1e-1, and duals from
    1e-9 to 10 on the finite sides."""
    lo, hi = bounds.lo, bounds.hi
    n = lo.size
    gap = 10.0 ** rng.uniform(-9, -1, n)  # below half of the narrowest two-sided box
    upper = np.isfinite(hi) & (~np.isfinite(lo) | (rng.random(n) < 0.5))
    x = np.where(upper, hi - gap, lo + gap)
    x = np.where(np.isfinite(lo) | np.isfinite(hi), x, rng.standard_normal(n))
    ones = BarrierTerms(bounds, 1.0, "cp").z
    return x, DualEstimate(ones.zl * 10.0 ** rng.uniform(-9, 1, n),
                           ones.zu * 10.0 ** rng.uniform(-9, 1, n))


@pytest.mark.parametrize("mu", [1e-12, 1e-8, 1e-4])
def test_barrier_terms_and_crossover_equal_the_where_forms_bit_for_bit(mu):
    rng = np.random.default_rng(21)
    n = 400
    for layout, bounds in _layouts(rng, n).items():
        x, z = _near_the_bounds(rng, bounds)
        gx = rng.standard_normal(n)
        terms = BarrierTerms(bounds, mu, "cp")
        terms.z = z
        g, theta, _, _, compl = terms.at(x, gx, terms.phi(x)[1])
        g_phi, theta_want, compl_want = _where_barrier_terms(x, z, mu, bounds)
        assert np.array_equal(_raw_bits(g), _raw_bits(gx + g_phi)), layout
        assert np.array_equal(_raw_bits(theta), _raw_bits(theta_want)), layout
        assert _raw_bits(compl) == _raw_bits(compl_want), layout

        before = [v.copy() for v in (x, z.zl, z.zu)]
        xc, zc = crossover(x, z, mu, bounds)
        want = _where_crossover(x, z, mu, bounds)
        for got_v, want_v, old, new in zip((xc, zc.zl, zc.zu), want, before, (x, z.zl, z.zu)):
            assert np.array_equal(_raw_bits(got_v), _raw_bits(want_v)), layout
            # the arguments stay as they were
            assert np.array_equal(_raw_bits(new), _raw_bits(old)), layout
        # every rule acts somewhere and leaves something alone, on each side that exists
        fl, fu = np.isfinite(bounds.lo), np.isfinite(bounds.hi)
        snapped = xc != x
        assert snapped.any() and not snapped[fl | fu].all(), layout
        for z_old, z_new, finite in ((z.zl, zc.zl, fl), (z.zu, zc.zu, fu)):
            zeroed = (z_new == 0.0) & (z_old > 0.0)
            assert (z_new[~finite] == 0.0).all(), layout
            if finite.any():
                assert zeroed.any() and (z_new > 0.0).any() and (zeroed & snapped).any(), layout


def _assert_same_terms(got, want, layout):
    for a, b in [(got[0], want[0]), (got[1], want[1]), (got[2].lo, want[2].lo),
                 (got[2].hi, want[2].hi), (got[3], want[3]), (got[4], want[4])]:
        assert np.array_equal(_raw_bits(a), _raw_bits(b)), layout


def _fresh_terms(bounds, mu, z, x, gx):
    """`BarrierTerms.at` of a fresh object, from the gaps its own `phi` forms."""
    terms = BarrierTerms(bounds, mu, "lagrangian")
    terms.z = z
    return terms.at(x, gx, terms.phi(x)[1])


def _assert_gaps_of(gaps, x, bounds, layout):
    """``gaps`` are x - lo and hi - x on the finite components of each side
    that has one, lower first, and say whether all of them are positive."""
    sides = ((x - bounds.lo, bounds.lo), (bounds.hi - x, bounds.hi))
    want = [g[np.isfinite(b)] for g, b in sides if np.isfinite(b).any()]
    assert len(gaps[0]) == len(want), layout
    for got, w in zip(gaps[0], want):
        assert np.array_equal(_raw_bits(got), _raw_bits(w)), layout
    assert gaps[1] == all((w > 0.0).all() for w in want), layout


def test_barrier_terms_reuse_gaps_bit_for_bit():
    # the calls a barrier stage makes over accepted, rejected, infeasible and
    # zero steps: phi forms the gaps of each point once, the loop hands them
    # back to at, accept and zero_step, and all must give what a fresh
    # BarrierTerms, barrier_value and a fresh BarrierTerms.accept give from
    # scratch, while the gaps held for x stay those of x
    rng = np.random.default_rng(13)
    n, mu = 60, 1e-2
    for layout, bounds in _layouts(rng, n).items():
        x = _interior_point(bounds)
        gx = rng.standard_normal(n)
        terms = BarrierTerms(bounds, mu, "lagrangian")
        ones = terms.z
        terms.z = DualEstimate(ones.zl * rng.uniform(0.1, 2.0, n),
                               ones.zu * rng.uniform(0.1, 2.0, n))
        phi, gaps = terms.phi(x)
        assert _raw_bits(phi) == _raw_bits(barrier_value(mu, x, bounds)), layout
        _assert_gaps_of(gaps, x, bounds, layout)
        # a new gradient array at the same x and z gives its own model gradient
        gx2 = rng.standard_normal(n)
        terms.at(x, gx, gaps)
        _assert_same_terms(terms.at(x, gx2, gaps), _fresh_terms(bounds, mu, terms.z, x, gx2),
                           layout)
        for move in ["reject", "accept", "reject", "outside", "zero", "accept", "accept",
                     "reject", "reject"]:
            got = terms.at(x, gx, gaps)
            _assert_same_terms(got, _fresh_terms(bounds, mu, terms.z, x, gx), layout)
            if move == "zero":
                z_want = _accepted_z(x, x, terms.z, np.zeros(n), mu, bounds)
                assert terms.zero_step(x, gaps)
            else:
                x_t = got[2].clamp(x + 0.5 * rng.standard_normal(n))
                if move == "outside":
                    i = int(np.argmax(np.isfinite(bounds.lo)))
                    x_t[i] = bounds.lo[i] - 1.0
                phi_t, gaps_t = terms.phi(x_t)
                assert _raw_bits(phi_t) == _raw_bits(barrier_value(mu, x_t, bounds)), layout
                _assert_gaps_of(gaps_t, x_t, bounds, layout)
                assert gaps_t[1] == (move != "outside"), layout
                if move != "accept":
                    continue
                s = x_t - x
                z_want = _accepted_z(x_t, x, terms.z, s, mu, bounds)
                terms.accept(gaps, gaps_t, s)
                x, gaps = x_t, gaps_t
            _assert_gaps_of(gaps, x, bounds, layout)
            assert np.array_equal(_raw_bits(terms.z.zl), _raw_bits(z_want.zl)), layout
            assert np.array_equal(_raw_bits(terms.z.zu), _raw_bits(z_want.zu)), layout


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


def _stage(smooth, h, x0, mu, qn, mode="cp", delta=100.0, tol=1e-9, records=None, z0=None):
    """One barrier stage through the solver's loop, to ``tol`` on both residuals,
    from the start duals or ``z0``.

    Returns the loop's result and the barrier, which holds the duals."""
    x0 = np.asarray(x0, dtype=float)
    trace = []
    fx, hx, gx = evaluate_start(smooth, h, x0, trace)
    barrier = BarrierTerms(POS, mu, mode)
    if z0 is not None:
        barrier.z = z0
    res = tr_iterate(smooth, h, barrier, qn, x0, fx, hx, gx, delta,
                     max_iter=interior.INNER_CAP, abs_tol=tol, rel_tol=0.0,
                     trace=trace, records=IterLog(TR_RECORD) if records is None else records)
    return res, barrier


@pytest.mark.parametrize("step", ["diagonal", "r2"])
def test_a_collapsed_radius_stalls_the_stage(step):
    # at Delta = 1e-30 the ball around x = 1 rounds to the point itself, so the
    # Cauchy step, the model step and the measure would all read 0 at a point
    # where f' = -1; the stage stalls before measuring instead of refreshing
    # the duals on the zero step and exiting on the tolerance
    smooth = _oracle_quad(2.0)
    qn = SpectralDiag(1) if step == "diagonal" else LSR1(1)
    records = IterLog(TR_RECORD)
    res, _ = _stage(smooth, Regularizer("l1"), [1.0], 1e-3, qn, delta=1e-30, records=records)
    assert res.status == "stalled" and res.crit == np.inf
    assert res.n_prox == 0 and len(records) == 0 and smooth.n_f == 1


@pytest.mark.parametrize("step", ["diagonal", "r2"])
@pytest.mark.parametrize("mu", [1.0, 0.1, 0.01])
def test_inner_solve_quadratic_barrier_path(step, mu):
    # stationarity of 0.5 (x-2)^2 - mu log x:  x - 2 - mu / x = 0
    root = bisect_root(lambda t: t - 2.0 - mu / t, 1e-9, 10.0)
    qn = SpectralDiag(1) if step == "diagonal" else LSR1(1)
    res, barrier = _stage(_oracle_quad(2.0), Regularizer("l1"), [1.0], mu, qn)
    assert res.status == "tol"
    assert res.x[0] == pytest.approx(root, abs=1e-6)
    assert abs(res.x[0] * barrier.z.zl[0] - mu) <= 1e-9


@pytest.mark.parametrize("mode", ["cp", "lagrangian"])
def test_inner_solve_l1_barrier_stationary_point(mode):
    # f = 0, h = lam |x|, x > 0: stationarity lam - mu / x = 0 -> x = mu / lam
    mu, lam = 0.5, 1.0
    res, _ = _stage(_oracle_zero(), Regularizer("l1", lam), [2.0], mu, SpectralDiag(1), mode)
    assert res.status == "tol"
    assert res.x[0] == pytest.approx(mu / lam, abs=1e-6)


def test_inner_solve_immediate_exit():
    mu = 0.5
    root = bisect_root(lambda t: t - 2.0 - mu / t, 1e-9, 10.0)
    x0 = np.array([root])
    z0 = DualEstimate(mu / x0, np.zeros(1))
    records = IterLog(TR_RECORD)
    res, _ = _stage(_oracle_quad(2.0), Regularizer("l1"), x0, mu, SpectralDiag(1),
                    delta=10.0, tol=1e-6, records=records, z0=z0)
    assert res.status == "tol"
    assert [(r["exit"], r["accepted"]) for r in records] == [("tol", False)]
    assert res.x[0] == x0[0]


def test_inner_solve_requires_interior_start():
    smooth, h, x = _oracle_quad(2.0), Regularizer("l1"), np.array([0.0])
    fx, hx, gx = evaluate_start(smooth, h, x, [])
    with pytest.raises(BoundaryPoint):
        barrier = BarrierTerms(POS, 1.0, measure_mode(h))
        inner_solve(smooth, h, barrier, SpectralDiag(1), x, fx, hx, gx, 0.0, [], [])


@pytest.mark.parametrize("kind", ["l0", "l1"])
def test_inner_solve_radius_tolerance_and_measure(kind):
    # the stage's first radius, its tolerance exit, and the measure that h selects
    mu, eps_rel = 0.1, 0.1
    bounds = Box(np.zeros(3), np.full(3, np.inf))
    smooth, h, x = _oracle_quad(2.0), Regularizer(kind, 0.3), np.array([1.0, 0.5, 3.0])
    trace, records = [], IterLog(TR_RECORD)
    fx, hx, gx = evaluate_start(smooth, h, x, trace)
    barrier = BarrierTerms(bounds, mu, measure_mode(h))
    res = inner_solve(smooth, h, barrier, SpectralDiag(3), x, fx, hx, gx, eps_rel, trace,
                      records)
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
    qn = SpectralDiag(x0.size) if step == "diagonal" else LSR1(x0.size)
    return valued_solve(outer_solve, smooth, h, bounds, qn, x0)[0]


@pytest.mark.parametrize("step", ["diagonal", "r2"])
def test_outer_quadratic_limit(step):
    rep = _outer(_oracle_quad(2.0), Regularizer("l1"), POS, np.array([1.0]), step)
    assert rep.termination == CONVERGED
    assert abs(rep.x[0] - 2.0) <= 1e-3


def test_outer_active_bound_multiplier():
    rep = _outer(_oracle_linear(), Regularizer("l1"), POS, np.array([1.0]))
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


@pytest.mark.parametrize("kind, stages", [("l0", None), ("l1", None), ("l1", 2)])
def test_the_crossover_takes_mu_and_the_mode_of_the_last_stage(monkeypatch, kind, stages):
    # a converged solve, and one that ends on the stage cap, after which mu
    # is not shrunk again
    if stages:
        monkeypatch.setattr(interior, "MAX_OUTER", stages)
    h = Regularizer(kind, 0.1)
    rep = _outer(_oracle_quad(2.0), h, POS, np.array([1.0]))
    records = rep.diagnostics["inner"]
    assert rep.termination == (MAX_ITER if stages else CONVERGED)
    assert rep.diagnostics["crossover"]["mu"] == records[-1]["mu"]
    assert records[-1]["mu"] == pytest.approx(0.1 ** (rep.diagnostics["stages"] - 1), rel=1e-12)
    # the cp measure is that of the model step, and the Lagrangian one is not
    cp = all(r["xi_meas"] == r["xi"] for r in records)
    assert rep.diagnostics["mode"] == ("cp" if cp else "lagrangian") == measure_mode(h)


@pytest.mark.parametrize("step", ["diagonal", "r2"])
def test_outer_stops_after_a_stage_that_stalls_at_entry(step):
    # Delta_0 = 1000 mu = 1e-17 is below eps (1 + ||x||_inf) at x = 1, so the
    # first stage stalls before it measures; x and z do not move and every
    # later stage would start at a smaller radius, so the solve stops there
    mu = 1e-20
    smooth = _oracle_quad(2.0)
    rep, _ = valued_solve(outer_solve, smooth, Regularizer("l1"), POS,
                          SpectralDiag(1) if step == "diagonal" else LSR1(1), np.array([1.0]),
                          mu_init=mu)
    assert rep.termination == STALLED and rep.diagnostics["stages"] == 1
    assert rep.diagnostics["crossover"]["mu"] == mu
    assert smooth.n_f == 1 and rep.n_prox == 0 and len(rep.diagnostics["inner"]) == 0


def test_outer_budget_one():
    smooth = _oracle_quad(2.0)
    smooth.budget = 1
    rep, _ = valued_solve(outer_solve, smooth, Regularizer("l1"), POS, SpectralDiag(1),
                          np.array([1.0]))
    assert rep.termination == BUDGET
    assert smooth.n_f <= 2


def test_outer_ends_on_the_stage_cap_as_iter_cap(monkeypatch):
    # MAX_OUTER stages that neither converge nor stall nor spend the budget
    monkeypatch.setattr(interior, "MAX_OUTER", 2)
    rep = _outer(_oracle_quad(2.0), Regularizer("l1"), POS, np.array([1.0]))
    assert rep.termination == MAX_ITER == "iter_cap"
    assert rep.diagnostics["stages"] == 2
