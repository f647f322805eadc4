import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripm.errors import BoundaryPoint, EmptyBox
from ripm.regprox import (Box, Regularizer, ShiftedRegularizer,
                          fraction_to_boundary_box, intersect_boxes, iprox_shifted)

from helpers import comp_reg_value, grid_min_vec


def _prox_at_zero(h, d, q, box):
    """Separable prox argmin_s d (s - q)^2 / 2 + h(s) over box: iprox_shifted at x = 0."""
    return iprox_shifted(h, d, q, np.zeros(np.atleast_1d(q).size), box)


def test_reg_value_examples():
    assert Regularizer("l1", 2.0).value([1.0, -3.0]) == 8.0
    assert Regularizer("l0", 10.0).value([0.0, 0.5, 0.0]) == 10.0
    assert Regularizer("zero").value([5.0, -7.0]) == 0.0


def test_reg_value_at_origin_is_zero():
    for kind in ("l1", "l0", "zero"):
        assert Regularizer(kind, 3.0).value(np.zeros(4)) == 0.0


def test_shifted_value_examples():
    # h(x + s), as the solvers evaluate it at a step s from x
    def at_step(h, x, s):
        return h.value(np.asarray(x) + np.asarray(s))

    assert at_step(Regularizer("l1", 1.0), [1.0, 0.0], [-1.0, 2.0]) == 2.0
    assert at_step(Regularizer("l0", 1.0), [1.0, 1.0], [-1.0, -1.0]) == 0.0
    assert at_step(Regularizer("l1", 3.0), [0.0, 0.0], [0.1, -0.1]) == pytest.approx(0.6)
    assert Regularizer("l1", 1.0).shifted([1.0, 0.0]).value([-1.0, 2.0]) == 2.0


def test_block_weights_value():
    h = Regularizer("l1", 0.5, weights=np.array([0.0, 1.0, 1.0]))
    assert h.value([9.0, 2.0, -2.0]) == pytest.approx(2.0)


def test_prox_separable_examples():
    h1 = Regularizer("l1", 1.0)
    assert _prox_at_zero(h1, 1.0, 2.0, Box(-10, 10))[0] == pytest.approx(1.0)
    assert _prox_at_zero(h1, 1.0, 5.0, Box(-2, 2))[0] == pytest.approx(2.0)
    z = Regularizer("zero")
    assert _prox_at_zero(z, 5.0, 0.3, Box(-1, 1))[0] == pytest.approx(0.3)


def test_prox_separable_requires_positive_d():
    for d in (0.0, -1.0):
        with pytest.raises(ValueError):
            _prox_at_zero(Regularizer("l1", 1.0), d, 1.0, Box(-1, 1))
        with pytest.raises(ValueError):
            iprox_shifted(Regularizer("l0", 1.0), [1.0, d], [0.0, 0.0], [0.4, 0.4], Box(-2, 2))


def test_l0_tie_prefers_zero():
    # d=1, q=sqrt(2*lam): cost at q equals cost at 0 exactly for lam=2, q=2
    h = Regularizer("l0", 2.0)
    out = _prox_at_zero(h, 1.0, 2.0, Box(-10, 10))
    assert out[0] == 0.0


def test_iprox_shifted_l0_tie_prefers_sparse():
    # x=1: stepping to s=-1 zeroes the coordinate at quadratic cost equal to lam
    h = Regularizer("l0", 0.5)
    out = iprox_shifted(h, 1.0, 0.0, 1.0, Box(-10, 10))
    assert 1.0 + out[0] == 0.0


def test_intersect_boxes_examples():
    b = intersect_boxes(Box(-1, 1), Box(0, 2))
    assert b.lo[0] == 0.0 and b.hi[0] == 1.0
    b = intersect_boxes(Box(-np.inf, np.inf), Box(-3, 3))
    assert b.lo[0] == -3.0 and b.hi[0] == 3.0
    with pytest.raises(EmptyBox):
        intersect_boxes(Box(0, 1), Box(2, 3))


def test_fraction_to_boundary_one_sided():
    bounds = Box(np.zeros(2), np.full(2, np.inf))
    b = fraction_to_boundary_box([1.0, 2.0], 0.5, bounds)
    assert np.allclose(b.lo, [-0.5, -1.5])
    assert np.all(np.isinf(b.hi))


def test_fraction_to_boundary_small_delta_recovers_bound():
    bounds = Box(np.zeros(1), np.full(1, np.inf))
    b = fraction_to_boundary_box([1.0], 1e-12, bounds)
    assert b.lo[0] == pytest.approx(-1.0, abs=1e-11)


def test_fraction_to_boundary_two_sided():
    b = fraction_to_boundary_box([1.0], 0.5, Box(0.0, 2.0))
    assert b.lo[0] == pytest.approx(-0.5)
    assert b.hi[0] == pytest.approx(0.5)


def test_fraction_to_boundary_requires_interior():
    with pytest.raises(BoundaryPoint):
        fraction_to_boundary_box([0.0], 0.5, Box(0.0, 2.0))


@given(st.floats(-5, 5), st.floats(0.01, 0.99))
@settings(max_examples=50, deadline=None)
def test_fraction_to_boundary_membership(shift, delta):
    # any step in the returned box keeps min(x+s) >= delta * min(x) (one-sided)
    x = np.array([1.0, 2.5, 0.7]) + 3.0 + shift / 10.0
    bounds = Box(np.zeros(3), np.full(3, np.inf))
    b = fraction_to_boundary_box(x, delta, bounds)
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = rng.uniform(0, 1, size=3)
        s = b.lo + t * (np.minimum(b.hi, b.lo + 10.0) - b.lo)
        assert np.min(x + s) >= delta * np.min(x) - 1e-12


def _prox_case_matches_grid(kind, lam, d, q, lo, hi, x=None):
    h = Regularizer(kind, lam)
    box = Box(lo, hi)
    if x is None:
        s = _prox_at_zero(h, d, q, box)[0]
        obj = lambda t: 0.5 * d * (t - q) ** 2 + np.vectorize(
            lambda u: comp_reg_value(kind, lam, u))(t)
    else:
        s = iprox_shifted(h, d, q, x, box)[0]
        obj = lambda t: 0.5 * d * (t - q) ** 2 + np.vectorize(
            lambda u: comp_reg_value(kind, lam, x + u))(t)
    _, best = grid_min_vec(obj, lo, hi)
    got = obj(np.array([s]))[0]
    assert lo - 1e-12 <= s <= hi + 1e-12
    assert got <= best + 1e-6


@given(
    kind=st.sampled_from(["l1", "l0", "zero"]),
    lam=st.floats(0.0, 5.0),
    d=st.floats(0.05, 10.0),
    q=st.floats(-8.0, 8.0),
    a=st.floats(-10.0, 9.0),
    width=st.floats(0.1, 10.0),
)
@settings(max_examples=120, deadline=None)
def test_prox_separable_matches_grid_oracle(kind, lam, d, q, a, width):
    _prox_case_matches_grid(kind, lam, d, q, a, a + width)


@given(
    kind=st.sampled_from(["l1", "l0"]),
    lam=st.floats(0.0, 5.0),
    d=st.floats(0.05, 10.0),
    q=st.floats(-8.0, 8.0),
    x=st.floats(-5.0, 5.0),
    a=st.floats(-10.0, 9.0),
    width=st.floats(0.1, 10.0),
)
@settings(max_examples=120, deadline=None)
def test_iprox_shifted_matches_grid_oracle(kind, lam, d, q, x, a, width):
    _prox_case_matches_grid(kind, lam, d, q, a, a + width, x=x)


@given(
    kind=st.sampled_from(["l1", "l0", "zero"]),
    d=st.floats(0.05, 10.0),
    q=st.lists(st.floats(-8, 8), min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_prox_output_containment(kind, d, q):
    box = Box(np.array([-2.0, 0.0, -0.5]), np.array([2.0, 3.0, 0.5]))
    s = _prox_at_zero(Regularizer(kind, 1.0), d, np.array(q), box)
    assert box.contains(s)


def test_zero_regularizer_is_clamp():
    box = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    q = np.array([5.0, -3.0])
    s = _prox_at_zero(Regularizer("zero"), 2.0, q, box)
    assert np.array_equal(s, box.clamp(q))


@given(c=st.floats(0.01, 100.0), q=st.floats(-5, 5), lam=st.floats(0.01, 3.0),
       d=st.floats(0.1, 5.0))
@settings(max_examples=60, deadline=None)
def test_l1_scaling_invariance(c, q, lam, d):
    box = Box(-4.0, 4.0)
    s1 = _prox_at_zero(Regularizer("l1", lam), d, q, box)
    s2 = _prox_at_zero(Regularizer("l1", c * lam), c * d, q, box)
    assert s1[0] == pytest.approx(s2[0], abs=1e-12)


def test_shifted_regularizer_composition():
    h = Regularizer("l1", 2.0)
    sh = ShiftedRegularizer(h, np.array([1.0, -1.0]))
    assert sh.value([0.5, 0.5]) == pytest.approx(2.0 * (1.5 + 0.5))
    box = Box(np.full(2, -5.0), np.full(2, 5.0))
    s_direct = iprox_shifted(h, 1.0, np.array([0.3, -0.7]), np.array([1.2, -0.8]), box)
    s_composed = sh.prox_shifted(1.0, np.array([0.3, -0.7]), np.array([0.2, 0.2]), box)
    assert np.allclose(s_direct, s_composed)


def test_prox_with_block_weights():
    # unpenalized block behaves like the zero regularizer
    h = Regularizer("l1", 1.0, weights=np.array([0.0, 1.0]))
    box = Box(np.full(2, -10.0), np.full(2, 10.0))
    s = _prox_at_zero(h, 1.0, np.array([2.0, 2.0]), box)
    assert s[0] == pytest.approx(2.0)
    assert s[1] == pytest.approx(1.0)
