import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ripm.errors import EmptyBox
from ripm.regprox import Box, Regularizer, intersect_boxes, iprox_shifted

from helpers import comp_reg_value, grid_min_vec


def _box1(lo, hi):
    return Box(np.array([lo], dtype=float), np.array([hi], dtype=float))


def test_reg_value_examples():
    assert Regularizer("l1", 2.0).value(np.array([1.0, -3.0])) == 8.0
    assert Regularizer("l0", 10.0).value(np.array([0.0, 0.5, 0.0])) == 10.0
    assert Regularizer("l1").value(np.array([5.0, -7.0])) == 0.0


def test_reg_value_at_origin_is_zero():
    for kind in ("l1", "l0"):
        assert Regularizer(kind, 3.0).value(np.zeros(4)) == 0.0


def test_shifted_value_examples():
    # h at the point x + s that a step s from x reaches
    def at_step(h, x, s):
        return h.value(np.array(x) + np.array(s))

    assert at_step(Regularizer("l1", 1.0), [1.0, 0.0], [-1.0, 2.0]) == 2.0
    assert at_step(Regularizer("l0", 1.0), [1.0, 1.0], [-1.0, -1.0]) == 0.0
    assert at_step(Regularizer("l1", 3.0), [0.0, 0.0], [0.1, -0.1]) == pytest.approx(0.6)


def test_block_weights_value():
    h = Regularizer("l1", 0.5, weights=np.array([0.0, 1.0, 1.0]))
    assert h.value(np.array([9.0, 2.0, -2.0])) == pytest.approx(2.0)


@pytest.mark.parametrize("lam, weights", [
    (-1.0, None), (np.nan, None), (np.inf, None),
    (1.0, [1.0, -1.0]), (1.0, [1.0, np.nan]), (1.0, [np.inf, 1.0]), (1.0, [1.0, -np.inf])])
def test_regularizer_takes_finite_nonnegative_weights_only(lam, weights):
    for kind in ("l1", "l0"):
        with pytest.raises(ValueError):
            Regularizer(kind, lam, weights)


def test_regularizer_of_an_unknown_kind_is_refused():
    with pytest.raises(ValueError) as info:
        Regularizer("l2", 1.0)
    assert type(info.value) is ValueError
    assert str(info.value) == "unknown regularizer kind 'l2'"


def test_prox_separable_examples():
    h1 = Regularizer("l1", 1.0)
    assert iprox_shifted(h1, 1.0, np.array([2.0]), _box1(-10, 10))[0] == pytest.approx(1.0)
    assert iprox_shifted(h1, 1.0, np.array([5.0]), _box1(-2, 2))[0] == pytest.approx(2.0)
    z = Regularizer("l1")
    assert iprox_shifted(z, 5.0, np.array([0.3]), _box1(-1, 1))[0] == pytest.approx(0.3)


def test_prox_separable_requires_positive_d():
    for d in (0.0, -1.0):
        with pytest.raises(ValueError):
            iprox_shifted(Regularizer("l1", 1.0), d, np.array([1.0]), _box1(-1, 1))
        with pytest.raises(ValueError):
            iprox_shifted(Regularizer("l0", 1.0), np.array([1.0, d]), np.full(2, 0.4),
                          Box(np.full(2, -2.0), np.full(2, 2.0)))


def test_l0_tie_prefers_zero():
    # d=1, q=sqrt(2*lam): cost at q equals cost at 0 exactly for lam=2, q=2
    h = Regularizer("l0", 2.0)
    out = iprox_shifted(h, 1.0, np.array([2.0]), _box1(-10, 10))
    assert out[0] == 0.0


def test_iprox_shifted_l0_tie_prefers_sparse():
    # q=1: the sparse point u=0 costs d q^2 / 2 = lam, the same as u=q
    h = Regularizer("l0", 0.5)
    out = iprox_shifted(h, 1.0, np.array([1.0]), _box1(-10, 10))
    assert out[0] == 0.0


def test_box_needs_vectors_of_one_size():
    for lo, hi in ((0.0, 1.0), (np.zeros(2), np.ones(3)), (np.zeros((2, 2)), np.ones((2, 2)))):
        with pytest.raises(ValueError):
            Box(lo, hi)


def test_intersect_boxes_examples():
    b = intersect_boxes(_box1(-1, 1), _box1(0, 2))
    assert b.lo[0] == 0.0 and b.hi[0] == 1.0
    b = intersect_boxes(_box1(-np.inf, np.inf), _box1(-3, 3))
    assert b.lo[0] == -3.0 and b.hi[0] == 3.0
    with pytest.raises(EmptyBox):
        intersect_boxes(_box1(0, 1), _box1(2, 3))


def _prox_case_matches_grid(kind, lam, d, q, lo, hi, x=0.0):
    # the step problem min_{lo <= t <= hi} d (t - q)^2 / 2 + h(x + t), solved in
    # points: the prox at x + q over [x + lo, x + hi], minus x
    h = Regularizer(kind, lam)
    s = iprox_shifted(h, d, np.array([x + q]), _box1(x + lo, x + hi))[0] - x
    obj = lambda t: 0.5 * d * (t - q) ** 2 + np.vectorize(
        lambda u: comp_reg_value(kind, lam, x + u))(t)
    _, best = grid_min_vec(obj, lo, hi)
    got = obj(np.array([s]))[0]
    assert lo - 1e-12 <= s <= hi + 1e-12
    assert got <= best + 1e-6


@given(
    kind=st.sampled_from(["l1", "l0"]),
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
    kind=st.sampled_from(["l1", "l0"]),
    d=st.floats(0.05, 10.0),
    q=st.lists(st.floats(-8, 8), min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_prox_output_containment(kind, d, q):
    box = Box(np.array([-2.0, 0.0, -0.5]), np.array([2.0, 3.0, 0.5]))
    s = iprox_shifted(Regularizer(kind, 1.0), d, np.array(q), box)
    assert np.all(box.lo <= s) and np.all(s <= box.hi)


def test_zero_regularizer_is_clamp():
    box = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    q = np.array([5.0, -3.0])
    for kind in ("l1", "l0"):  # lam = 0 means h = 0
        assert np.array_equal(iprox_shifted(Regularizer(kind), 2.0, q, box), box.clamp(q))


@given(c=st.floats(0.01, 100.0), q=st.floats(-5, 5), lam=st.floats(0.01, 3.0),
       d=st.floats(0.1, 5.0))
@settings(max_examples=60, deadline=None)
def test_l1_scaling_invariance(c, q, lam, d):
    box = _box1(-4.0, 4.0)
    s1 = iprox_shifted(Regularizer("l1", lam), d, np.array([q]), box)
    s2 = iprox_shifted(Regularizer("l1", c * lam), c * d, np.array([q]), box)
    assert s1[0] == pytest.approx(s2[0], abs=1e-12)


def _old_l1_prox(h, d, q, box):
    """The l1 kernel as sign(q) max(|q| - lam/d, 0), clamped to the box."""
    lam = h.lam * (1.0 if h.weights is None else h.weights)
    u = np.sign(q) * np.maximum(np.abs(q) - lam / d, 0.0)
    return np.minimum(np.maximum(u, box.lo), box.hi)


def _clip_l1_prox(h, d, q, box):
    """The l1 kernel in its `np.clip` form: q - clip(q, -c, c), clipped to the box."""
    c = (h.lam if h.weights is None else h.lam * h.weights) / d
    u = q - np.clip(q, -c, c)
    return np.clip(u, box.lo, box.hi, out=u)


def _bits(v):
    # adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is
    return (np.asarray(v, dtype=float) + 0.0).view(np.int64)


def _raw_bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("vector_d", [False, True])
@pytest.mark.parametrize("origin", ["vector", "scalar zero"])
def test_l1_kernel_equals_the_sign_formula_bit_for_bit(weighted, vector_d, origin):
    rng = np.random.default_rng(21)
    n = 400
    for _ in range(5):
        weights = rng.uniform(0.0, 2.0, n) if weighted else None
        if weighted:
            weights[::7] = 0.0
        h = Regularizer("l1", float(rng.uniform(0.1, 2.0)), weights=weights)
        d = rng.uniform(0.1, 10.0, n) if vector_d else float(rng.uniform(0.1, 10.0))
        # q and the box lie around the origin x: a random vector, or the scalar zero
        x = 2.0 * rng.standard_normal(n) if origin == "vector" else 0.0
        q = 3.0 * rng.standard_normal(n)
        q[::5] = 0.0
        q += x
        q[1::10] = -0.0
        lo = x - np.abs(rng.standard_normal(n))
        hi = x + np.abs(rng.standard_normal(n))
        lo[::3] = -np.inf
        hi[::4] = np.inf
        box = Box(lo, hi)
        got = iprox_shifted(h, d, q, box)
        want = _old_l1_prox(h, d, q, box)
        assert np.array_equal(_bits(got), _bits(want))
        assert not np.shares_memory(got, q)
        # against the clip form the kernel replaced, signed zeros included
        assert np.array_equal(_raw_bits(got), _raw_bits(_clip_l1_prox(h, d, q, box)))


def test_prox_with_block_weights():
    # unpenalized block behaves like the zero regularizer
    h = Regularizer("l1", 1.0, weights=np.array([0.0, 1.0]))
    box = Box(np.full(2, -10.0), np.full(2, 10.0))
    s = iprox_shifted(h, 1.0, np.array([2.0, 2.0]), box)
    assert s[0] == pytest.approx(2.0)
    assert s[1] == pytest.approx(1.0)


def test_lam_per_component_follows_n_and_lam():
    h = Regularizer("l1", 0.5)
    lam = h.lam_per_component(3)
    assert np.array_equal(lam, np.full(3, 0.5)) and not lam.flags.writeable
    assert h.lam_per_component(3) is lam
    assert np.array_equal(h.lam_per_component(4), np.full(4, 0.5))
    h.lam = 2.0
    assert np.array_equal(h.lam_per_component(4), np.full(4, 2.0))
