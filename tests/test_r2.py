import numpy as np
import pytest

from ripm.oracles import QuadModelOracle
from ripm.qnops import LSR1
from ripm.r2 import first_order_step, r2_solve
from ripm.regprox import Box, Regularizer, iprox_shifted
from ripm.report import BUDGET, CONVERGED, MAX_ITER

from helpers import CallableOracle, dense_sr1, grid_min_1d, valued_solve

FREE = Box(np.full(1, -np.inf), np.full(1, np.inf))  # every point of the line


def _quad(center):
    c = np.asarray(center, dtype=float)
    return CallableOracle(lambda x: 0.5 * float(np.sum((x - c) ** 2)), lambda x: x - c)


def test_unconstrained_quadratic():
    rep, trace = valued_solve(r2_solve, _quad([0.0]), Regularizer("l1"), FREE, np.array([4.0]),
                              abs_tol=1e-8, rel_tol=0.0)
    assert rep.termination == CONVERGED
    assert abs(rep.x[0]) < 1e-6
    vals = [v for _, v in trace]
    assert all(b < a + 1e-15 for a, b in zip(vals, vals[1:]))  # monotone decrease


def test_soft_threshold_fixed_point():
    # min 0.5 (x-2)^2 + |x| has its minimum at x = 1
    rep, _ = valued_solve(r2_solve, _quad([2.0]), Regularizer("l1", 1.0), FREE, np.array([0.0]),
                          abs_tol=1e-10, rel_tol=0.0)
    assert rep.x[0] == pytest.approx(1.0, abs=1e-6)
    xg, _ = grid_min_1d(lambda t: 0.5 * (t - 2.0) ** 2 + abs(t), -5, 5)
    assert rep.x[0] == pytest.approx(xg, abs=2e-3)


def test_active_bound():
    rep, _ = valued_solve(r2_solve, _quad([-1.0]), Regularizer("l1"),
                          Box(np.zeros(1), np.full(1, np.inf)), np.array([1.0]),
                          abs_tol=1e-10, rel_tol=0.0)
    assert rep.x[0] == pytest.approx(0.0, abs=1e-12)
    assert rep.termination == CONVERGED


def test_iterates_stay_in_box_and_descend():
    rng = np.random.default_rng(0)
    n = 6
    c = rng.standard_normal(n)
    bounds = Box(np.full(n, -0.5), np.full(n, 0.5))
    oracle = _quad(c)
    rep, trace = valued_solve(r2_solve, oracle, Regularizer("l1", 0.1), bounds, np.zeros(n),
                              abs_tol=1e-8, rel_tol=0.0)
    assert np.all(bounds.lo <= rep.x) and np.all(rep.x <= bounds.hi)
    vals = [v for _, v in trace]
    assert all(b < a + 1e-12 * max(1, abs(a)) for a, b in zip(vals, vals[1:]))


def test_prox_count_matches_iterations():
    rep, _ = valued_solve(r2_solve, _quad([3.0]), Regularizer("l1", 0.5), FREE, np.array([0.0]),
                          abs_tol=1e-8, rel_tol=0.0)
    stepped = len(rep.diagnostics["iters"])
    if rep.termination == CONVERGED:
        assert rep.n_prox == stepped + 1  # final iteration only measures
    else:
        assert rep.n_prox == stepped


def _quartic():
    return CallableOracle(lambda x: 0.25 * float(np.sum(x**4)), lambda x: x**3)


def test_max_iter_is_soft():
    rep, _ = valued_solve(r2_solve, _quartic(), Regularizer("l1"), FREE, np.array([3.0]),
                          max_iter=2, abs_tol=1e-12, rel_tol=0.0)
    assert rep.termination == MAX_ITER
    assert np.isfinite(rep.f)


def test_budget_enforced():
    # R2 stops after it measures once the budget is spent: it asks for no
    # value the budget would refuse
    oracle = _quartic()
    oracle.budget = 3
    asked = []
    value = oracle.value

    def counted(x):
        asked.append(1)
        return value(x)
    oracle.value = counted
    rep, _ = valued_solve(r2_solve, oracle, Regularizer("l1"), FREE, np.array([3.0]),
                          abs_tol=1e-12, rel_tol=0.0)
    assert rep.termination == BUDGET
    assert oracle.n_f == len(asked) == 3
    assert rep.n_prox == len(rep.diagnostics["iters"]) + 1  # the final measure


def test_relative_tolerance_scaling():
    # rel_tol alone: stops once the measure dropped by the requested factor
    rep, _ = valued_solve(r2_solve, _quad([2.0]), Regularizer("l1"), FREE, np.array([0.0]),
                          abs_tol=0.0, rel_tol=1e-3)
    assert rep.termination == CONVERGED
    assert abs(rep.x[0] - 2.0) < 1e-2


THETA = np.array([0.5, 1.0, 2.0, 0.25, 3.0])


def _model_data(shift=1.0, theta=None, n=5):
    """g, an operator with three stored pairs, its dense B, theta and an origin.

    The pairs sample A A^T + shift I; theta None stands for no barrier,
    whose curvature is a zero vector."""
    rng = np.random.default_rng(12)
    qn = LSR1(n)
    A = rng.standard_normal((n, n))
    A = A @ A.T + shift * np.eye(n)
    for _ in range(3):
        s = rng.standard_normal(n)
        assert qn.update(s, A @ s + 0.1 * rng.standard_normal(n), qn.apply(s))
    dense = dense_sr1(list(qn.pairs), n)
    th = np.zeros(n) if theta is None else theta
    return rng.standard_normal(n), qn, dense, th, rng.standard_normal(n)


def _counted_applies(monkeypatch, qn):
    calls = []
    apply = qn.apply

    def counted(v):
        calls.append(v)
        return apply(v)
    monkeypatch.setattr(qn, "apply", counted)
    return calls


# shift -3 gives W rows of both signs, for the `signs` path of the model
@pytest.mark.parametrize("shift", [1.0, -3.0], ids=["lsr1", "lsr1-negative"])
@pytest.mark.parametrize("theta", [None, THETA])
def test_model_step_in_closed_form_matches_the_dense_model(shift, theta):
    g, qn, B, th, origin = _model_data(shift, theta)
    assert list(qn.factors()[1]) == ([1.0, 1.0, 1.0] if shift > 0 else [-1.0, -1.0, 1.0])
    H = B + np.diag(th)

    def m(s):
        return g @ s + 0.5 * s @ H @ s
    rng = np.random.default_rng(4)
    model = QuadModelOracle(qn, th)
    for _ in range(5):
        s, t = rng.standard_normal(g.size), rng.standard_normal(g.size)
        gm = g + H @ s
        c, products = model.curvature(t)
        change = float(gm @ t) + 0.5 * c
        assert change == pytest.approx(m(s + t) - m(s), rel=1e-12)
        want = g + H @ (s + t)
        assert np.allclose(model.grad_after(gm, products), want, rtol=0,
                           atol=1e-12 * np.abs(want).max())
    assert (model.n_f, model.n_grad) == (5, 5)


def test_r2_on_a_model_follows_the_closed_form(monkeypatch):
    # started from the model's f = 0, h and gradient at the origin, the
    # subsolve's trials take no operator product; a dense check of its answer
    g, qn, B, th, origin = _model_data(theta=THETA)
    H = B + np.diag(th)

    def m(x):
        return g @ (x - origin) + 0.5 * (x - origin) @ H @ (x - origin)
    calls = _counted_applies(monkeypatch, qn)
    box = Box(origin - 0.7, origin + 0.7)
    h = Regularizer("l1", 0.3)
    model = QuadModelOracle(qn, th)
    rep = r2_solve(model, h, box, origin.copy(), 0.0, h.value(origin), g,
                   max_iter=500, abs_tol=1e-10, rel_tol=0.0)
    assert rep.termination == CONVERGED
    assert len(calls) == 0
    assert model.n_f == len(rep.diagnostics["iters"])
    # the trace starts at the first accepted trial, not at the start
    assert len(model.trace) == sum(r["accepted"] for r in rep.diagnostics["iters"])
    s = rep.x - origin
    assert rep.f == pytest.approx(m(rep.x) - m(origin), rel=1e-10)
    assert np.all(box.lo <= rep.x) and np.all(rep.x <= box.hi)
    # first-order optimality of the step: s is a fixed point of the projected prox step
    step = 1.0 / (np.abs(H).sum(axis=1).max())
    q = rep.x - step * (g + H @ s)
    fixed = np.clip(np.sign(q) * np.maximum(np.abs(q) - step * h.lam, 0.0), box.lo, box.hi)
    assert np.allclose(fixed, rep.x, atol=1e-6)
    # the same solve with the dense model as a plain oracle, whose trials evaluate m; its
    # ratio loses digits to cancellation once xi nears the rounding of m, so compare above that
    dense = CallableOracle(m, lambda x: g + H @ (x - origin))
    ref, _ = valued_solve(r2_solve, dense, h, box, origin.copy(),
                          max_iter=500, abs_tol=1e-10, rel_tol=0.0)
    pairs = list(zip(rep.diagnostics["iters"], ref.diagnostics["iters"]))
    pairs = pairs[:next(i for i, (_, b) in enumerate(pairs) if b["xi"] < 1e-8)]
    assert len(pairs) > 20
    for got, want in pairs:
        assert got["accepted"] == want["accepted"]
        assert got["rho"] == pytest.approx(want["rho"], rel=1e-6)


def test_r2_shifts_no_box_and_leaves_the_callers_box(monkeypatch):
    # R2 takes its box of points as it is: it shifts none to x (every solver
    # is checked the same way in tests/test_bench.py::test_every_prox_is_counted)
    def no_shift(self, x):
        raise AssertionError("Box.shifted")
    monkeypatch.setattr(Box, "shifted", no_shift)
    n = 6
    c = np.random.default_rng(13).standard_normal(n)
    d = np.linspace(0.2, 5.0, n)
    oracle = CallableOracle(lambda x: 0.5 * float(d @ (x - c) ** 2), lambda x: d * (x - c))
    bounds = Box(np.full(n, -0.5), np.full(n, 0.5))
    lo, hi = bounds.lo.copy(), bounds.hi.copy()
    for _ in range(2):
        rep, _ = valued_solve(r2_solve, oracle, Regularizer("l1", 0.1), bounds, np.zeros(n),
                              abs_tol=1e-8, rel_tol=0.0)
        assert sum(r["accepted"] for r in rep.diagnostics["iters"]) > 3
        assert np.array_equal(bounds.lo, lo) and np.array_equal(bounds.hi, hi)


@pytest.mark.parametrize("kind", ["l1", "l0"])
@pytest.mark.parametrize("diagonal", ["scalar", "vector"])
def test_first_order_step_is_the_inline_diagonal_trial_bit_for_bit(kind, diagonal):
    # the closed-form diagonal trial iprox_shifted(h, d, x - g / d, box) is
    # the first-order step with sigma = d: g / (-d) + x rounds as x - g / d,
    # so the point, the step, h at the point and g.t come out with the same
    # bits, for a scalar and for a vector d
    rng = np.random.default_rng(5)
    n = 300
    h = Regularizer(kind, 0.7)
    bounds = Box(np.where(rng.random(n) < 0.3, -np.inf, -2.0),
                 np.where(rng.random(n) < 0.3, np.inf, 2.0))
    for _ in range(5):
        x = bounds.clamp(rng.standard_normal(n))
        x[rng.random(n) < 0.2] = 0.0
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 2, n)
        d = 10.0 ** rng.uniform(-2, 3) if diagonal == "scalar" else 10.0 ** rng.uniform(-2, 3, n)
        box = bounds.ball(x, rng.uniform(0.1, 2.0))
        u, t, hu, gt, xi = first_order_step(h, x, h.value(x), g, d, box)
        u_want = iprox_shifted(h, d, x - g / d, box)
        t_want = u_want - x
        assert np.array_equal(u.view(np.int64), u_want.view(np.int64))
        assert np.array_equal(t.view(np.int64), t_want.view(np.int64))
        assert hu == h.value(u_want) and gt == float(g @ t_want) and xi >= 0.0
        # a real step, held by the box somewhere
        assert (u != x).any() and ((u == box.lo) | (u == box.hi)).any()
