import numpy as np
import pytest

from ripm import bench, problems, regprox
from ripm import trust_region as tr
from ripm.interior import BarrierTerms
from ripm.qnops import LSR1, SpectralDiag
from ripm.regprox import Box, Regularizer
from ripm.report import CONVERGED, TR_RECORD, IterLog, evaluate_start
from ripm.trust_region import tr_solve, update_radius

from helpers import CallableOracle, dense_sr1, grid_min_1d, valued_solve
from test_golden import BPDN_40x96

FREE = Box(np.full(1, -np.inf), np.full(1, np.inf))  # every point of the line


def _quad_shift(center):
    c = np.asarray(center, dtype=float)
    return CallableOracle(lambda x: 0.5 * float(np.sum((x - c) ** 2)), lambda x: x - c)


@pytest.fixture
def tight(monkeypatch):
    # with rel_tol=0.0 the solves stop on the absolute tolerance alone
    monkeypatch.setattr(tr, "ABS_TOL", 1e-8)


def test_tr_interior_minimum(tight):
    n = 4
    bounds = Box(np.zeros(n), np.full(n, np.inf))
    rep, _ = valued_solve(tr_solve, _quad_shift(np.ones(n)), Regularizer("l1"), bounds,
                          LSR1(n), 0.5 * np.ones(n), rel_tol=0.0)
    assert rep.termination == CONVERGED
    assert np.allclose(rep.x, 1.0, atol=1e-6)


def test_tr_active_bounds(tight):
    n = 3
    bounds = Box(np.zeros(n), np.full(n, np.inf))
    rep, _ = valued_solve(tr_solve, _quad_shift(-np.ones(n)), Regularizer("l1"), bounds,
                          LSR1(n), np.ones(n), rel_tol=0.0)
    assert np.allclose(rep.x, 0.0, atol=1e-9)


def test_tr_l1_unbounded_domain(tight):
    rep, _ = valued_solve(tr_solve, _quad_shift([2.0]), Regularizer("l1", 1.0), FREE,
                          LSR1(1), np.array([0.0]), rel_tol=0.0)
    xg, _ = grid_min_1d(lambda t: 0.5 * (t - 2.0) ** 2 + abs(t), -4, 4)
    assert rep.x[0] == pytest.approx(1.0, abs=1e-6)
    assert rep.x[0] == pytest.approx(xg, abs=2e-3)


def test_trdh_interior_minimum(tight):
    n = 4
    bounds = Box(np.zeros(n), np.full(n, np.inf))
    rep, _ = valued_solve(tr_solve, _quad_shift(np.ones(n)), Regularizer("l1"), bounds,
                          SpectralDiag(n), 0.5 * np.ones(n), rel_tol=0.0)
    assert rep.termination == CONVERGED
    assert np.allclose(rep.x, 1.0, atol=1e-6)


def test_trdh_l1_matches_grid(tight):
    rep, _ = valued_solve(tr_solve, _quad_shift([2.0]), Regularizer("l1", 1.0), FREE,
                          SpectralDiag(1), np.array([0.0]), rel_tol=0.0)
    assert rep.x[0] == pytest.approx(1.0, abs=1e-6)


def test_trdh_separable_quadratic_soft_threshold_step(tight):
    # with a separable objective the accepted TRDH step is the componentwise
    # soft threshold of the scaled gradient step, clamped into the step box
    n = 3
    c = np.array([2.0, -1.5, 0.5])
    rep, _ = valued_solve(tr_solve, _quad_shift(c), Regularizer("l1", 0.3),
                          Box(np.full(n, -np.inf), np.full(n, np.inf)),
                          SpectralDiag(n), np.zeros(n), rel_tol=0.0)
    xg = np.sign(c) * np.maximum(np.abs(c) - 0.3, 0.0)
    assert np.allclose(rep.x, xg, atol=1e-6)


def test_trdh_steps_with_a_scalar_sigma(monkeypatch):
    # without a barrier Theta is a 0-d zero, so sigma = diag(B) + Theta of
    # the diagonal step is a scalar, as the spectral diagonal is
    sigmas = []
    kernel = regprox.iprox_shifted

    def recording(h, d, q, box):
        sigmas.append(np.ndim(d))
        return kernel(h, d, q, box)

    monkeypatch.setattr(regprox, "iprox_shifted", recording)
    inst = problems.build("bpdn", 0, m=10, n=24, n_spikes=3)
    rep, _ = valued_solve(tr_solve, inst.smooth.fresh(), inst.h, inst.bounds,
                          SpectralDiag(inst.x0.size), inst.x0)
    assert len(rep.diagnostics["iters"]) > 1 and len(sigmas) == rep.n_prox
    assert sigmas == [0] * rep.n_prox


def test_trdh_two_prox_per_iteration(tight):
    rep, _ = valued_solve(tr_solve, _quad_shift([3.0]), Regularizer("l1", 0.5), FREE,
                          SpectralDiag(1), np.array([0.1]), rel_tol=0.0)
    stepped = len(rep.diagnostics["iters"])
    if rep.termination == CONVERGED:
        assert rep.n_prox == 2 * stepped + 1
    else:
        assert rep.n_prox == 2 * stepped


def test_radius_schedule_conformance(monkeypatch):
    monkeypatch.setattr(tr, "ABS_TOL", 1e-6)
    oracle = CallableOracle(lambda x: float(np.sum(np.cosh(x))),
                            lambda x: np.sinh(x))
    rep, _ = valued_solve(tr_solve, oracle, Regularizer("l1", 0.1),
                          Box(np.full(1, -5.0), np.full(1, 5.0)), LSR1(1), np.array([2.0]),
                          rel_tol=0.0)
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
    rep, _ = valued_solve(tr_solve, oracle, Regularizer("l1", 0.1),
                          Box(np.full(1, -5.0), np.full(1, 5.0)), LSR1(1), np.array([2.0]),
                          rel_tol=0.0)
    for it in rep.diagnostics["iters"]:
        assert it["s_inf"] <= it["cap_inf"] + 1e-12
        assert it["cap_inf"] <= min(it["delta_before"], tr.BETA * it["s1_norm2"]) + 1e-12
        assert it["xi"] + 1e-10 * max(1.0, it["xi"]) >= 0.5 / it["nu"] * it["s1_norm2"] ** 2


def test_unsuccessful_iterations_do_not_move_x(monkeypatch):
    monkeypatch.setattr(tr, "ABS_TOL", 1e-6)
    # oscillatory objective: the quadratic model overshoots and gets rejected
    oracle = CallableOracle(lambda x: 0.5 * float(x @ x) + 2.0 * float(np.sum(np.sin(5 * x))),
                            lambda x: x + 10.0 * np.cos(5 * x))
    rep, trace = valued_solve(tr_solve, oracle, Regularizer("l1"),
                              Box(np.full(1, -6.0), np.full(1, 6.0)), SpectralDiag(1),
                              np.array([2.0]), rel_tol=0.0)
    iters = rep.diagnostics["iters"]
    assert any(not it["accepted"] for it in iters)
    # gradients are evaluated only when x moves: one per accepted step plus x0
    assert len(trace) == 1 + sum(1 for it in iters if it["accepted"])
    assert rep.termination == CONVERGED


def test_diagonal_operator_takes_the_trdh_step(monkeypatch):
    # the step follows the operator: with the spectral diagonal, TR never calls
    # the R2 subsolver and gives TRDH's golden counters; with LSR1 it calls it
    def no_subsolve(*args, **kwargs):
        raise AssertionError("R2 subsolve")

    monkeypatch.setattr(tr, "r2_solve", no_subsolve)
    inst = problems.build("bpdn", 0, m=40, n=96, n_spikes=3)
    oracle = inst.smooth.fresh()
    oracle.budget = 1000
    rep, _ = valued_solve(tr_solve, oracle, inst.h, inst.bounds, SpectralDiag(96), inst.x0)
    assert (oracle.n_f, oracle.n_grad, rep.n_prox, rep.termination) == BPDN_40x96["TRDH"]
    with pytest.raises(AssertionError, match="R2 subsolve"):
        valued_solve(tr_solve, inst.smooth.fresh(), inst.h, inst.bounds, LSR1(96), inst.x0)


@pytest.mark.parametrize("solver", ["TR-R2", "RIPM-R2"])
def test_the_loop_hands_its_product_to_the_update(monkeypatch, solver):
    # every update gets the loop's B s, without the barrier's Theta s, bit for
    # bit the product it would form; a taken pair replays one product for each
    # kept pair, and a skipped pair forms none
    checked = []

    class Checked(LSR1):
        def update(self, s, y, bs):
            assert np.array_equal(bs, self.apply(s))
            apply, applies = self.apply, []
            self.apply = lambda v: applies.append(v) or apply(v)
            try:
                ok = super().update(s, y, bs)
            finally:
                del self.apply
            assert len(applies) == (len(self.pairs) if ok else 0)
            checked.append(ok)
            return ok

    monkeypatch.setitem(bench.SOLVERS, solver, bench.SOLVERS[solver]._replace(qn=Checked))
    inst = problems.build("bpdn", 0, m=40, n=96, n_spikes=3)
    rep = bench.run_solver(solver, inst, 1000)
    assert rep.error is None and sum(checked) > 5


def test_trdh_evaluates_h_once_at_each_point(monkeypatch):
    # h is evaluated at x0, at the Cauchy point of every iteration (the last one
    # measures and stops) and once at every trial point, which is the prox
    # output.  f is asked at x0 and at each trial with a positive model
    # decrease (rho > -inf), except one equal to the last point valued
    value, step = Regularizer.value, tr.first_order_step
    calls, steps = [], []

    def counted(self, x):
        calls.append(1)
        return value(self, x)

    def logged_step(*args):
        out = step(*args)
        steps.append(out[0])
        return out
    monkeypatch.setattr(Regularizer, "value", counted)
    monkeypatch.setattr(tr, "first_order_step", logged_step)
    inst = problems.build("bpdn", 0, m=40, n=96, n_spikes=3)
    oracle = inst.smooth.fresh()
    oracle.budget = 1000
    rep, _ = valued_solve(tr_solve, oracle, inst.h, inst.bounds, SpectralDiag(inst.x0.size),
                          inst.x0)
    assert rep.termination == CONVERGED
    iters = rep.diagnostics["iters"]
    trials = sum(not np.isnan(it["rho"]) for it in iters)
    assert trials == len(iters)
    assert len(calls) == 1 + (len(iters) + 1) + trials
    # each iteration takes its Cauchy step, then its trial step
    last, positive, repeated = inst.x0, 0, 0
    for it, x_t in zip(iters, steps[1::2]):
        if it["rho"] > -np.inf:
            positive += 1
            repeated += np.array_equal(x_t, last)
            last = x_t
    assert repeated > 0
    assert oracle.n_f - 1 == positive - repeated


def test_trdh_asks_for_f_once_at_each_point(monkeypatch):
    # a rejected trial that the next, smaller radius does not cut off comes
    # back at the same point, and its f is the one already asked
    inst = problems.build("qp", 0, n=400, p=0.01)
    oracle = inst.smooth.fresh()
    oracle.budget = 30
    value, valued = oracle.value, []

    def logged_value(x):
        valued.append(x.copy())
        return value(x)
    oracle.value = logged_value
    rep, _ = valued_solve(tr_solve, oracle, inst.h, inst.bounds, SpectralDiag(inst.x0.size),
                          inst.x0)
    assert len(valued) == oracle.n_f and any(not it["accepted"] for it in rep.diagnostics["iters"])
    assert not any(np.array_equal(a, b) for a, b in zip(valued, valued[1:]))


def test_a_trial_without_model_decrease_asks_for_no_f():
    # an operator whose product is 100 times its diagonal view: the first six
    # trials, which the radius does not cap, overshoot their model, whose
    # decrease is then negative, so each fails whatever f says and the loop
    # asks for no f past x0
    class Steep(SpectralDiag):
        def apply(self, v):
            return 100.0 * super().apply(v)

    n = 3
    smooth, h, x = _quad_shift(np.full(n, 2.0)), Regularizer("l1", 0.1), np.ones(n)
    records = IterLog(TR_RECORD)
    fx, hx, gx = evaluate_start(smooth, h, x)
    res = tr.tr_iterate(smooth, h, tr.ShiftedBounds(Box(np.full(n, -5.0), np.full(n, 5.0))),
                        Steep(n), x, fx, hx, gx, 1.0, max_iter=6, abs_tol=1e-8, rel_tol=0.0,
                        records=records)
    assert res.status == "cap" and len(records) == 6
    assert all(r["rho"] == -np.inf and r["s_inf"] > 0 for r in records)
    assert smooth.n_f == 1 and np.array_equal(res.x, x)


def test_a_collapsed_radius_stops_the_loop_as_stalled():
    # the fh regime: l0 with h(x) = 30 and x of order 1.  At Delta = 1e-30 the
    # step box rounds to x, so no step or measure is resolved there; the loop
    # stops before it measures and reports no measure, not a 0 one
    n = 3
    smooth = _quad_shift(np.full(n, 2.0))
    h = Regularizer("l0", 10.0)
    x = np.ones(n)
    fx, hx, gx = evaluate_start(smooth, h, x)
    res = tr.tr_iterate(smooth, h, tr.ShiftedBounds(Box(np.full(n, -5.0), np.full(n, 5.0))),
                        SpectralDiag(n), x, fx, hx, gx, 1e-30, max_iter=10, abs_tol=1e-8,
                        rel_tol=0.0, records=IterLog(TR_RECORD))
    assert res.status == "stalled" and res.crit == np.inf and h.n_prox == 0
    assert np.array_equal(res.x, x) and smooth.n_f == 1


@pytest.mark.parametrize("step", ["diagonal", "r2"])
@pytest.mark.parametrize("constraint, most", [("bounds", 2), ("barrier", 3)])
def test_boxes_built_per_iteration(monkeypatch, step, constraint, most):
    # each iteration builds its step box and its cap box in one pass each, as
    # balls within the constraint box, and a barrier stage adds the
    # fraction-to-boundary box, except after a rejected step, which keeps it.
    # Each is built unchecked, and none through the checks of `Box(...)`.
    # An iteration starts with its step box, the first ball it builds
    built, balls, checked = [], [], []
    unchecked, post_init, ball = Box._unchecked.__func__, Box.__post_init__, Box.ball

    def counting(cls, lo, hi):
        built.append(1)
        return unchecked(cls, lo, hi)

    def counting_checked(self):
        checked.append(1)
        post_init(self)

    def counting_ball(self, x, r):
        if len(balls) % 2 == 0:
            marks.append(len(built))
        balls.append(1)
        return ball(self, x, r)

    n = 6
    bounds = Box(np.array([0.0, -np.inf, 0.0, -1.0, -np.inf, 0.0]),
                 np.array([np.inf, 3.0, 4.0, np.inf, np.inf, 2.5]))
    if constraint == "bounds":
        cons = tr.ShiftedBounds(bounds)
    else:
        cons = BarrierTerms(bounds, 1e-2, "lagrangian")
    marks = []
    # a coupled, badly scaled quadratic: no operator solves it in a few steps
    M = np.random.default_rng(3).standard_normal((n, n)) * np.logspace(0, 2, n)
    A, c = M.T @ M, np.array([3.0, 5.0, -1.0, 0.5, 2.0, 1.0])
    smooth = CallableOracle(lambda v: 0.5 * float((v - c) @ A @ (v - c)), lambda v: A @ (v - c))
    h = Regularizer("l1", 0.1)
    x = np.ones(n)
    records = IterLog(TR_RECORD)
    fx, hx, gx = evaluate_start(smooth, h, x)
    monkeypatch.setattr(Box, "_unchecked", classmethod(counting))
    monkeypatch.setattr(Box, "__post_init__", counting_checked)
    # sixteen steps: in the barrier stage LSR1's first rejection comes at the
    # 15th, and the test needs a rejected one
    monkeypatch.setattr(Box, "ball", counting_ball)
    res = tr.tr_iterate(smooth, h, cons, SpectralDiag(n) if step == "diagonal" else LSR1(n),
                        x, fx, hx, gx, 1.0, max_iter=16, abs_tol=0.0, rel_tol=0.0,
                        records=records)
    # every iteration that tries a step builds two balls, and the last one,
    # which measures and stops, builds its step box
    assert res.status == "cap" and len(balls) == 2 * len(records) + 1 and not checked
    per_iteration = np.diff(marks)
    assert len(per_iteration) >= 3 and per_iteration.max() <= most
    if constraint == "barrier":
        after_rejected = [j for j, r in enumerate(records) if not r["accepted"] and r["s_inf"] > 0]
        assert after_rejected and (per_iteration[after_rejected] == 2).all()


@pytest.mark.parametrize("step", ["diagonal", "r2"])
def test_the_loop_asks_for_the_barrier_terms_once_per_point(step):
    # f = (x - 2)^2 / 2 and h = |x| / 2 on x > 0, solved to 1e-10: the stage
    # rejects steps near its end, and a zero step refreshes the duals.  The
    # loop asks for the terms at entry with no step, and after each accepted
    # step and each zero step with that step, (gaps of the point left, s),
    # and never twice at one x and z.  No constraint object has another
    # method for the dual update
    bounds = Box(np.zeros(1), np.full(1, np.inf))
    cons = BarrierTerms(bounds, 1.0, "lagrangian")
    assert not hasattr(cons, "accept") and not hasattr(tr.ShiftedBounds(bounds), "accept")
    asked = []
    at = cons.at

    def counted_at(gx, gaps, step=None):
        terms = at(gx, gaps, step)
        asked.append((gaps, step, cons.z))
        return terms

    cons.at = counted_at
    smooth, h, x = _quad_shift([2.0]), Regularizer("l1", 0.5), np.array([3.0])
    records = IterLog(TR_RECORD)
    fx, hx, gx = evaluate_start(smooth, h, x)
    res = tr.tr_iterate(smooth, h, cons, SpectralDiag(1) if step == "diagonal" else LSR1(1),
                        x, fx, hx, gx, 100.0, max_iter=200, abs_tol=1e-10, rel_tol=0.0,
                        records=records)
    accepted = sum(r["accepted"] for r in records)
    rejected = sum(not r["accepted"] and r["s_inf"] > 0 for r in records)
    zero = sum(r["exit"] is None and r["s_inf"] == 0 for r in records)
    assert res.status == "tol" and rejected > 10 and zero >= 1
    assert len(asked) == 1 + accepted + zero
    assert all(a[0] is not b[0] or a[2] is not b[2] for a, b in zip(asked, asked[1:]))
    # the steps, in the order the records take them; on x > 0 the gaps are (x,)
    moves = [r for r in records if r["accepted"] or (r["exit"] is None and r["s_inf"] == 0)]
    assert asked[0][1] is None
    for (left, _, _), (gaps, (gaps_left, s), _), r in zip(asked, asked[1:], moves):
        assert gaps_left is left and float(np.abs(s).max()) == r["s_inf"]
        if r["accepted"]:
            assert s[0] == gaps[0][0] - left[0][0]
        else:
            assert gaps is left and not np.count_nonzero(s)


@pytest.mark.parametrize("constraint", ["bounds", "barrier"])
def test_the_subsolve_starts_from_the_cauchy_step(monkeypatch, constraint):
    # the loop hands R2 the model at u1 that it already holds: h(u1) from the
    # Cauchy step, bit for bit, and the gradient g + (B + Theta) s1, formed with
    # one operator product and no value of h.  It takes the trial point and h
    # there from the result, so no value of h follows the subsolve before the
    # next iteration's first-order step
    n = 6
    rng = np.random.default_rng(7)
    qn = LSR1(n)
    M = rng.standard_normal((n, n))
    A = M @ M.T + np.eye(n)
    for _ in range(3):
        v = rng.standard_normal(n)
        assert qn.update(v, A @ v + 0.1 * rng.standard_normal(n), qn.apply(v))
    B = dense_sr1(list(qn.pairs), n)
    bounds = Box(np.zeros(n), np.full(n, 4.0))
    if constraint == "bounds":
        cons = tr.ShiftedBounds(bounds)
    else:
        cons = BarrierTerms(bounds, 1e-1, "lagrangian")
    c = rng.standard_normal(n) + 2.0
    smooth = CallableOracle(lambda v: 0.5 * float((v - c) @ A @ (v - c)), lambda v: A @ (v - c))
    h = Regularizer("l1", 0.1)
    x = np.ones(n)
    fx, hx, gx = evaluate_start(smooth, h, x)

    applies, h_values, terms, steps, starts, after = [], [], [], [], [], []
    apply, value, at = qn.apply, Regularizer.value, cons.at
    step, solve = tr.first_order_step, tr.r2_solve

    def counted_apply(v):
        applies.append(1)
        return apply(v)

    def counted_value(self, v):
        h_values.append(1)
        return value(self, v)

    def kept_at(*args):
        terms.append(at(*args))
        return terms[-1]

    def kept_step(*args):
        if len(after) == 1:  # the first step since the subsolve returned
            after.append(len(h_values))
        steps.append((step(*args), len(applies), len(h_values)))
        return steps[-1][0]

    def kept_solve(model, reg, box, x0, f0, h0, g0, **kw):
        # what forming the start cost since the last first-order step (the
        # measure's, in the barrier stage)
        _, applies_then, h_values_then = steps[-1]
        cost = (len(applies) - applies_then, len(h_values) - h_values_then)
        starts.append((x0, (f0, h0, g0), cost))
        result = solve(model, reg, box, x0, f0, h0, g0, **kw)
        after.append(len(h_values))
        return result

    monkeypatch.setattr(qn, "apply", counted_apply)
    monkeypatch.setattr(Regularizer, "value", counted_value)
    monkeypatch.setattr(cons, "at", kept_at)
    monkeypatch.setattr(tr, "first_order_step", kept_step)
    monkeypatch.setattr(tr, "r2_solve", kept_solve)
    tr.tr_iterate(smooth, h, cons, qn, x, fx, hx, gx, 1.0, max_iter=1, abs_tol=0.0,
                  rel_tol=0.0, records=IterLog(TR_RECORD))
    assert len(starts) == 1
    x0, (f0, h0, g0), cost = starts[0]
    u1, s1, h1, _, _ = steps[0][0]
    g, theta = terms[0][:2]
    assert constraint == "bounds" or np.all(theta > 0)
    assert x0 is u1 and f0 == 0.0
    assert h0 == h1 == value(h, u1)
    want = g + B @ s1 + theta * s1
    assert np.abs(g0 - want).max() <= 1e-12 * np.abs(want).max()
    assert cost == (1, 0)  # one qn.apply, no value of h
    assert len(after) == 2 and after[0] == after[1]
