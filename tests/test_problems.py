import functools

import numpy as np
import pytest

from ripm import problems
from ripm.errors import BudgetExhausted, OracleFailure
from ripm.problems import (FH_TRUE_PARAMS, PAPER_SCALE, build, from_config,
                           gen_bpdn, gen_fh, gen_nnmf, gen_qp)

from helpers import central_diff_grad, fh_reference, fh_sensitivity_grad


def _min_gap(inst, x):
    ml = np.isfinite(inst.bounds.lo)
    mu = np.isfinite(inst.bounds.hi)
    gaps = []
    if ml.any():
        gaps.append(np.min(x[ml] - inst.bounds.lo[ml]))
    if mu.any():
        gaps.append(np.min(inst.bounds.hi[mu] - x[mu]))
    return min(gaps) if gaps else np.inf


def test_paper_scale_presets():
    assert PAPER_SCALE["qp"] == {"n": 100_000, "p": 1e-4, "lam": 0.1}
    assert PAPER_SCALE["nnmf"] == {"m": 100, "n": 50, "k": 5, "lam": 0.1}
    assert PAPER_SCALE["fh"]["lam"] == 10.0
    assert PAPER_SCALE["fh"]["n_samples"] == 100
    assert PAPER_SCALE["bpdn"] == {"m": 200, "n": 512, "n_spikes": 5}


@pytest.mark.parametrize("name,params", [
    ("qp", {"n": 30, "p": 0.2, "lam": 0.3}),
    ("nnmf", {"m": 6, "n": 5, "k": 2, "lam": 0.2}),
    ("fh", {"n_samples": 20, "lam": 2.0, "noise_std": 0.05}),
    ("bpdn", {"m": 10, "n": 24, "n_spikes": 3, "noise_std": 0.1}),
])
def test_determinism_and_roundtrip(name, params):
    # the saved config rebuilds the start, the bounds and h of the instance
    a = build(name, seed=7, **params)
    b = from_config(a.to_config())
    assert np.array_equal(a.x0, b.x0)
    assert np.array_equal(a.bounds.lo, b.bounds.lo)
    assert np.array_equal(a.bounds.hi, b.bounds.hi)
    assert (a.h.kind, a.h.lam) == (b.h.kind, b.h.lam)
    assert np.array_equal(a.h.lam_per_component(a.x0.size), b.h.lam_per_component(b.x0.size))
    x = a.x0
    assert a.smooth.value(x) == b.smooth.value(x)
    assert np.array_equal(a.smooth.grad(x), b.smooth.grad(x))


@pytest.mark.parametrize("name,params", [
    ("qp", {"n": 30, "p": 0.2}),
    ("nnmf", {"m": 6, "n": 5, "k": 2}),
    ("fh", {"n_samples": 20}),
    ("bpdn", {"m": 10, "n": 24, "n_spikes": 3}),
])
def test_x0_strictly_interior(name, params):
    inst = build(name, seed=3, **params)
    assert _min_gap(inst, inst.x0) >= 1e-3


@pytest.mark.parametrize("name,params,empty", [
    ("qp", {"n": 0}, "n"), ("bpdn", {"m": 0}, "m"), ("nnmf", {"k": 0}, "k")])
def test_an_empty_problem_is_refused(name, params, empty):
    with pytest.raises(ValueError, match=rf"need {empty} >= 1"):
        build(name, seed=0, **params)


@pytest.mark.parametrize("name, params, message", [
    ("lp", {}, "unknown problem 'lp'; choose from ['bpdn', 'fh', 'nnmf', 'qp']"),
    ("nnmf", {"m": 6, "n": 5, "k": 5}, "need k < min(m, n)"),
    ("nnmf", {"m": 4, "n": 6, "k": 4}, "need k < min(m, n)"),
    ("fh", {"n_samples": 1}, "need at least two samples"),
    ("bpdn", {"m": 24, "n": 24}, "need m < n"),
    ("bpdn", {"m": 30, "n": 24}, "need m < n"),
], ids=["unknown_name", "nnmf_k_is_n", "nnmf_k_is_m", "fh_one_sample", "bpdn_square",
        "bpdn_tall"])
def test_a_malformed_problem_is_refused(name, params, message):
    with pytest.raises(ValueError) as info:
        build(name, seed=0, **params)
    assert type(info.value) is ValueError and str(info.value) == message


def test_qp_structure():
    inst = gen_qp(n=25, p=0.5, seed=1)
    H = inst.smooth.H.toarray()
    assert np.array_equal(H, H.T)
    assert np.all(inst.bounds.lo <= -1.0) and np.all(inst.bounds.hi >= 1.0)
    assert inst.h.kind == "l1" and inst.h.lam == 0.1
    assert np.allclose(inst.x0, 0.5 * (inst.bounds.lo + inst.bounds.hi))


def test_qp_gradient_fd():
    inst = gen_qp(n=30, p=0.2, seed=2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = inst.x0 + 0.1 * rng.standard_normal(inst.x0.size)
        g = inst.smooth.grad(x)
        g_fd = central_diff_grad(inst.smooth._value, x)
        assert np.linalg.norm(g - g_fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


def test_nnmf_exact_fit_is_stationary():
    inst = gen_nnmf(m=6, n=5, k=2, seed=0)
    rng = np.random.default_rng(1)
    W = rng.uniform(0.1, 1.0, size=(6, 2))
    H = rng.uniform(0.1, 1.0, size=(2, 5))
    inst.smooth.A = W @ H  # make the factorization exact
    x = np.concatenate([W.ravel(), H.ravel()])
    assert inst.smooth.value(x) == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(inst.smooth.grad(x), 0.0, atol=1e-12)


def test_nnmf_gradient_fd():
    inst = gen_nnmf(m=6, n=5, k=2, seed=4)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.uniform(0.2, 1.0, size=inst.x0.size)
        g = inst.smooth.grad(x)
        g_fd = central_diff_grad(inst.smooth._value, x)
        assert np.linalg.norm(g - g_fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


def test_nnmf_penalizes_h_block_only():
    inst = gen_nnmf(m=4, n=3, k=2, seed=0)
    mk = 4 * 2
    x = np.ones(inst.x0.size)
    assert inst.h.value(x) == pytest.approx(0.1 * 3 * 2)
    x[:mk] = 100.0  # W block is unpenalized
    assert inst.h.value(x) == pytest.approx(0.1 * 3 * 2)


def test_nnmf_data_nonnegative():
    inst = gen_nnmf(m=20, n=15, k=3, seed=5)
    assert np.all(inst.smooth.A >= 0.0)


def test_fh_zero_residual_at_truth():
    # noiseless data: the generator parameters reproduce their own samples
    inst = gen_fh(n_samples=50, noise_std=0.0)
    assert inst.smooth.value(FH_TRUE_PARAMS) == pytest.approx(0.0, abs=1e-20)


def test_fh_noise_is_seeded():
    a = gen_fh(n_samples=20, seed=3)
    b = gen_fh(n_samples=20, seed=3)
    c = gen_fh(n_samples=20, seed=4)
    assert np.array_equal(a.smooth.v_data, b.smooth.v_data)
    assert not np.array_equal(a.smooth.v_data, c.smooth.v_data)


def test_fh_settings():
    inst = gen_fh()
    assert inst.h.kind == "l0" and inst.h.lam == 10.0
    assert inst.bounds.lo[1] == 0.5
    assert np.all(np.isinf(inst.bounds.hi))
    assert np.isinf(inst.bounds.lo[0])
    assert inst.x0[1] > 0.5


def test_fh_gradient_fd():
    inst = gen_fh(n_samples=20)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = np.array([rng.uniform(-0.3, 0.3), rng.uniform(0.7, 1.3),
                      rng.uniform(0.3, 1.2), rng.uniform(0.0, 0.5),
                      rng.uniform(-0.3, 0.3)])
        g = inst.smooth.grad(x)
        g_fd = central_diff_grad(inst.smooth._value, x, eps=1e-6)
        assert np.linalg.norm(g - g_fd) <= 1e-4 * max(1.0, np.linalg.norm(g))


def test_fh_blowup_returns_inf():
    inst = gen_fh(n_samples=20)
    bad = np.array([0.0, 1e-9, 1e6, -1e6, 1e6])
    assert inst.smooth.value(bad) == np.inf


def test_fh_grad_at_blowup_raises():
    inst = gen_fh(n_samples=20)
    bad = np.array([0.0, 1e-9, 1e6, -1e6, 1e6])
    with pytest.raises(OracleFailure):
        inst.smooth.grad(bad)
    assert inst.smooth.value(bad) == np.inf
    with pytest.raises(OracleFailure):
        inst.smooth.grad(bad)  # after the value, too: a blow-up keeps no trajectory


FH_POINTS = [np.array([0.5, 1.0, 0.5, 0.5, 0.5]),
             np.array([0.1, 0.7, 0.9, 0.2, -0.1]),
             np.array([-0.2, 1.3, 1.1, 0.4, 0.25])]


@pytest.mark.parametrize("n_samples, stride", [(100, 20), (20, 100), (7, 286), (2000, 1)])
def test_fh_adjoint_matches_sensitivities(n_samples, stride):
    inst = gen_fh(n_samples=n_samples)
    assert inst.smooth.stride == stride
    assert inst.smooth.n_steps == stride * n_samples
    for x in FH_POINTS:
        g_ref = fh_sensitivity_grad(inst.smooth, x)
        g = inst.smooth.grad(x)
        assert np.max(np.abs(g - g_ref)) <= 1e-10 * np.max(np.abs(g_ref))


def test_fh_adjoint_matches_sensitivities_at_200_steps(monkeypatch):
    monkeypatch.setattr(problems, "FH_RK4_STEPS", 200)
    inst = gen_fh()
    assert (inst.smooth.n_steps, inst.smooth.stride) == (200, 2)
    for x in FH_POINTS:
        inst.smooth.value(x)  # the gradient runs on the kept trajectory
        g_ref = fh_sensitivity_grad(inst.smooth, x)
        g = inst.smooth.grad(x)
        assert np.max(np.abs(g - g_ref)) <= 1e-10 * np.max(np.abs(g_ref))


def _fh_draws(rng, count):
    """Points around the fh start, scaled out so that some blow up."""
    for _ in range(count):
        x = np.array([rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-2.0, 0.5),
                      rng.uniform(-2.0, 3.0), rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 1.0)])
        yield x * 10.0 ** rng.uniform(0.0, 1.5)


@pytest.mark.parametrize("steps", [2000, 200])
@pytest.mark.parametrize("n_samples", [100, 7])
def test_fh_oracle_matches_the_scalar_reference_bit_for_bit(monkeypatch, steps, n_samples):
    # the tolerance tests above would pass a reordered operation; this one would not
    monkeypatch.setattr(problems, "FH_RK4_STEPS", steps)
    oracle = gen_fh(n_samples=n_samples).smooth
    blowups = 0
    for i, x in enumerate(_fh_draws(np.random.default_rng(steps + n_samples), 30)):
        f_ref, g_ref = fh_reference(oracle, x)
        o = oracle.fresh()
        if i % 2:
            assert o.value(x) == f_ref  # the gradient then reads the kept trajectory
        if g_ref is None:
            blowups += 1
            with pytest.raises(OracleFailure):
                o.grad(x)
        else:
            assert np.array_equal(o.grad(x), g_ref)
        assert o.value(x) == f_ref
    assert 3 <= blowups <= 27


@pytest.fixture(scope="module")
def fh20():
    return gen_fh(n_samples=20).smooth


# the oracles that keep the work their value and gradient share (see `oracles`)
CACHED = ["qp", "bpdn", "nnmf", "fh"]
SMALL = {"qp": {"n": 40, "p": 0.1}, "bpdn": {"m": 10, "n": 24, "n_spikes": 3},
         "nnmf": {"m": 8, "n": 6, "k": 2}, "fh": {"n_samples": 20}}


@functools.cache
def _small_oracle(name):
    """The oracle of a small instance and two points to take it at."""
    if name == "fh":
        return gen_fh(**SMALL[name]).smooth, FH_POINTS[1], FH_POINTS[2]
    inst = build(name, 0, **SMALL[name])
    rng = np.random.default_rng(5)
    x, y = (inst.x0 + 0.1 * rng.standard_normal(inst.x0.size) for _ in range(2))
    return inst.smooth, x, y


@pytest.mark.parametrize("name", CACHED)
def test_grad_after_value_elsewhere(name):
    base, x, y = _small_oracle(name)
    oracle = base.fresh()
    oracle.value(y)
    assert np.array_equal(oracle.grad(x), base.fresh().grad(x))
    assert not np.array_equal(oracle.grad(x), base.fresh().grad(y))


@pytest.mark.parametrize("name", CACHED)
def test_grad_after_x_changed_in_place(name):
    base, x, _ = _small_oracle(name)
    oracle = base.fresh()
    x = x.copy()
    oracle.value(x)
    g_before = base.fresh().grad(x)
    x[2] += 1e-3
    g = oracle.grad(x)
    assert np.array_equal(g, base.fresh().grad(x)) and not np.array_equal(g, g_before)


@pytest.mark.parametrize("name", CACHED)
def test_fresh_copy_keeps_no_work(name):
    base, x, _ = _small_oracle(name)
    oracle = base.fresh()
    oracle.value(x)
    assert oracle._cache is not None
    assert oracle.fresh()._cache is None


class _CountedMatmul:
    """A matrix whose products M @ v are counted; its transpose is not."""

    def __init__(self, M, calls):
        self.M, self.calls = M, calls

    def __matmul__(self, v):
        self.calls.append(1)
        return self.M @ v

    @property
    def T(self):
        return self.M.T


@pytest.mark.parametrize("name", ["qp", "bpdn", "nnmf"])
def test_value_then_grad_forms_the_shared_product_once(monkeypatch, name):
    # the product value and gradient share: H @ x (qp), A @ x (bpdn), W @ H (nnmf)
    base, x, _ = _small_oracle(name)
    oracle = base.fresh()
    calls = []
    if name == "nnmf":
        split = oracle._split

        def counted_split(v):
            W, H = split(v)
            return _CountedMatmul(W, calls), H
        monkeypatch.setattr(oracle, "_split", counted_split)
    else:
        attr = "H" if name == "qp" else "A"
        monkeypatch.setattr(oracle, attr, _CountedMatmul(getattr(oracle, attr), calls))
    f, g = oracle.value(x), oracle.grad(x.copy())
    assert len(calls) == 1
    assert f == base.fresh().value(x) and np.array_equal(g, base.fresh().grad(x))


def test_fh_grad_counts_no_value(fh20):
    oracle = fh20.fresh()
    x, y = FH_POINTS[1], FH_POINTS[2]
    oracle.value(x)
    oracle.grad(x)
    oracle.grad(y)
    assert (oracle.n_f, oracle.n_grad) == (1, 2)


@pytest.mark.parametrize("name", CACHED)
def test_refused_value_keeps_the_earlier_point(name):
    base, x, y = _small_oracle(name)
    oracle = base.fresh()
    oracle.value(y)
    oracle.budget = 1
    with pytest.raises(BudgetExhausted):
        oracle.value(x)
    assert np.array_equal(oracle._cache[0], y)
    assert np.array_equal(oracle.grad(x), base.fresh().grad(x))


def test_bpdn_structure():
    inst = gen_bpdn(m=10, n=24, n_spikes=3, seed=6)
    A = inst.smooth.A
    assert np.allclose(A @ A.T, np.eye(10), atol=1e-10)
    assert np.sum(inst.x_star == 1.0) == 3
    assert np.sum(inst.x_star != 0.0) == 3
    lam_expected = np.max(np.abs(A.T @ inst.smooth.b)) / 10.0
    assert inst.h.lam == pytest.approx(lam_expected, rel=0, abs=0)


def test_bpdn_noise_convention():
    # default reads N(0, 0.01) as a standard deviation; noise_std switches it
    a = gen_bpdn(m=40, n=80, n_spikes=4, seed=9)
    b = gen_bpdn(m=40, n=80, n_spikes=4, seed=9, noise_std=0.01)
    assert np.array_equal(a.smooth.b, b.smooth.b)
    c = gen_bpdn(m=40, n=80, n_spikes=4, seed=9, noise_std=0.1)
    assert not np.array_equal(a.smooth.b, c.smooth.b)
    resid = a.smooth.b - a.smooth.A @ a.x_star
    assert np.linalg.norm(resid) / np.sqrt(40) < 0.05  # std-scale noise


def test_bpdn_gradient_fd():
    inst = gen_bpdn(m=10, n=24, n_spikes=3, seed=8)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.uniform(0.1, 1.0, size=24)
        g = inst.smooth.grad(x)
        g_fd = central_diff_grad(inst.smooth._value, x)
        assert np.linalg.norm(g - g_fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


def test_fresh_oracle_counters():
    inst = gen_bpdn(m=10, n=24, n_spikes=3, seed=0)
    inst.smooth.value(inst.x0)
    o2 = inst.smooth.fresh()
    assert o2.n_f == 0 and inst.smooth.n_f == 1
    o2.value(inst.x0)
    assert o2.n_f == 1 and inst.smooth.n_f == 1


def test_evals_left_and_held_back_evaluations():
    # the oracle says how many values the budget allows; one held back is
    # refused inside the block and given back after it, also when the block
    # raises, and a value past the budget still raises.  A fresh oracle's
    # budget is infinite, which is unlimited
    oracle = build("qp", 0, n=20, p=0.2).smooth.fresh()
    x = np.full(20, 0.5)
    assert oracle.budget == np.inf and oracle.evals_left() == np.inf
    with oracle.held_back():
        assert oracle.evals_left() == np.inf
    assert oracle.budget == np.inf
    oracle.budget = 3
    oracle.value(x)
    assert oracle.evals_left() == 2
    with pytest.raises(BudgetExhausted):
        with oracle.held_back():
            assert oracle.evals_left() == 1
            oracle.value(x)
            assert oracle.evals_left() == 0
            oracle.value(x)
    assert oracle.budget == 3 and oracle.evals_left() == 1
    oracle.value(x)
    assert oracle.evals_left() == 0
    with pytest.raises(BudgetExhausted):
        oracle.value(x)
    assert oracle.n_f == 3
