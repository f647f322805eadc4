import numpy as np
import pytest

from ripm import qnops
from ripm.qnops import LBFGS, LSR1, SIGMA_MAX, SIGMA_MIN, SpectralDiag

from helpers import dense_sr1

OPERATORS = {"lsr1": LSR1}


def _spd_matrix(rng, n):
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def test_spectral_update_examples():
    op = SpectralDiag(2)
    s = np.array([1.0, 0.0])
    op.update(s, np.array([2.0, 0.0]), op.apply(s))
    assert op.sigma == pytest.approx(2.0)
    op1 = SpectralDiag(1)
    s1 = np.array([1.0])
    op1.update(s1, np.array([-1.0]), op1.apply(s1))
    assert op1.sigma == SIGMA_MIN  # negative curvature clamps to the floor
    assert np.allclose(op.apply(np.array([1.0, -2.0])), [2.0, -4.0])
    assert op.norm_estimate() == pytest.approx(2.0)


def test_spectral_clamp_range():
    op = SpectralDiag(1)
    s = np.array([1e-9])
    op.update(s, np.array([1e9]), op.apply(s))
    assert SIGMA_MIN <= op.sigma <= SIGMA_MAX


def test_fresh_operators_are_identity():
    for op in (LSR1(4), SpectralDiag(4)):
        v = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.allclose(op.apply(v), v)
        assert op.norm_estimate() == pytest.approx(1.0)


def test_lsr1_matches_dense_recursion(monkeypatch):
    rng = np.random.default_rng(1)
    n = 6
    M = rng.standard_normal((n, n))
    A = 0.5 * (M + M.T)  # indefinite target
    pairs = [(s, A @ s) for s in rng.standard_normal((4, n))]
    monkeypatch.setattr(qnops, "MEMORY", 10)
    op = LSR1(n)
    for s, y in pairs:
        op.update(s, y, op.apply(s))
    B = dense_sr1(pairs, n)
    for v in rng.standard_normal((5, n)):
        assert np.allclose(op.apply(v), B @ v, rtol=1e-10, atol=1e-10)


def _target(rng, n):
    """An indefinite symmetric matrix to sample pairs from."""
    M = rng.standard_normal((n, n))
    return 0.5 * (M + M.T)


@pytest.mark.parametrize("kind", ["lsr1"])
def test_memory_eviction_matches_dense_on_tail(monkeypatch, kind):
    # after four evictions the operator is the dense recursion of the last three pairs
    rng = np.random.default_rng(2)
    n = 5
    A = _target(rng, n)
    all_pairs = [(s, A @ s) for s in rng.standard_normal((7, n))]
    monkeypatch.setattr(qnops, "MEMORY", 3)
    op = OPERATORS[kind](n)
    for s, y in all_pairs:
        op.update(s, y, op.apply(s))
    B = dense_sr1(all_pairs[-3:], n)
    for v in rng.standard_normal((3, n)):
        assert np.allclose(op.apply(v), B @ v)


@pytest.mark.parametrize("kind", ["lsr1"])
def test_symmetry(kind):
    rng = np.random.default_rng(3)
    n = 8
    op = OPERATORS[kind](n)
    for _ in range(6):
        s = rng.standard_normal(n)
        op.update(s, rng.standard_normal(n), op.apply(s))
    for _ in range(100):
        v = rng.standard_normal(n)
        w = rng.standard_normal(n)
        lhs = float(v @ op.apply(w))
        rhs = float(w @ op.apply(v))
        assert abs(lhs - rhs) <= 1e-10 * np.linalg.norm(v) * np.linalg.norm(w)


def test_curvature_skip():
    # r = y - B s = (0, 3) is orthogonal to s, so the SR1 denominator r.s is 0
    op = LSR1(2)
    s = np.array([1.0, 0.0])
    assert not op.update(s, np.array([1.0, 3.0]), op.apply(s))
    v = np.array([2.0, -1.0])
    assert np.allclose(op.apply(v), v)  # still the identity


def test_sr1_quadratic_exactness_on_arbitrary_pairs(monkeypatch):
    rng = np.random.default_rng(6)
    n = 5
    A = _spd_matrix(rng, n)
    pairs = [rng.standard_normal(n) for _ in range(n)]
    monkeypatch.setattr(qnops, "MEMORY", n)
    op = LSR1(n)
    for s in pairs:
        op.update(s, A @ s, op.apply(s))
    for s in pairs:
        assert np.linalg.norm(op.apply(s) - A @ s) <= 1e-6 * np.linalg.norm(A @ s)


@pytest.mark.parametrize("kind", ["lsr1"])
def test_norm_estimate_within_factor_two(kind):
    rng = np.random.default_rng(7)
    n = 6
    for trial in range(5):
        op = OPERATORS[kind](n)
        dense = [np.eye(n)]
        for _ in range(4):
            s = rng.standard_normal(n)
            y = rng.standard_normal(n) * 3.0
            op.update(s, y, op.apply(s))
        # rebuild the dense operator from the accepted pairs
        B = dense_sr1(list(op.pairs), n)
        true_norm = np.linalg.norm(B, 2)
        est = op.norm_estimate()
        assert est >= true_norm / 2.0
        assert est <= true_norm * 1.001 + 1e-9


def test_norm_estimate_example_values():
    op = SpectralDiag(3)
    s = np.ones(3)
    op.update(s, np.full(3, 7.0), op.apply(s))
    assert op.norm_estimate() == pytest.approx(7.0)
    assert LSR1(3).norm_estimate() == 1.0


def _exact_norm_case(op, pairs, dense):
    for s, y in pairs:
        op.update(s, y, op.apply(s))
    B = dense(list(op.pairs), op.n)
    assert op.norm_estimate() == pytest.approx(np.linalg.norm(B, 2), rel=1e-10)
    return B


@pytest.mark.parametrize("kind", ["lsr1"])
def test_norm_estimate_is_exact(kind):
    rng = np.random.default_rng(8)
    n = 6
    for _ in range(5):
        pairs = [(rng.standard_normal(n), 3.0 * rng.standard_normal(n)) for _ in range(4)]
        _exact_norm_case(OPERATORS[kind](n), pairs, dense_sr1)


@pytest.mark.parametrize("kind, rows", [("lsr1", 5)])
def test_norm_estimate_exact_with_more_rows_than_dimensions(kind, rows):
    rng = np.random.default_rng(9)
    n = 3
    A = _target(rng, n)
    op = OPERATORS[kind](n)
    _exact_norm_case(op, [(s, A @ s) for s in rng.standard_normal((5, n))], dense_sr1)
    assert op._k == rows  # one row of W per SR1 pair, in three dimensions


def test_norm_estimate_exact_with_rank_deficient_factors():
    rng = np.random.default_rng(10)
    n = 6
    A = _spd_matrix(rng, n)
    s, t = rng.standard_normal((2, n))
    # the second pair's r = y - B s is 0.7 times the first's, so both pairs
    # are taken and W has two rows of rank one
    y = A @ s
    op = LSR1(n)
    B = _exact_norm_case(op, [(s, y), (t, dense_sr1([(s, y)], n) @ t + 0.7 * (y - s))],
                         dense_sr1)
    assert len(op.pairs) == op._k == 2 and np.linalg.matrix_rank(op._rows[:op._k]) == 1
    assert op.norm_estimate() == pytest.approx(np.linalg.norm(B, 2), rel=1e-15)


def test_norm_estimate_exact_when_the_largest_eigenvalue_is_negative(monkeypatch):
    rng = np.random.default_rng(11)
    n = 6
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q @ np.diag([-9.0, 3.0, 2.0, 1.0, 0.5, -1.0]) @ Q.T
    monkeypatch.setattr(qnops, "MEMORY", 10)
    B = _exact_norm_case(LSR1(n), [(s, A @ s) for s in rng.standard_normal((4, n))],
                         dense_sr1)
    eig = np.linalg.eigvalsh(B)
    assert -eig[0] > max(eig[-1], 1.0)


def test_norm_estimate_exact_when_the_identity_part_dominates():
    # B is 0.1 I on the span of the two rows of W and the identity elsewhere
    rng = np.random.default_rng(12)
    n = 6
    op = LSR1(n)
    _exact_norm_case(op, [(s, 0.1 * s) for s in rng.standard_normal((2, n))], dense_sr1)
    assert op._k == 2
    assert op.norm_estimate() == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# the operator without repeated work gives the bits of the full replay


def _same_operator(a, b):
    assert a._k == b._k
    assert np.array_equal(a._rows[:a._k], b._rows[:b._k])
    assert np.array_equal(a._signs[:a._k], b._signs[:b._k])


def _replayed(op):
    """A fresh operator of the same kind holding op's pairs, built by `_rebuild`."""
    fresh = type(op)(op.n)
    fresh.pairs.extend(op.pairs)
    fresh._rebuild()
    return fresh


def _pairs(op, rng, count):
    """Random pairs for op, made as op goes; its skip rule drops every fourth."""
    n = op.n
    for j in range(count):
        s = rng.standard_normal(n)
        if j % 4 < 3:
            y = 3.0 * rng.standard_normal(n)
        else:  # r = y - B s orthogonal to s
            t = rng.standard_normal(n)
            y = op.apply(s) + (t - (t @ s) / (s @ s) * s)
        yield s, y


@pytest.mark.parametrize("kind", ["lsr1"])
def test_rows_equal_a_fresh_rebuild_after_every_update(kind):
    rng = np.random.default_rng(13)
    op = OPERATORS[kind](7)
    taken = dropped = evictions = 0
    for s, y in _pairs(op, rng, 16):
        full = len(op.pairs) == op.memory
        ok = op.update(s, y, op.apply(s))
        taken += ok
        dropped += not ok
        evictions += ok and full
        _same_operator(op, _replayed(op))
    assert taken == 12 and dropped == 4 and evictions == 7


def _qr_rayleigh_ritz_norm(op):
    """||B|| by Rayleigh-Ritz on the `np.linalg.qr` basis of W^T, with `eigvalsh`."""
    W = op._rows[:op._k]
    Q = np.linalg.qr(W.T)[0]
    BQ = np.column_stack([op.apply(q) for q in Q.T])
    H = Q.T @ BQ
    norm = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (H + H.T)))))
    if Q.shape[1] < op.n:
        norm = max(norm, 1.0)
    return max(norm, 1e-12)


@pytest.mark.parametrize("n", [1, 3, 8, 512])
def test_norm_estimate_equals_the_numpy_qr_form_bit_for_bit(n):
    # L-SR1 takes k = 1..5 rows (k > n where n < 5, with rank-deficient W);
    # the repeated pair makes dependent rows at every n
    rng = np.random.default_rng(15)
    ks = set()
    op = LSR1(n)
    pairs = [(rng.standard_normal(n), 3.0 * rng.standard_normal(n)) for _ in range(6)]
    pairs.insert(3, pairs[0])
    for s, y in pairs:
        if op.update(s, y, op.apply(s)):
            ks.add(op._k)
            assert op.norm_estimate() == _qr_rayleigh_ritz_norm(op), op._k
    assert {1, 2, 3, 4, 5} <= ks if n >= 5 else max(ks) > n


def test_the_lbfgs_name_builds_no_operator():
    with pytest.raises(TypeError):
        LBFGS(3)
