"""Exact work counters of small solves, pinned so refactors can show "same behaviour".

Each row is (n_f, n_grad, n_prox, termination) from ``bench.run_solver``.
Only rows that stay put when x0 is scaled by 1 +- 1e-13 are pinned: a row
that moves under that jitter is not rounding-stable, and pinning it would
test the rounding of the platform rather than the algorithm.
"""
import pytest

from ripm import bench, problems

QP_400 = {
    "R2": (20, 16, 20, "converged"),
    "TRDH": (24, 14, 47, "converged"),
    "TR-R2": (30, 23, 234, "budget"),
    "RIPM-R2": (30, 12, 1568, "budget"),
    "RIPMDH": (30, 29, 88, "budget"),
    "RIPM-R2-p": (30, 22, 1986, "budget"),
    "RIPMDH-p": (30, 29, 88, "budget"),
}
# RIPM-R2, RIPM-R2-p and RIPMDH-p are left out: on bpdn they are not
# rounding-stable (RIPM-R2-p at seed 0 moves from n_f 906 to 614 under the jitter)
BPDN_40x96 = {
    "R2": (21, 17, 21, "converged"),
    "TRDH": (28, 17, 55, "converged"),
    "TR-R2": (16, 16, 92, "converged"),
    "RIPMDH": (251, 176, 757, "converged"),
}
# fh at 200 RK4 steps, budget 300: the only rows with the l0 prox and a
# one-sided bound on a subset of the variables.  RIPM-R2-p and RIPMDH-p move
# under the jitter and are left out.
FH_200 = {
    "R2": (300, 233, 300, "budget"),
    "TRDH": (239, 151, 477, "converged"),
    "TR-R2": (85, 44, 2334, "converged"),
    "RIPM-R2": (146, 75, 2038, "converged"),
    "RIPMDH": (300, 174, 600, "budget"),
}


def _counters(rep):
    return rep.n_f, rep.n_grad, rep.n_prox, rep.termination


@pytest.fixture(scope="module")
def qp_400():
    return problems.build("qp", 0, n=400, p=0.01)


@pytest.fixture(scope="module")
def bpdn_40x96():
    return problems.build("bpdn", 0, m=40, n=96, n_spikes=3)


@pytest.fixture(scope="module")
def fh_200():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problems, "FH_RK4_STEPS", 200)
        return problems.build("fh", 0)


@pytest.mark.parametrize("solver", sorted(QP_400))
def test_golden_counters_qp(qp_400, solver):
    assert _counters(bench.run_solver(solver, qp_400, 30)) == QP_400[solver]


@pytest.mark.parametrize("solver", sorted(BPDN_40x96))
def test_golden_counters_bpdn(bpdn_40x96, solver):
    assert _counters(bench.run_solver(solver, bpdn_40x96, 1000)) == BPDN_40x96[solver]


@pytest.mark.parametrize("solver", sorted(FH_200))
def test_golden_counters_fh(fh_200, solver):
    assert _counters(bench.run_solver(solver, fh_200, 300)) == FH_200[solver]
