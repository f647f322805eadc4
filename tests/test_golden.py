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
    "TR-R2": (30, 23, 236, "max_iter"),
    "RIPM-R2": (30, 12, 1832, "max_iter"),
    "RIPMDH": (30, 30, 92, "max_iter"),
    "RIPM-R2-p": (30, 23, 2388, "max_iter"),
    "RIPMDH-p": (30, 30, 92, "max_iter"),
}
# RIPM-R2, RIPM-R2-p and RIPMDH-p are left out: on bpdn they are not
# rounding-stable (RIPM-R2-p at seed 0 moves from n_f 906 to 614 under the jitter)
BPDN_40x96 = {
    "R2": (21, 17, 21, "converged"),
    "TRDH": (28, 17, 55, "converged"),
    "TR-R2": (16, 16, 92, "converged"),
    "RIPMDH": (251, 176, 757, "converged"),
}


def _counters(rep):
    return rep.n_f, rep.n_grad, rep.n_prox, rep.termination


@pytest.fixture(scope="module")
def qp_400():
    return problems.build("qp", 0, n=400, p=0.01)


@pytest.fixture(scope="module")
def bpdn_40x96():
    return problems.build("bpdn", 0, m=40, n=96, n_spikes=3)


@pytest.mark.parametrize("solver", sorted(QP_400))
def test_golden_counters_qp(qp_400, solver):
    assert _counters(bench.run_solver(solver, qp_400, 30)) == QP_400[solver]


@pytest.mark.parametrize("solver", sorted(BPDN_40x96))
def test_golden_counters_bpdn(bpdn_40x96, solver):
    assert _counters(bench.run_solver(solver, bpdn_40x96, 1000)) == BPDN_40x96[solver]
