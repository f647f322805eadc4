"""Small-size runs of the benchmark's workloads, its checks and its tracer."""
import dataclasses

import numpy as np
import pytest

from ripm import bench, interior, oracles, problems, qnops, regprox

from perfbench import checks, harness
from perfbench.tracer import Tracer

# the workloads' code paths at sizes that solve in about a second each
SMALL = {
    "qp-paper": dataclasses.replace(harness.WORKLOADS["qp-paper"],
                                    params={"n": 400, "p": 0.01, "lam": 0.1}),
    "fh-ode": harness.WORKLOADS["fh-ode"],
    "bpdn-seeds": dataclasses.replace(harness.WORKLOADS["bpdn-seeds"],
                                      params={"m": 40, "n": 96, "n_spikes": 3}, seeds=(0,)),
}
# Solves of the small instances that the checks reject on today's code.
# bpdn 40x96 seed 0: RIPM-R2-p reports `converged` 2.3% above the L-BFGS-B
# optimum.  fh at 200 RK4 steps: RIPM-R2 reports `converged` where
# df/dx3 = -1.0, so it and TR-R2 disagree on F.
KNOWN_FAILURES = {
    "qp-paper": set(),
    "fh-ode": {"fh-0/TR-R2", "fh-0/RIPM-R2"},
    "bpdn-seeds": {"bpdn-0/RIPM-R2-p"},
}
# a solution of the default fh instance, as TR-R2 returns it
FH_SOLUTION = np.array([0.0, 0.5, 0.5419463519, 0.0, 0.0])


@pytest.fixture(autouse=True)
def _quick(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_MIN_S", 0.0)
    # fh at 200 RK4 steps instead of 2000: the same code path at a tenth of the cost
    monkeypatch.setattr(problems, "FH_RK4_STEPS", 200)


def _run(name, tmp_path, trace=False, seed=0):
    result, messages, _ = harness.run(SMALL[name], tmp_path, seed, seconds=0, trace=trace)
    return result, messages


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_run_checks_every_solve(name, tmp_path):
    result, messages = _run(name, tmp_path)
    w = SMALL[name]
    assert {m.split(": ")[1] for m in messages} == KNOWN_FAILURES[name]
    assert result["failed"] == len(KNOWN_FAILURES[name])
    assert result["correct"] == (not KNOWN_FAILURES[name])
    assert result["attempted"] == len(w.solvers) * len(w.seeds)
    metrics = result["metrics"]
    assert [(m, metrics[m]["unit"]) for m in metrics] == harness.END_TO_END
    assert all(m["value"] > 0 for m in metrics.values())
    assert (tmp_path / f"{w.family}-{w.seeds[0]}" / "reports.json").exists()


def test_counters_repeat_exactly(tmp_path):
    first, _ = _run("qp-paper", tmp_path / "a")
    second, _ = _run("qp-paper", tmp_path / "b")
    for key in harness.COUNTERS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"]


def test_traced_run_reconciles_and_restores(tmp_path):
    originals = (regprox.iprox_shifted, interior.r2_solve, oracles.SmoothOracle.value,
                 qnops.LBFGS.apply, regprox.Box.ball, bench.run_solver)
    plain, _ = _run("qp-paper", tmp_path / "plain")
    traced, messages = _run("qp-paper", tmp_path / "traced", trace=True)
    assert messages == [] and traced["correct"]
    layer = {m: v["value"] for m, v in traced["metrics"].items()}
    assert list(layer) == [m for m, _ in harness.PER_LAYER]
    e2e = {m: v["value"] for m, v in plain["metrics"].items()}
    assert layer["problems.value_calls"] == e2e["n_f"]
    assert layer["problems.grad_calls"] == e2e["n_grad"]
    assert layer["regprox.prox_calls"] == e2e["n_prox"]
    assert layer["r2.sub_calls"] > 0 and layer["qnops.norm_applies"] > 0
    assert (tmp_path / "traced" / "spans.npz").exists()
    assert originals == (regprox.iprox_shifted, interior.r2_solve, oracles.SmoothOracle.value,
                         qnops.LBFGS.apply, regprox.Box.ball, bench.run_solver)
    assert "value" not in vars(oracles.QuadModelOracle)


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10_000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    totals, _ = tracer.layer_totals()
    _, _, self_s, dur = tracer.arrays()
    assert totals["inner"][0] == 3 and totals["outer"][0] == 1
    assert np.isclose(self_s.sum(), dur[0])


@pytest.fixture(scope="module")
def bpdn_solve():
    inst = problems.build("bpdn", 0, m=40, n=96, n_spikes=3)
    rep = bench.run_solver("R2", inst, 1000)
    assert rep.termination == "converged"
    return inst, rep, checks.objective(inst, inst.x0), checks.bpdn_reference(inst)


@pytest.mark.parametrize("corruption, message", [
    (lambda r: dataclasses.replace(r, x=np.where(np.arange(r.x.size) == 0, -1e-9, r.x)),
     "outside the bounds"),
    (lambda r: dataclasses.replace(r, f=r.f * (1 + 1e-6)), "reported f"),
    (lambda r: dataclasses.replace(r, h_over_lam=r.h_over_lam * (1 + 1e-6)), "reported h/lam"),
    (lambda r: dataclasses.replace(r, n_f=1001), "above the budget"),
    (lambda r: dataclasses.replace(r, trace=r.trace[:-1] + [(0, r.objective * (1 + 1e-9))]),
     "last trace value"),
])
def test_solve_checks_reject_corruption(bpdn_solve, corruption, message):
    inst, rep, F0, ref = bpdn_solve
    assert checks.check_solve(inst, rep, 1000, F0, ref) == []
    fails = checks.check_solve(inst, corruption(rep), 1000, F0, ref)
    assert any(message in f for f in fails), fails


def test_converged_bpdn_far_from_reference_is_rejected(bpdn_solve):
    inst, rep, F0, ref = bpdn_solve
    F = checks.objective(inst, rep.x)
    assert abs(F - ref) < 1e-4 * ref
    # the same solve against an optimum that lies 1% below its objective
    fails = checks.check_solve(inst, rep, 1000, F0, F / 1.01)
    assert any("reference optimum" in f for f in fails), fails


def test_objective_above_start_is_rejected(bpdn_solve):
    inst, rep, F0, ref = bpdn_solve
    fails = checks.check_solve(inst, rep, 1000, checks.objective(inst, rep.x) - 1e-9, ref)
    assert any("above F(x0)" in f for f in fails), fails


def test_fh_checks(monkeypatch):
    monkeypatch.setattr(problems, "FH_RK4_STEPS", 2000)
    inst = problems.build("fh", 0)
    assert checks.check_fh_solution(inst, FH_SOLUTION) == []
    assert checks.check_fh_solution(inst, inst.x0)
    moved = FH_SOLUTION + np.array([0.0, 0.0, 1e-3, 0.0, 0.0])
    assert any("free support" in f for f in checks.check_fh_solution(inst, moved))
    assert checks.check_agreement([24.1651491432, 24.1651491432 * (1 + 1e-10)]) == []
    assert checks.check_agreement([24.1651491432, 24.1651491432 * (1 + 1e-6)])


def test_fh_objective_matches_the_oracle():
    inst = problems.build("fh", 0)
    x = inst.x0 + 0.01
    assert np.isclose(checks.smooth_f(inst, x), inst.smooth.fresh().value(x), rtol=1e-12)
