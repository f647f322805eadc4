import dataclasses
import inspect
import json
import unicodedata

import numpy as np
import pytest

import ripm.bench as bench
from helpers import CallableOracle
from ripm import interior, oracles, problems, r2, regprox, trust_region
from ripm.bench import (SOLVER_OPTIONS, ConfigError, RunConfig, certificate, emit_table, main,
                        run_config, run_solver, solver_options)
from ripm.errors import OracleFailure
from ripm.qnops import SpectralDiag
from ripm.regprox import Box, Regularizer
from ripm.report import BUDGET, ORACLE_FAILURE, SolverReport


def _tiny_config(**kw):
    cfg = {
        "problem": {"name": "bpdn", "seed": 0,
                    "params": {"m": 10, "n": 24, "n_spikes": 3}},
        "solvers": [{"name": "R2"}, {"name": "TRDH"}, {"name": "RIPMDH-p"}],
        "budget": 300,
    }
    cfg.update(kw)
    return cfg


ALL_SOLVERS = list(bench.SOLVER_NAMES)


def test_budget_one_all_solvers():
    cfg = _tiny_config(solvers=[{"name": s} for s in ALL_SOLVERS], budget=1)
    _, reports = run_config(cfg)
    assert [r.solver for r in reports] == ALL_SOLVERS
    for rep in reports:
        assert rep.termination == BUDGET
        assert rep.n_f <= 2
        assert rep.trace  # trace never empty


@pytest.mark.parametrize("family, params, budget", [
    ("bpdn", {"m": 40, "n": 96, "n_spikes": 3}, 1000),
    ("fh", {}, 100),
])
def test_every_prox_is_counted(monkeypatch, family, params, budget):
    # every call of the prox kernel, made through regprox.iprox_shifted, is one
    # of n_prox and is made inside r2.first_order_step, the one prox-gradient
    # step, wherever a solver binds it; every box a solver takes is a box of
    # points, so no solve shifts one to x, and the instance's bounds come out
    # as they went in
    monkeypatch.setattr(problems, "FH_RK4_STEPS", 200)
    inst = problems.build(family, 0, **params)
    assert inst.h.kind == ("l1" if family == "bpdn" else "l0")
    lo, hi = inst.bounds.lo.copy(), inst.bounds.hi.copy()
    calls = []  # per prox call: whether a first-order step made it
    kernel = regprox.iprox_shifted
    step = r2.first_order_step
    stepping = [0]

    def counted(*args):
        calls.append(stepping[0] > 0)
        return kernel(*args)

    def in_step(*args):
        stepping[0] += 1
        try:
            return step(*args)
        finally:
            stepping[0] -= 1

    def no_shift(self, x):
        raise AssertionError("Box.shifted")
    monkeypatch.setattr(regprox, "iprox_shifted", counted)
    monkeypatch.setattr(r2, "first_order_step", in_step)
    monkeypatch.setattr(trust_region, "first_order_step", in_step)
    monkeypatch.setattr(regprox.Box, "shifted", no_shift)
    for name in ALL_SOLVERS:
        calls.clear()
        rep = run_solver(name, inst, budget)
        assert rep.error is None and rep.n_prox > 0, name
        assert len(calls) == rep.n_prox, name
        assert all(calls), name
        assert np.array_equal(inst.bounds.lo, lo) and np.array_equal(inst.bounds.hi, hi)


@pytest.mark.parametrize("family, params, budget", [
    ("bpdn", {"m": 40, "n": 96, "n_spikes": 3}, 1000),
    ("fh", {}, 100),
])
@pytest.mark.parametrize("name", ["TR-R2", "RIPM-R2"])
def test_subsolve_prox_counts_add_up_to_the_report(monkeypatch, name, family, params, budget):
    # each R2 subsolve's n_prox is the kernel calls made inside it, and the
    # subsolves' counts plus the loop's own calls are the report's n_prox
    monkeypatch.setattr(problems, "FH_RK4_STEPS", 200)
    kernel, solve = regprox.iprox_shifted, trust_region.r2_solve
    calls = [0, 0]  # kernel calls made by the loop and inside subsolves
    inside = [False]
    subs = []  # per subsolve: its n_prox and the kernel calls made inside it

    def counted(*args):
        calls[inside[0]] += 1
        return kernel(*args)

    def sub(*args, **kw):
        before, inside[0] = calls[1], True
        res = solve(*args, **kw)
        inside[0] = False
        subs.append((res.n_prox, calls[1] - before))
        return res
    monkeypatch.setattr(regprox, "iprox_shifted", counted)
    monkeypatch.setattr(trust_region, "r2_solve", sub)
    rep = run_solver(name, problems.build(family, 0, **params), budget)
    assert rep.error is None and subs and calls[0] > 0
    assert all(n == made for n, made in subs)
    assert sum(n for n, _ in subs) + calls[0] == rep.n_prox


@pytest.mark.parametrize("name", ["R2", "TRDH", "TR-R2", "RIPM-R2"])
def test_runs_count_on_their_own_views(name):
    # run_solver hands each solve a fresh oracle and a copy of h, which hold
    # its counts and trace: two runs on one instance leave it uncounted and
    # report the same counts and trace
    inst = problems.build("bpdn", 0, m=40, n=96, n_spikes=3)
    a, b = (run_solver(name, inst, 1000) for _ in range(2))
    assert inst.h.n_prox == 0 and inst.smooth.trace == []
    assert (inst.smooth.n_f, inst.smooth.n_grad) == (0, 0)
    assert a.error is None and a.n_prox == b.n_prox > 0 and a.trace == b.trace


def _logged_solve(monkeypatch, name, inst, budget):
    """run_solver, logging each prox call ("p") and each counted value ("f", x) in order."""
    events = []
    kernel = regprox.iprox_shifted
    value = oracles.SmoothOracle.value

    def counted(*args):
        events.append(("p", None))
        return kernel(*args)

    def logged(self, x):
        out = value(self, x)  # a refused value raises and is not logged
        if self.budget < np.inf:  # a model subsolve has no budget
            events.append(("f", np.array(x)))
        return out
    monkeypatch.setattr(regprox, "iprox_shifted", counted)
    monkeypatch.setattr(oracles.SmoothOracle, "value", logged)
    rep = run_solver(name, inst, budget)
    assert rep.error is None
    values = [i for i, (kind, _) in enumerate(events) if kind == "f"]
    assert len(values) == rep.n_f
    return rep, events, values


def _prox_calls(events, start, stop=None):
    return sum(kind == "p" for kind, _ in events[start:stop])


@pytest.mark.parametrize("name", ["TR-R2", "TRDH"])
def test_a_budget_exit_builds_no_trial(monkeypatch, name):
    # once the budget is spent, the loop measures once more at x and stops:
    # no R2 subsolve and no closed-form step for a trial it could not value
    inst = problems.build("qp", 0, n=400, p=0.01)
    rep, events, values = _logged_solve(monkeypatch, name, inst, 8)
    assert rep.termination == BUDGET and rep.n_f == 8
    assert _prox_calls(events, values[-1]) == 1


def test_a_budget_ended_ripm_solve_values_its_crossover_point(monkeypatch):
    # the stages keep one evaluation back: after their last one, the final
    # Lagrangian measure takes two prox calls, and the kept evaluation values
    # the crossover point, on the bounds, which lowers F here and is returned
    inst = problems.build("qp", 0, n=400, p=0.01)
    rep, events, values = _logged_solve(monkeypatch, "RIPM-R2", inst, 10)
    assert rep.termination == BUDGET and rep.n_f == 10
    assert rep.diagnostics["mode"] == interior.MODE_LAGRANGIAN
    assert _prox_calls(events, values[-2], values[-1]) == 2
    assert _prox_calls(events, values[-1]) == 0
    x_cross = events[values[-1]][1]
    assert interior.barrier_value(1.0, x_cross, inst.bounds) == np.inf
    assert rep.diagnostics["crossover"]["applied"]
    assert np.array_equal(rep.x, x_cross)
    # F at the interior point is the trace entry before the crossover's
    assert rep.trace[-1][1] == rep.objective <= rep.trace[-2][1]


def test_a_crossover_point_that_raises_f_is_not_returned(monkeypatch):
    # nnmf RIPM-R2 at budget 200: F is 943.5 at the crossover point and 42.3
    # at the interior point, which is returned with its own f, h and z
    inst = problems.build("nnmf", 0)
    rep, events, values = _logged_solve(monkeypatch, "RIPM-R2", inst, 200)
    assert rep.termination == BUDGET and rep.n_f == 200
    assert not rep.diagnostics["crossover"]["applied"]
    x_cross = events[values[-1]][1]
    assert interior.barrier_value(1.0, x_cross, inst.bounds) == np.inf
    assert np.isfinite(interior.barrier_value(1.0, rep.x, inst.bounds))
    fresh = inst.smooth.fresh()
    assert rep.f == fresh.value(rep.x)
    assert rep.h_over_lam == inst.h.value(rep.x) / inst.h.lam
    assert fresh.value(x_cross) + inst.h.value(x_cross) > rep.objective
    assert rep.z.zl.min() > 0.0  # the stage's z, not the crossover's zeroed one


def test_budget_zero_reports_criticality_unmeasured():
    # no evaluation is allowed, so no solver measures criticality; the report
    # must not read as exactly critical.  The refused start calls no solver,
    # so it reads the same for every one: no f, no h (h(x0)/lam is 24 here),
    # no measure, no trace and no records, and the table prints "-" for each
    inst = bench.problems.build("bpdn", 0, m=12, n=24, n_spikes=3)
    for name in ALL_SOLVERS:
        rep = bench.run_solver(name, inst, 0)
        assert rep.termination == BUDGET and rep.n_f == 0
        assert rep.f == np.inf and rep.criticality == np.inf, (name, rep.criticality)
        assert np.isnan(rep.h_over_lam) and rep.trace == [] and rep.diagnostics == {}, name
        assert emit_table([rep], "bpdn").splitlines()[1].split()[1:4] == ["-", "-", "-"]


@pytest.mark.parametrize("name", ["TR-R2", "RIPM-R2"])
def test_a_run_builds_one_report_and_its_subsolves_none(monkeypatch, name):
    # run_solver builds the run's only report; the R2 subsolves of the
    # trust-region loop return results that nobody reports
    built, subsolves = [], []
    init, solve = SolverReport.__init__, trust_region.r2_solve

    def counted_init(self, *args, **kw):
        built.append(1)
        init(self, *args, **kw)

    def counted_solve(*args, **kw):
        subsolves.append(1)
        return solve(*args, **kw)
    monkeypatch.setattr(SolverReport, "__init__", counted_init)
    monkeypatch.setattr(trust_region, "r2_solve", counted_solve)
    rep = run_solver(name, problems.build("bpdn", 0, m=40, n=96, n_spikes=3), 1000)
    assert isinstance(rep, SolverReport) and rep.error is None and len(built) == 1
    assert len(subsolves) >= 1


def test_budget_respected():
    cfg = _tiny_config(budget=25)
    _, reports = run_config(cfg)
    for rep in reports:
        assert rep.n_f <= 26


def test_determinism_same_config_twice():
    cfg = _tiny_config()
    _, rep_a = run_config(cfg)
    _, rep_b = run_config(cfg)
    for a, b in zip(rep_a, rep_b):
        da, db = a.to_dict(), b.to_dict()
        da.pop("wall_time_s"), db.pop("wall_time_s")
        assert da == db


def test_trace_table_consistency():
    cfg = _tiny_config()
    _, reports = run_config(cfg)
    for rep in reports:
        last = rep.trace[-1][1]
        total = rep.f + rep.lam * rep.h_over_lam
        assert last == pytest.approx(total, rel=1e-10, abs=1e-12)
        gs = [g for g, _ in rep.trace]
        assert gs == sorted(gs)


def test_the_objective_is_the_last_trace_value_bit_for_bit():
    # the report keeps h as the solve returned it: rebuilding h from h/lam
    # rounded F on TRDH and RIPM-R2 here.  h/lam is derived from h, and a
    # copy keeps h's bits unless it is given another h/lam
    inst = problems.build("bpdn", 0, m=20, n=48, n_spikes=3)
    for name in ALL_SOLVERS:
        rep = run_solver(name, inst, 2000)
        assert rep.error is None and rep.objective == rep.trace[-1][1], name
        assert rep.h_over_lam == rep.h / rep.lam, name
        assert dataclasses.replace(rep, f=0.0).h == rep.h, name
        moved = dataclasses.replace(rep, h_over_lam=2.0 * rep.h_over_lam)
        assert moved.h == 2.0 * rep.h_over_lam * rep.lam, name


def test_emit_table_formatting():
    rep = SolverReport(solver="R2", x=np.zeros(1), f=0.0391, h=8.7 * 0.05,
                       criticality=1.8e-4, n_f=11, n_grad=11, n_prox=11,
                       wall_time_s=0.004, termination="converged",
                       trace=[(1, 1.0)], lam=0.05)
    text = emit_table([rep], "bpdn")
    assert "3.91e-02" in text
    assert "8.7e+00" in text
    assert "‖x-x*‖" not in text  # no distance column without x_star
    rep.dist_to_xstar = 0.41
    text = emit_table([rep], "bpdn")
    assert "‖x-x*‖" in text and "4.1e-01" in text


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_the_table_prints_every_value_that_is_not_finite_as_a_dash(value):
    # the table alone decides how such a cell prints: each value column,
    # the distance to x* and the wall time too, reads "-"
    rep = SolverReport(solver="R2", x=np.zeros(1), f=value, h=value,
                       criticality=value, n_f=3, n_grad=2, n_prox=1, wall_time_s=value,
                       termination="converged", dist_to_xstar=value, lam=0.05,
                       certificate=value, certificate0=value)
    header, row = (line.split() for line in emit_table([rep], "bpdn").splitlines())
    assert header == ["solver", "f(x)", "h(x)/λ", "√(ξ/ν)", "r̄", "‖x-x*‖", "#f", "#∇f", "#prox",
                      "t(s)"]
    assert row == ["R2", "-", "-", "-", "-", "-", "3", "2", "1", "-"]


@pytest.mark.parametrize("value, cell", [
    (3e-10, "3.0e-10"), (8e-17, "8.0e-17"), (2.0000000001, "2.0e+00"),  # measured, not 0 or 2
    (3.0, "3"), (0.0, "0"), (99.0, "99"), (100.0, "1.0e+02"),  # exact integers below 100
    (np.nan, "-"), (np.inf, "-"), (None, "-"),
])
def test_fmt_stat_prints_an_integer_only_when_exact(value, cell):
    assert bench._fmt_stat(value) == cell


def test_a_row_names_the_options_that_differ_from_its_defaults(tmp_path, capsys):
    # two entries of one solver print two rows that tell them apart, and run
    # and table print the same bytes; an entry at its defaults prints its name
    out, cfg_path = tmp_path / "out", tmp_path / "cfg.json"
    cfg = _tiny_config(solvers=["R2", {"name": "R2", "options": {"rel_tol": 1e-8}}, "RIPMDH-p"],
                       budget=200, output_dir=str(out))
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path)]) == 0
    printed = capsys.readouterr().out
    labels = [line.split()[0] for line in printed.splitlines()[1:]]
    assert labels == ["R2", "R2[rel_tol=1e-08]", "RIPMDH-p"]
    assert main(["table", str(out)]) == 0
    assert capsys.readouterr().out == printed
    # the defaults are those of the family: nnmf's relative tolerance is its own
    rep = SolverReport(solver="RIPM-R2", x=np.zeros(1), f=0.0, h=0.0, criticality=0.0,
                       n_f=1, n_grad=1, n_prox=1, wall_time_s=0.0, termination="converged",
                       options={"eps_r": 1e-6, "mu_init": 0.5})
    assert [emit_table([rep], family).splitlines()[1].split()[0] for family in ("nnmf", "qp")] \
        == ["RIPM-R2[mu_init=0.5]", "RIPM-R2[eps_r=1e-06,mu_init=0.5]"]


def test_every_trace_row_is_written_by_mark_with_the_oracle_count(monkeypatch):
    # one writer: each row holds the oracle's n_grad when the row was written,
    # and the RIPM crossover row, which takes no gradient, repeats the one before
    written = []
    mark = oracles.SmoothOracle.mark

    def spy(self, F):
        written.append((self.trace, (self.n_grad, F)))
        mark(self, F)

    monkeypatch.setattr(oracles.SmoothOracle, "mark", spy)
    inst, crossed = problems.build("bpdn", 0, m=10, n=24, n_spikes=3), 0
    for name in ALL_SOLVERS:
        rep = run_solver(name, inst, 300)
        assert len(rep.trace) > 1 and rep.trace == [row for trace, row in written
                                                   if trace is rep.trace], name
        if bench.SOLVERS[name].solve == "outer_solve" and rep.diagnostics["crossover"]["applied"]:
            assert rep.trace[-1][0] == rep.trace[-2][0], name
            crossed += 1
    assert crossed


def test_emit_table_row_order_matches_config():
    cfg = _tiny_config()
    _, reports = run_config(cfg)
    lines = emit_table(reports, "bpdn").splitlines()
    names = [ln.split()[0] for ln in lines[1:]]
    assert names == ["R2", "TRDH", "RIPMDH-p"]


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"problem": {"name": "bpdn"}, "solvers": [{"name": "nope"}]})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"solvers": [{"name": "R2"}]})
    with pytest.raises(ConfigError, match="^problem needs a 'name'$"):
        RunConfig.from_dict({"problem": {"seed": 0}, "solvers": ["R2"]})
    with pytest.raises(ConfigError):
        RunConfig.from_dict(_tiny_config(budget=0))
    with pytest.raises(ConfigError):
        run_config(_tiny_config(problem={"name": "bpdn", "params": {"bogus": 1}}))
    with pytest.raises(ConfigError):
        run_config(_tiny_config(solvers=[{"name": "R2", "options": {"bogus": 1}}]))
    # a misspelled key is an error that names it, not a default
    for typo, key in [(_tiny_config(solvers=[{"name": "R2", "option": {"rel_tol": 1e-9}}]),
                       "option"),
                      (_tiny_config(budjet=5), "budjet"),
                      (_tiny_config(problem={"name": "bpdn", "parms": {"m": 10}}), "parms")]:
        with pytest.raises(ConfigError, match=f"reads no key '{key}'"):
            RunConfig.from_dict(typo)


def test_cli_run_table_trace(tmp_path, capsys):
    # a run saves reports.json alone, and `table` prints from it what `run`
    # printed: on bpdn, with the distance to x*, and on qp, without it
    qp = {"name": "qp", "seed": 0, "params": {"n": 20, "p": 0.2}}
    for problem, dist in [(_tiny_config()["problem"], True), (qp, False)]:
        out = tmp_path / problem["name"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_tiny_config(problem=problem, output_dir=str(out))))
        capsys.readouterr()
        assert main(["run", str(cfg_path)]) == 0
        printed = capsys.readouterr().out
        assert ("‖x-x*‖" in printed) == dist
        assert [p.name for p in out.iterdir()] == ["reports.json"]
        assert main(["table", str(out)]) == 0
        assert capsys.readouterr().out == printed
    # a rerun into the same directory leaves its own report and nothing of the first run
    cfg_path.write_text(json.dumps(_tiny_config(problem=qp, solvers=["R2"], output_dir=str(out))))
    assert main(["run", str(cfg_path)]) == 0
    assert [p.name for p in out.iterdir()] == ["reports.json"]
    saved = json.loads((out / "reports.json").read_text())["reports"]
    assert [d["solver"] for d in saved] == ["R2"]


def test_a_saved_run_states_the_options_it_ran_with(tmp_path):
    # two entries of one solver differ only in their options; the saved file
    # alone rebuilds a config that repeats each row
    cfg = _tiny_config(solvers=["R2", {"name": "R2", "options": {"rel_tol": 1e-8}}], budget=200)
    config, out = RunConfig.from_dict(cfg), tmp_path / "out"
    instance, reports = run_config(config)
    bench.save_results(config, instance, reports, out)
    payload = json.loads((out / "reports.json").read_text())
    saved = [SolverReport.from_dict(d) for d in payload["reports"]]
    assert saved[0].options != saved[1].options
    assert saved[1].options["rel_tol"] == 1e-8
    rebuilt = {"problem": payload["problem"], "budget": payload["budget"],
               "solvers": [{"name": r.solver, "options": r.options} for r in saved]}
    _, again = run_config(rebuilt)
    assert [(r.n_f, r.n_grad, r.n_prox, r.termination) for r in again] == \
        [(r.n_f, r.n_grad, r.n_prox, r.termination) for r in saved]


def test_cli_reports_no_h_over_lam_at_lam_zero(tmp_path, capsys):
    # b = 0 gives lam = ||A^T b||_inf / 10 = 0, where h(x)/lam is undefined: the
    # table prints "-" and reports.json keeps NaN
    cfg = _tiny_config(problem={"name": "bpdn", "params": {"m": 10, "n": 24, "n_spikes": 0,
                                                           "noise_std": 0}},
                       solvers=[{"name": "R2"}, {"name": "RIPMDH"}], budget=20,
                       output_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["run", str(cfg_path)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    col = header.split().index("h(x)/λ")
    assert len(rows) == 2 and all(row.split()[col] == "-" for row in rows)
    payload = json.loads((tmp_path / "out" / "reports.json").read_text())
    for d in payload["reports"]:
        rep = SolverReport.from_dict(d)
        assert rep.lam == 0.0 and np.isnan(rep.h_over_lam) and rep.objective == rep.f


def test_cli_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(output_dir=str(tmp_path / "a"))))
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "c")]) == 0
    assert not (tmp_path / "a").exists()
    assert (tmp_path / "c" / "reports.json").exists()
    assert main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "a" / "reports.json").exists()


def test_report_round_trip():
    # a real report whose criticality was never measured, and a hard failure
    inst = bench.problems.build("bpdn", 0, m=10, n=24, n_spikes=3)
    real = run_solver("TRDH", inst, 0)
    assert real.criticality == np.inf
    failed = SolverReport(solver="R2", x=inst.x0, f=np.nan, h=np.nan,
                          criticality=np.nan, n_f=0, n_grad=0, n_prox=0, wall_time_s=0.0,
                          termination=ORACLE_FAILURE, trace=[(0, np.nan)],
                          error="RuntimeError: synthetic", lam=inst.h.lam)
    assert np.isfinite(real.certificate) and np.isnan(failed.certificate)
    for rep in (real, failed):
        back = SolverReport.from_dict(json.loads(json.dumps(rep.to_dict())))
        for name in SolverReport.SAVED:
            np.testing.assert_equal(getattr(back, name), getattr(rep, name), err_msg=name)
        assert set(rep.to_dict()) == set(SolverReport.SAVED)
        # neither has records, and a loaded report has none either
        assert rep.diagnostics == back.diagnostics == {}


def _one_component(kind, lam, x, g, lo=-np.inf, hi=np.inf, weight=None):
    """certificate at x of a one-component instance with grad f(x) = g (or g(x), if callable)."""
    grad = g if callable(g) else lambda v: [g]
    inst = problems.ProblemInstance(
        name="one", smooth=CallableOracle(lambda v: 0.0, grad),
        h=Regularizer(kind, lam, None if weight is None else np.array([weight])),
        bounds=Box(np.array([lo]), np.array([hi])), x0=np.array([x]), seed=0)
    return certificate(inst, np.array([x], dtype=float))


@pytest.mark.parametrize("case,expected", [
    # l1 with lam w = 0.5 * 2: at 0 the interval is g + [-1, 1], elsewhere g + sign(x)
    (dict(kind="l1", lam=0.5, weight=2.0, x=0.0, g=0.3), 0.0),
    (dict(kind="l1", lam=0.5, weight=2.0, x=0.0, g=1.5), 0.5),
    (dict(kind="l1", lam=0.5, weight=2.0, x=0.0, g=-1.25), 0.25),
    (dict(kind="l1", lam=0.5, weight=2.0, x=2.0, g=-0.25), 0.75),
    (dict(kind="l1", lam=0.5, weight=2.0, x=-2.0, g=-0.25), 1.25),
    # l0: all of R at 0 when penalized, {0} elsewhere and at a zero weight
    (dict(kind="l0", lam=1.0, x=0.0, g=5.0), 0.0),
    (dict(kind="l0", lam=1.0, x=2.0, g=5.0), 5.0),
    (dict(kind="l0", lam=1.0, weight=0.0, x=0.0, g=-5.0), 5.0),
    # the normal cone: (-inf, 0] at the lower bound, [0, inf) at the upper one
    (dict(kind="l1", lam=0.0, x=1.0, g=2.0, lo=1.0, hi=3.0), 0.0),
    (dict(kind="l1", lam=0.0, x=1.0, g=-2.0, lo=1.0, hi=3.0), 2.0),
    (dict(kind="l1", lam=0.0, x=3.0, g=-2.0, lo=1.0, hi=3.0), 0.0),
    (dict(kind="l1", lam=0.0, x=3.0, g=2.0, lo=1.0, hi=3.0), 2.0),
    (dict(kind="l1", lam=0.0, x=2.0, g=2.0, lo=1.0, hi=3.0), 2.0),
])
def test_certificate_of_one_component(case, expected):
    assert _one_component(**case) == expected


def test_certificate_takes_an_uncounted_gradient(monkeypatch):
    # the certificate reports and decides nothing: its gradient does not go
    # through the counted grad, and it is NaN where grad f cannot be formed
    def refused(self, x):
        raise AssertionError("the certificate called the counted gradient")

    monkeypatch.setattr(oracles.SmoothOracle, "grad", refused)
    inst = bench.problems.build("bpdn", 0, m=10, n=24, n_spikes=3)
    assert np.isfinite(certificate(inst, inst.x0)) and inst.smooth.n_grad == 0

    def blows_up(v):
        raise OracleFailure("state blow-up during the forward pass")

    assert np.isnan(_one_component("l1", 1.0, 0.0, blows_up))
    assert np.isnan(_one_component("l1", 1.0, 0.0, np.nan))
    # an infinite gradient is not read as 0 where the normal cone would absorb it
    assert np.isnan(_one_component("l1", 0.0, 1.0, np.inf, lo=1.0))


@pytest.mark.parametrize("family, params", [
    ("bpdn", {"m": 10, "n": 24, "n_spikes": 3}), ("fh", {"n_samples": 30})], ids=["bpdn", "fh"])
def test_the_report_states_the_certificate_at_the_start(family, params):
    # r̄(x0) comes from the start gradient the solve already took, with the
    # bits of a fresh certificate at the clamped x0; a refused start has none
    inst = problems.build(family, 0, **params)
    r0 = certificate(inst, inst.bounds.clamp(np.asarray(inst.x0, dtype=float)))
    assert np.isfinite(r0) and r0 > 0.0
    for name in ALL_SOLVERS:
        rep = run_solver(name, inst, 20)
        assert rep.error is None and rep.certificate0 == r0, name
        assert np.isnan(run_solver(name, inst, 0).certificate0), name


def test_cli_table_prints_the_certificate(tmp_path, capsys):
    # the live reports, reports.json and `ripm-bench table` carry one r̄
    cfg = _tiny_config(output_dir=str(tmp_path / "out"))
    _, live = run_config(cfg)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", str(cfg_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "out" / "reports.json").read_text())
    saved = [SolverReport.from_dict(d) for d in payload["reports"]]
    assert [r.certificate for r in saved] == [r.certificate for r in live]
    assert all(np.isfinite(r.certificate) for r in live)
    assert main(["table", str(tmp_path / "out")]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    col = header.split().index("r̄")
    assert [row.split()[col] for row in rows] == [f"{r.certificate:.1e}" for r in live]
    # the bar of r̄ is a combining mark, which takes no column
    assert len({sum(not unicodedata.combining(ch) for ch in line)
                for line in (header, *rows)}) == 1


@pytest.mark.parametrize("name,overrides", [
    ("R2", {"rel_tol": 1e-6}), ("TR-R2", {"rel_tol": 1e-6}), ("RIPM-R2", {"eps_r": 1e-6})])
def test_override_replaces_harness_default(name, overrides):
    opts, _ = solver_options(name, "bpdn", overrides)
    assert all(opts[k] == v for k, v in overrides.items())
    cfg = _tiny_config(solvers=[{"name": name, "options": overrides}])
    _, (rep,) = run_config(cfg)
    assert rep.termination != ORACLE_FAILURE, rep.error
    assert rep.options == opts


@pytest.mark.parametrize("name,overrides", [
    ("RIPM-R2", {"max_iter": 1}), ("R2", {"qn": "lbfgs"}), ("TRDH", {"qn": "lbfgs"}),
    ("RIPMDH", {"qn": "lbfgs"}), ("RIPMDH", {"subsolver_max_iter": 1}),
    ("RIPMDH", {"step": "r2"}), ("TR-R2", {"qn": "bogus"}), ("TR-R2", {"qn": 5}),
    ("TRDH", {"eta1": 0.95, "eta2": 0.5}),
    # settings that are constants of the method, and an operator that would
    # turn an R2-step solver into a DH one
    ("TRDH", {"eta1": 0.5}), ("RIPM-R2", {"kappa_bar": 1e6}), ("RIPM-R2", {"mode": "cp"}),
    ("RIPM-R2", {"memory": 5}), ("TR-R2", {"subsolver_max_iter": 200}),
    ("TR-R2", {"qn": "spectral"}), ("R2", {"sigma_init": 1.0}),
    # tolerances and an operator that no caller sets to a second value
    ("R2", {"abs_tol": 1e-6}), ("TR-R2", {"abs_tol": 1e-6}), ("RIPM-R2", {"eps_a": 1e-6}),
    ("TR-R2", {"qn": "lbfgs"}), ("RIPM-R2", {"qn": "lsr1"}),
    # values outside an option's range, of the wrong type, or not finite
    ("RIPM-R2", {"mu_init": -1.0}), ("RIPM-R2", {"mu_init": 0.0}), ("RIPM-R2", {"mu_init": "1"}),
    ("R2", {"rel_tol": -1.0}), ("TR-R2", {"rel_tol": None}), ("RIPMDH", {"eps_ri": float("nan")})])
def test_rejected_option_is_a_config_error(name, overrides):
    with pytest.raises(ConfigError):
        run_config(_tiny_config(solvers=[{"name": name, "options": overrides}]))


def test_config_error_comes_before_the_first_solve(monkeypatch):
    solved = []
    monkeypatch.setattr(bench, "run_solver", lambda name, *args: solved.append(name))
    cfg = _tiny_config(solvers=[{"name": "R2"}, {"name": "RIPMDH", "options": {"qn": "lbfgs"}}])
    with pytest.raises(ConfigError):
        run_config(cfg)
    assert solved == []


def test_every_listed_option_is_taken():
    # each (solver, option) pair of the table, at the default of the solve
    # that run_solver calls, is a keyword of that solve, and runs
    inst = bench.problems.build("bpdn", 0, m=10, n=24, n_spikes=3)
    assert sum(len(names) for names in SOLVER_OPTIONS.values()) == 15
    for name, names in SOLVER_OPTIONS.items():
        params = inspect.signature(getattr(bench, bench.SOLVERS[name].solve)).parameters
        for option in sorted(names):
            assert params[option].kind is inspect.Parameter.KEYWORD_ONLY, (name, option)
            rep = run_solver(name, inst, 3, {option: params[option].default})
            assert rep.error is None and rep.n_f <= 4, (name, option)


def test_cli_config_error_exit_code(tmp_path, monkeypatch, capsys):
    # a rejected config makes no output directory, its own or one in the
    # working directory
    monkeypatch.chdir(tmp_path)
    out = str(tmp_path / "out")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 1
    good_shape = tmp_path / "bad2.json"
    good_shape.write_text(json.dumps({"problem": {"name": "bpdn"},
                                      "solvers": [{"name": "nope"}]}))
    assert main(["run", str(good_shape)]) == 1
    bogus_mode = tmp_path / "bad3.json"
    bogus_mode.write_text(json.dumps(_tiny_config(
        solvers=[{"name": "RIPM-R2", "options": {"mode": "bogus"}}], output_dir=out)))
    capsys.readouterr()
    assert main(["run", str(bogus_mode)]) == 1
    assert "reads no option 'mode'" in capsys.readouterr().err
    # json reads NaN, and a lam that is not finite is a config error
    nan_lam = tmp_path / "bad4.json"
    nan_lam.write_text('{"problem": {"name": "qp", "params": {"n": 20, "p": 0.2, "lam": NaN}}, '
                       '"solvers": ["R2", "RIPM-R2"], "budget": 20, "output_dir": "out"}')
    assert main(["run", str(nan_lam)]) == 1
    assert "lam must be finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "bad2.json", "bad3.json",
                                                          "bad4.json"]


def _write_reports_with_old_keys(path):
    path.mkdir()
    old = {"solver": "R2", "final_f": 1.0, "final_h_over_lambda": 0.0,
           "final_criticality": 0.0, "n_f": 1, "n_grad": 1, "n_prox": 1}
    (path / "reports.json").write_text(json.dumps({"reports": [old]}))


def _write_reports_without(path, key):
    """reports.json as it was saved before ``key`` was reported."""
    path.mkdir()
    rep = SolverReport(solver="R2", x=np.zeros(1), f=1.0, h=0.0, criticality=0.0,
                       n_f=1, n_grad=1, n_prox=1, wall_time_s=0.0, termination="converged")
    saved = rep.to_dict()
    del saved[key]
    if key == "h":  # saved with h/lam in its place
        saved["h_over_lam"] = 0.0
    (path / "reports.json").write_text(json.dumps({"reports": [saved]}))


@pytest.mark.parametrize("case", ["table_missing", "table_old_keys", "table_no_certificate",
                                  "table_no_certificate0", "table_no_options", "table_no_h",
                                  "table_empty",
                                  "budget", "budget_true", "budget_fraction",
                                  "budget_infinite", "output_dir_number", "solver_entry",
                                  "solvers_empty", "options_list", "problem_string",
                                  "problem_empty", "output_dir_missing", "output_dir_is_a_file",
                                  "output_dir_under_a_file", "reports_json_is_a_directory"])
def test_cli_malformed_input_exits_1(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)  # a run must write nothing in the working directory
    results = tmp_path / "results"
    solved = []
    real = bench.run_solver

    def counted(name, *args):
        solved.append(name)
        return real(name, *args)

    monkeypatch.setattr(bench, "run_solver", counted)
    if case in ("output_dir_is_a_file", "output_dir_under_a_file",
                "reports_json_is_a_directory"):
        (tmp_path / "file").write_text("")
        out = {"output_dir_is_a_file": tmp_path / "file",
               "output_dir_under_a_file": tmp_path / "file" / "sub",
               "reports_json_is_a_directory": results}[case]
        (results / "reports.json").mkdir(parents=True)  # save_results cannot write it
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_tiny_config(solvers=[{"name": "R2"}])))
        argv = ["run", str(cfg_path), "--output-dir", str(out)]
    elif case == "table_missing":
        argv = ["table", str(results)]
    elif case == "table_old_keys":
        _write_reports_with_old_keys(results)
        argv = ["table", str(results)]
    elif case in ("table_no_certificate", "table_no_certificate0", "table_no_options",
                  "table_no_h"):
        _write_reports_without(results, case.removeprefix("table_no_"))
        argv = ["table", str(results)]
    elif case == "table_empty":
        results.mkdir()
        (results / "reports.json").write_text(json.dumps({"problem": {"name": "bpdn"},
                                                          "reports": []}))
        argv = ["table", str(results)]
    else:
        cfg = {
            "budget": _tiny_config(budget="abc"),
            "budget_true": _tiny_config(budget=True),
            "budget_fraction": _tiny_config(budget=20.7),
            "budget_infinite": _tiny_config(budget=float("inf")),  # json writes Infinity
            "output_dir_number": _tiny_config(output_dir=5),
            "solver_entry": _tiny_config(solvers=[5]),
            "solvers_empty": _tiny_config(solvers=[]),
            "options_list": _tiny_config(solvers=[{"name": "R2", "options": [1]}]),
            "problem_string": _tiny_config(problem="bpdn"),
            "problem_empty": _tiny_config(problem={"name": "qp", "params": {"n": 0}},
                                          output_dir=str(results)),
            "output_dir_missing": _tiny_config(),
        }[case]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["run", str(cfg_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err
    if argv[0] == "table":
        assert err.startswith("cannot read results: ")
        if case.startswith("table_no_"):  # the missing key is named
            assert f"KeyError: '{case.removeprefix('table_no_')}'" in err
        if case == "table_empty":
            assert err == "cannot read results: ValueError: no reports\n"
    # a bad output directory is found before the first solve
    assert solved == (["R2"] if case == "reports_json_is_a_directory" else [])
    if argv[0] == "run" and "--output-dir" not in argv:  # nor makes its output directory
        assert not results.exists()


def test_solver_hard_failure_recorded(tmp_path, monkeypatch):
    # the TRDH solve raises once it has run: its report carries the counts
    # the oracle and the prox kernel made, and the next solver runs
    real, kernel = bench.tr_solve, regprox.iprox_shifted
    made = []  # (n_f, n_grad, prox calls) of each TRDH solve when it raised
    prox = []

    def counted(*args):
        prox.append(1)
        return kernel(*args)

    def flaky(smooth, h, bounds, qn, *args, **kw):
        prox.clear()
        res = real(smooth, h, bounds, qn, *args, **kw)
        if isinstance(qn, SpectralDiag):
            made.append((smooth.n_f, smooth.n_grad, len(prox)))
            raise RuntimeError("synthetic failure")
        return res

    monkeypatch.setattr(regprox, "iprox_shifted", counted)
    monkeypatch.setattr(bench, "tr_solve", flaky)
    cfg = _tiny_config()
    _, reports = run_config(cfg)
    assert [r.solver for r in reports] == ["R2", "TRDH", "RIPMDH-p"]
    failed = reports[1]
    assert failed.termination == "oracle_failure"
    assert "synthetic failure" in failed.error and failed.diagnostics == {}
    assert (failed.n_f, failed.n_grad, failed.n_prox) == made[0]
    assert failed.n_f > 1 and failed.n_prox > 0
    assert failed.wall_time_s > 0.0 and len(failed.trace) > 1
    assert reports[2].error is None and reports[2].n_f > 1

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(output_dir=str(tmp_path / "out"))))
    assert main(["run", str(cfg_path)]) == 2


@pytest.mark.parametrize("name", ["R2", "TRDH", "RIPM-R2"])
def test_a_start_that_raises_is_reported_with_its_counts(name):
    # from x3 = 50, x4 = -50 the ODE blows up: the start's f and grad f were
    # asked for before the oracle failed, and the report says so
    inst = dataclasses.replace(problems.build("fh", 0, n_samples=20),
                               x0=np.array([0.5, 0.5, 50.0, -50.0, 0.5]))
    rep = run_solver(name, inst, 10)
    assert rep.termination == ORACLE_FAILURE
    assert (rep.n_f, rep.n_grad, rep.n_prox) == (1, 1, 0)
    assert rep.error.startswith("OracleFailure: ")
    assert np.array_equal(rep.x, inst.bounds.clamp(inst.x0))
    assert rep.trace == [] and np.isnan(rep.f) and np.isnan(rep.certificate)
    assert rep.diagnostics == {}


@pytest.mark.parametrize("name", ["RIPM-R2", "RIPMDH", "RIPM-R2-p", "RIPMDH-p"])
def test_a_start_on_a_bound_fails_the_barrier_solve(name):
    # x0 = 0 in one component of bpdn, on its lower bound: the start is valued,
    # and the barrier solve refuses it before its first stage
    inst = problems.build("bpdn", 0, m=10, n=24, n_spikes=3)
    x0 = inst.x0.copy()
    x0[5] = 0.0
    rep = run_solver(name, dataclasses.replace(inst, x0=x0), 100)
    assert rep.termination == ORACLE_FAILURE
    assert rep.error == "BoundaryPoint: outer solve requires a strictly interior start"
    assert rep.diagnostics == {}
    assert (rep.n_f, rep.n_grad, rep.n_prox) == (1, 1, 0)
    assert np.isnan(rep.certificate) and np.isfinite(rep.certificate0)


@pytest.mark.parametrize("name", ALL_SOLVERS)
def test_a_start_that_is_not_finite_calls_no_solver(name):
    # f(x0) is NaN: no solver is called, where R2 would spend its budget and
    # TRDH and TR-R2 would run to their iteration caps, all to report f = NaN
    inst = problems.build("bpdn", 0, m=40, n=96, n_spikes=3)
    x0 = inst.x0.copy()
    x0[3] = np.nan
    rep = run_solver(name, dataclasses.replace(inst, x0=x0), 1000)
    assert rep.termination == ORACLE_FAILURE
    assert rep.error == "OracleFailure: the start is not finite: f, h or grad f at x0"
    assert rep.n_prox == 0 and rep.n_f <= 1


@pytest.mark.parametrize("name", ["RIPM-R2", "RIPMDH"])
def test_a_crossover_the_budget_refuses_is_not_valued(monkeypatch, name):
    # at budget 1 the start takes the one evaluation, and the crossover point
    # differs from x: it is kept, not valued, and no value is refused
    refused = []
    value = oracles.SmoothOracle.value

    def logged(self, x):
        if self.n_f >= self.budget:
            refused.append(np.array(x))
        return value(self, x)
    monkeypatch.setattr(oracles.SmoothOracle, "value", logged)
    rep = run_solver(name, problems.build("nnmf", 0, m=12, n=8, k=2), 1)
    assert refused == [] and rep.error is None
    assert rep.termination == BUDGET and rep.n_f == 1
    assert not rep.diagnostics["crossover"]["applied"]


def test_trdh_runs_the_operator_of_solver_options(monkeypatch):
    built = []

    class Counted(SpectralDiag):
        def __init__(self, n):
            built.append(n)
            super().__init__(n)
    monkeypatch.setitem(bench.SOLVERS, "TRDH", bench.SOLVERS["TRDH"]._replace(qn=Counted))
    assert solver_options("TRDH", "bpdn", {})[1] is Counted
    rep = run_solver("TRDH", problems.build("bpdn", 0, m=10, n=24, n_spikes=3), 300)
    assert built == [24] and rep.error is None
