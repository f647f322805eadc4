import dataclasses
import json

import numpy as np
import pytest

import ripm.bench as bench
from ripm import problems, regprox
from ripm.bench import (SOLVER_OPTIONS, ConfigError, RunConfig, best_objective, emit_table,
                        emit_trace_csv, main, run_config, run_solver, solver_options)
from ripm.report import MAX_ITER, ORACLE_FAILURE, SolverReport


def _tiny_config(**kw):
    cfg = {
        "problem": {"name": "bpdn", "seed": 0,
                    "params": {"m": 10, "n": 24, "n_spikes": 3}},
        "solvers": [{"name": "R2"}, {"name": "TRDH"}, {"name": "RIPMDH-p"}],
        "budget": 300,
    }
    cfg.update(kw)
    return cfg


ALL_SOLVERS = ["R2", "TRDH", "TR-R2", "RIPM-R2", "RIPMDH", "RIPM-R2-p", "RIPMDH-p"]


def test_budget_one_all_solvers():
    cfg = _tiny_config(solvers=[{"name": s} for s in ALL_SOLVERS], budget=1)
    _, reports = run_config(cfg)
    assert [r.solver for r in reports] == ALL_SOLVERS
    for rep in reports:
        assert rep.termination == MAX_ITER
        assert rep.n_f <= 2
        assert rep.trace  # trace never empty


@pytest.mark.parametrize("family, params, budget", [
    ("bpdn", {"m": 40, "n": 96, "n_spikes": 3}, 1000),
    ("fh", {}, 100),
])
def test_every_prox_is_counted(monkeypatch, family, params, budget):
    # every call of the prox kernel, made through regprox.iprox_shifted, is one
    # of n_prox; every box a solver takes is a box of points, so no solve shifts
    # one to x, and the instance's bounds come out as they went in
    monkeypatch.setattr(problems, "FH_RK4_STEPS", 200)
    inst = problems.build(family, 0, **params)
    assert inst.h.kind == ("l1" if family == "bpdn" else "l0")
    lo, hi = inst.bounds.lo.copy(), inst.bounds.hi.copy()
    calls = []
    kernel = regprox.iprox_shifted

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    def no_shift(self, x):
        raise AssertionError("Box.shifted")
    monkeypatch.setattr(regprox, "iprox_shifted", counted)
    monkeypatch.setattr(regprox.Box, "shifted", no_shift)
    for name in ALL_SOLVERS:
        calls.clear()
        rep = run_solver(name, inst, budget)
        assert rep.n_prox > 0
        assert len(calls) == rep.n_prox, name
        assert np.array_equal(inst.bounds.lo, lo) and np.array_equal(inst.bounds.hi, hi)


def test_budget_zero_reports_criticality_unmeasured():
    # no evaluation is allowed, so no solver measures criticality; the report
    # must not read as exactly critical
    inst = bench.problems.build("bpdn", 0, m=12, n=24, n_spikes=3)
    for name in ALL_SOLVERS:
        rep = bench.run_solver(name, inst, 0)
        assert rep.termination == MAX_ITER and rep.n_f == 0
        assert not np.isfinite(rep.criticality), (name, rep.criticality)
        assert emit_table([rep]).splitlines()[1].split()[3] == "-"


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


def test_emit_table_formatting():
    rep = SolverReport(solver="R2", x=np.zeros(1), f=0.0391, h_over_lam=8.7,
                       criticality=1.8e-4, n_f=11, n_grad=11, n_prox=11,
                       wall_time_s=0.004, termination="converged",
                       trace=[(1, 1.0)], lam=0.05)
    text = emit_table([rep])
    assert "3.91e-02" in text
    assert "8.7e+00" in text
    assert "‖x-x*‖" not in text  # no distance column without x_star
    rep.dist_to_xstar = 0.41
    text = emit_table([rep])
    assert "‖x-x*‖" in text and "4.1e-01" in text


def test_emit_table_row_order_matches_config():
    cfg = _tiny_config()
    _, reports = run_config(cfg)
    lines = emit_table(reports).splitlines()
    names = [ln.split()[0] for ln in lines[1:]]
    assert names == ["R2", "TRDH", "RIPMDH-p"]


def test_emit_trace_csv(tmp_path):
    rep = SolverReport(solver="X", x=np.zeros(1), f=1.0, h_over_lam=0.0,
                       criticality=0.0, n_f=3, n_grad=3, n_prox=3,
                       wall_time_s=0.0, termination="converged",
                       trace=[(1, 3.0), (2, 2.5), (3, 1.0)], lam=0.0)
    path = emit_trace_csv(rep, best=1.0, path=tmp_path / "t.csv")
    raw = path.read_bytes().decode()
    assert "\r" not in raw
    lines = raw.strip().split("\n")
    assert lines[0] == "n_grad,objective_gap"
    assert len(lines) == 4
    assert lines[-1] == "3,0.0"  # winner ends exactly at gap zero


def test_best_objective():
    cfg = _tiny_config()
    _, reports = run_config(cfg)
    best = best_objective(reports)
    assert best <= min(r.objective for r in reports) + 1e-15


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"problem": {"name": "bpdn"}, "solvers": [{"name": "nope"}]})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"solvers": [{"name": "R2"}]})
    with pytest.raises(ConfigError):
        RunConfig.from_dict(_tiny_config(budget=0))
    with pytest.raises(ConfigError):
        run_config(_tiny_config(problem={"name": "bpdn", "params": {"bogus": 1}}))
    with pytest.raises(ConfigError):
        run_config(_tiny_config(solvers=[{"name": "R2", "options": {"bogus": 1}}]))


def test_cli_run_table_trace(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(output_dir=str(tmp_path / "out"))))
    assert main(["run", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert (out / "reports.json").exists()
    assert (out / "table.txt").exists()
    assert (out / "trace_R2.csv").exists()
    assert main(["table", str(out)]) == 0


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
    failed = SolverReport(solver="R2", x=inst.x0, f=np.nan, h_over_lam=np.nan,
                          criticality=np.nan, n_f=0, n_grad=0, n_prox=0, wall_time_s=0.0,
                          termination=ORACLE_FAILURE, trace=[(0, np.nan)],
                          error="RuntimeError: synthetic", lam=inst.h.lam)
    for rep in (real, failed):
        back = SolverReport.from_dict(json.loads(json.dumps(rep.to_dict())))
        for name in SolverReport.SAVED:
            np.testing.assert_equal(getattr(back, name), getattr(rep, name), err_msg=name)
        assert set(rep.to_dict()) == set(SolverReport.SAVED)


@pytest.mark.parametrize("name,overrides", [
    ("R2", {"rel_tol": 1e-6}), ("TR-R2", {"rel_tol": 1e-6}), ("RIPM-R2", {"eps_r": 1e-6})])
def test_override_replaces_harness_default(name, overrides):
    opts, _ = solver_options(name, "bpdn", overrides)
    assert all(getattr(opts, k) == v for k, v in overrides.items())
    cfg = _tiny_config(solvers=[{"name": name, "options": overrides}])
    _, (rep,) = run_config(cfg)
    assert rep.termination != ORACLE_FAILURE, rep.error


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
    # each (solver, option) pair of the table, at its default value, runs
    defaults = {}
    for cls in (bench.R2Options, bench.TrustRegionOptions, bench.IpmOptions):
        defaults.update((f.name, f.default) for f in dataclasses.fields(cls)
                        if f.default is not dataclasses.MISSING)
    inst = bench.problems.build("bpdn", 0, m=10, n=24, n_spikes=3)
    assert sum(len(names) for names in SOLVER_OPTIONS.values()) == 15
    for name, names in SOLVER_OPTIONS.items():
        for option in sorted(names):
            rep = run_solver(name, inst, 3, {option: defaults[option]})
            assert rep.n_f <= 4, (name, option)


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 1
    good_shape = tmp_path / "bad2.json"
    good_shape.write_text(json.dumps({"problem": {"name": "bpdn"},
                                      "solvers": [{"name": "nope"}]}))
    assert main(["run", str(good_shape)]) == 1
    bogus_mode = tmp_path / "bad3.json"
    bogus_mode.write_text(json.dumps(_tiny_config(
        solvers=[{"name": "RIPM-R2", "options": {"mode": "bogus"}}])))
    assert main(["run", str(bogus_mode)]) == 1


def _write_reports_with_old_keys(path):
    path.mkdir()
    old = {"solver": "R2", "final_f": 1.0, "final_h_over_lambda": 0.0,
           "final_criticality": 0.0, "n_f": 1, "n_grad": 1, "n_prox": 1}
    (path / "reports.json").write_text(json.dumps({"reports": [old]}))


@pytest.mark.parametrize("case", ["table_missing", "table_old_keys", "budget", "solver_entry",
                                  "options_list", "problem_string", "output_dir_is_a_file",
                                  "output_dir_under_a_file", "reports_json_is_a_directory"])
def test_cli_malformed_input_exits_1(tmp_path, capsys, monkeypatch, case):
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
    else:
        cfg = {
            "budget": _tiny_config(budget="abc"),
            "solver_entry": _tiny_config(solvers=[5]),
            "options_list": _tiny_config(solvers=[{"name": "R2", "options": [1]}]),
            "problem_string": _tiny_config(problem="bpdn"),
        }[case]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["run", str(cfg_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err
    # a bad output directory is found before the first solve
    assert solved == (["R2"] if case == "reports_json_is_a_directory" else [])


def test_solver_hard_failure_recorded(tmp_path, monkeypatch):
    real = bench.run_solver

    def flaky(name, instance, budget, overrides=None, **kw):
        if name == "TRDH":
            raise RuntimeError("synthetic failure")
        return real(name, instance, budget, overrides, **kw)

    monkeypatch.setattr(bench, "run_solver", flaky)
    cfg = _tiny_config()
    _, reports = run_config(cfg)
    assert [r.solver for r in reports] == ["R2", "TRDH", "RIPMDH-p"]
    failed = reports[1]
    assert failed.termination == "oracle_failure"
    assert "synthetic failure" in failed.error

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(output_dir=str(tmp_path / "out"))))
    assert main(["run", str(cfg_path)]) == 2
