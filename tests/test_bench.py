import json

import numpy as np
import pytest

import ripm.bench as bench
from ripm.bench import (ConfigError, RunConfig, best_objective, emit_table,
                        emit_trace_csv, main, run_config)
from ripm.report import MAX_ITER, SolverReport


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
    assert main(["trace", str(out)]) == 0


def test_cli_flag_overrides_env_and_config(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_tiny_config(output_dir=str(tmp_path / "a"))))
    monkeypatch.setenv(bench.ENV_OUTPUT_DIR, str(tmp_path / "b"))
    assert main(["run", str(cfg_path)]) == 0
    assert not (tmp_path / "a").exists()
    assert (tmp_path / "b" / "reports.json").exists()
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "c")]) == 0
    assert (tmp_path / "c" / "reports.json").exists()


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 1
    good_shape = tmp_path / "bad2.json"
    good_shape.write_text(json.dumps({"problem": {"name": "bpdn"},
                                      "solvers": [{"name": "nope"}]}))
    assert main(["run", str(good_shape)]) == 1


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
