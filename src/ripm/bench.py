"""Benchmark harness: run solver grids, persist reports, emit tables and traces.

Config is a single JSON file:

    {
      "problem": {"name": "bpdn", "seed": 0, "params": {"m": 200, "n": 512}},
      "solvers": [{"name": "R2"}, {"name": "RIPMDH-p", "options": {...}}],
      "budget": 1000,
      "output_dir": "results/bpdn0"
    }

CLI: ``run <config.json>``, ``table <results-dir>``, ``trace <results-dir>``.
The RIPM_OUTPUT_DIR environment variable overrides the config output dir;
a --output-dir flag overrides both.  Exit codes: 0 ok, 1 config error,
2 when any solver failed hard.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import problems
from .interior import IpmOptions, outer_solve
from .qnops import DEFAULT_MEMORY, SpectralDiag, make_operator
from .r2 import R2Options, r2_solve
from .report import ORACLE_FAILURE, SolverReport
from .trust_region import TrustRegionOptions, tr_solve, trdh_solve

SOLVER_NAMES = ("R2", "TRDH", "TR-R2", "RIPM-R2", "RIPMDH", "RIPM-R2-p", "RIPMDH-p")
ENV_OUTPUT_DIR = "RIPM_OUTPUT_DIR"

DEFAULT_EPS_A = 1e-4
DEFAULT_EPS_R = 1e-4
# tighter relative tolerance so the factorization runs resolve the tail
PROBLEM_EPS_R = {"nnmf": 1e-6}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    problem: dict
    solvers: list
    budget: int = 10_000
    output_dir: str | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        try:
            problem = dict(d["problem"])
            solvers = list(d["solvers"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"config needs 'problem' and 'solvers': {exc}")
        budget = int(d.get("budget", 10_000))
        if budget < 1:
            raise ConfigError("budget must be >= 1")
        if "name" not in problem:
            raise ConfigError("problem needs a 'name'")
        norm = []
        for entry in solvers:
            if isinstance(entry, str):
                entry = {"name": entry}
            if entry.get("name") not in SOLVER_NAMES:
                raise ConfigError(f"unknown solver {entry.get('name')!r}; "
                                  f"choose from {SOLVER_NAMES}")
            norm.append({"name": entry["name"], "options": dict(entry.get("options", {}))})
        return cls(problem=problem, solvers=norm, budget=budget,
                   output_dir=d.get("output_dir"))


def _fields(dc_type) -> set:
    return {f.name for f in dataclasses.fields(dc_type)}

_TR_FIELDS = _fields(TrustRegionOptions)
_R2_FIELDS = _fields(R2Options)
_IPM_FIELDS = _fields(IpmOptions) - {"tr"}


def _split_options(overrides: dict, *groups: set):
    """Partition an override dict into per-dataclass kwargs; reject unknowns."""
    known = {"qn", "memory"}
    outs = [dict() for _ in groups]
    extra = {}
    for key, val in overrides.items():
        for out, grp in zip(outs, groups):
            if key in grp:
                out[key] = val
                break
        else:
            if key not in known:
                raise ConfigError(f"unknown solver option {key!r}")
            extra[key] = val
    return (*outs, extra)


def _qn_factory(spec: dict, default_kind: str):
    kind = str(spec.get("qn", default_kind))
    memory = int(spec.get("memory", DEFAULT_MEMORY))
    try:
        make_operator(kind, 1, memory)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return lambda n: make_operator(kind, n, memory)


def run_solver(name: str, instance, budget: int, overrides: dict | None = None,
               eps_a: float = DEFAULT_EPS_A, eps_r: float | None = None) -> SolverReport:
    """Run one named solver on a fresh counter view of the instance."""
    overrides = dict(overrides or {})
    if eps_r is None:
        eps_r = PROBLEM_EPS_R.get(instance.name, DEFAULT_EPS_R)
    oracle = instance.smooth.fresh()
    oracle.budget = budget
    x0, h, bounds = instance.x0, instance.h, instance.bounds

    if name == "R2":
        r2_kw, extra = _split_options(overrides, _R2_FIELDS)
        opts = R2Options(abs_tol=eps_a, rel_tol=eps_r, **r2_kw)
        report = r2_solve(oracle, h, bounds, x0, opts, solver_name=name)
    elif name in ("TRDH", "TR-R2"):
        tr_kw, extra = _split_options(overrides, _TR_FIELDS)
        opts = TrustRegionOptions(abs_tol=eps_a, rel_tol=eps_r, **tr_kw)
        if name == "TRDH":
            report = trdh_solve(oracle, h, bounds, x0, opts, solver_name=name)
        else:
            qn = _qn_factory(extra, "lsr1")(x0.size)
            report = tr_solve(oracle, h, bounds, qn, x0, opts, solver_name=name)
    else:
        ipm_kw, tr_kw, extra = _split_options(overrides, _IPM_FIELDS, _TR_FIELDS)
        base = {"eps_a": eps_a, "eps_r": eps_r}
        if name.endswith("-p"):
            base.update(mu_init=1e-3, eps_ri=1.0)
        base.update(ipm_kw)
        step = "diagonal" if name.startswith("RIPMDH") else "r2"
        opts = IpmOptions(step=step, tr=TrustRegionOptions(**tr_kw), **base)
        if step == "diagonal":
            factory = lambda n: SpectralDiag(n)
        else:
            factory = _qn_factory(extra, "lsr1")
        report = outer_solve(oracle, h, bounds, factory, x0, opts, solver_name=name)

    if instance.x_star is not None and report.x.size == instance.x_star.size:
        report.dist_to_xstar = float(np.linalg.norm(report.x - instance.x_star))
    return report


def run_config(config: RunConfig | dict):
    """Build the instance once and run every configured solver on it."""
    if isinstance(config, dict):
        config = RunConfig.from_dict(config)
    try:
        instance = problems.from_config(config.problem)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad problem config: {exc}")
    reports = []
    for spec in config.solvers:
        try:
            rep = run_solver(spec["name"], instance, config.budget, spec["options"])
        except ConfigError:
            raise
        except Exception as exc:  # per-solver hard failure: record, keep going
            rep = SolverReport(
                solver=spec["name"], x=np.asarray(instance.x0, dtype=float),
                f=np.nan, h_over_lam=np.nan, criticality=np.nan,
                n_f=0, n_grad=0, n_prox=0, wall_time_s=0.0,
                termination=ORACLE_FAILURE, trace=[(0, np.nan)],
                error=f"{type(exc).__name__}: {exc}", lam=instance.h.lam)
        reports.append(rep)
    return instance, reports


def best_objective(reports) -> float:
    vals = [r.objective for r in reports if np.isfinite(r.objective)]
    return min(vals) if vals else np.nan


def _fmt_stat(v: float) -> str:
    if v is None or not np.isfinite(v):
        return "-"
    if abs(v - round(v)) < 1e-9 and abs(v) < 100:
        return str(int(round(v)))
    return f"{v:.1e}"


def emit_table(reports) -> str:
    """Fixed-width statistics table, one row per solver in config order."""
    if not reports:
        raise ValueError("no reports")
    with_dist = any(r.dist_to_xstar is not None for r in reports)
    headers = ["solver", "f(x)", "h(x)/λ", "√(ξ/ν)"]
    if with_dist:
        headers.append("‖x-x*‖")
    headers += ["#f", "#∇f", "#prox", "t(s)"]
    rows = []
    for r in reports:
        row = [r.solver,
               f"{r.f:.2e}" if np.isfinite(r.f) else "-",
               _fmt_stat(r.h_over_lam),
               _fmt_stat(r.criticality)]
        if with_dist:
            row.append(_fmt_stat(r.dist_to_xstar) if r.dist_to_xstar is not None else "-")
        row += [str(r.n_f), str(r.n_grad), str(r.n_prox), f"{r.wall_time_s:.1e}"]
        rows.append(row)
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def emit_trace_csv(report: SolverReport, best: float, path) -> Path:
    """Two-column CSV (n_grad, objective_minus_best), LF endings, full precision."""
    path = Path(path)
    with open(path, "w", newline="\n") as fh:
        fh.write("n_grad,objective_gap\n")
        for g, val in report.trace:
            fh.write(f"{int(g)},{repr(float(val - best))}\n")
    return path


def save_results(config: RunConfig, instance, reports, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    best = best_objective(reports)
    payload = {
        "problem": instance.to_config(),
        "budget": config.budget,
        "best_objective": best,
        "reports": [r.to_dict() for r in reports],
    }
    (out / "reports.json").write_text(json.dumps(payload, indent=2))
    (out / "table.txt").write_text(emit_table(reports))
    for rep in reports:
        emit_trace_csv(rep, best, out / f"trace_{rep.solver}.csv")
    return out


def _load_results(results_dir):
    path = Path(results_dir) / "reports.json"
    payload = json.loads(path.read_text())
    reports = [SolverReport.from_dict(d) for d in payload["reports"]]
    return payload, reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ripm-bench",
                                     description="solver benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--output-dir", type=Path, default=None)
    p_run.add_argument("--budget", type=int, default=None)
    p_tab = sub.add_parser("table", help="print the table for saved results")
    p_tab.add_argument("results_dir", type=Path)
    p_tr = sub.add_parser("trace", help="rewrite trace CSVs for saved results")
    p_tr.add_argument("results_dir", type=Path)
    args = parser.parse_args(argv)

    if args.command == "table":
        payload, reports = _load_results(args.results_dir)
        sys.stdout.write(emit_table(reports))
        return 0
    if args.command == "trace":
        payload, reports = _load_results(args.results_dir)
        best = payload["best_objective"]
        for rep in reports:
            emit_trace_csv(rep, best, Path(args.results_dir) / f"trace_{rep.solver}.csv")
        return 0

    try:
        raw = json.loads(Path(args.config).read_text())
        config = RunConfig.from_dict(raw)
        if args.budget is not None:
            if args.budget < 1:
                raise ConfigError("budget must be >= 1")
            config.budget = args.budget
        out_dir = config.output_dir
        if os.environ.get(ENV_OUTPUT_DIR):
            out_dir = os.environ[ENV_OUTPUT_DIR]
        if args.output_dir is not None:
            out_dir = args.output_dir
        if out_dir is None:
            out_dir = f"results/{raw.get('name', 'run')}-{int(time.time())}"
        instance, reports = run_config(config)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    save_results(config, instance, reports, out_dir)
    sys.stdout.write(emit_table(reports))
    return 2 if any(r.termination == ORACLE_FAILURE for r in reports) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
