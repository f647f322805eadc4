"""Benchmark harness: run solver grids, persist reports, emit tables.

Config is a single JSON file:

    {
      "problem": {"name": "bpdn", "seed": 0, "params": {"m": 200, "n": 512}},
      "solvers": [{"name": "R2"}, {"name": "RIPMDH-p", "options": {...}}],
      "budget": 1000,
      "output_dir": "results/bpdn0"
    }

These are all the keys (CONFIG_KEYS, PROBLEM_KEYS, SOLVER_KEYS; a solver
entry may be just a name); any other, a misspelled one say, is a config error.

SOLVERS states each solver: the solve it runs, `r2_solve`, `tr_solve` or
`outer_solve`, its operator, the spectral diagonal with closed-form steps or
LSR1 with the model solved by R2, and its harness defaults.  A solver's
"options" replace those; SOLVE_OPTIONS lists the names each solve reads,
keyword arguments that the harness itself sets to a second value, and any
other name is a config error.  The measure of `outer_solve` follows h: the
primal one for l0, the Lagrangian one for a convex h.

`run_solver` is the one frame of a solve, and every run ends there: it
values the start with `report.evaluate_start`, calls the solve of its row of
SOLVERS from it, and builds the run's only `SolverReport` from the solver's
`report.SolveResult`, or the exception of a solve that raises, and the
counts and trace of its views `instance.smooth.fresh()` and a copy of h.

Each report also carries the certificate r̄ of its x, the "r̄" column of
the table, which checks a solver's criticality apart from its own measure,
and ``certificate0``, r̄ at its clamped start x0.  r̄ is the infinity norm
of the least-norm element of

    grad f(x) + ∂h(x) + N_[l,u](x),

with ∂ the limiting subdifferential and N the normal cone of the bounds.
Per component, with g = grad f(x) and c = lam w_i, the set is an interval
[a, b]: {g} to start, plus [-c, c] for l1 at x_i = 0 and c sign(x_i)
elsewhere, all of ℝ for l0 at x_i = 0 when c > 0, (-inf, 0] at x_i = l_i
and [0, inf) at x_i = u_i.  Its residual is max(a, 0) + max(-b, 0), and r̄
is the largest residual.  At x the gradient is taken on
`instance.smooth.fresh()` and is not counted, since r̄ reports and decides
nothing; at x0 it is the one `report.evaluate_start` took, so r̄(x0) costs
nothing.  r̄ is NaN where grad f cannot be formed or is not finite.

CLI: ``run <config.json> [--output-dir DIR]`` solves, writes reports.json
to DIR (default: the config's output_dir; a run with neither is a config
error) and prints the table; ``table <results-dir>`` prints the same table
from the saved results.  A row is labelled by its solver, followed by the
options that differ from the solver's harness defaults on the problem's
family, as in ``R2[rel_tol=1e-08]``.  reports.json is a run's only file: it
holds the problem, the budget and one report per solver entry, with the
options its solve ran with, f, h and a trace of (n_grad, f + h) pairs.  Exit
codes: 0 ok, 1 config error, an output directory that cannot be written or
saved results that ``table`` cannot read, 2 when any solver failed hard.

Run with BLAS on one thread (``OPENBLAS_NUM_THREADS=1``): on qp at
`problems.PAPER_SCALE`, a second OpenBLAS thread doubles the CPU time of
RIPM-R2 and does not shorten its wall time.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import problems
from .errors import OracleFailure
from .interior import outer_solve  # noqa: F401
from .qnops import LSR1, SpectralDiag
from .r2 import r2_solve  # noqa: F401
from .regprox import L1
from .report import BUDGET, ORACLE_FAILURE, SolveResult, SolverReport, evaluate_start
from .trust_region import tr_solve

# bound only for perfbench/tracer.py, which wraps it; no row of SOLVERS names it
trdh_solve = tr_solve

# tighter relative tolerance so the factorization runs resolve the tail
PROBLEM_EPS_R = {"nnmf": 1e-6}
# per solve, the keyword options that the harness sets to a second value;
# the first is the relative tolerance, which PROBLEM_EPS_R sets
SOLVE_OPTIONS = {"r2_solve": ("rel_tol",), "tr_solve": ("rel_tol",),
                 "outer_solve": ("eps_r", "mu_init", "eps_ri")}


class Solver(NamedTuple):  # a row of SOLVERS
    solve: str  # the name of the module-level solve that run_solver calls
    qn: type | None  # the operator class, called with n; None for a solve that takes none
    defaults: dict  # harness defaults, which replace the solve's own


SOLVERS = {
    "R2": Solver("r2_solve", None, {}),
    "TRDH": Solver("tr_solve", SpectralDiag, {}),
    "TR-R2": Solver("tr_solve", LSR1, {}),
    "RIPM-R2": Solver("outer_solve", LSR1, {}),
    "RIPMDH": Solver("outer_solve", SpectralDiag, {}),
    "RIPM-R2-p": Solver("outer_solve", LSR1, {"mu_init": 1e-3, "eps_ri": 1.0}),
    "RIPMDH-p": Solver("outer_solve", SpectralDiag, {"mu_init": 1e-3, "eps_ri": 1.0}),
}
SOLVER_NAMES = tuple(SOLVERS)
SOLVER_OPTIONS = {name: SOLVE_OPTIONS[row.solve] for name, row in SOLVERS.items()}
# the keys of a config: at its top level, in "problem" and in a solver entry
CONFIG_KEYS = ("problem", "solvers", "budget", "output_dir")
PROBLEM_KEYS = ("name", "seed", "params")
SOLVER_KEYS = ("name", "options")


class ConfigError(ValueError):
    pass


def _reject_unknown(names, accepted, owner: str, kind: str) -> None:
    unknown = sorted(map(repr, set(names) - set(accepted)))
    if unknown:
        raise ConfigError(f"{owner} reads no {kind} {', '.join(unknown)}; "
                          f"it reads {', '.join(accepted)}")


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
            solvers = [dict(name=e) if isinstance(e, str) else dict(e) for e in d["solvers"]]
            norm = [{"name": e.get("name"), "options": dict(e.get("options", {}))}
                    for e in solvers]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config: {type(exc).__name__}: {exc}") from exc
        _reject_unknown(d, CONFIG_KEYS, "a config", "key")
        _reject_unknown(problem, PROBLEM_KEYS, "problem", "key")
        for entry in solvers:
            _reject_unknown(entry, SOLVER_KEYS, "a solver entry", "key")
        budget = d.get("budget", cls.budget)  # the field's default
        # json reads true as a bool, which is an int, and Infinity and NaN as floats
        whole = isinstance(budget, int) or isinstance(budget, float) and budget.is_integer()
        if isinstance(budget, bool) or not whole or budget < 1:
            raise ConfigError(f"budget must be a whole number >= 1, not {budget!r}")
        output_dir = d.get("output_dir")
        if not (output_dir is None or isinstance(output_dir, str)):
            raise ConfigError(f"output_dir must be a string, not {output_dir!r}")
        if "name" not in problem:
            raise ConfigError("problem needs a 'name'")
        if not norm:
            raise ConfigError("solvers must name at least one solver")
        for entry in norm:
            if entry["name"] not in SOLVER_NAMES:
                raise ConfigError(f"unknown solver {entry['name']!r}; choose from {SOLVER_NAMES}")
        return cls(problem=problem, solvers=norm, budget=int(budget), output_dir=output_dir)


def solver_options(name: str, problem: str, overrides: dict):
    """Keyword settings and operator class of solver `name` on a `problem` family.

    The settings are the harness defaults, the relative tolerance of
    PROBLEM_EPS_R and the defaults of the solver's row of SOLVERS, with
    ``overrides`` in their place; `run_solver` passes them to the solve as
    keyword arguments, and the solve's own defaults hold for the rest.  Each
    override is a finite int or float, above 0 for mu_init and at least 0
    for the tolerances.  The operator class, or None, is the row's.
    """
    accepted = SOLVER_OPTIONS[name]
    _reject_unknown(overrides, sorted(accepted), name, "option")
    for key, value in overrides.items():
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and abs(value) <= sys.float_info.max  # False for inf and NaN
                and (value > 0 if key == "mu_init" else value >= 0)):
            raise ConfigError(f"{name} option {key!r} must be a finite number "
                              f"{'> 0' if key == 'mu_init' else '>= 0'}, not {value!r}")
    o = {accepted[0]: PROBLEM_EPS_R[problem]} if problem in PROBLEM_EPS_R else {}
    o.update(SOLVERS[name].defaults)
    o.update(overrides)
    return o, SOLVERS[name].qn


def run_solver(name: str, instance, budget: int, overrides: dict | None = None) -> SolverReport:
    """Report of one named solver run on fresh views of the instance's oracle and h.

    x0 is clamped into the bounds and valued once the clock starts; a start
    that the budget refuses calls no solver, and reports BUDGET with f = inf,
    h = NaN, criticality inf, an empty trace and diagnostics {}.  A start
    whose f, h or grad f is not finite calls no solver either.  It reports
    ORACLE_FAILURE, as does a solve that raises, in valuing the start too,
    with ``error``, diagnostics {} and the counts and trace so far.  The
    criticality is the solver's last measure (inf if it took none), h is the
    solve's own, and r̄(x0) is NaN without a start gradient.
    ``overrides`` replace the harness defaults (see `solver_options`).
    """
    opts, qn = solver_options(name, instance.name, overrides or {})
    # looked up at each run, so that a wrapper bound to the solve's name runs
    solve = globals()[SOLVERS[name].solve]
    oracle = instance.smooth.fresh()
    oracle.budget = budget
    h, bounds = dataclasses.replace(instance.h), instance.bounds
    x = bounds.clamp(np.asarray(instance.x0, dtype=float))
    error, certificate0 = None, np.nan
    t0 = time.perf_counter()
    try:
        if oracle.evals_left() == 0:
            res = SolveResult(x, np.inf, np.nan, np.inf, 0, BUDGET, {})
        else:
            start = (x, *evaluate_start(oracle, h, x))
            certificate0 = certificate(instance, x, start[3])
            if not all(np.isfinite(v).all() for v in start[1:]):
                raise OracleFailure("the start is not finite: f, h or grad f at x0")
            operator = () if qn is None else (qn(x.size),)
            res = solve(oracle, h, bounds, *operator, *start, **opts)
    except Exception as exc:  # a hard failure: its report, and the next solver runs
        res = SolveResult(x, np.nan, np.nan, np.nan, 0, ORACLE_FAILURE, {})
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0

    return SolverReport(
        solver=name, x=res.x, f=res.f, h=res.h,
        criticality=float(res.crit), n_f=oracle.n_f, n_grad=oracle.n_grad, n_prox=h.n_prox,
        wall_time_s=wall, termination=res.termination, trace=oracle.trace,
        dist_to_xstar=(None if instance.x_star is None
                       else float(np.linalg.norm(res.x - instance.x_star))),
        z=res.z, diagnostics=res.diagnostics, error=error, lam=h.lam, options=opts,
        certificate=np.nan if error else certificate(instance, res.x),
        certificate0=certificate0)


def certificate(instance, x, g=None) -> float:
    """The certificate r̄ of the module docstring at x, from g = grad f(x) if
    given, or NaN without a finite grad f(x)."""
    try:
        # _grad, not grad: the certificate's gradient is not one of the solve's
        g = instance.smooth.fresh()._grad(x) if g is None else g
    except OracleFailure:
        return np.nan
    if not np.isfinite(g).all():
        return np.nan
    h, bounds = instance.h, instance.bounds
    c = h.lam_per_component(x.size)
    at_zero = x == 0.0
    # the interval of g + ∂h is [mid - half, mid + half]
    if h.kind == L1:
        mid, half = g + c * np.sign(x), np.where(at_zero, c, 0.0)
    else:
        mid, half = g, np.where(at_zero & (c > 0.0), np.inf, 0.0)
    a, b = mid - half, mid + half
    a[x <= bounds.lo] = -np.inf
    b[x >= bounds.hi] = np.inf
    return float((np.maximum(a, 0.0) + np.maximum(-b, 0.0)).max())


def run_config(config: RunConfig | dict, out_dir=None):
    """Build the instance once and run every configured solver on it.

    A solver that fails hard has its ORACLE_FAILURE report, and the next
    one runs.  ``out_dir``, if given, is made once the whole config, the
    solvers' options and the problem, has been checked, and before the
    first solve.
    """
    if isinstance(config, dict):
        config = RunConfig.from_dict(config)
    for spec in config.solvers:
        solver_options(spec["name"], config.problem["name"], spec["options"])
    try:
        instance = problems.from_config(config.problem)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad problem config: {exc}")
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    reports = [run_solver(spec["name"], instance, config.budget, spec["options"])
               for spec in config.solvers]
    return instance, reports


def _cell(v, spec: str) -> str:
    """v as ``spec``, or "-" for None, NaN or inf: the table's one rule for such a cell."""
    return "-" if v is None or not np.isfinite(v) else format(v, spec)


def _fmt_stat(v: float) -> str:
    """An exact integer below 100 (an l0 count of h/λ, a zero) as itself, else ``.1e``."""
    if v is not None and float(v).is_integer() and abs(v) < 100:
        return str(int(v))
    return _cell(v, ".1e")


def _width(cell: str) -> int:
    """Printed width of a table cell: a combining mark, such as the bar of r̄, takes none."""
    return sum(not unicodedata.combining(ch) for ch in cell)


def _columns(rows) -> str:
    """Rows of cells as lines, each column right-justified by printed width, two spaces apart."""
    widths = [max(map(_width, column)) for column in zip(*rows)]
    return "".join("  ".join(" " * (w - _width(c)) + c for c, w in zip(row, widths)) + "\n"
                   for row in rows)


def _label(report, family: str) -> str:
    """The solver's name, and the options that differ from its harness defaults
    on the problem ``family`` (see `solver_options`), as ``R2[rel_tol=1e-08]``."""
    defaults = solver_options(report.solver, family, {})[0]
    moved = [f"{key}={value!r}" for key, value in report.options.items()
             if defaults.get(key) != value]
    return f"{report.solver}[{','.join(moved)}]" if moved else report.solver


def emit_table(reports, family: str) -> str:
    """Fixed-width statistics table of runs on a problem ``family``, one row per
    report in config order, each labelled as `_label` names it; a value that
    is missing or not finite prints as "-" (`_cell`)."""
    if not reports:
        raise ValueError("no reports")
    with_dist = any(r.dist_to_xstar is not None for r in reports)
    headers = ["solver", "f(x)", "h(x)/λ", "√(ξ/ν)", "r̄"]
    if with_dist:
        headers.append("‖x-x*‖")
    headers += ["#f", "#∇f", "#prox", "t(s)"]
    rows = []
    for r in reports:
        row = [_label(r, family), _cell(r.f, ".2e"), _fmt_stat(r.h_over_lam),
               _fmt_stat(r.criticality), _cell(r.certificate, ".1e")]
        if with_dist:
            row.append(_fmt_stat(r.dist_to_xstar))
        row += [str(r.n_f), str(r.n_grad), str(r.n_prox), _cell(r.wall_time_s, ".1e")]
        rows.append(row)
    return _columns([headers, *rows])


def save_results(config: RunConfig, instance, reports, out_dir) -> Path:
    """Write the run's only file, out_dir/reports.json, and return out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "problem": instance.to_config(),
        "budget": config.budget,
        "reports": [r.to_dict() for r in reports],
    }
    (out / "reports.json").write_text(json.dumps(payload, indent=2))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ripm-bench",
                                     description="solver benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--output-dir", type=Path, default=None)
    p_tab = sub.add_parser("table", help="print the table for saved results")
    p_tab.add_argument("results_dir", type=Path)
    args = parser.parse_args(argv)

    if args.command == "table":
        try:
            payload = json.loads((args.results_dir / "reports.json").read_text())
            table = emit_table([SolverReport.from_dict(d) for d in payload["reports"]],
                               payload["problem"]["name"])
        except (OSError, KeyError, TypeError, ValueError) as exc:
            print(f"cannot read results: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        sys.stdout.write(table)
        return 0

    try:
        config = RunConfig.from_dict(json.loads(Path(args.config).read_text()))
        out_dir = args.output_dir or config.output_dir
        if out_dir is None:
            raise ConfigError("no output directory: give --output-dir or the config's output_dir")
        instance, reports = run_config(config, out_dir)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        save_results(config, instance, reports, out_dir)
    except OSError as exc:
        print(f"cannot save results: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(emit_table(reports, instance.name))
    return 2 if any(r.termination == ORACLE_FAILURE for r in reports) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
