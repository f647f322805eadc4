"""Run every solver on small generated instances and check the status contract.

Run from the root of a source checkout:

    python3 tests/sweep_certificate.py
    python3 tests/sweep_certificate.py --seeds 0:1
    python3 tests/sweep_certificate.py --against saved.txt

Every solver of `bench.SOLVERS` runs with budget 2000 on instance seeds 0-11
(or the half-open range a:b of --seeds) of four families at small sizes:

- qp, n 40, p 0.1;
- bpdn, 20×48 with 3 spikes;
- nnmf, 12×8, k 2;
- fh, 30 samples.

Each solve prints one row: family, seed, solver, status, n_f, F = f + h at
the returned x (its repr) and r̄/r̄(x0), the certificate of
`bench.certificate` at the returned x over its value at the clamped x0.  A
value that is not finite prints as "-".  Each row is checked against the
status contract:

- `converged`: r̄ ≤ τ r̄(x0), counted at τ = 1e-3 and 1e-2; a row above
  1e-3 breaks the contract;
- `stalled`: the radius after the last record, ``delta_after``, is below
  ε_mach (1 + ‖x‖∞) at the returned x, `trust_region.stall_radius`;
- `budget`: n_f is within one of the budget;
- the row of `bench.emit_table` prints no NaN or inf as a number.

Each row that breaks the contract is printed again with the config that
rebuilds its solve (``ripm-bench run config.json --output-dir DIR``).  The
summary counts the statuses and the `converged` rows above each τ, by solver
and by the solve the solver runs.  With --against and the saved output of an
earlier run, it also lists the rows whose status or F moved.  The script
exits 0 once every solve has run, whatever it found.  Each seed of a family
runs as a `ripm-bench` config through `bench.run_config`, with BLAS on one
thread (see `gridrun`); the sweep takes about 4.5 minutes on one core of a
2-core Xeon host.
"""
import argparse
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

import gridrun  # first: it pins BLAS to one thread before numpy loads
import numpy as np
from ripm import bench
from ripm.report import BUDGET, CONVERGED, MAX_ITER, ORACLE_FAILURE, STALLED
from ripm.trust_region import stall_radius

SWEEP_BUDGET = 2000
FAMILIES = (("qp", {"n": 40, "p": 0.1}), ("bpdn", {"m": 20, "n": 48, "n_spikes": 3}),
            ("nnmf", {"m": 12, "n": 8, "k": 2}), ("fh", {"n_samples": 30}))
TAUS = (1e-3, 1e-2)
STATUSES = (CONVERGED, STALLED, BUDGET, MAX_ITER, ORACLE_FAILURE)
# the columns of bench.emit_table that print a value which may be NaN or inf
TABLE_VALUES = {"f(x)": "f", "h(x)/λ": "h_over_lam", "√(ξ/ν)": "criticality",
                "r̄": "certificate", "‖x-x*‖": "dist_to_xstar"}


def _seed_range(text: str) -> range:
    first, _, stop = text.partition(":")
    seeds = range(int(first), int(stop))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seed in {text!r}; give a:b with a < b")
    return seeds


def _finite(value) -> bool:
    return value is not None and math.isfinite(value)


def _num(value) -> str:
    """A float as its repr, or "-" when it is not finite."""
    return repr(float(value)) if _finite(value) else "-"


def broken_clauses(rep, ratio: float, budget: int) -> list:
    """The clauses of the status contract that report ``rep`` breaks."""
    broken = []
    if rep.termination == CONVERGED and not ratio <= TAUS[0]:
        broken.append(f"converged with r̄/r̄(x0) {_num(ratio)} above {TAUS[0]:g}")
    if rep.termination == STALLED:
        diag = rep.diagnostics or {}
        records = diag.get("inner") or diag.get("iters") or ()
        radius = records[-1].get("delta_after", math.nan) if records else math.nan
        limit = stall_radius(rep.x)
        if not radius < limit:
            broken.append(f"stalled with last radius {_num(radius)}, not below {limit:.3e}")
    if rep.termination == BUDGET and abs(rep.n_f - budget) > 1:
        broken.append(f"budget with n_f {rep.n_f} of {budget}")
    header, cells = (line.split() for line in bench.emit_table([rep]).splitlines())
    for column, field in TABLE_VALUES.items():
        if column in header and not _finite(getattr(rep, field)):
            cell = cells[header.index(column)]
            if cell != "-":
                broken.append(f"{field} {getattr(rep, field)} printed as {cell}")
    return broken


def _key(line: str):
    """The (family, seed, solver) of a printed row, or None for another line."""
    tokens = line.split()
    return tuple(tokens[:3]) if len(tokens) == 7 and tokens[0] in dict(FAMILIES) else None


def _summary(rows) -> None:
    """The status counts and the converged rows above each tau, by solver and by solve."""
    solves = [row.solve for row in bench.SOLVERS.values()]
    groups = {group: Counter() for group in [*bench.SOLVER_NAMES, *dict.fromkeys(solves), "all"]}
    for name, termination, ratio in rows:
        for group in (name, bench.SOLVERS[name].solve, "all"):
            counts = groups[group]
            counts["rows"] += 1
            counts[termination] += 1
            for tau in TAUS:
                counts[tau] += termination == CONVERGED and not ratio <= tau
    columns = ("rows",) + STATUSES + TAUS
    heads = ["group"] + [c if isinstance(c, str) else f"above {c:g}" for c in columns]
    table = [heads] + [[group] + [str(counts[c]) for c in columns]
                       for group, counts in groups.items()]
    widths = [max(len(row[i]) for row in table) for i in range(len(heads))]
    for row in table:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seed_range, default=range(12),
                        help="half-open range a:b of instance seeds (default 0:12)")
    parser.add_argument("--against", type=Path, default=None,
                        help="saved output of an earlier run, to list the rows that moved")
    args = parser.parse_args(argv)
    saved = None if args.against is None else gridrun.saved_rows(args.against, _key)
    t0 = time.perf_counter()
    rows, lines, breaches = [], [], []
    for family, params in FAMILIES:
        for seed in args.seeds:
            config = gridrun.row_config(family, seed, params, bench.SOLVER_NAMES, SWEEP_BUDGET)
            instance, reports = bench.run_config(config)
            r0 = bench.certificate(instance, instance.bounds.clamp(np.asarray(instance.x0, float)))
            for rep in reports:
                ratio = rep.certificate / r0 if r0 > 0.0 else math.nan
                line = (f"{family} {seed} {rep.solver} {rep.termination} {rep.n_f} "
                        f"{_num(rep.objective)} {_num(ratio)}")
                print(line, flush=True)
                rows.append((rep.solver, rep.termination, ratio))
                lines.append(line)
                breaches += [(line, clause, dict(config, solvers=[rep.solver]))
                             for clause in broken_clauses(rep, ratio, SWEEP_BUDGET)]
    print()
    _summary(rows)
    print(f"\n{len(breaches)} breaches of the status contract")
    for line, clause, config in breaches:
        print(f"{line}\n  {clause}\n  config: {json.dumps(config)}")
    if saved is not None:
        print()
        # a row moved when its status (token 3) or F (token 5) did
        gridrun.print_moved(lines, saved, _key, args.against,
                            compared=lambda line: line.split()[3:6:2], what=" in status or F")
    print(f"\n{len(lines)} solves, seeds {args.seeds.start}:{args.seeds.stop}, "
          f"budget {SWEEP_BUDGET}, {time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
