"""Run every solver on small generated instances and check the status contract.

Run from the root of a source checkout:

    python3 tests/sweep_certificate.py
    python3 tests/sweep_certificate.py --seeds 0:1
    python3 tests/sweep_certificate.py --against saved.txt

Each solver entry of ENTRIES runs with budget 2000 on instance seeds 0-11
(or the half-open range a:b of --seeds) of four families at small sizes:

- qp, n 40, p 0.1;
- bpdn, 20×48 with 3 spikes;
- nnmf, 12×8, k 2;
- fh, 30 samples.

Each solve prints one row: family, seed, the label of its entry, status,
n_f, F = f + h at the returned x and r̄/r̄(x0), the report's certificate at
the returned x over its ``certificate0`` at the start (see `bench`).  Each
prints as in the ``ripm-bench`` table (`bench._label`, and `bench._cell`:
"-" for a value that is not finite).  Each row is checked against the
status contract:

- `converged`: r̄ ≤ τ r̄(x0), counted at τ = 1e-3 and 1e-2; a row above
  1e-3 breaks the contract;
- `stalled`: the solve could resolve no step at the returned x, whose
  radius ε_mach (1 + ‖x‖∞) is `trust_region.stall_radius`.  For TR-R2 and
  TRDH the radius after the last record, ``delta_after``, is below it; for
  the RIPM solvers the schedule ran out: the next stage's start radius
  `interior.DELTA0_FACTOR` μ, with the μ of the crossover, is below it;
- `budget`: n_f is within one of the budget;
- a RIPM solve whose stages measured reports a finite criticality.

That the table prints no NaN or inf as a number is a tier-1 test of
`bench.emit_table`, not a clause here.

Each row that breaks the contract is printed again with the config that
rebuilds its solve, with the row's entry as ENTRIES gives it (``ripm-bench
run config.json --output-dir DIR``).  The summary counts the statuses and
the `converged` rows above each τ, by label and by the solve each runs.
With --against and the saved output of an earlier run, it also lists the
rows whose status or F moved.  The script exits 0 once every solve has
run, whatever it found.  Each seed of a family runs as a `ripm-bench`
config through `bench.run_config`, with BLAS on one thread (see `gridrun`);
the sweep takes 3-5 minutes on one core of a 2-core Xeon host.
"""
import argparse
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

import gridrun  # first: it pins BLAS to one thread before numpy loads
from ripm import bench
from ripm.interior import DELTA0_FACTOR
from ripm.report import BUDGET, CONVERGED, MAX_ITER, ORACLE_FAILURE, STALLED
from ripm.trust_region import stall_radius

SWEEP_BUDGET = 2000
FAMILIES = (("qp", {"n": 40, "p": 0.1}), ("bpdn", {"m": 20, "n": 48, "n_spikes": 3}),
            ("nnmf", {"m": 12, "n": 8, "k": 2}), ("fh", {"n_samples": 30}))
ENTRIES = bench.SOLVER_NAMES  # each config's solver entries, as "solvers" lists them
TAUS = (1e-3, 1e-2)
STATUSES = (CONVERGED, STALLED, BUDGET, MAX_ITER, ORACLE_FAILURE)


def _seed_range(text: str) -> range:
    first, _, stop = text.partition(":")
    seeds = range(int(first), int(stop))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seed in {text!r}; give a:b with a < b")
    return seeds


def broken_clauses(rep, ratio: float, budget: int) -> list:
    """The clauses of the status contract that report ``rep`` breaks."""
    broken, diag = [], rep.diagnostics
    if rep.termination == CONVERGED and not ratio <= TAUS[0]:
        broken.append(f"converged with r̄/r̄(x0) {bench._cell(ratio, '')} above {TAUS[0]:g}")
    if diag.get("inner") and not math.isfinite(rep.criticality):
        broken.append(f"criticality {rep.criticality} after a stage measured")
    if rep.termination == STALLED:
        limit = stall_radius(rep.x)
        if bench.SOLVERS[rep.solver].solve == "outer_solve":
            radius, what = DELTA0_FACTOR * diag["crossover"]["mu"], "next stage's start radius"
        else:
            records = diag["iters"]
            radius, what = records[-1]["delta_after"] if records else math.nan, "last radius"
        if not radius < limit:
            broken.append(f"stalled with {what} {bench._cell(radius, '')}, not below {limit:.3e}")
    if rep.termination == BUDGET and abs(rep.n_f - budget) > 1:
        broken.append(f"budget with n_f {rep.n_f} of {budget}")
    return broken


def _key(line: str):
    """The (family, seed, label) of a printed row, or None for another line."""
    tokens = line.split()
    return tuple(tokens[:3]) if len(tokens) == 7 and tokens[0] in dict(FAMILIES) else None


def _summary(rows) -> None:
    """The status counts and the converged rows above each tau of ``rows``, each
    (label, solve, status, ratio), by label and by solve in the order met."""
    groups = {group: Counter() for group in [*dict.fromkeys(row[0] for row in rows),
                                             *dict.fromkeys(row[1] for row in rows), "all"]}
    for label, solve, termination, ratio in rows:
        above = [tau for tau in TAUS if termination == CONVERGED and not ratio <= tau]
        for group in (label, solve, "all"):
            groups[group].update(["rows", termination, *above])
    columns = ("rows",) + STATUSES + TAUS
    heads = ["group"] + [c if isinstance(c, str) else f"above {c:g}" for c in columns]
    table = [heads] + [[group] + [str(counts[c]) for c in columns]
                       for group, counts in groups.items()]
    print(bench._columns(table), end="")


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
            config = gridrun.row_config(family, seed, params, ENTRIES, SWEEP_BUDGET)
            for entry, rep in zip(ENTRIES, bench.run_config(config)[1]):
                r0, label = rep.certificate0, bench._label(rep, family)
                ratio = rep.certificate / r0 if r0 > 0.0 else math.nan
                line = (f"{family} {seed} {label} {rep.termination} {rep.n_f} "
                        f"{bench._cell(rep.objective, '')} {bench._cell(ratio, '')}")
                print(line, flush=True)
                rows.append((label, bench.SOLVERS[rep.solver].solve, rep.termination, ratio))
                lines.append(line)
                breaches += [(line, clause, dict(config, solvers=[entry]))
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
