"""Print the counters of a fixed grid of solves and one digest of them all.

Run from the root of a source checkout:

    python3 tests/grid_digest.py
    python3 tests/grid_digest.py --against saved.txt

Each solve prints one line, the repr of (family, seed, solver, budget, n_f,
n_grad, n_prox, f, h/lambda, termination, criticality, sum of x); the last
line is the sha256 of all of them, followed by whether it matches EXPECTED;
on a mismatch the script exits 1.  With --against and the saved output of
an earlier run, it also prints each row that moved, as old → new, before the
digest.  Two checkouts that print the same digest behave the same, bit for
bit, on the grid:

- bpdn, seeds 0-5, every solver, budget 1000;
- qp and nnmf at their default sizes, every solver, budget 200;
- fh at its default size, R2, TRDH, TR-R2, RIPM-R2 and RIPMDH, budget 300;
- qp at `problems.PAPER_SCALE`, every solver, budget 30.

Each row runs as a `ripm-bench` config through `bench.run_config`, with BLAS
on one thread (see `gridrun`).  The whole grid takes about 20 s on one core
of a 2-core Xeon host.
"""
import argparse
import hashlib
import sys
from pathlib import Path

import gridrun  # first: it pins BLAS to one thread before numpy loads
from ripm import bench, problems

# the digest of the grid at the last change that moved a counter or a final value
EXPECTED = "3472918ed78d55267447f6bf24d8e642889e0eeef0c97e067585390e11ebf5f8"
ALL = bench.SOLVER_NAMES
GRID = ([("bpdn", seed, {}, ALL, 1000) for seed in range(6)]
        + [("qp", 0, {}, ALL, 200), ("nnmf", 0, {}, ALL, 200),
           ("fh", 0, {}, ("R2", "TRDH", "TR-R2", "RIPM-R2", "RIPMDH"), 300),
           ("qp", 0, problems.PAPER_SCALE["qp"], ALL, 30)])


def _key(line: str):
    """The (family, seed, solver, budget) prefix that names a row, or None for another line."""
    return ", ".join(line.split(", ", 4)[:4]) if line.startswith("(") else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", type=Path, default=None,
                        help="saved output of an earlier run, to list the rows that moved")
    args = parser.parse_args(argv)
    saved = None if args.against is None else gridrun.saved_rows(args.against, _key)
    lines = []
    for row in GRID:
        family, seed, _, _, budget = row
        for rep in bench.run_config(gridrun.row_config(*row))[1]:
            line = repr((family, seed, rep.solver, budget, rep.n_f, rep.n_grad, rep.n_prox, rep.f,
                         rep.h_over_lam, rep.termination, rep.criticality, float(rep.x.sum())))
            print(line, flush=True)
            lines.append(line)
    if saved is not None:
        gridrun.print_moved(lines, saved, _key, args.against)
    got = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    print(got)
    if got != EXPECTED:
        print(f"digest mismatch: got {got}, expected {EXPECTED}")
        return 1
    print("digest matches EXPECTED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
