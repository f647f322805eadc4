"""Print the counters of a fixed grid of solves and one digest of them all.

Run from the root of a source checkout:

    python3 tests/grid_digest.py
    python3 tests/grid_digest.py --against saved.txt

Each solve prints one line, the repr of (family, seed, solver, budget, n_f,
n_grad, n_prox, f, h/lambda, termination, criticality, sum of x); the last
line is the sha256 of all of them, followed by whether it matches EXPECTED;
on a mismatch the script exits 1.  With --against and the saved output of
an earlier run, it also prints each row that moved, as old → new, before the
digest.  Two checkouts that print the same digest
behave the same, bit for bit, on the grid:

- bpdn, seeds 0-5, every solver, budget 1000;
- qp and nnmf at their default sizes, every solver, budget 200;
- fh at its default size, R2, TRDH, TR-R2, RIPM-R2 and RIPMDH, budget 300;
- qp at `problems.PAPER_SCALE`, every solver, budget 30.

BLAS runs on one thread, so that no sum depends on the thread count.  The
whole grid takes a few minutes.
"""
import argparse
import hashlib
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ripm import bench, problems  # noqa: E402

# the digest of the grid at the last change that moved a counter or a final value
EXPECTED = "3472918ed78d55267447f6bf24d8e642889e0eeef0c97e067585390e11ebf5f8"
ALL = bench.SOLVER_NAMES
GRID = ([("bpdn", seed, {}, ALL, 1000) for seed in range(6)]
        + [("qp", 0, {}, ALL, 200), ("nnmf", 0, {}, ALL, 200),
           ("fh", 0, {}, ("R2", "TRDH", "TR-R2", "RIPM-R2", "RIPMDH"), 300),
           ("qp", 0, problems.PAPER_SCALE["qp"], ALL, 30)])


def _key(line: str) -> str:
    """The (family, seed, solver, budget) prefix that names a row."""
    return ", ".join(line.split(", ", 4)[:4])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", type=Path, default=None,
                        help="saved output of an earlier run, to list the rows that moved")
    args = parser.parse_args(argv)
    old = None
    if args.against is not None:
        old = {_key(line): line for line in args.against.read_text().splitlines()
               if line.startswith("(")}
    lines = []
    digest = hashlib.sha256()
    for family, seed, params, solvers, budget in GRID:
        instance = problems.build(family, seed, **params)
        for name in solvers:
            rep = bench.run_solver(name, instance, budget)
            line = repr((family, seed, name, budget, rep.n_f, rep.n_grad, rep.n_prox, rep.f,
                         rep.h_over_lam, rep.termination, rep.criticality, float(rep.x.sum())))
            print(line, flush=True)
            lines.append(line)
            digest.update(line.encode() + b"\n")
    if old is not None:
        moved = [(old.get(_key(line), "(no saved row)"), line) for line in lines
                 if old.get(_key(line)) != line]
        print(f"{len(moved)} of {len(lines)} rows moved against {args.against}")
        for before, after in moved:
            print(f"{before}\n  → {after}")
    got = digest.hexdigest()
    print(got)
    if got != EXPECTED:
        print(f"digest mismatch: got {got}, expected {EXPECTED}")
        return 1
    print("digest matches EXPECTED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
