"""Print the counters of a fixed grid of solves and one digest of them all.

Run from the root of a source checkout:

    python3 tests/grid_digest.py

Each solve prints one line, the repr of (family, seed, solver, budget, n_f,
n_grad, n_prox, f, h/lambda, termination, criticality, sum of x); the last
line is the sha256 of all of them, followed by whether it matches EXPECTED;
on a mismatch the script exits 1.  Two checkouts that print the same digest
behave the same, bit for bit, on the grid:

- bpdn, seeds 0-5, every solver, budget 1000;
- qp and nnmf at their default sizes, every solver, budget 200;
- fh at its default size, R2, TRDH, TR-R2, RIPM-R2 and RIPMDH, budget 300;
- qp at `problems.PAPER_SCALE`, every solver, budget 30.

BLAS runs on one thread, so that no sum depends on the thread count.  The
whole grid takes a few minutes.
"""
import hashlib
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ripm import bench, problems  # noqa: E402

# the digest of the grid at the last change that moved a counter or a final value
EXPECTED = "578e8fc32ab219a3f9d86581fe5e38f536746cbbd4f1d37389149732a7bff7c3"
ALL = bench.SOLVER_NAMES
GRID = ([("bpdn", seed, {}, ALL, 1000) for seed in range(6)]
        + [("qp", 0, {}, ALL, 200), ("nnmf", 0, {}, ALL, 200),
           ("fh", 0, {}, ("R2", "TRDH", "TR-R2", "RIPM-R2", "RIPMDH"), 300),
           ("qp", 0, problems.PAPER_SCALE["qp"], ALL, 30)])


def main() -> int:
    digest = hashlib.sha256()
    for family, seed, params, solvers, budget in GRID:
        instance = problems.build(family, seed, **params)
        for name in solvers:
            rep = bench.run_solver(name, instance, budget)
            line = repr((family, seed, name, budget, rep.n_f, rep.n_grad, rep.n_prox, rep.f,
                         rep.h_over_lam, rep.termination, rep.criticality, float(rep.x.sum())))
            print(line, flush=True)
            digest.update(line.encode() + b"\n")
    got = digest.hexdigest()
    print(got)
    if got != EXPECTED:
        print(f"digest mismatch: got {got}, expected {EXPECTED}")
        return 1
    print("digest matches EXPECTED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
