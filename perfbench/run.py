"""Solver benchmark: run one workload, or all three, and print its metrics.

    python3 perfbench/run.py --workload qp-paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the package is imported from its
`src/` directory.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run traces every layer and reports the per-layer metrics.
Every metric is printed as `name value unit`, and the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  `all` runs each workload in a process of its own.
"""
import os

# pin BLAS to one thread before numpy loads: the solves gain nothing from a
# second thread (see README.md)
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("qp-paper", "fh-ode", "bpdn-seeds")


def _seed_list(text: str):
    return tuple(int(s) for s in text.split(","))


def _print_result(name: str, result: dict, messages, notes) -> None:
    print(f"# {name}: attempted {result['attempted']} solves, failed {result['failed']}, "
          f"correct {result['correct']}")
    for note in notes:
        print(f"# {note}")
    for metric, m in result["metrics"].items():
        print(f"{metric:28s} {m['value']!r:>24} {m['unit']}")
    for msg in messages:
        print(f"{name}: {msg}", file=sys.stderr)


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="draws the 1e-13 jitter of the start points")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="repeat whole rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--problem-seeds", type=_seed_list, default=None,
                        help="comma-separated instance seeds (default: the workload's)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        if args.problem_seeds is not None:
            parser.error("--problem-seeds needs a single workload")
        return run_all(args)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import ripm
        from perfbench import harness
    except ImportError as exc:
        print(f"cannot import the solver package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(ripm.__file__).resolve().parents:
        print(f"ripm was imported from {ripm.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    result, messages, notes = harness.run(harness.WORKLOADS[args.workload],
                                   harness.OUT_DIR / args.workload, args.seed, args.seconds,
                                   bool(args.trace), args.problem_seeds)
    _print_result(args.workload, result, messages, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
