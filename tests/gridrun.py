"""What the grid scripts share, imported before numpy: BLAS on one thread, so
that no sum depends on the thread count, the package of this checkout, a grid
row as a `ripm-bench` config, and the rows that moved against a saved run."""
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def row_config(family: str, seed: int, params: dict, solvers, budget: int) -> dict:
    """The config of `bench.run_config` that runs ``solvers`` on one instance."""
    return {"problem": {"name": family, "seed": seed, "params": params},
            "solvers": list(solvers), "budget": budget}


def saved_rows(path: Path, key) -> dict:
    """The lines of a saved run by the row that ``key`` names; key is None off a row."""
    return {key(line): line for line in path.read_text().splitlines() if key(line)}


def print_moved(lines, saved: dict, key, against: Path, compared=str, what="") -> None:
    """Print how many rows of ``lines`` moved against ``saved``, then each as old → new:
    a row moved when no saved row has its key or ``compared`` of the two differs.
    The first line also counts the saved rows that have no row in ``lines``."""
    moved = [(saved.get(key(line), "(no saved row)"), line) for line in lines
             if key(line) not in saved or compared(saved[key(line)]) != compared(line)]
    lost = len(saved.keys() - {key(line) for line in lines})
    tail = f", and {lost} saved rows have no row in this run" if lost else ""
    print(f"{len(moved)} of {len(lines)} rows moved{what} against {against}{tail}")
    for before, after in moved:
        print(f"{before}\n  → {after}")
