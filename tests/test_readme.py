"""The README's Python examples run as written, in order, in one namespace,
and its solver table is the harness's."""
import re
from pathlib import Path

from ripm import bench

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_the_readme_solver_table_is_bench_solvers():
    # the rows of "Solvers" name bench.SOLVER_NAMES in order, and a row that
    # states a mu_0 states the mu_init default of its row of bench.SOLVERS
    section = README.read_text().split("\n## Solvers\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` +\|(.*)\|$", section, re.M)
    assert [name for name, _ in rows] == list(bench.SOLVER_NAMES)
    for name, method in rows:
        mu0 = re.search(r"μ₀ = ([-+.e\d]+)", method)
        stated = float(mu0[1]) if mu0 else None
        assert stated == bench.SOLVERS[name].defaults.get("mu_init"), name
