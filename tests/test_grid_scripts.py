"""The two grid scripts, `grid_digest` and `sweep_certificate`, on a one-row grid:
their rows, the rows that moved against a saved run, and their exit codes."""
import numpy as np
import pytest

from ripm import bench, problems

BPDN = {"m": 10, "n": 24, "n_spikes": 3}


@pytest.fixture
def scripts(monkeypatch):
    # gridrun pins BLAS to one thread in the environment when it is imported;
    # monkeypatch puts the environment back after the test
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    import grid_digest
    import sweep_certificate
    return grid_digest, sweep_certificate


def _save(tmp_path, lines):
    path = tmp_path / "saved.txt"
    path.write_text("".join(line + "\n" for line in lines))
    return path


def test_grid_digest_rows_moved_rows_and_exit_codes(scripts, monkeypatch, tmp_path, capsys):
    grid_digest, _ = scripts
    solvers = ("R2", "TRDH")
    monkeypatch.setattr(grid_digest, "GRID", [("bpdn", 0, BPDN, solvers, 50)])
    assert grid_digest.main([]) == 1  # one row is not the grid of EXPECTED
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    rows, (digest, verdict) = lines[:2], lines[2:]
    instance = problems.build("bpdn", 0, **BPDN)
    for row, name in zip(rows, solvers):
        rep = bench.run_solver(name, instance, 50)
        assert row == repr(("bpdn", 0, name, 50, rep.n_f, rep.n_grad, rep.n_prox, rep.f,
                            rep.h_over_lam, rep.termination, rep.criticality,
                            float(rep.x.sum())))
    assert len(digest) == 64
    assert verdict == f"digest mismatch: got {digest}, expected {grid_digest.EXPECTED}"

    # a saved run whose second row has another n_f: that row alone moved
    fields = rows[1].split(", ")
    fields[4] = str(int(fields[4]) + 1)
    altered = ", ".join(fields)
    saved = _save(tmp_path, [rows[0], altered, digest, verdict])
    monkeypatch.setattr(grid_digest, "EXPECTED", digest)
    assert grid_digest.main(["--against", str(saved)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        *rows, f"1 of 2 rows moved against {saved}", altered, f"  → {rows[1]}", digest,
        "digest matches EXPECTED"]


def test_sweep_rows_moved_rows_and_exit_code(scripts, monkeypatch, tmp_path, capsys):
    _, sweep = scripts
    monkeypatch.setattr(sweep, "FAMILIES", (("bpdn", BPDN),))
    assert sweep.main(["--seeds", "0:1"]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = out[:len(bench.SOLVER_NAMES)]
    instance = problems.build("bpdn", 0, **BPDN)
    r0 = bench.certificate(instance, instance.bounds.clamp(np.asarray(instance.x0, float)))
    for row, name in zip(rows, bench.SOLVER_NAMES):
        family, seed, solver, status, n_f, objective, ratio = row.split()
        rep = bench.run_solver(name, instance, sweep.SWEEP_BUDGET)
        assert (family, seed, solver, status, int(n_f)) == ("bpdn", "0", name, rep.termination,
                                                            rep.n_f)
        assert objective == sweep._num(rep.objective)
        assert ratio == sweep._num(rep.certificate / r0)
    assert out[-1].startswith(f"{len(rows)} solves, seeds 0:1, budget {sweep.SWEEP_BUDGET}, ")

    # a saved run with another n_f on the first row and another F on the
    # second: only a status or an F moves a row
    first, second = (row.split() for row in rows[:2])
    first[4] = str(int(first[4]) + 1)
    second[5] = "1.5"
    altered = " ".join(second)
    saved = _save(tmp_path, [" ".join(first), altered, *rows[2:], *out[len(rows):]])
    assert sweep.main(["--seeds", "0:1", "--against", str(saved)]) == 0
    out = capsys.readouterr().out.splitlines()
    moved = out.index(f"1 of {len(rows)} rows moved in status or F against {saved}")
    assert out[moved + 1:moved + 3] == [altered, f"  → {rows[1]}"]
