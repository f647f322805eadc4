"""The two grid scripts, `grid_digest` and `sweep_certificate`, on a one-row grid:
their rows, the rows that moved against a saved run, and their exit codes."""
import json

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
    for row, name in zip(rows, bench.SOLVER_NAMES):
        family, seed, solver, status, n_f, objective, ratio = row.split()
        rep = bench.run_solver(name, instance, sweep.SWEEP_BUDGET)
        assert (family, seed, solver, status, int(n_f)) == ("bpdn", "0", name, rep.termination,
                                                            rep.n_f)
        assert objective == bench._cell(rep.objective, "")
        assert ratio == bench._cell(rep.certificate / rep.certificate0, "")
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


def test_a_saved_row_with_no_row_in_this_run_is_counted(scripts, monkeypatch, tmp_path, capsys):
    # a run that lost a row of the saved one does not read "0 of N rows moved" alone
    grid_digest, _ = scripts
    monkeypatch.setattr(grid_digest, "GRID", [("bpdn", 0, BPDN, ("R2",), 50)])
    assert grid_digest.main([]) == 1
    row, digest, verdict = capsys.readouterr().out.splitlines()
    extra = row.replace("'R2'", "'TRDH'")
    saved = _save(tmp_path, [row, extra, digest, verdict])
    assert grid_digest.main(["--against", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines()[1] == (
        f"0 of 1 rows moved against {saved}, and 1 saved rows have no row in this run")


# two entries of one solver, which differ only in their options
TWO_R2 = ("R2", {"name": "R2", "options": {"rel_tol": 1e-8}})
TWO_LABELS = ("R2", "R2[rel_tol=1e-08]")


def test_two_entries_of_one_solver_are_two_digest_rows(scripts, monkeypatch, tmp_path, capsys):
    grid_digest, _ = scripts
    monkeypatch.setattr(grid_digest, "GRID", [("bpdn", 0, BPDN, TWO_R2, 200)])
    assert grid_digest.main([]) == 1
    out = capsys.readouterr().out.splitlines()
    rows = out[:2]
    assert [row.split(", ")[2] for row in rows] == [repr(label) for label in TWO_LABELS]
    assert rows[0] != rows[1]  # rel_tol 1e-8 runs on past the default tolerance
    saved = _save(tmp_path, out)
    assert grid_digest.main(["--against", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines()[2] == f"0 of 2 rows moved against {saved}"


def test_two_entries_of_one_solver_are_two_sweep_rows(scripts, monkeypatch, tmp_path, capsys):
    _, sweep = scripts
    monkeypatch.setattr(sweep, "FAMILIES", (("bpdn", BPDN),))
    monkeypatch.setattr(sweep, "ENTRIES", TWO_R2)
    # every row breaks a clause, so that each prints the config that rebuilds it
    monkeypatch.setattr(sweep, "broken_clauses", lambda rep, ratio, budget: ["clause"])
    assert sweep.main(["--seeds", "0:1"]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = out[:2]
    assert [row.split()[2] for row in rows] == list(TWO_LABELS)
    # the summary: its header, a group per label, the one solve they run, and all
    summary = [line.split() for line in out[3:8]]
    assert summary[0][:2] == ["group", "rows"]
    assert [(line[0], line[1]) for line in summary[1:]] == [
        (TWO_LABELS[0], "1"), (TWO_LABELS[1], "1"), ("r2_solve", "2"), ("all", "2")]
    assert out[9] == "2 breaches of the status contract"
    instance = problems.build("bpdn", 0, **BPDN)
    for i, (row, entry) in enumerate(zip(rows, TWO_R2)):
        assert out[10 + 3 * i:12 + 3 * i] == [row, "  clause"]
        config = json.loads(out[12 + 3 * i].removeprefix("  config: "))
        assert config["solvers"] == [entry]
        (again,) = bench.run_config(config)[1]
        options = entry["options"] if isinstance(entry, dict) else {}
        rep = bench.run_solver("R2", instance, sweep.SWEEP_BUDGET, options)
        assert (again.n_f, again.objective, bench._label(again, "bpdn")) == \
            (rep.n_f, rep.objective, TWO_LABELS[i])
    saved = _save(tmp_path, out)
    assert sweep.main(["--seeds", "0:1", "--against", str(saved)]) == 0
    assert f"0 of 2 rows moved in status or F against {saved}" in \
        capsys.readouterr().out.splitlines()
