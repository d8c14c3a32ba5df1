"""Command-line harness: rows, tables, suites, export round trips."""

import csv
import dataclasses
import json

import pytest

from saddleprec import blocksys, cli, matrixio, precond, verify
from saddleprec.cli import (
    BASE_GB,
    CSV_COLUMNS,
    LU_FILL,
    WORK_VECTORS,
    ConfigError,
    _check_budget,
    estimate_memory_gb,
    main,
    solve_nnz,
    solve_once,
)
from saddleprec.assembly import ProblemSpec, assemble_system, build_spaces
from saddleprec.kron import KroneckerMatrix
from saddleprec.precond import build_preconditioner


def test_run_single_row(capsys):
    rc = main(["run", "--problem", "wave", "--degree", "2", "--level", "1",
               "--alpha", "1e-6", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == ",".join(CSV_COLUMNS)
    row = out[1].split(",")
    assert row[0] == "wave"
    assert int(row[4]) == 468  # dofs at p=2, level=1
    assert int(row[5]) > 0  # iterations
    assert row[6] == "True"


def test_run_writes_csv(tmp_path, capsys):
    path = tmp_path / "row.csv"
    rc = main(["run", "--level", "1", "--alpha", "1e-3",
               "--output", str(path)])
    assert rc == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert set(rows[0]) == set(CSV_COLUMNS)
    assert rows[0]["converged"] == "True"


def test_unconverged_solve_exits_nonzero(tmp_path, capsys):
    # tol 1e-16 is below what double precision reaches: the solve stagnates
    path = tmp_path / "row.csv"
    rc = main(["run", "--level", "1", "--tol", "1e-16", "--output", str(path)])
    assert rc == 1
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert row[6] == "False"
    with open(path) as fh:
        assert next(csv.DictReader(fh))["converged"] == "False"

    path = tmp_path / "cells.csv"
    rc = main(["table", "--levels", "1", "--alphas", "1e-3", "--tol", "1e-16",
               "--format", "csv", "--output", str(path)])
    assert rc == 1
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].split(",") == ["1", "fail", "468"]
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["converged"] == "False"


def test_seed_reproducibility(capsys):
    counts = []
    for _ in range(2):
        main(["run", "--level", "1", "--alpha", "1e-6", "--seed", "11"])
        counts.append(capsys.readouterr().out.strip().splitlines()[1].split(",")[5])
    assert counts[0] == counts[1]


def test_table_markdown_and_dofs(capsys):
    rc = main(["table", "--problem", "wave", "--degree", "2",
               "--levels", "2", "3", "--alphas", "1e-9", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "3604" in out and "28452" in out
    assert out.count("|") > 0  # markdown grid


def test_table_csv_grid(capsys):
    rc = main(["table", "--levels", "1", "--alphas", "1", "1e-6",
               "--format", "csv"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    header = out[1].split(",")  # first line is the "# problem=..." comment
    assert header[0] == "level"
    assert header[-1] == "dofs"
    assert len(header) == 4  # level, two alphas, dofs


def test_table_alpha_headers_parse_back(capsys):
    # alphas that agree to one significant digit keep distinct headers
    alphas = ["1e-3", "1.5e-3", "2.5e-3"]
    rc = main(["table", "--levels", "1", "--alphas", *alphas,
               "--format", "csv"])
    assert rc == 0
    header = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert header[1:-1] == ["alpha=1e-03", "alpha=1.5e-03", "alpha=2.5e-03"]
    assert [float(h.removeprefix("alpha=")) for h in header[1:-1]] == [
        float(a) for a in alphas]
    # labels that already parse back keep their one-digit form
    assert [cli._format_alpha(a) for a in (1.0, 1e-3, 1e-6, 1e-9, 10.0)] == [
        "1", "1e-03", "1e-06", "1e-09", "10"]


def test_verify_conditioning_suite_reports_spread(capsys, monkeypatch):
    # the kappa of each alpha, their spread, and a spread beyond the bound fails
    kappas = {1e-3: 2.0, 1e-6: 30.0, 1e-9: 4.0}

    def fake_kappa(system, precon):
        kappa = kappas[precon.alpha]
        return verify.ConditionReport(kappa, kappa, 1.0, 0)

    monkeypatch.setattr(verify, "condition_number_estimate", fake_kappa)
    rc = main(["verify", "--suite", "conditioning"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "## suite conditioning: [FAIL]" in out
    assert "alpha=1e-06: kappa=30.000000" in out
    assert "spread 15.000 (at most 10)" in out


def test_table_long_form_output(tmp_path, capsys):
    path = tmp_path / "cells.csv"
    rc = main(["table", "--levels", "1", "--alphas", "1e-3", "1e-6",
               "--output", str(path)])
    assert rc == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert set(rows[0]) == set(CSV_COLUMNS)
    # rows in the order of --alphas
    assert [float(r["alpha"]) for r in rows] == [1e-3, 1e-6]


@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_table_rows_equal_unshared_solves(kind, tmp_path, capsys):
    # cells that share one setup per (p, level) solve as a fresh solve_once
    path = tmp_path / "cells.csv"
    alphas = ("1", "1e-3", "1e-6", "1e-9")
    main(["table", "--problem", kind, "--degrees", "2", "3", "--levels", "2",
          "--alphas", *alphas, "--output", str(path)])
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    for row in rows:
        fresh = solve_once(ProblemSpec(kind, int(row["p"]), 2,
                                       float(row["alpha"])), 1e-8)
        assert int(row["iterations"]) == fresh["iterations"]
        assert row["converged"] == str(fresh["converged"])
        assert float(row["final_relres"]) == fresh["final_relres"]


def test_setup_shared_within_one_table_only(monkeypatch, capsys):
    # the alpha-free setup is built once per (p, level) of one table, and
    # nothing of it survives the command
    built = []
    orig = precond.state_residual_form

    def counted(spec, spaces):
        built.append((spec.degree, spec.level))
        return orig(spec, spaces)

    monkeypatch.setattr(precond, "state_residual_form", counted)
    argv = ["table", "--levels", "1", "2", "--alphas", "1", "1e-3", "1e-6"]
    assert main(argv) == 0
    assert built == [(2, 1), (2, 2)]
    assert cli._setups.get() is None
    assert main(argv) == 0
    assert len(built) == 4
    assert main(["run", "--level", "1"]) == 0
    assert len(built) == 5


def test_setup_key_ignores_alpha_and_seed_only():
    spec = ProblemSpec("wave", 2, 1, 1e-3, seed=1)
    key = cli.setup_key(spec)
    assert cli.setup_key(dataclasses.replace(spec, alpha=1e-9, seed=4)) == key
    for field, value in (("final_time", 2.0),
                         ("omega", ((0.0, 0.5), (0.25, 0.75))),
                         ("u_continuity", 1), ("kind", "heat"),
                         ("degree", 3), ("level", 2)):
        assert cli.setup_key(dataclasses.replace(spec, **{field: value})) != key


def test_verify_fast_suites(capsys):
    rc = main(["verify", "--suite", "theorem22", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "## suite theorem22: [PASS]" in out
    rc = main(["verify", "--suite", "appendix"])
    assert rc == 0
    assert "## suite appendix: [PASS]" in capsys.readouterr().out


def test_verify_report_file(tmp_path, capsys):
    path = tmp_path / "report.txt"
    rc = main(["verify", "--suite", "theorem22", "--output", str(path)])
    assert rc == 0
    assert "round trips" in path.read_text()


def test_verify_structured_csv(tmp_path, capsys):
    path = tmp_path / "report.csv"
    rc = main(["verify", "--suite", "theorem22", "--output", str(path)])
    assert rc == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert {"suite", "metric", "value"} == set(rows[0])
    by_metric = {r["metric"]: float(r["value"]) for r in rows}
    assert by_metric["passed"] == 1.0
    assert by_metric["quarter_circle_minimum"] == blocksys.phi_min()


def test_verify_failed_check_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(blocksys, "phi_min", lambda: 0.5)
    path = tmp_path / "report.csv"
    rc = main(["verify", "--suite", "theorem22", "--output", str(path)])
    assert rc == 1
    assert "## suite theorem22: [FAIL]" in capsys.readouterr().out
    with open(path) as fh:
        by_metric = {r["metric"]: float(r["value"]) for r in csv.DictReader(fh)}
    assert by_metric["passed"] == 0.0
    assert by_metric["quarter_circle_minimum"] == 0.5


def test_table_multiple_degrees(capsys):
    rc = main(["table", "--degrees", "2", "3", "--levels", "1",
               "--alphas", "1e-6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "p=2" in out and "p=3" in out
    assert out.count("| level") == 2  # one grid per degree


def test_config_error_exit_code(capsys, monkeypatch, tmp_path):
    def no_solve(*args):
        raise AssertionError("a configuration error reached the solve")

    monkeypatch.setattr(cli, "solve_once", no_solve)
    for argv in (["table", "--levels", "1", "--tol", "0"],
                 ["table", "--levels", "1", "--seed", "-1"],
                 ["run", "--tol", "2"]):
        assert main(argv) == 2, argv
        assert "configuration error" in capsys.readouterr().err
    rc = main(["run", "--alpha", "-1.0"])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err
    rc = main(["run", "--level", "1", "--alpha", "nan"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "factorization" not in err
    with pytest.raises(SystemExit) as exc:
        main(["table", "--alphas"])  # empty list rejected by the parser
    assert exc.value.code == 2
    # export solves nothing, so its parser has no --tol to ignore
    out = tmp_path / "export"
    with pytest.raises(SystemExit) as exc:
        main(["export", "--level", "1", "--tol", "0", "--export-dir", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    # verify measures fixed instances: it has no --level to ignore or clamp
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--level", "3"])
    assert exc.value.code == 2
    # an output that cannot be written is refused before any work, and one
    # that fails only while writing still ends in one line, not a traceback
    missing = str(tmp_path / "missing" / "out.csv")
    a_file = tmp_path / "a_file"
    a_file.write_text("kept")
    monkeypatch.setitem(cli.SUITES, "appendix", (lambda seed: (True, [], []),))
    capsys.readouterr()
    for argv in (["run", "--level", "1", "--output", missing],
                 ["table", "--levels", "1", "--output", missing],
                 ["verify", "--output", missing],
                 ["export", "--level", "1", "--export-dir", str(a_file)],
                 ["verify", "--suite", "appendix", "--output", str(tmp_path)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and err.count("\n") == 1, argv
    assert a_file.read_text() == "kept"


def test_memory_gate_refuses_level_four(capsys):
    rc = main(["run", "--level", "4"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "desk scale" in err and "GB" in err
    # the estimate itself is monotone in the level
    lo = estimate_memory_gb(ProblemSpec("wave", 2, 2, 1e-3))
    hi = estimate_memory_gb(ProblemSpec("wave", 2, 4, 1e-3))
    assert hi > lo


@pytest.mark.parametrize("cap", [float("nan"), 0.0, -1.0])
def test_memory_gate_refuses_non_positive_cap(cap):
    # NaN compares false against any estimate; it must not switch the gate off
    with pytest.raises(ConfigError, match="must be positive"):
        _check_budget(ProblemSpec("wave", 3, 5, 1e-6), cap)


def _held_bytes(mat):
    return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes


def _factor_bytes(sums):
    """Bytes of the distinct univariate factors behind Kronecker sums."""
    factors = {id(f): f for km in sums for t in km.terms for f in t.factors}
    return sum(f.nbytes for f in factors.values())


@pytest.mark.parametrize("lev", [2, 3])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["wave", "heat"])
def test_memory_estimate_covers_held_blocks(kind, p, lev):
    spec = ProblemSpec(kind, p, lev, 1e-6)
    spaces = build_spaces(spec)
    system = assemble_system(spec, spaces)
    precon = build_preconditioner(spec, spaces, system.blocks)
    factorized = {"P_Y": precon.block_matrix("y"),
                  "r1_gram": precon.block_matrix("p_r1")}
    # the counts are exact, and the flat fill bounds both LUs; SuperLU.nnz
    # reads the fill without copying the factors out as lu.L and lu.U do
    assert solve_nnz(spec) == {name: m.nnz for name, m in factorized.items()}
    lus = {"P_Y": precon.table["y"].solver, "r1_gram": precon.table["p_r1"].solver}
    for name, ordered in lus.items():
        assert ordered.lu.nnz <= LU_FILL * factorized[name].nnz
    # the bytes held: both factorized blocks, their LUs (a float64 value and
    # an int32 row index per nonzero, and the column pointers of L and U) with
    # the ordering and SuperLU's row and column permutations, the univariate
    # factors of every block and of the mass inverses, and the work vectors;
    # the interpreter base is left out
    lu_bytes = sum(12 * o.lu.nnz + 8 * (o.lu.shape[0] + 1) + o.perm.nbytes
                   + o.lu.perm_r.nbytes + o.lu.perm_c.nbytes
                   for o in lus.values())
    solvers = [precon.table[n].solver for n in spaces.block_names
               if n not in ("y", "p_r1")]
    sums = list(system.blocks.values())
    sums += [precon.table[n].matrix for n in spaces.block_names
             if n not in ("y", "p_r1")]
    sums += [s._inverse for s in solvers]
    total = (sum(_held_bytes(m) for m in factorized.values()) + lu_bytes
             + _factor_bytes(sums)
             + 8 * WORK_VECTORS * system.dim)
    assert (estimate_memory_gb(spec) - BASE_GB) * 1e9 >= total


def test_solve_materializes_only_the_factorized_blocks(monkeypatch):
    # the blocks a solve only applies stay Kronecker sums; it materializes
    # the terms of P_Y (dim Y) and the r1 Gram (dim R1) for their LUs
    shapes = []
    materialize = KroneckerMatrix.materialize

    def record(self):
        mat = materialize(self)
        shapes.append(mat.shape)
        return mat

    monkeypatch.setattr(KroneckerMatrix, "materialize", record)
    spec = ProblemSpec("wave", 2, 2, 1e-6)
    spaces = build_spaces(spec)
    assert solve_once(spec, 1e-8)["converged"]
    n_y, n_r1 = spaces.block_dim("y"), spaces.block_dim("p_r1")
    assert set(shapes) == {(n_y, n_y), (n_r1, n_r1)}


def test_export_round_trip(tmp_path, capsys):
    out = tmp_path / "export"
    rc = main(["export", "--level", "1", "--alpha", "1e-3",
               "--export-dir", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["problem"] == "wave"
    assert manifest["alpha"] == 1e-3
    assert len(manifest["files"]) == 6  # system + five blocks
    assert manifest["block_offsets"][-1] == manifest["dofs"]

    spec = ProblemSpec("wave", 2, 1, 1e-3)
    spaces = build_spaces(spec)
    system = assemble_system(spec, spaces)
    precon = build_preconditioner(spec, spaces, system.blocks)
    back = matrixio.read_matrix(out / "system.mtx")
    assert abs(system.matrix - back).max() == 0.0  # bit-exact round trip
    assert abs(back - back.T).max() == 0.0
    for name in spaces.block_names:
        blk = matrixio.read_matrix(out / f"precond_{name}.mtx")
        assert abs(precon.block_matrix(name) - blk).max() == 0.0
