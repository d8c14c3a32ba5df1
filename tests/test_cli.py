"""Command-line harness: rows, tables, suites, export round trips."""

import csv
import dataclasses
import gc
import json
import weakref

import pytest
import scipy.io as sio
import scipy.sparse as sp

from saddleprec import blocksys, cli, kron, precond, verify
from saddleprec.cli import (
    BASE_GB,
    CSV_COLUMNS,
    WORK_VECTORS,
    ConfigError,
    _check_budget,
    estimate_memory_gb,
    main,
    solve_once,
)
from saddleprec.assembly import (
    BLOCK_FACTORS,
    ProblemSpec,
    assemble_system,
    build_spaces,
)
from saddleprec.kron import KroneckerMatrix, KroneckerPlan
from saddleprec.precond import (
    ControlCoordinates,
    Setup,
    band_size,
    bandwidth,
    build_preconditioner,
)


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
    assert row[CSV_COLUMNS.index("stop")] == "converged"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_reports_a_solve_without_a_finite_residual(capsys):
    # alpha = 1e300 overflows the residual norms: a breakdown row and exit 1
    assert main(["run", "--level", "1", "--alpha", "1e300"]) == 1
    row = dict(zip(CSV_COLUMNS, capsys.readouterr().out.splitlines()[1].split(",")))
    assert row["stop"] == "breakdown" and row["converged"] == "False"
    assert float(row["final_relres"]) == 1.0


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
    assert rows[0]["stop"] == "converged"


def test_unconverged_solve_exits_nonzero(tmp_path, capsys):
    # tol 1e-300 is below what double precision reaches: the solve stagnates
    # (the restart from the best iterate takes these zero-data solves below
    # 1e-16, so a tol near machine precision may converge)
    path = tmp_path / "row.csv"
    rc = main(["run", "--problem", "heat", "--level", "1", "--tol", "1e-300",
               "--output", str(path)])
    assert rc == 1
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert row[6] == "False"
    assert row[CSV_COLUMNS.index("stop")] == "stagnated"
    with open(path) as fh:
        written = next(csv.DictReader(fh))
    assert (written["converged"], written["stop"]) == ("False", "stagnated")

    path = tmp_path / "cells.csv"
    rc = main(["table", "--problem", "heat", "--levels", "1", "--alphas", "1e-3",
               "--tol", "1e-300", "--format", "csv", "--output", str(path)])
    assert rc == 1
    captured = capsys.readouterr()
    out = captured.out.strip().splitlines()
    assert out[-1].split(",") == ["1", "fail", "452"]
    # the failed cell is named on stderr with the stop reason
    assert captured.err.strip().splitlines() == [
        "# cell p=2 level=1 alpha=0.001 failed: MINRES stop stagnated"]
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["converged"] == "False"
    assert rows[0]["stop"] == "stagnated"


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


def test_verify_conditioning_suite_checks_the_closed_form(capsys, monkeypatch):
    # a kappa above cos(pi/7)/cos(3pi/7) by more than DENSE_TOL fails the
    # suite, though its spread over alpha is 1
    kappa = cli.KAPPA_CLOSED_FORM * (1 + 1e-6)
    monkeypatch.setattr(verify, "condition_number_estimate",
                        lambda system, precon: verify.ConditionReport(
                            kappa, kappa, 1.0, 0))
    rc = main(["verify", "--suite", "conditioning"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "spread 1.000 (at most 10)" in out
    assert "wave p=2 level=3 alpha=1e-09: kappa=4.0489213884" in out
    assert "= 4.0489173395, minus 1: 1.00e-06 (at most 1e-08)" in out


def test_table_long_form_output(tmp_path, capsys):
    path = tmp_path / "cells.csv"
    rc = main(["table", "--levels", "1", "--alphas", "1e-3", "1e-6",
               "--output", str(path)])
    assert rc == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert set(rows[0]) == set(CSV_COLUMNS)
    assert [r["stop"] for r in rows] == ["converged", "converged"]
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
    # nothing of it survives the command: P's Grams, the state residual's
    # Gram and the r1 solver, each once per grid
    built = {name: [] for name in ("state_grams", "state_residual_form",
                                   "h10_gram_solver")}
    for name, calls in built.items():
        def count(*args, orig=getattr(precond, name), calls=calls):
            calls.append(args[0])  # the spec; the r1 solver's spaces
            return orig(*args)
        monkeypatch.setattr(precond, name, count)
    argv = ["table", "--levels", "1", "2", "--alphas", "1", "1e-3", "1e-6"]
    assert main(argv) == 0
    assert [(spec.degree, spec.level) for spec in built["state_grams"]] == [
        (2, 1), (2, 2)]
    assert all(len(calls) == 2 for calls in built.values())
    assert cli._setups.get() is None
    assert main(argv) == 0
    assert all(len(calls) == 4 for calls in built.values())
    assert main(["run", "--level", "1"]) == 0
    assert all(len(calls) == 5 for calls in built.values())


def test_band_slots_live_with_their_setup_only():
    # P_Y's band-storage slots belong to the setup of one key: its cells
    # share them across alpha, and once the cells move to another key nothing
    # in the process keeps them
    spec = ProblemSpec("wave", 2, 1, 1.0)
    with cli.shared_setup():
        _, precon = cli.build_solve(spec)
        slots = precon.table["y"].matrix.slots
        _, precon = cli.build_solve(dataclasses.replace(spec, alpha=1e-6))
        assert precon.table["y"].matrix.slots is slots
        held = weakref.ref(slots)
        del precon, slots
        gc.collect()
        assert held() is not None
        cli.build_solve(dataclasses.replace(spec, level=2))
        gc.collect()
        assert held() is None


def test_setup_serves_specs_that_differ_in_alpha_and_seed_only():
    spec = ProblemSpec("wave", 2, 1, 1e-3, seed=1)
    spaces = build_spaces(spec)
    setup = Setup(spec, spaces, assemble_system(spec, spaces).blocks)
    assert setup.serves(dataclasses.replace(spec, alpha=1e-9, seed=4))
    for field, value in (("final_time", 2.0),
                         ("omega", ((0.0, 0.5), (0.25, 0.75))),
                         ("kind", "heat"),
                         ("degree", 3), ("level", 2)):
        assert not setup.serves(dataclasses.replace(spec, **{field: value}))


def test_verify_fast_suites(capsys):
    rc = main(["verify", "--suite", "theorem22", "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "## suite theorem22: [PASS]" in out
    for seed in ("0", "1", "3"):
        rc = main(["verify", "--suite", "appendix", "--seed", seed])
        assert rc == 0
        assert "## suite appendix: [PASS]" in capsys.readouterr().out


def test_verify_restart_suite_fails_on_a_stagnated_cell(capsys, monkeypatch):
    # the suite passes on the verdicts: one cell that ends "stagnated", at
    # any residual, fails it
    solve, reports = cli.minres, []

    def first_stagnates(*args, **kwargs):
        x, report = solve(*args, **kwargs)
        reports.append(report)
        if len(reports) == 1:
            report = dataclasses.replace(report, stop="stagnated")
        return x, report

    monkeypatch.setattr(cli, "minres", first_stagnates)
    rc = main(["verify", "--suite", "restart"])
    out = capsys.readouterr().out
    assert rc == 1 and len(reports) == len(cli.RESTART_CELLS)
    assert "## suite restart: [FAIL]" in out
    assert out.count(": stagnated in ") == 1 and out.count(": converged in ") == 3


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
    # export writes only --export-dir: its parser has no --output to ignore
    with pytest.raises(SystemExit) as exc:
        main(["export", "--level", "1", "--export-dir", str(out),
              "--output", str(tmp_path / "e.csv")])
    assert exc.value.code == 2
    assert not out.exists() and not (tmp_path / "e.csv").exists()
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

    def no_build(*args):
        raise AssertionError("an export directory error reached the build")

    monkeypatch.setattr(cli, "build_solve", no_build)
    capsys.readouterr()
    for argv in (["run", "--level", "1", "--output", missing],
                 ["table", "--levels", "1", "--output", missing],
                 ["verify", "--output", missing],
                 ["export", "--level", "1", "--export-dir", str(a_file)],
                 ["export", "--level", "1", "--export-dir", str(a_file / "sub")],
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


@pytest.mark.parametrize("kind,p", [("heat", 2), ("wave", 2), ("wave", 3)])
def test_system_nnz_counts_a_from_its_factors(kind, p):
    # an upper bound of A's nonzeros, exact but for cancellation
    spec = ProblemSpec(kind, p, 2, 1e-6)
    nnz = assemble_system(spec).matrix.nnz
    assert nnz <= cli.system_nnz(spec) <= 1.001 * nnz


def test_export_gate_counts_the_matrices_it_writes(tmp_path, capsys):
    # at wave p=2 level 3 a solve is estimated at 0.11 GB and export, which
    # also holds A and P as CSR matrices, at 0.18 GB
    spec = ProblemSpec("wave", 2, 3, 1e-6)
    _check_budget(spec, 0.15)
    with pytest.raises(ConfigError, match="exceeds the configured cap"):
        _check_budget(spec, 0.15, export=True)
    assert main(["export", "--level", "3", "--max-memory-gb", "0.15",
                 "--export-dir", str(tmp_path)]) == 2
    assert not any(tmp_path.iterdir())


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
    setup = Setup(spec, spaces, system.blocks)
    precon = build_preconditioner(spec, spaces, system.blocks, setup)
    p_y, factor = precon.table["y"].matrix, precon.table["y"].solver
    # the counts are exact: the band is P_Y's pattern, held on its lower
    # triangle, and the band factor is 8 B per entry of its (bandwidth + 1)
    # x n lower band storage
    assert p_y.slots is setup.grams[-1]
    assert band_size(p_y.shape, p) == precon.block_matrix("y").nnz
    width = bandwidth(p_y.shape, p)
    assert factor.factor.nbytes == 8 * spaces.block_dim("y") * (width + 1)
    # the bytes held: P_Y's three alpha-free Grams (a `table` cell keeps
    # them across alpha) and their band-storage slots, which P_Y shares, and
    # its values at alpha, all on the band's lower triangle, its banded
    # Cholesky factor, the univariate factors of every block and of the
    # rotated K_U, the factor eigenvectors and the eigenvalue diagonal of
    # every Kronecker solver (the control eigenbasis is the control-mass
    # solver's), the Kronecker plans of every operator a solve applies, and
    # the work vectors; the interpreter base is left out
    band_bytes = sum(a.nbytes for a in (*setup.grams, p_y.lower))
    lower = (band_size(p_y.shape, p) + spaces.block_dim("y")) // 2
    assert band_bytes == (4 * 8 + 4) * lower
    cholesky_bytes = factor.factor.nbytes
    others = [n for n in spaces.block_names if n != "y"]
    solvers = {id(s): s for s in (precon.table[n].solver for n in others)}
    assert precon.basis.solver is precon.table["u"].solver
    eigen_bytes = sum(sum(w.nbytes for w in s.vectors) + s.values.diagonal.nbytes
                      for s in solvers.values())
    sums = list(system.blocks.values())
    sums += [precon.table[n].matrix for n in others]
    sums += [precon.basis.k_u]
    # the solve applies the rotated system's block rows (their transposes
    # included: the coordinates' K_m' and the start's K_U' are among them)
    # and the coordinates' residual Gram; each holds its plan's joined
    # factors
    rotated = precon.basis.system(system)
    coords = ControlCoordinates(rotated, precon.basis.preconditioner(precon))
    applied = [op for row in rotated._plan for op, _ in row] + [coords.gram]
    distinct = {id(op): op for op in applied if isinstance(op, KroneckerMatrix)}
    shared = [precon.basis.k_u.T] + [k for *_, k_m, k_m_t in coords.tail
                                     for k in (k_m, k_m_t)]
    assert all(id(op) in distinct for op in shared)
    plans = [KroneckerPlan(op.terms) for op in distinct.values()]
    plan_bytes = sum(pl.first.nbytes + pl.middle.nbytes + pl.last.nbytes
                     for pl in plans)
    total = (band_bytes + cholesky_bytes + _factor_bytes(sums) + eigen_bytes
             + plan_bytes + 8 * WORK_VECTORS * system.dim)
    with cli.shared_setup():  # the estimate of a setup that keeps its Grams
        assert (estimate_memory_gb(spec) - BASE_GB) * 1e9 >= total
    # a P built on a setup of its own, as `run` and `export` build it, has
    # freed the Grams and holds the rest: the estimate they gate on covers it
    own = build_preconditioner(spec, spaces, system.blocks)
    own_y = own.table["y"]
    assert own.basis.grams is None
    gram_bytes = sum(g.nbytes for g in setup.grams[:3])
    assert (own_y.matrix.slots.nbytes + own_y.matrix.lower.nbytes
            + own_y.solver.factor.nbytes) == band_bytes + cholesky_bytes - gram_bytes
    assert (estimate_memory_gb(spec) - BASE_GB) * 1e9 >= total - gram_bytes


def test_solve_calls_the_full_operators_only_to_start_and_confirm(monkeypatch):
    # the recurrence runs in the control coordinates: the full-size A serves
    # the symmetry probe (three applies), the start residual and
    # each confirmation, and the full-size P^-1 the start alone
    calls, reports = {"A": 0, "P": 0}, []
    minres = cli.minres

    def counted(apply_a, apply_pinv, b, x0=None, config=None):
        def a_op(v):
            calls["A"] += 1
            return apply_a(v)

        def pinv_op(r):
            calls["P"] += 1
            return apply_pinv(r)

        x, report = minres(a_op, pinv_op, b, x0=x0, config=config)
        reports.append(report)
        return x, report

    monkeypatch.setattr(cli, "minres", counted)
    assert solve_once(ProblemSpec("wave", 2, 2, 1e-6), 1e-8)["iterations"] == 56
    (report,) = reports
    assert calls == {"A": 3 + 1 + len(report.true_residual_checks), "P": 1}


@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_one_solve_shares_each_transpose_and_its_plan(kind, monkeypatch):
    # the start's K_U' is the state row's, and the coordinates' K_m' are the
    # state row's: a solve applies the observation, K_U, K_U', the residual
    # Gram and each multiplier's K_m and K_m', one object each, and builds
    # one Kronecker plan for each
    applied, plans = {}, []
    apply, plan_init = KroneckerMatrix.apply, KroneckerPlan.__init__

    def record_apply(self, x):
        applied[id(self)] = self
        return apply(self, x)

    def record_plan(self, terms):
        plans.append(terms)
        plan_init(self, terms)

    monkeypatch.setattr(KroneckerMatrix, "apply", record_apply)
    monkeypatch.setattr(KroneckerPlan, "__init__", record_plan)
    spec = ProblemSpec(kind, 2, 1, 1e-6)
    assert solve_once(spec, 1e-8)["converged"]
    multipliers = len(build_spaces(spec).block_names) - 3
    assert len(applied) == len(plans) == 4 + 2 * multipliers


def test_solve_materializes_only_the_factorized_blocks(monkeypatch):
    # the blocks a solve only applies or inverts in factor eigenbases stay
    # Kronecker sums, and P_Y, its one factorized block, is built from its
    # factors' band entries: a solve materializes no Kronecker sum and forms
    # no sparse Kronecker product, and diagonalizes each control-mass factor
    # once
    shapes, krons, eighs = [], [], []
    materialize, sparse_kron, eigh = KroneckerMatrix.materialize, sp.kron, kron.eigh

    def record(self):
        mat = materialize(self)
        shapes.append(mat.shape)
        return mat

    def record_kron(a, b, format=None):
        krons.append((a.shape, b.shape))
        return sparse_kron(a, b, format=format)

    def record_eigh(a, b=None):
        eighs.append((a.shape, b is None))
        return eigh(a, b)

    monkeypatch.setattr(KroneckerMatrix, "materialize", record)
    monkeypatch.setattr(sp, "kron", record_kron)
    monkeypatch.setattr(kron, "eigh", record_eigh)
    spec = ProblemSpec("wave", 2, 2, 1e-6)
    spaces = build_spaces(spec)
    assert solve_once(spec, 1e-8)["converged"]
    assert shapes == [] and krons == []
    control = [(spaces.factor(n, n).shape, True) for n in BLOCK_FACTORS["u"]]
    assert sorted(e for e in eighs if e in control) == sorted(control)


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
    back = sio.mmread(out / "system.mtx").tocsr()
    assert abs(system.matrix - back).max() == 0.0  # bit-exact round trip
    assert abs(back - back.T).max() == 0.0
    for name in spaces.block_names:
        blk = sio.mmread(out / f"precond_{name}.mtx").tocsr()
        assert abs(precon.block_matrix(name) - blk).max() == 0.0
