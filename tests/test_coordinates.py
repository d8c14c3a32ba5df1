"""MINRES in the control coordinates against the full rotated operators."""

import numpy as np
import pytest

from saddleprec import cli
from saddleprec.assembly import ProblemSpec
from saddleprec.krylov import MinresConfig, minres, random_start
from saddleprec.precond import ControlCoordinates


def _rotated(spec):
    """The rotated system and preconditioner `cli.solve_once` hands MINRES,
    and its rotated start vector."""
    system, precon = cli.build_solve(spec)
    basis = precon.basis
    system, precon = basis.system(system), basis.preconditioner(precon)
    return system, precon, basis.rotate(random_start(system.dim, spec.seed))


def _bound(spec, seed):
    """Coordinates bound to a random right-hand side and the start, with
    random residual coordinates and an iterate's, P^-1 of random ones (the
    G rows of a residual are read by nothing)."""
    system, precon, x0 = _rotated(spec)
    rng = np.random.default_rng(seed)
    coords = ControlCoordinates(system, precon)
    size = coords.start(rng.standard_normal(system.dim), x0, None, None)[1].size
    r, z = rng.standard_normal((2, size))
    return system, precon, coords, r, coords.apply_pinv(z)


@pytest.mark.parametrize("alpha", [1.0, 1e-6])
@pytest.mark.parametrize("lev", [1, 2])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_coordinate_operators_commute_with_the_full_ones(kind, p, lev, alpha):
    system, precon, coords, r, z = _bound(ProblemSpec(kind, p, lev, alpha), 7)

    def rel(got, want):
        return np.linalg.norm(got - want) / np.linalg.norm(want)

    full_z, full_r = coords.expand(z), coords.expand_residual(r)
    assert rel(coords.expand_residual(coords.apply_a(z)),
               system.apply(full_z)) <= 1e-12
    assert rel(coords.expand(coords.apply_pinv(r)),
               precon.apply_inverse(full_r)) <= 1e-12
    scale = np.linalg.norm(full_z) * np.linalg.norm(full_r)
    assert abs(coords.pair(z, r) - full_z @ full_r) <= 1e-12 * scale


def _solve_both(spec, tol=1e-8):
    """Euclidean and coordinate MINRES on the same rotated system: each
    report, with the residual recomputed from the full-size answer."""
    system, precon, x0 = _rotated(spec)
    r0 = np.linalg.norm(system.rhs - system.apply(x0))
    out = []
    for coords in (None, ControlCoordinates(system, precon)):
        x, rep = minres(system.apply, precon.apply_inverse, system.rhs, x0=x0,
                        config=MinresConfig(rel_tol=tol, coordinates=coords))
        out.append((rep, np.linalg.norm(system.rhs - system.apply(x)) / r0))
    return out


@pytest.mark.parametrize("lev", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_coordinate_minres_follows_the_euclidean_one(kind, p, lev):
    tol = 1e-8
    with cli.shared_setup():
        for alpha in (1e-3, 1e-6):
            (ref, _), (rep, relres) = _solve_both(ProblemSpec(kind, p, lev, alpha))
            assert rep.iterations == ref.iterations and rep.converged
            assert relres <= tol
            gap = np.abs(rep.residual_history - ref.residual_history)
            assert np.all(gap <= 1e-10 * ref.residual_history)
        # far from these, roundoff moves the counts: both converge
        for alpha in (1.0, 1e-9):
            for rep, relres in _solve_both(ProblemSpec(kind, p, lev, alpha)):
                assert rep.converged and relres <= tol


def test_coordinates_do_not_drift_on_a_long_solve():
    # 194 iterations at wave p=2 l=3 alpha=1: coordinates that carried G a
    # linearly through the residual updates, instead of computing it on each
    # P^-1 output, drifted there and took 257
    (ref, _), (rep, relres) = _solve_both(ProblemSpec("wave", 2, 3, 1.0))
    assert rep.converged and relres <= 1e-8
    assert abs(rep.iterations - ref.iterations) <= 0.03 * ref.iterations


def test_coordinates_of_another_alpha_are_refused():
    system, precon, x0 = _rotated(ProblemSpec("wave", 2, 1, 1e-6))
    other, other_precon, _ = _rotated(ProblemSpec("wave", 2, 1, 1e-3))
    config = MinresConfig(coordinates=ControlCoordinates(other, other_precon))
    with pytest.raises(ValueError, match="coordinates' start"):
        minres(system.apply, precon.apply_inverse, system.rhs, x0=x0, config=config)


def _solve_reports(specs, monkeypatch):
    """The row of `cli.solve_once` and its MinresReport, per spec."""
    reports, solve = [], cli.minres

    def kept(*args, **kwargs):
        x, report = solve(*args, **kwargs)
        reports.append(report)
        return x, report

    monkeypatch.setattr(cli, "minres", kept)
    rows = [cli.solve_once(spec, 1e-8) for spec in specs]
    return list(zip(rows, reports))


def test_the_restart_converges_the_cells_that_stagnated(monkeypatch):
    for row, report in _solve_reports(cli.RESTART_CELLS, monkeypatch):
        assert row["converged"] and row["final_relres"] <= 1e-8
        assert report.restarted


def test_the_pinned_cells_converge_without_a_restart(monkeypatch):
    specs = [ProblemSpec("wave", 2, lev, alpha)
             for lev in (2, 3) for alpha in (1e-3, 1e-6, 1e-9)]
    with cli.shared_setup():
        solved = _solve_reports(specs, monkeypatch)
    assert [row["iterations"] for row, _ in solved] == [41, 56, 21, 43, 55, 35]
    for _, report in solved:
        assert report.converged and not report.restarted


def test_the_table_grid_never_restarts():
    # the premise of the restart's full-vector path: no cell of the `table`
    # grid at levels 1-2 reaches it (nor does one at level 3)
    for kind in ("heat", "wave"):
        with cli.shared_setup():
            rows = [cli.solve_once(ProblemSpec(kind, p, lev, alpha), 1e-8)
                    for p in (2, 3) for lev in (1, 2)
                    for alpha in (1.0, 1e-3, 1e-6, 1e-9)]
        assert all(row["converged"] and not row["restarted"] for row in rows)


def test_a_restarted_solve_returns_the_iterate_it_reports():
    # tol 1e-300 stagnates after the restart, which starts over in full
    # vectors from the best iterate: the returned x is still the best
    # confirmed iterate
    system, precon, x0 = _rotated(ProblemSpec("heat", 2, 1, 1e-6))
    config = MinresConfig(rel_tol=1e-300,
                          coordinates=ControlCoordinates(system, precon))
    x, rep = minres(system.apply, precon.apply_inverse, system.rhs, x0=x0,
                    config=config)
    assert rep.stop == "stagnated" and rep.restarted
    relres = (np.linalg.norm(system.rhs - system.apply(x))
              / np.linalg.norm(system.rhs - system.apply(x0)))
    assert relres == pytest.approx(rep.final_true_relres, rel=1e-12, abs=0.0)
