"""MINRES: termination, invariances, stopping-rule contracts."""

import numpy as np
import pytest

from saddleprec.assembly import ProblemSpec, assemble_system
from saddleprec.krylov import STAGNATION_CHECKS, MinresConfig, minres, random_start
from saddleprec.precond import build_preconditioner


def _apply(mat):
    return lambda v: mat @ v


def _ident(r):
    return r


def _assert_verdict(rep, stop, tol):
    """Every exit: one stop reason, converged exactly when the reported
    residual meets tol, and that residual is a confirmed one."""
    assert rep.stop == stop
    assert rep.converged == (rep.final_true_relres <= tol)
    rels = [rel for _, rel in rep.true_residual_checks]
    assert rep.final_true_relres == (min(rels) if stop == "stagnated" else rels[-1])


def test_identity_converges_in_one_iteration():
    n = 30
    b = np.arange(1.0, n + 1.0)
    x, rep = minres(_apply(np.eye(n)), _ident, b)
    assert rep.iterations == 1 and rep.converged
    assert np.allclose(x, b, atol=1e-12)
    _assert_verdict(rep, "converged", MinresConfig().rel_tol)


def test_perfect_preconditioning_one_iteration():
    rng = np.random.default_rng(31)
    d = np.arange(1.0, 21.0)
    a = np.diag(d)
    b = rng.standard_normal(20)
    x, rep = minres(_apply(a), lambda r: r / d, b)
    assert rep.iterations == 1 and rep.converged
    assert np.allclose(x, b / d, rtol=1e-10)


def test_zero_rhs_zero_start_is_instant():
    x, rep = minres(_apply(np.eye(5)), _ident, np.zeros(5))
    assert rep.iterations == 0 and rep.converged
    assert rep.final_true_relres == 0.0


def test_residual_history_monotone():
    rng = np.random.default_rng(32)
    g = rng.standard_normal((60, 60))
    a = g + g.T  # symmetric indefinite
    b = rng.standard_normal(60)
    _, rep = minres(_apply(a), _ident, b, config=MinresConfig(rel_tol=1e-10))
    h = rep.residual_history
    assert len(h) == rep.iterations + 1
    backslide = np.diff(h) / h[:-1]
    assert backslide.max() <= 1e-12


@pytest.mark.parametrize("m", [2, 3, 5])
def test_finite_termination_with_m_distinct_eigenvalues(m):
    rng = np.random.default_rng(33 + m)
    n = 30
    vals = np.linspace(-2.0, 3.0, m)
    diag = np.repeat(vals, n // m + 1)[:n]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ np.diag(diag) @ q.T
    a = 0.5 * (a + a.T)
    b = rng.standard_normal(n)
    _, rep = minres(_apply(a), _ident, b, config=MinresConfig(rel_tol=1e-10))
    assert rep.converged
    assert rep.iterations <= m + 2


def test_preconditioner_scaling_invariance():
    # instance with a decisive residual drop at termination, so the exact-
    # arithmetic invariance is not masked by an ulp flip at the threshold
    rng = np.random.default_rng(34)
    n = 40
    vals = np.array([-2.0, -0.5, 1.0, 2.5, 4.0])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ np.diag(np.repeat(vals, n // 5)) @ q.T
    a = 0.5 * (a + a.T)
    d = np.abs(rng.standard_normal(n)) + 0.5
    b = rng.standard_normal(n)
    counts = {}
    sols = {}
    for c in (1.0, 4.0, 10.0):
        x, rep = minres(_apply(a), lambda r: r / (c * d), b)
        assert rep.converged
        counts[c] = rep.iterations
        sols[c] = x
    assert counts[1.0] == counts[10.0]
    # scaling by a power of two is exact in floating point: bitwise equality
    assert counts[1.0] == counts[4.0]
    assert np.array_equal(sols[1.0], sols[4.0])


def test_solution_quality_on_convergence():
    rng = np.random.default_rng(35)
    g = rng.standard_normal((50, 50))
    a = g + g.T + 0.1 * np.eye(50)
    b = rng.standard_normal(50)
    x0 = rng.standard_normal(50)
    cfg = MinresConfig(rel_tol=1e-8)
    x, rep = minres(_apply(a), _ident, b, x0=x0, config=cfg)
    assert rep.stop == "converged"
    num = np.linalg.norm(b - a @ x)
    den = np.linalg.norm(b - a @ x0)
    assert num / den <= 10 * cfg.rel_tol


def test_homogeneous_rhs_random_start_drives_to_zero():
    rng = np.random.default_rng(36)
    g = rng.standard_normal((40, 40))
    a = g + g.T
    x0 = random_start(40, seed=9)
    x, rep = minres(_apply(a), _ident, np.zeros(40), x0=x0)
    assert rep.converged
    assert np.linalg.norm(a @ x) <= 1e-7 * np.linalg.norm(a @ x0)


def test_max_iter_reported_not_raised():
    rng = np.random.default_rng(37)
    g = rng.standard_normal((100, 100))
    a = g + g.T
    b = rng.standard_normal(100)
    cfg = MinresConfig(max_iter=3)
    _, rep = minres(_apply(a), _ident, b, config=cfg)
    assert not rep.converged
    assert rep.iterations == 3
    _assert_verdict(rep, "iteration cap", cfg.rel_tol)


def test_breakdown_held_to_tol():
    # two distinct eigenvalues 2.5e-6 and 15.5: the Krylov space is exhausted
    # after two iterations with a true residual of 6e-10, above tol 1e-10
    rng = np.random.default_rng(21)
    n = 12
    m = int(rng.integers(2, 5))
    vals = rng.uniform(-1.0, 1.0, m) * 10 ** rng.uniform(-6.0, 6.0, m)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ np.diag(np.repeat(vals, n // m + 1)[:n]) @ q.T
    a = 0.5 * (a + a.T)
    b = rng.standard_normal(n)
    cfg = MinresConfig(rel_tol=1e-10)
    _, rep = minres(_apply(a), _ident, b, config=cfg)
    assert rep.iterations == 2
    assert not rep.converged and rep.final_true_relres > cfg.rel_tol
    _assert_verdict(rep, "breakdown", cfg.rel_tol)


def test_stagnation_stops_with_best_confirmed_iterate():
    # tol 1e-16 is below the attainable accuracy: the confirmed residual
    # settles near 5e-13 and stops improving, and the solve must stop there
    # instead of running to the iteration cap
    spec = ProblemSpec("wave", 2, 1, 1e-6)
    system = assemble_system(spec)
    precon = build_preconditioner(spec, system.spaces, system.blocks)
    x0 = random_start(system.dim, 0)
    x, rep = minres(system.apply, precon.apply_inverse, system.rhs, x0=x0,
                    config=MinresConfig(rel_tol=1e-16))
    assert rep.stop == "stagnated" and not rep.converged
    _assert_verdict(rep, "stagnated", 1e-16)
    assert rep.iterations <= 60
    assert rep.final_true_relres <= 1e-11
    rels = [rel for _, rel in rep.true_residual_checks]
    best = min(rels)
    assert rep.final_true_relres == best
    # it stops on the STAGNATION_CHECKS-th check after the best one
    assert len(rels) - 1 - rels.index(best) == STAGNATION_CHECKS
    true_rel = (np.linalg.norm(system.rhs - system.matrix @ x)
                / np.linalg.norm(system.rhs - system.matrix @ x0))
    assert true_rel == pytest.approx(best, rel=1e-6)


def test_nonsymmetric_operator_rejected():
    rng = np.random.default_rng(38)
    a = rng.standard_normal((20, 20))  # generically nonsymmetric
    b = rng.standard_normal(20)
    with pytest.raises(ValueError):
        minres(_apply(a), _ident, b)


def test_indefinite_preconditioner_rejected():
    rng = np.random.default_rng(39)
    g = rng.standard_normal((20, 20))
    a = g + g.T
    b = rng.standard_normal(20)
    with pytest.raises(ValueError):
        minres(_apply(a), lambda r: -r, b)


def test_config_validation():
    with pytest.raises(ValueError):
        MinresConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        MinresConfig(rel_tol=1.5)
    with pytest.raises(ValueError):
        MinresConfig(max_iter=0)


def test_random_start_reproducibility_and_spread():
    a = random_start(500, seed=7)
    b = random_start(500, seed=7)
    assert np.array_equal(a, b)
    c = random_start(500, seed=8)
    assert np.mean(a != c) >= 0.99
    assert np.abs(a).max() <= 1.0
    # variance of uniform(-1, 1) is 1/3
    v = random_start(4000, seed=11)
    assert 0.2 <= (v @ v) / len(v) <= 0.47

