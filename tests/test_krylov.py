"""MINRES: termination, invariances, stopping-rule contracts."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from saddleprec import cli, krylov
from saddleprec.assembly import ProblemSpec, assemble_system
from saddleprec.krylov import STAGNATION_CHECKS, MinresConfig, minres, random_start
from saddleprec.precond import ControlCoordinates, build_preconditioner


def _apply(mat):
    return lambda v: mat @ v


def _ident(r):
    return r


def _assert_verdict(rep, stop, tol):
    """Every exit: one stop reason, converged exactly when the reported
    residual meets tol, and that residual is the best of the start's, 1, and
    the confirmed ones: the last when converged."""
    assert rep.stop == stop
    assert rep.converged == (rep.final_true_relres <= tol)
    rels = [rel for _, rel in rep.true_residual_checks]
    assert rep.final_true_relres == (rels[-1] if stop == "converged"
                                     else min([1.0] + rels))


def _rotated_solve(spec, tol=MinresConfig().rel_tol):
    """The solve of `cli.solve_once`, in the control eigenbasis and its
    coordinates: the rotated system, the start, the returned iterate and the
    report."""
    system, precon = cli.build_solve(spec)
    basis = precon.basis
    system, precon = basis.system(system), basis.preconditioner(precon)
    x0 = basis.rotate(random_start(system.dim, spec.seed))
    config = MinresConfig(rel_tol=tol,
                          coordinates=ControlCoordinates(system, precon))
    x, rep = minres(system.apply, precon.apply_inverse, system.rhs, x0=x0,
                    config=config)
    return system, x0, x, rep


def _relres(system, x, x0):
    return (np.linalg.norm(system.rhs - system.apply(x))
            / np.linalg.norm(system.rhs - system.apply(x0)))


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


def _start_segments(rep):
    """The monitored norms of each start: the second start's begin after
    iteration `restart_at`, relative to its own start."""
    h = rep.residual_history
    if rep.restart_at is None:
        return [h]
    return [h[:rep.restart_at + 1], h[rep.restart_at + 1:]]


def test_residual_history_monotone(monkeypatch):
    rng = np.random.default_rng(32)
    g = rng.standard_normal((60, 60))
    a = g + g.T  # symmetric indefinite
    b = rng.standard_normal(60)
    _, rep = minres(_apply(a), _ident, b, config=MinresConfig(rel_tol=1e-10))
    assert rep.restart_at is None
    reports = [rep]
    # and each start of the cells that restart, on its own: the norms rise
    # where the second start begins
    solve = cli.minres

    def kept(*args, **kwargs):
        x, report = solve(*args, **kwargs)
        reports.append(report)
        return x, report

    monkeypatch.setattr(cli, "minres", kept)
    for spec in cli.RESTART_CELLS:
        cli.solve_once(spec, 1e-8)
    assert all(0 < r.restart_at < r.iterations for r in reports[1:])
    assert len(reports) == 1 + len(cli.RESTART_CELLS)
    for rep in reports:
        h = rep.residual_history
        assert len(h) == rep.iterations + 1
        for segment in _start_segments(rep):
            backslide = np.diff(segment) / segment[:-1]
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_no_finite_confirmation_stops_with_the_start():
    # at alpha = 1e300 the start residual's norm overflows and the first
    # confirmation is NaN, which no iterate can improve on: the solve stops
    # "breakdown" and returns its start, whose residual is r0, at relres 1
    spec = ProblemSpec("wave", 2, 1, 1e300)
    _, x0, x, rep = _rotated_solve(spec)
    assert rep.stop == "breakdown" and not rep.converged
    assert rep.true_residual_checks and not any(
        np.isfinite(rel) for _, rel in rep.true_residual_checks)
    assert rep.final_true_relres == 1.0
    assert np.array_equal(x, x0)


@pytest.mark.parametrize("level, alpha", [(1, 1e-30), (2, 1e25)])
def test_a_solve_never_returns_an_iterate_worse_than_its_start(level, alpha):
    # at these alphas the recurrence breaks down within 3 iterations and
    # every confirmation is worse than the start (relres 2.7e27 and 5.5e3):
    # the start is the first best, so the solve returns it, at relres 1
    spec = ProblemSpec("wave", 2, level, alpha)
    system, x0, x, rep = _rotated_solve(spec)
    assert rep.stop == "breakdown" and rep.iterations <= 3
    rels = [rel for _, rel in rep.true_residual_checks]
    assert rels and min(rels) > 1.0
    _assert_verdict(rep, "breakdown", MinresConfig().rel_tol)
    assert rep.final_true_relres == 1.0
    assert np.array_equal(x, x0) and _relres(system, x, x0) == 1.0


STOPS = ("converged", "stagnated", "breakdown", "iteration cap")


@st.composite
def legal_specs(draw):
    """Any documented input: both problems, p 2-5, levels 0-2, alpha in
    [1e-12, 1e6], T in [0.1, 10], an omega box whose edges lie on the mesh
    lines or off them, and a seed."""
    level = draw(st.integers(0, 2))
    cells = 2 ** level

    def edges():
        edge = st.one_of(st.integers(0, cells).map(lambda k: k / cells),
                         st.floats(0.0, 1.0))
        lo, hi = sorted((draw(edge), draw(edge)))
        assume(lo < hi)
        return lo, hi

    return ProblemSpec(draw(st.sampled_from(("heat", "wave"))),
                       draw(st.integers(2, 5)), level,
                       10.0 ** draw(st.floats(-12.0, 6.0)),
                       final_time=draw(st.floats(0.1, 10.0)),
                       omega=(edges(), edges()), seed=draw(st.integers(0, 2 ** 16)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(legal_specs())
def test_every_legal_solve_ends_in_a_verdict_its_iterate_bears_out(spec):
    # the solve of solve_once ends in a named stop, converged only at or
    # below tol, never worse than its start, and the reported residual is
    # the one of the iterate it returns
    tol = MinresConfig().rel_tol
    system, x0, x, rep = _rotated_solve(spec, tol)
    assert rep.stop in STOPS
    assert not rep.converged or rep.final_true_relres <= tol
    assert rep.final_true_relres <= 1.0
    assert _relres(system, x, x0) == pytest.approx(rep.final_true_relres,
                                                   rel=1e-12, abs=0.0)


def test_stagnation_stops_with_best_confirmed_iterate():
    # tol 1e-30 is below the attainable accuracy. The confirmed residual
    # settles near 3e-13 and stops improving; the solve restarts from the
    # best iterate, settles again near 1.5e-27 and stops there, instead of
    # running to the iteration cap (about 40 iterations to the first floor,
    # STAGNATION_CHECKS to the restart, about 40 to the second floor and
    # STAGNATION_CHECKS more: 118)
    spec = ProblemSpec("heat", 2, 1, 1e-6)
    system = assemble_system(spec)
    precon = build_preconditioner(spec, system.spaces, system.blocks)
    x0 = random_start(system.dim, 0)
    x, rep = minres(system.apply, precon.apply_inverse, system.rhs, x0=x0,
                    config=MinresConfig(rel_tol=1e-30))
    assert rep.stop == "stagnated" and not rep.converged
    _assert_verdict(rep, "stagnated", 1e-30)
    assert rep.iterations <= 150
    rels = [rel for _, rel in rep.true_residual_checks]
    best = min(rels)
    assert rep.final_true_relres == best
    # the restart came after STAGNATION_CHECKS checks failed to improve on
    # the first floor, and the restarted recurrence went far below it
    floor, failed = np.inf, 0
    for restart, rel in enumerate(rels):
        floor, failed = (rel, 0) if rel < floor else (floor, failed + 1)
        if failed == STAGNATION_CHECKS:
            break
    assert restart < rels.index(best) and best <= 1e-6 * floor
    # it stops on the STAGNATION_CHECKS-th check after the best one
    assert len(rels) - 1 - rels.index(best) == STAGNATION_CHECKS
    true_rel = (np.linalg.norm(system.rhs - system.matrix @ x)
                / np.linalg.norm(system.rhs - system.matrix @ x0))
    assert true_rel == pytest.approx(best, rel=1e-6, abs=0.0)


def test_a_failed_stop_returns_the_best_confirmed_iterate():
    # the solve above restarts on the STAGNATION_CHECKS-th check that fails
    # to improve on the first floor (an iteration that roundoff moves, so it
    # is read from the uncapped solve); capped one iteration later, its last
    # check (the restarted recurrence's first) is worse than the best before
    # the restart, and the best is returned
    spec = ProblemSpec("heat", 2, 1, 1e-6)
    system = assemble_system(spec)
    precon = build_preconditioner(spec, system.spaces, system.blocks)
    x0 = random_start(system.dim, 0)
    _, full = minres(system.apply, precon.apply_inverse, system.rhs, x0=x0,
                     config=MinresConfig(rel_tol=1e-30))
    floor, failed = np.inf, 0
    for restart, rel in full.true_residual_checks:
        floor, failed = (rel, 0) if rel < floor else (floor, failed + 1)
        if failed == STAGNATION_CHECKS:
            break
    assert failed == STAGNATION_CHECKS and full.restart_at == restart
    cfg = MinresConfig(rel_tol=1e-30, max_iter=restart + 1)
    x, rep = minres(system.apply, precon.apply_inverse, system.rhs, x0=x0,
                    config=cfg)
    _assert_verdict(rep, "iteration cap", cfg.rel_tol)
    assert rep.true_residual_checks[-1][1] > rep.final_true_relres
    true_rel = (np.linalg.norm(system.rhs - system.apply(x))
                / np.linalg.norm(system.rhs - system.apply(x0)))
    assert true_rel == pytest.approx(rep.final_true_relres, rel=1e-12, abs=0.0)


def test_nonsymmetric_operator_rejected():
    rng = np.random.default_rng(38)
    a = rng.standard_normal((20, 20))  # generically nonsymmetric
    b = rng.standard_normal(20)
    with pytest.raises(ValueError):
        minres(_apply(a), _ident, b)


def test_symmetry_probe_applies_once_per_vector_and_sees_a_rank_two_skew():
    # three applies serve all three pairs; a skew part e (e_i e_j' - e_j e_i')
    # of relative size 1e-6, far above SYMMETRY_PROBE_RTOL, still raises
    n = 200
    g = np.random.default_rng(40).standard_normal((n, n))
    sym = (g + g.T) / np.linalg.norm(g + g.T, 2)
    calls = []

    def counted(mat):
        def apply_a(v):
            calls.append(1)
            return mat @ v
        return apply_a

    krylov._probe_symmetry(counted(sym), n)
    assert len(calls) == 3
    skew = np.zeros((n, n))
    skew[3, 17], skew[17, 3] = 1e-6, -1e-6
    with pytest.raises(ValueError, match="symmetry probe"):
        krylov._probe_symmetry(counted(sym + skew), n)


def test_indefinite_preconditioner_rejected():
    rng = np.random.default_rng(39)
    g = rng.standard_normal((20, 20))
    a = g + g.T
    b = rng.standard_normal(20)
    with pytest.raises(ValueError):
        minres(_apply(a), lambda r: -r, b)
    # a preconditioner that maps the nonzero residual to zero is no SPD one
    with pytest.raises(ValueError):
        minres(_apply(np.diag([1.0, -2.0, 3.0])), np.zeros_like, np.ones(3))


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



def _allocating_minres(apply_a, apply_pinv, b, x0=None, config=None):
    """The recurrence as it was written before its buffers were preallocated:
    a new array for every vector update. The reference for bitwise equality."""
    if config is None:
        config = MinresConfig()
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    krylov._probe_symmetry(apply_a, n)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)

    r1 = b - apply_a(x)
    eu0 = float(np.linalg.norm(r1))
    y = apply_pinv(r1)
    beta1_sq = float(r1 @ y)
    if beta1_sq < 0:
        raise ValueError("preconditioner failed the positive-definiteness check")
    beta1 = np.sqrt(beta1_sq)
    history = [beta1]
    checks: list = []
    if beta1 == 0.0 or eu0 == 0.0:
        return x, krylov.MinresReport(0, "converged", np.array(history), checks, 0.0)

    best_rel, best_x, since_best, restart_at = np.inf, None, 0, None

    def confirm(xc):
        """Record a true-residual check; track the best confirmed iterate."""
        nonlocal best_rel, best_x, since_best
        rel = float(np.linalg.norm(b - apply_a(xc)) / eu0)
        checks.append((itn, rel))
        if rel < best_rel:
            best_rel, best_x, since_best = rel, xc.copy(), 0
        else:
            since_best += 1
        return rel

    oldb, beta = 0.0, beta1
    dbar = epsln = 0.0
    phibar = beta1
    target = config.rel_tol * beta1
    cs, sn = -1.0, 0.0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1
    itn = 0
    stop = None

    while stop is None:
        itn += 1
        v = y / beta
        y = apply_a(v)
        if oldb > 0.0:
            y = y - (beta / oldb) * r1
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = apply_pinv(r2)
        oldb = beta
        beta_sq = float(r2 @ y)
        if beta_sq < 0:
            raise ValueError("preconditioner failed the positive-definiteness check")
        beta = np.sqrt(beta_sq)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), np.finfo(float).tiny)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w
        history.append(phibar)

        breakdown = beta <= krylov.BREAKDOWN_RTOL * beta1
        if not (phibar <= target or breakdown
                or itn % krylov.TRUE_RESIDUAL_CHECK_EVERY == 0 or itn == config.max_iter):
            continue
        if confirm(x) <= config.rel_tol:
            stop = "converged"
        elif since_best >= STAGNATION_CHECKS and restart_at is not None:
            stop = "stagnated"
        elif breakdown:
            stop = "breakdown"
        elif itn == config.max_iter:
            stop = "iteration cap"
        elif since_best >= STAGNATION_CHECKS:
            # the one restart: a fresh start from the best iterate
            restart_at, since_best = itn, 0
            x = best_x.copy()
            r2 = b - apply_a(x)
            y = apply_pinv(r2)
            beta = np.sqrt(float(y @ r2))
            w = np.zeros(n)
            w2 = np.zeros(n)
            oldb, phibar = 0.0, beta
            target = beta * config.rel_tol
            dbar = epsln = 0.0
            cs, sn = -1.0, 0.0

    if stop != "converged":
        x = best_x
    final_rel = checks[-1][1] if stop == "converged" else best_rel
    return x, krylov.MinresReport(itn, stop, np.array(history), checks, final_rel,
                                  restart_at)


class _OneBuffer:
    """An operator that hands back one read-only array on every call: minres
    must neither write into it nor keep it past the next call."""

    def __init__(self, op, n):
        self.op, self.out = op, np.empty(n)

    def __call__(self, v):
        self.out.setflags(write=True)
        self.out[:] = self.op(v)
        self.out.setflags(write=False)
        return self.out


def _dense_instance():
    rng = np.random.default_rng(40)
    g = rng.standard_normal((60, 60))
    d = np.abs(rng.standard_normal(60)) + 0.5
    return (_apply(g + g.T), lambda r: r / d, rng.standard_normal(60),
            rng.standard_normal(60), MinresConfig(rel_tol=1e-10))


def _wave_instance(tol):
    spec = ProblemSpec("wave", 2, 1, 1e-6)
    system = assemble_system(spec)
    precon = build_preconditioner(spec, system.spaces, system.blocks)
    return (system.apply, precon.apply_inverse, system.rhs,
            random_start(system.dim, 0), MinresConfig(rel_tol=tol))


INSTANCES = {"dense": _dense_instance,
             "wave": lambda: _wave_instance(1e-8),
             "wave-stagnated": lambda: _wave_instance(1e-18)}


@pytest.mark.parametrize("name", INSTANCES)
def test_preallocated_recurrence_is_bitwise_the_allocating_one(name):
    apply_a, apply_pinv, b, x0, cfg = INSTANCES[name]()
    x, rep = minres(apply_a, apply_pinv, b, x0=x0, config=cfg)
    x_ref, ref = _allocating_minres(apply_a, apply_pinv, b, x0=x0, config=cfg)
    assert (rep.iterations, rep.stop) == (ref.iterations, ref.stop)
    assert rep.restart_at == ref.restart_at
    assert np.array_equal(rep.residual_history, ref.residual_history)
    assert rep.true_residual_checks == ref.true_residual_checks
    assert np.array_equal(x, x_ref)


@pytest.mark.parametrize("name", INSTANCES)
def test_operators_may_return_one_read_only_buffer(name):
    # a write into a returned array raises; a returned array kept past the
    # next call would change the iterates
    apply_a, apply_pinv, b, x0, cfg = INSTANCES[name]()
    x_ref, ref = minres(apply_a, apply_pinv, b, x0=x0, config=cfg)
    x, rep = minres(_OneBuffer(apply_a, len(b)), _OneBuffer(apply_pinv, len(b)),
                    b, x0=x0, config=cfg)
    assert (rep.iterations, rep.stop) == (ref.iterations, ref.stop)
    assert np.array_equal(rep.residual_history, ref.residual_history)
    assert np.array_equal(x, x_ref)
