"""Preconditioner blocks: quadratic forms, inverses, dense reference."""

import dataclasses
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded
from scipy.sparse.linalg import splu

from saddleprec import cli, precond
from saddleprec.assembly import (
    BLOCK_FACTORS,
    ProblemSpec,
    assemble_system,
    build_spaces,
    mass_form,
)
from saddleprec.kron import KroneckerMatrix
from saddleprec.precond import (
    BandCholesky,
    Setup,
    band_size,
    band_values,
    bandwidth,
    build_preconditioner,
    build_Ptilde_Y,
    dual_grams,
    state_block,
    state_residual_form,
    trace_form,
)
from saddleprec.splines import eval_basis_many, gauss_rule, make_space
from saddleprec.verify import residual_on_grid, sparse_vs_reference_gap
from test_verify import dense_preconditioner


def _eval_state(sp_, coef, tpts, xpts, ypts, dt=0, dx=0, dy=0):
    et = eval_basis_many(sp_.y_time, tpts, dt)
    ex = eval_basis_many(sp_.y_x, xpts, dx)[:, sp_.ix]
    ey = eval_basis_many(sp_.y_y, ypts, dy)[:, sp_.iy]
    return np.einsum("abc,ta,xb,yc->txy", coef.reshape(sp_.block_shape("y")),
                     et, ex, ey)


@pytest.mark.parametrize("p", [2, 3])
def test_state_block_terms_match_quadrature(p):
    # tiny instance; omega is deliberately not knot-aligned at level 1
    alpha = 0.37
    spec = ProblemSpec("wave", p, 1, alpha)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    precon = build_preconditioner(spec, sp_, system.blocks)
    p_y = precon.block_matrix("y").toarray()
    rng = np.random.default_rng(23)
    yv = rng.standard_normal(sp_.block_dim("y"))

    # term 1: observation over the sub-cylinder
    (wx, wy) = spec.omega
    rt = gauss_rule(sp_.y_time)
    rx = gauss_rule(sp_.y_x, sub=wx)
    ry = gauss_rule(sp_.y_y, sub=wy)
    vals = _eval_state(sp_, yv, rt.flat_points, rx.flat_points, ry.flat_points)
    w3 = (rt.flat_weights[:, None, None] * rx.flat_weights[None, :, None]
          * ry.flat_weights[None, None, :])
    term_obs = np.sum(w3 * vals**2)

    # term 2: state residual over the full cylinder
    res_vals, res_w = residual_on_grid(system, yv)
    term_res = np.sum(res_w * res_vals**2)

    # terms 3-4: traces at t = 0
    rx_f = gauss_rule(sp_.y_x)
    ry_f = gauss_rule(sp_.y_y)
    w2 = np.outer(rx_f.flat_weights, ry_f.flat_weights)
    t0 = np.array([sp_.y_time.a])
    gx = _eval_state(sp_, yv, t0, rx_f.flat_points, ry_f.flat_points, dx=1)[0]
    gy = _eval_state(sp_, yv, t0, rx_f.flat_points, ry_f.flat_points, dy=1)[0]
    term_h10 = np.sum(w2 * (gx**2 + gy**2))
    vt = _eval_state(sp_, yv, t0, rx_f.flat_points, ry_f.flat_points, dt=1)[0]
    term_vel = np.sum(w2 * vt**2)

    oracle = term_obs + alpha * term_res + term_h10 + term_vel
    assert yv @ (p_y @ yv) == pytest.approx(oracle, rel=1e-12)


def test_full_block_vector_form_is_sum_of_named_terms():
    # quadratic form of the whole preconditioner = state-block form plus the
    # scaled control/multiplier masses and the initial-condition Grams, each
    # evaluated independently by quadrature
    alpha = 0.2
    spec = ProblemSpec("wave", 2, 1, alpha)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    precon = build_preconditioner(spec, sp_, system.blocks)
    rng = np.random.default_rng(30)
    vec = rng.standard_normal(precon.dim)
    total = vec @ (dense_preconditioner(precon) @ vec)

    o = np.concatenate([[0], np.cumsum(sp_.block_dims)])
    yv, uv, pv, r1v, r2v = (vec[o[i]:o[i + 1]] for i in range(5))
    parts = yv @ (precon.block_matrix("y") @ yv)

    def quad_l2_cylinder(coef):
        rt, rx, ry = (gauss_rule(sp_.u_time), gauss_rule(sp_.u_x),
                      gauss_rule(sp_.u_y))
        evals = [eval_basis_many(s, r.flat_points, 0)
                 for s, r in ((sp_.u_time, rt), (sp_.u_x, rx), (sp_.u_y, ry))]
        vals = np.einsum("abc,ta,xb,yc->txy",
                         coef.reshape(sp_.block_shape("u")), *evals)
        w3 = (rt.flat_weights[:, None, None] * rx.flat_weights[None, :, None]
              * ry.flat_weights[None, None, :])
        return np.sum(w3 * vals**2)

    parts += alpha * quad_l2_cylinder(uv) + quad_l2_cylinder(pv) / alpha

    rx, ry = gauss_rule(sp_.y_x), gauss_rule(sp_.y_y)
    w2 = np.outer(rx.flat_weights, ry.flat_weights)
    ex = [eval_basis_many(sp_.y_x, rx.flat_points, d) for d in (0, 1)]
    ey = [eval_basis_many(sp_.y_y, ry.flat_points, d) for d in (0, 1)]
    c1 = r1v.reshape(len(sp_.ix), len(sp_.iy))
    gx = np.einsum("bc,xb,yc->xy", c1, ex[1][:, sp_.ix], ey[0][:, sp_.iy])
    gy = np.einsum("bc,xb,yc->xy", c1, ex[0][:, sp_.ix], ey[1][:, sp_.iy])
    parts += np.sum(w2 * (gx**2 + gy**2))
    c2 = r2v.reshape(sp_.y_x.dim, sp_.y_y.dim)
    v2 = np.einsum("bc,xb,yc->xy", c2, ex[0], ey[0])
    parts += np.sum(w2 * v2**2)

    assert total == pytest.approx(parts, rel=1e-12)


@pytest.mark.parametrize("p", [2, 3])
def test_heat_state_block_has_no_velocity_trace(p):
    alpha = 0.37
    spec = ProblemSpec("heat", p, 1, alpha)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    precon = build_preconditioner(spec, sp_, system.blocks)
    p_y = precon.block_matrix("y").toarray()
    rng = np.random.default_rng(24)
    yv = rng.standard_normal(sp_.block_dim("y"))

    (wx, wy) = spec.omega
    rt, rx, ry = (gauss_rule(sp_.y_time), gauss_rule(sp_.y_x, sub=wx),
                  gauss_rule(sp_.y_y, sub=wy))
    vals = _eval_state(sp_, yv, rt.flat_points, rx.flat_points, ry.flat_points)
    w3 = (rt.flat_weights[:, None, None] * rx.flat_weights[None, :, None]
          * ry.flat_weights[None, None, :])
    term_obs = np.sum(w3 * vals**2)
    res_vals, res_w = residual_on_grid(system, yv)
    term_res = np.sum(res_w * res_vals**2)
    rx_f, ry_f = gauss_rule(sp_.y_x), gauss_rule(sp_.y_y)
    w2 = np.outer(rx_f.flat_weights, ry_f.flat_weights)
    t0 = np.array([0.0])
    gx = _eval_state(sp_, yv, t0, rx_f.flat_points, ry_f.flat_points, dx=1)[0]
    gy = _eval_state(sp_, yv, t0, rx_f.flat_points, ry_f.flat_points, dy=1)[0]
    oracle = term_obs + alpha * term_res + np.sum(w2 * (gx**2 + gy**2))
    assert yv @ (p_y @ yv) == pytest.approx(oracle, rel=1e-12)


def _csr_sum(spec, sp_, blocks, alpha):
    """The CSR sum m = observation + alpha * residual + trace, each
    alpha-free term materialized through scipy.sparse.kron."""
    observation, residual, trace = (km.materialize() for km in (
        blocks["y", "y"], state_residual_form(spec, sp_), trace_form(spec, sp_)))
    return observation + alpha * residual + trace


def csr_state_block(spec, sp_, blocks, alpha):
    """Oracle: P_Y from sparse matrices, the lower triangle of the CSR sum m
    mirrored, tril(m) + tril(m, -1)'."""
    m = _csr_sum(spec, sp_, blocks, alpha)
    return (sp.tril(m) + sp.tril(m, -1).T).tocsr()


def _abs_form(km):
    """The Kronecker sum of the absolute values of km's terms."""
    out = KroneckerMatrix()
    for term in km.terms:
        out.add(abs(term.weight), *(np.abs(f) for f in term.factors))
    return out


@pytest.mark.parametrize("lev", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_state_block_is_the_symmetric_mean_up_to_roundoff(kind, p, lev):
    # against the definition of before, the symmetric mean 0.5 (m + m') of
    # the CSR sum: entrywise within 4 eps of the sum of the absolute values
    # of every Kronecker term of the three Grams
    spec = ProblemSpec(kind, p, lev, 1.0)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    setup = Setup(spec, sp_, system.blocks)
    observation, residual, trace = (_abs_form(km).materialize() for km in (
        system.blocks["y", "y"], state_residual_form(spec, sp_),
        trace_form(spec, sp_)))
    for alpha in (1.0, 1e-6, 1e-9):
        held = build_preconditioner(dataclasses.replace(spec, alpha=alpha), sp_,
                                    system.blocks, setup).block_matrix("y")
        m = _csr_sum(spec, sp_, system.blocks, alpha)
        bound = 4 * np.finfo(float).eps * (observation + alpha * residual + trace)
        excess = abs(held - 0.5 * (m + m.T)) - bound
        assert excess.max() <= 0.0


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_grams_hold_only_the_lower_triangle_of_the_band(kind, p):
    # no array of the band's length survives setup: each alpha-free Gram and
    # P_Y hold one value per band entry on or below the diagonal, and P_Y
    # shares its setup's one int32 array of band-storage slots
    spec = ProblemSpec(kind, p, 2, 1e-6)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    setup = Setup(spec, sp_, system.blocks)
    grams = setup.grams
    shape, n = sp_.block_shape("y"), sp_.block_dim("y")
    lower = (band_size(shape, p) + n) // 2
    assert [g.size for g in grams] == [lower] * 4
    assert [g.dtype for g in grams] == [np.float64] * 3 + [np.int32]
    p_y = build_preconditioner(spec, sp_, system.blocks, setup).table["y"].matrix
    assert p_y.lower.size == lower
    assert p_y.slots is grams[-1]


@pytest.mark.parametrize("lev", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_band_build_is_bitwise_the_csr_formula(kind, p, lev):
    # P_Y's CSR and its LAPACK lower band storage against the oracle, bit for
    # bit: ab[d, j] is the reversed oracle's entry (j + d, j), and zero beyond
    # the matrix
    spec = ProblemSpec(kind, p, lev, 1.0)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    setup = Setup(spec, sp_, system.blocks)
    shape = sp_.block_shape("y")
    width = bandwidth(shape, p)
    for alpha in (1.0, 1e-6, 1e-9):
        precon = build_preconditioner(dataclasses.replace(spec, alpha=alpha), sp_,
                                      system.blocks, setup)
        oracle = csr_state_block(spec, sp_, system.blocks, alpha)
        held = precon.block_matrix("y")
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(held, attr), getattr(oracle, attr))
        assert band_size(shape, p) == oracle.nnz
        dense = oracle.toarray()[::-1, ::-1]
        n = dense.shape[0]
        assert 0 < width < n and not np.tril(dense, -width - 1).any()
        want = np.zeros((width + 1, n))
        for d in range(width + 1):
            want[d, :n - d] = np.diagonal(dense, -d)
        ab = precon.table["y"].matrix.band_storage()
        assert ab.flags.f_contiguous and np.array_equal(ab, want)


@pytest.mark.parametrize("kind", ["heat", "wave"])
@pytest.mark.parametrize("alpha", [1.0, 1e-3, 1e-6])
def test_state_block_is_the_factorized_block(kind, alpha):
    # one builder: the preconditioner factorizes exactly the oracle's P_Y at
    # spec.alpha
    spec = ProblemSpec(kind, 2, 2, 1e-2)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    direct = csr_state_block(spec, sp_, system.blocks, alpha)
    precon = build_preconditioner(dataclasses.replace(spec, alpha=alpha), sp_,
                                  system.blocks)
    held = precon.block_matrix("y")
    assert direct.shape == held.shape == (sp_.block_dim("y"), sp_.block_dim("y"))
    assert np.array_equal(direct.toarray(), held.toarray())
    assert (held != held.T).nnz == 0


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_shared_setup_state_block_is_bitwise_the_unshared_one(kind, p):
    # one alpha-free setup serves every alpha; P_Y from it equals, bit for
    # bit, the oracle's built from scratch with fresh spaces and A's table
    spec = ProblemSpec(kind, p, 2, 1.0)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    setup = Setup(spec, sp_, system.blocks)
    for alpha in (1.0, 1e-3, 1e-6, 1e-9):
        spec_a = dataclasses.replace(spec, alpha=alpha)
        held = build_preconditioner(spec_a, sp_, system.blocks,
                                    setup).block_matrix("y")
        fresh_spaces = build_spaces(spec_a)
        fresh = csr_state_block(spec_a, fresh_spaces,
                                assemble_system(spec_a, fresh_spaces).blocks, alpha)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(held, attr), getattr(fresh, attr))


def test_own_setup_frees_the_grams_before_the_factor(monkeypatch):
    # a P built on a setup of its own (run, export) has freed P_Y's three
    # alpha-free Grams when its band factor starts; a shared setup keeps them
    # for the next alpha
    refs, alive = [], []
    grams, init = precond.state_grams, BandCholesky.__init__

    def record_grams(*args):
        out = grams(*args)
        refs[:] = [weakref.ref(g) for g in out[:3]]
        return out

    def record_factor(self, block):
        alive.append([ref() is not None for ref in refs])
        init(self, block)

    monkeypatch.setattr(precond, "state_grams", record_grams)
    monkeypatch.setattr(BandCholesky, "__init__", record_factor)
    spec = ProblemSpec("wave", 2, 2, 1e-6)
    sp_ = build_spaces(spec)
    build_preconditioner(spec, sp_, assemble_system(spec, sp_).blocks)
    with cli.shared_setup():
        cli.build_solve(spec)
    assert alive == [[False] * 3, [True] * 3]


def test_setup_serves_its_grid_only_while_it_holds_its_grams():
    # the setup of a P built without one has freed its Grams and serves no
    # further P; a setup serves no P of another grid
    spec = ProblemSpec("wave", 2, 1, 1e-6)
    sp_ = build_spaces(spec)
    blocks = assemble_system(spec, sp_).blocks
    spent = build_preconditioner(spec, sp_, blocks).basis
    assert spent.grams is None and not spent.serves(spec)
    with pytest.raises(ValueError, match="freed its Grams"):
        build_preconditioner(spec, sp_, blocks, spent)
    finer = dataclasses.replace(spec, level=2)
    finer_spaces = build_spaces(finer)
    with pytest.raises(ValueError, match="another grid"):
        build_preconditioner(finer, finer_spaces,
                             assemble_system(finer, finer_spaces).blocks,
                             Setup(spec, sp_, blocks))


@pytest.mark.parametrize("lev", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_ordered_lus_agree_with_default_ordered_splu(kind, p, lev):
    # P_Y's banded Cholesky, across alpha, and the r1 Gram's eigenbasis
    # solver against scipy's default-ordered, pivoted splu of the same
    # materialized block, on one vector and on a block of columns, which
    # solves as its columns one by one
    spec = ProblemSpec(kind, p, lev, 1.0)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    setup = Setup(spec, sp_, system.blocks)
    rng = np.random.default_rng(31)
    for alpha in (1.0, 1e-6, 1e-9):
        spec_a = dataclasses.replace(spec, alpha=alpha)
        precon = build_preconditioner(spec_a, sp_, system.blocks, setup)
        # the held block keeps the original ordering, entry for entry
        direct = csr_state_block(spec_a, sp_, system.blocks, alpha)
        held = precon.block_matrix("y")
        assert held.shape == direct.shape and (held != direct).nnz == 0
        for name in ("y", "p_r1"):
            mat, solver = precon.block_matrix(name), precon.table[name].solver
            rhs = rng.standard_normal((mat.shape[0], 4))
            got, want = solver.solve(rhs), splu(mat.tocsc()).solve(rhs)
            assert got.shape == rhs.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            for r, col in zip(rhs.T, got.T):
                one = solver.solve(r)
                assert one.shape == r.shape
                assert np.linalg.norm(one - col) <= 1e-13 * np.linalg.norm(one)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_band_factor_is_the_dense_cholesky_within_the_band(kind, p):
    # oracle: the dense Cholesky of the reversed block. Its fill stays inside
    # the band of `bandwidth`, which it reaches, and the band factor holds it
    # there
    spec = ProblemSpec(kind, p, 3, 1e-6)
    sp_ = build_spaces(spec)
    shape = sp_.block_shape("y")
    p_y = state_block(Setup(spec, sp_, assemble_system(spec, sp_).blocks).grams,
                      spec.alpha, shape, p)
    chol = np.linalg.cholesky(p_y.materialize().toarray()[::-1, ::-1])
    n, width = chol.shape[0], bandwidth(shape, p)
    assert not np.tril(chol, -width - 1).any()
    assert np.diagonal(chol, -width).any()
    factor = BandCholesky(p_y).factor
    assert factor.shape == (width + 1, n)
    want = np.zeros_like(factor)
    for d in range(width + 1):
        want[d, :n - d] = np.diagonal(chol, -d)
    atol = 1e-12 * np.abs(chol).max()
    assert np.allclose(factor, want, rtol=0, atol=atol)


def test_state_cholesky_refuses_what_it_cannot_factor():
    spec = ProblemSpec("wave", 2, 3, 1e-6)
    sp_ = build_spaces(spec)
    grams = Setup(spec, sp_, assemble_system(spec, sp_).blocks).grams
    # a negative weight on the residual Gram, which is positive semidefinite
    # and not zero, leaves P_Y indefinite
    indefinite = state_block(grams, -1.0, sp_.block_shape("y"), 2)
    assert np.linalg.eigvalsh(indefinite.materialize().toarray())[0] < 0
    with pytest.raises(ValueError, match="not positive definite"):
        BandCholesky(indefinite)
    # a factor coupling the first and the last grid point of an axis has a
    # nonzero that P_Y's band has no place for
    mass = sp_.factor(BLOCK_FACTORS["y"][1], BLOCK_FACTORS["y"][1])
    wide = mass.copy()
    wide[0, -1] = wide[-1, 0] = 1e-3
    band_values(KroneckerMatrix().add(1.0, mass, mass), 2)
    with pytest.raises(ValueError, match="beyond its band"):
        band_values(KroneckerMatrix().add(1.0, mass, mass).add(1.0, wide, mass), 2)


def test_band_solve_is_cho_solve_banded_bit_for_bit():
    # the solve calls LAPACK's dpbtrs directly: the same bits as scipy's
    # wrapper, for a vector and for columns, and a right-hand side of the
    # wrong length is refused, where dpbtrs alone would solve its first rows
    spec = ProblemSpec("wave", 2, 2, 1e-6)
    sp_ = build_spaces(spec)
    p_y = state_block(Setup(spec, sp_, assemble_system(spec, sp_).blocks).grams,
                      spec.alpha, sp_.block_shape("y"), 2)
    chol = BandCholesky(p_y)
    rng = np.random.default_rng(26)
    n = sp_.block_dim("y")
    for r in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        want = cho_solve_banded((chol.factor, True), r[::-1])[::-1]
        assert np.array_equal(chol.solve(r), want)
    with pytest.raises(ValueError, match="expected"):
        chol.solve(np.ones(n + 1))


def test_alpha_scaling_of_blocks():
    spec = ProblemSpec("wave", 2, 2, 1e-2)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    p1 = build_preconditioner(spec, sp_, system.blocks)
    p2 = build_preconditioner(dataclasses.replace(spec, alpha=1e-3), sp_,
                              system.blocks)
    rng = np.random.default_rng(25)
    u = rng.standard_normal(sp_.block_dim("u"))
    q1 = u @ (p1.block_matrix("u") @ u)
    q2 = u @ (p2.block_matrix("u") @ u)
    assert q2 == pytest.approx(q1 / 10.0, rel=1e-13)
    q1 = u @ (p1.block_matrix("p_u") @ u)
    q2 = u @ (p2.block_matrix("p_u") @ u)
    assert q2 == pytest.approx(q1 * 10.0, rel=1e-13)
    assert (p1.block_matrix("p_r1") - p2.block_matrix("p_r1")).nnz == 0
    assert (p1.block_matrix("p_r2") - p2.block_matrix("p_r2")).nnz == 0


@pytest.mark.parametrize("alpha", [1.0, 1e-3, 1e-6, 1e-9])
def test_blocks_stay_spd_across_alpha(alpha):
    spec = ProblemSpec("wave", 2, 2, alpha)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    precon = build_preconditioner(spec, sp_, system.blocks)
    for name in sp_.block_names:
        mat = precon.block_matrix(name).toarray()
        lo = np.linalg.eigvalsh(mat)[0]
        assert lo > 0, f"block {name} lost definiteness at alpha={alpha}"


@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_apply_inverse_contracts(kind):
    spec = ProblemSpec(kind, 2, 1, 1e-4)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    precon = build_preconditioner(spec, sp_, system.blocks)
    full = dense_preconditioner(precon)
    rng = np.random.default_rng(26)
    r = rng.standard_normal(precon.dim)
    x = precon.apply_inverse(r)
    assert np.linalg.norm(full @ x - r) <= 1e-10 * np.linalg.norm(r)
    # linearity
    r2 = rng.standard_normal(precon.dim)
    lhs = precon.apply_inverse(r + r2)
    rhs = precon.apply_inverse(r) + precon.apply_inverse(r2)
    assert np.allclose(lhs, rhs, atol=1e-12 * np.linalg.norm(lhs))
    with pytest.raises(ValueError):
        precon.apply_inverse(r[:-1])
    # every named block inverts its own scaled matrix, columns included
    for name in sp_.block_names:
        cols = rng.standard_normal((precon.block_matrix(name).shape[0], 3))
        got = precon.solve_block(name, precon.block_matrix(name) @ cols)
        assert got.shape == cols.shape
        assert np.allclose(got, cols, rtol=0, atol=1e-10 * np.abs(cols).max())


@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_table_solvers_solve_columns_as_each_column(kind):
    # every block solver of the B-spline P and of the rotated P takes a block
    # of columns, also a square one, and solves each column as it solves it
    # alone
    spec = ProblemSpec(kind, 2, 1, 1e-4)
    sp_ = build_spaces(spec)
    precon = build_preconditioner(spec, sp_, assemble_system(spec, sp_).blocks)
    rng = np.random.default_rng(29)
    for pre in (precon, precon.basis.preconditioner(precon)):
        for name in sp_.block_names:
            n = sp_.block_dim(name)
            for cols in (rng.standard_normal((n, 3)), rng.standard_normal((n, n))):
                got = pre.solve_block(name, cols)
                want = np.column_stack([pre.solve_block(name, c) for c in cols.T])
                assert got.shape == cols.shape
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_kron_blocks_match_dense_solves():
    # tensor-product inverses against dense solves on materialized blocks
    spec = ProblemSpec("wave", 2, 2, 1e-4)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    precon = build_preconditioner(spec, sp_, system.blocks)
    rng = np.random.default_rng(28)
    r = rng.standard_normal(precon.dim)
    x = precon.apply_inverse(r)
    u_slice = slice(sp_.block_dim("y"), sp_.block_dim("y") + sp_.block_dim("u"))
    dense_u = precon.alpha * system.blocks["u", "u"].materialize().toarray()
    assert np.allclose(x[u_slice], np.linalg.solve(dense_u, r[u_slice]),
                       rtol=1e-10)
    r2_slice = slice(precon.dim - sp_.block_dim("p_r2"), precon.dim)
    dense_r2 = mass_form(sp_, "p_r2").materialize().toarray()
    assert np.allclose(x[r2_slice], np.linalg.solve(dense_r2, r[r2_slice]),
                       rtol=1e-10)


def test_reference_equality_and_counterexample():
    for p in (2, 3):
        spec = ProblemSpec("wave", p, 2, 1e-3)
        system = assemble_system(spec)
        rep = sparse_vs_reference_gap(system)
        assert rep.rel_gap <= 1e-8
    # too-smooth control space: the residual leaves it, the reference drops
    spec = ProblemSpec("wave", 2, 2, 1e-3)
    smooth = dataclasses.replace(
        build_spaces(spec), u_time=make_space(2, 2, 1, 0.0, spec.final_time),
        u_x=make_space(2, 2, 1, 0.0, 1.0), u_y=make_space(2, 2, 1, 0.0, 1.0))
    rep = sparse_vs_reference_gap(assemble_system(spec, smooth))
    assert rep.rel_gap > 1e-6


def test_initial_dual_grams_are_the_trace_gram():
    # the initial-condition terms of the reference, without the residual term
    # and the observation, are the trace Gram of the state block
    spec = ProblemSpec("wave", 2, 1, 0.5)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    grams = dual_grams(system, build_preconditioner(spec, sp_, system.blocks))
    expect = trace_form(spec, sp_).materialize().toarray()
    got = grams["p_r1"] + grams["p_r2"]
    assert np.allclose(got, expect, atol=1e-10 * np.abs(expect).max())


def test_reference_refuses_beyond_cap():
    spec = ProblemSpec("wave", 2, 3, 1e-3)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    precon = build_preconditioner(spec, sp_, system.blocks)
    with pytest.raises(ValueError):
        build_Ptilde_Y(system, precon)


def test_invalid_alpha_rejected():
    # alpha reaches the preconditioner only through the spec, which refuses
    # nonpositive values
    spec = ProblemSpec("wave", 2, 1, 1e-3)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    assert build_preconditioner(spec, sp_, system.blocks).alpha == spec.alpha
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            dataclasses.replace(spec, alpha=bad)


@pytest.mark.parametrize("lev", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_control_eigenbasis_diagonalizes_each_factor(p, lev):
    spec = ProblemSpec("wave", p, lev, 1e-6)
    sp_ = build_spaces(spec)
    basis = Setup(spec, sp_, assemble_system(spec, sp_).blocks)
    lams = []
    for name, q in zip(BLOCK_FACTORS["u"], basis.q):
        mass = sp_.factor(name, name)
        lam = np.diag(q.T @ mass @ q)
        assert np.abs(q.T @ q - np.eye(len(q))).max() <= 1e-13
        assert np.abs(q @ np.diag(lam) @ q.T - mass).max() <= 1e-13
        lams.append(lam)
    # the diagonal is lam_t x lam_x x lam_y in Kronecker order
    want = np.kron(np.kron(lams[0], lams[1]), lams[2])
    assert np.allclose(basis.mass.diagonal, want, rtol=1e-12, atol=0)


def _dense_rotation(basis, sp_):
    """D = blockdiag(I, Q', Q', I[, I]) as a function, Q = Q_t x Q_x x Q_y
    formed densely by np.kron, independent of the mode products."""
    q = np.kron(np.kron(basis.q[0], basis.q[1]), basis.q[2])

    def rotate(v, back=False):
        out = v.copy()
        for name in ("u", "p_u"):
            part = sp_.block_slice(name)
            out[part] = (q if back else q.T) @ v[part]
        return out
    return rotate


@pytest.mark.parametrize("alpha", [1.0, 1e-6])
@pytest.mark.parametrize("lev", [1, 2])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_rotated_operators_are_the_csr_ones_rotated(kind, p, lev, alpha):
    # oracle: D A D' from the CSR B-spline matrix and a dense D; P likewise
    spec = ProblemSpec(kind, p, lev, alpha)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    precon = build_preconditioner(spec, sp_, system.blocks)
    basis = precon.basis
    rot_system, rot_precon = basis.system(system), basis.preconditioner(precon)
    d = _dense_rotation(basis, sp_)
    rng = np.random.default_rng(41)
    for _ in range(2):
        v = rng.standard_normal(system.dim)
        want = d(system.matrix @ d(v, back=True))
        assert np.abs(rot_system.apply(v) - want).max() <= 1e-13 * np.abs(want).max()
        x = rot_precon.apply_inverse(v)
        resid = d(dense_preconditioner(precon) @ d(x, back=True)) - v
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(v)
        assert np.allclose(basis.rotate(v), d(v), rtol=0, atol=1e-13 * np.abs(v).max())
        assert np.allclose(basis.rotate(basis.rotate(v), back=True), v, rtol=0,
                           atol=1e-13 * np.abs(v).max())
    # the B-spline basis objects are untouched: the rotation copies
    assert precon.table["u"].matrix is system.blocks["u", "u"]
