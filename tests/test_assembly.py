"""Discretization assembly: spaces, coupling blocks, system, projections."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import orth

from saddleprec import kron
from saddleprec.assembly import (
    ProblemData,
    ProblemSpec,
    assemble_system,
    build_spaces,
    dof_count,
    h10_gram_form,
    k_r2_form,
    mass_form,
    moments,
    observation_form,
    project_state_l2,
)
from saddleprec.kron import KroneckerMatrix
from saddleprec.krylov import minres
from saddleprec.precond import build_preconditioner
from saddleprec.splines import (
    eval_basis_many,
    gauss_rule,
    make_space,
    univariate_matrix,
)
from saddleprec.verify import residual_on_grid


def tensor_eval(coef3, spaces3, restrictions):
    """Callable sampling a tensor spline on broadcastable grid arrays."""

    def f(*grids):
        axes = []
        for g, space, restr in zip(grids, spaces3, restrictions):
            e = eval_basis_many(space, np.ravel(g), 0)
            if restr is not None:
                e = e[:, restr]
            axes.append(e)
        return np.einsum("abc,ta,xb,yc->txy", coef3, *axes)

    return f


def test_space_dimensions_wave():
    spec = ProblemSpec("wave", 2, 2, 1e-3)
    sp_ = build_spaces(spec)
    assert tuple(map(sp_.block_dim, ("y", "u", "p_r1", "p_r2"))) == (
        96, 1728, 16, 36)
    spec3 = ProblemSpec("wave", 3, 2, 1e-3)
    sp3 = build_spaces(spec3)
    assert tuple(map(sp3.block_dim, ("y", "u", "p_r1", "p_r2"))) == (
        175, 2197, 25, 49)


def test_space_dimensions_heat():
    spec = ProblemSpec("heat", 2, 2, 1e-3)
    sp_ = build_spaces(spec)
    assert tuple(map(sp_.block_dim, ("y", "u", "p_r1"))) == (96, 1728, 16)
    assert "p_r2" not in sp_.block_names
    with pytest.raises(ValueError):
        sp_.block_dim("p_r2")


@pytest.mark.parametrize("lev", [0, 1, 2, 3])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["wave", "heat"])
def test_block_dims_match_hand_formulas(kind, p, lev):
    # the block sizes derived from BLOCK_FACTORS against formulas written out
    # by hand: the H^1_0 restriction drops the two endpoint functions
    s = build_spaces(ProblemSpec(kind, p, lev, 1e-3))
    n_u = s.u_time.dim * s.u_x.dim * s.u_y.dim
    expect = {"y": s.y_time.dim * (s.y_x.dim - 2) * (s.y_y.dim - 2),
              "u": n_u, "p_u": n_u, "p_r1": (s.y_x.dim - 2) * (s.y_y.dim - 2)}
    if kind == "wave":
        expect["p_r2"] = s.y_x.dim * s.y_y.dim
    assert s.block_names == tuple(expect)
    assert s.block_dims == tuple(expect.values())
    assert s.block_shape("y") == (s.y_time.dim, s.y_x.dim - 2, s.y_y.dim - 2)


def test_dof_counts_match_reference_tables():
    expected = {
        (2, 2): 3604, (2, 3): 28452, (2, 4): 226372, (2, 5): 1806468,
        (3, 2): 4643, (3, 3): 32343, (3, 4): 241439, (3, 5): 1865775,
    }
    for (p, lev), dofs in expected.items():
        assert dof_count(ProblemSpec("wave", p, lev, 1e-3)) == dofs
    assert dof_count(ProblemSpec("heat", 2, 2, 1e-3)) == 3604 - 36


def test_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec("wave", 1, 2, 1e-3)  # degree below 2
    for bad in (0.0, float("nan"), float("inf")):  # must be finite and positive
        with pytest.raises(ValueError, match="alpha"):
            ProblemSpec("wave", 2, 2, bad)
        with pytest.raises(ValueError, match="final_time"):
            ProblemSpec("wave", 2, 2, 1e-3, final_time=bad)
    with pytest.raises(ValueError):
        ProblemSpec("poisson", 2, 2, 1e-3)
    with pytest.raises(ValueError):
        ProblemSpec("wave", 2, 2, 1e-3, omega=((0.5, 1.5), (0.0, 1.0)))


def test_residual_block_kills_constants_before_restriction():
    # on the unrestricted factors, both the second time derivative and the
    # Laplacian annihilate the constant function (all-ones coefficients)
    spec = ProblemSpec("wave", 2, 2, 1e-3)
    sp_ = build_spaces(spec)
    t_deriv = univariate_matrix(sp_.u_time, sp_.y_time, 0, 2)
    x_d2 = univariate_matrix(sp_.u_x, sp_.y_x, 0, 2)
    ones_t = np.ones(sp_.y_time.dim)
    ones_x = np.ones(sp_.y_x.dim)
    assert np.max(np.abs(t_deriv @ ones_t)) < 1e-11
    assert np.max(np.abs(x_d2 @ ones_x)) < 1e-11


def test_factor_accessor_caches_read_only_restricted_factors():
    sp_ = build_spaces(ProblemSpec("wave", 2, 2, 1e-3))
    m = sp_.factor("u_x", "y_x", 0, 2)
    assert sp_.factor("u_x", "y_x", 0, 2) is m
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 1.0
    # only the state factors are restricted, and only on their own side
    full = univariate_matrix(sp_.u_x, sp_.y_x, 0, 2)
    assert np.array_equal(m, full[:, sp_.ix])
    mass = univariate_matrix(sp_.y_x, sp_.y_x, 0, 0)
    assert np.array_equal(sp_.factor("y_x", "y_x"), mass[np.ix_(sp_.ix, sp_.ix)])
    assert np.array_equal(sp_.factor("r2_x", "y_x"), mass[:, sp_.ix])
    assert np.array_equal(sp_.factor("r2_x", "r2_x"), mass)
    clip = sp_.factor("y_y", "y_y", sub=(0.25, 0.75))
    assert not clip.flags.writeable
    assert clip is not sp_.factor("y_y", "y_y")


@pytest.mark.parametrize("kind,p", [
    pytest.param("wave", 2, id="wave"), pytest.param("wave", 3, id="wave-p3"),
    pytest.param("heat", 2, id="heat"), pytest.param("heat", 3, id="heat-p3")])
def test_K_U_matches_pointwise_quadrature_oracle(kind, p):
    spec = ProblemSpec(kind, p, 2, 1e-3)
    system = assemble_system(spec)
    sp_ = system.spaces
    rng = np.random.default_rng(21)
    yv = rng.standard_normal(sp_.block_dim("y"))
    # oracle: sample the residual on the exact Gauss grid and integrate it
    # against every control basis function
    vals, w3 = residual_on_grid(system, yv)
    rules = [gauss_rule(s) for s in (sp_.u_time, sp_.u_x, sp_.u_y)]
    eu = [eval_basis_many(s, r.flat_points, 0)
          for s, r in zip((sp_.u_time, sp_.u_x, sp_.u_y), rules)]
    oracle = np.einsum("txy,ta,xb,yc->abc", w3 * vals, *eu).reshape(-1)
    got = system.blocks["p_u", "y"].apply(yv)
    assert np.allclose(got, oracle, atol=1e-12 * np.abs(oracle).max())


@pytest.mark.parametrize("kind,p", [("wave", 2), ("wave", 3),
                                    ("heat", 2), ("heat", 3)])
def test_inclusion_projection_defect(kind, p):
    from saddleprec.verify import inclusion_residuals

    spec = ProblemSpec(kind, p, 2, 1e-3)
    system = assemble_system(spec)
    res = inclusion_residuals(system, n_samples=20, seed=1)
    assert res.max() <= 1e-10


def test_inclusion_defect_independent_lstsq_oracle():
    # fully independent route: least-squares fit of the sampled residual by
    # sampled control basis functions under the quadrature weights
    spec = ProblemSpec("wave", 2, 2, 1e-3)
    system = assemble_system(spec)
    sp_ = system.spaces
    rng = np.random.default_rng(3)
    yv = rng.standard_normal(sp_.block_dim("y"))
    vals, w3 = residual_on_grid(system, yv)
    rules = [gauss_rule(s) for s in (sp_.u_time, sp_.u_x, sp_.u_y)]
    eu = [eval_basis_many(s, r.flat_points, 0)
          for s, r in zip((sp_.u_time, sp_.u_x, sp_.u_y), rules)]
    basis = np.einsum("ta,xb,yc->txyabc", *eu).reshape(vals.size,
                                                       sp_.block_dim("u"))
    sw = np.sqrt(w3.reshape(-1))
    sol, *_ = np.linalg.lstsq(sw[:, None] * basis, sw * vals.reshape(-1),
                              rcond=None)
    defect = np.linalg.norm(sw * (vals.reshape(-1) - basis @ sol))
    norm = np.linalg.norm(sw * vals.reshape(-1))
    assert defect / norm <= 1e-10


def test_K_R1_zero_rows_for_vanishing_initial_trace():
    spec = ProblemSpec("wave", 2, 2, 1e-3)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    # time coefficient zero on the first basis function: y(0) = 0
    rng = np.random.default_rng(4)
    y3 = rng.standard_normal(sp_.block_shape("y"))
    y3[0, :, :] = 0.0
    k_r1 = system.blocks["p_r1", "y"]
    assert np.max(np.abs(k_r1.apply(y3.reshape(-1)))) < 1e-13


def test_K_R1_separable_state_gives_stiffness_column():
    spec = ProblemSpec("wave", 2, 2, 1e-3)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    nx, ny = len(sp_.ix), len(sp_.iy)
    for j in (0, 5, nx * ny - 1):
        y3 = np.zeros(sp_.block_shape("y"))
        y3[0, j // ny, j % ny] = 1.0  # first time basis: value 1 at t = 0
        got = system.blocks["p_r1", "y"].apply(y3.reshape(-1))
        expect = h10_gram_form(sp_).materialize().toarray()[:, j]
        assert np.allclose(got, expect, atol=1e-13)


def test_K_R1_pairing_matches_quadrature():
    spec = ProblemSpec("wave", 2, 2, 1e-3)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    rng = np.random.default_rng(5)
    yv = rng.standard_normal(sp_.block_dim("y"))
    rv = rng.standard_normal(sp_.block_dim("p_r1"))
    # quadrature oracle for (grad y(0), grad r)
    e0 = eval_basis_many(sp_.y_time, [sp_.y_time.a], 0)[0]
    spat = np.einsum("a,abc->bc", e0, yv.reshape(sp_.block_shape("y")))
    rules = [gauss_rule(sp_.y_x), gauss_rule(sp_.y_y)]
    ex = [eval_basis_many(sp_.y_x, rules[0].flat_points, d)[:, sp_.ix]
          for d in (0, 1)]
    ey = [eval_basis_many(sp_.y_y, rules[1].flat_points, d)[:, sp_.iy]
          for d in (0, 1)]
    w2 = np.outer(rules[0].flat_weights, rules[1].flat_weights)
    r2 = rv.reshape(len(sp_.ix), len(sp_.iy))

    def grad(c, dx):
        return np.einsum("bc,xb,yc->xy", c, ex[1 - dx], ey[dx])

    oracle = np.sum(w2 * (grad(spat, 0) * grad(r2, 0)
                          + grad(spat, 1) * grad(r2, 1)))
    k_r1 = system.blocks["p_r1", "y"]
    assert rv @ k_r1.apply(yv) == pytest.approx(oracle, rel=1e-12)


def test_K_R2_time_constant_state_gives_zero():
    spec = ProblemSpec("wave", 2, 2, 1e-3)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    rng = np.random.default_rng(6)
    spatial = rng.standard_normal((len(sp_.ix), len(sp_.iy)))
    y3 = np.broadcast_to(spatial, sp_.block_shape("y")).copy()  # constant in time
    k_r2 = system.blocks["p_r2", "y"]
    assert np.max(np.abs(k_r2.apply(y3.reshape(-1)))) < 1e-12


def _spatial_eval(coef2, sp_, x, y):
    ex = eval_basis_many(sp_.y_x, np.ravel(x), 0)[:, sp_.ix]
    ey = eval_basis_many(sp_.y_y, np.ravel(y), 0)[:, sp_.iy]
    return np.einsum("bc,xb,yc->xy", coef2, ex, ey)


def test_K_R2_linear_time_state_gives_mass_column():
    spec = ProblemSpec("wave", 2, 2, 1e-3)
    sp_ = build_spaces(spec)
    system = assemble_system(spec, sp_)
    # time coefficients representing the function t (exact L2 projection)
    ts = sp_.y_time
    mt = univariate_matrix(ts, ts, 0, 0)
    rule = gauss_rule(ts)
    mom = eval_basis_many(ts, rule.flat_points, 0).T @ (
        rule.flat_weights * rule.flat_points)
    tcoef = np.linalg.solve(mt, mom)
    rng = np.random.default_rng(7)
    spatial = rng.standard_normal((len(sp_.ix), len(sp_.iy)))
    y3 = tcoef[:, None, None] * spatial[None, :, :]
    got = system.blocks["p_r2", "y"].apply(y3.reshape(-1))
    # d_t y(0) = spatial part; oracle through the 2-D mass moments
    oracle = moments(sp_, "p_r2", lambda x, y: _spatial_eval(spatial, sp_, x, y))
    assert np.allclose(got, oracle, atol=1e-12 * max(np.abs(oracle).max(), 1.0))


def test_observation_full_domain_is_full_mass():
    spec = ProblemSpec("wave", 2, 2, 1e-3, omega=((0.0, 1.0), (0.0, 1.0)))
    sp_ = build_spaces(spec)
    obs = observation_form(spec, sp_)
    mt = univariate_matrix(sp_.y_time, sp_.y_time, 0, 0)
    mx = univariate_matrix(sp_.y_x, sp_.y_x, 0, 0)[
        np.ix_(sp_.ix, sp_.ix)]
    full = np.kron(np.kron(mt, mx), mx)
    assert np.allclose(obs.materialize().toarray(), full, atol=1e-14)


def test_observation_quadratic_form_at_indicator_state():
    # interior coefficients of one give the constant 1 on the observed box
    # (the omitted boundary functions vanish there for level >= 2)
    spec = ProblemSpec("wave", 2, 2, 1e-3)
    sp_ = build_spaces(spec)
    obs = observation_form(spec, sp_)
    ones = np.ones(sp_.block_dim("y"))
    assert ones @ obs.apply(ones) == pytest.approx(0.25, rel=1e-12)
    assert obs.materialize().diagonal().sum() > 0


def test_system_structure_wave():
    spec = ProblemSpec("wave", 2, 2, 1e-3)
    system = assemble_system(spec)
    m = system.matrix
    assert system.dim == 3604
    assert abs(m - m.T).max() == 0.0
    s = {n: system.spaces.block_slice(n) for n in system.spaces.block_names}
    dense_nnz = {}
    for a in system.spaces.block_names:
        for b in system.spaces.block_names:
            dense_nnz[a, b] = m[s[a], s[b]].nnz
    zero_pairs = [("y", "u"), ("u", "p_r1"), ("u", "p_r2"), ("p_u", "p_u"),
                  ("p_u", "p_r1"), ("p_u", "p_r2"), ("p_r1", "p_r1"),
                  ("p_r1", "p_r2"), ("p_r2", "p_r2")]
    for a, b in zero_pairs:
        assert dense_nnz[a, b] == 0
        assert dense_nnz[b, a] == 0
    for a, b in [("y", "y"), ("u", "u"), ("y", "p_u"), ("u", "p_u"),
                 ("y", "p_r1"), ("y", "p_r2")]:
        assert dense_nnz[a, b] > 0


@pytest.fixture(scope="module")
def blocks_by_case():
    """Spaces and blocks per (kind, p, level), shared across the alphas."""
    cache = {}

    def get(kind, p, lev):
        if (kind, p, lev) not in cache:
            spec = ProblemSpec(kind, p, lev, 1.0)
            spaces = build_spaces(spec)
            cache[kind, p, lev] = (spaces, assemble_system(spec, spaces).blocks)
        return cache[kind, p, lev]
    return get


@pytest.mark.parametrize("alpha", [1.0, 1e-6])
@pytest.mark.parametrize("lev", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["wave", "heat"])
def test_blockwise_apply_matches_sparse_matrix(blocks_by_case, kind, p, lev,
                                               alpha):
    spaces, blocks = blocks_by_case(kind, p, lev)
    system = assemble_system(ProblemSpec(kind, p, lev, alpha), spaces,
                             blocks=blocks)
    rng = np.random.default_rng(lev + 10 * p)
    v, w = rng.standard_normal((2, system.dim))
    av, aw = system.apply(v), system.apply(w)
    ref = system.matrix @ v
    assert np.linalg.norm(av - ref) <= 1e-13 * np.linalg.norm(ref)
    gap = abs(av @ w - v @ aw)
    assert gap <= 1e-13 * np.linalg.norm(av) * np.linalg.norm(w)


def test_system_matrix_built_on_first_read_only():
    system = assemble_system(ProblemSpec("wave", 2, 1, 1e-3))
    assert all(isinstance(k, KroneckerMatrix) for k in system.blocks.values())
    assert "matrix" not in vars(system)
    system.apply(np.ones(system.dim))
    assert "matrix" not in vars(system)
    m = system.matrix
    assert system.matrix is m


@pytest.mark.parametrize("kind,mode_products", [("wave", 15), ("heat", 13)])
def test_apply_fuses_shared_operators_and_plans_once(monkeypatch, kind,
                                                     mode_products):
    # one mode product per Kronecker term of each distinct operator in a
    # block row: the control mass acts once on alpha u + p_u (one more call
    # per apply if it acted on u and p_u apart)
    system = assemble_system(ProblemSpec(kind, 2, 1, 1e-3))
    v = np.random.default_rng(11).standard_normal(system.dim)
    calls = {"mode_products": 0, "add": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kron, "mode_products",
                        counted("mode_products", kron.mode_products))
    first = system.apply(v)
    assert calls["mode_products"] == mode_products
    # the plan, transposes included, is built once per system
    monkeypatch.setattr(KroneckerMatrix, "add",
                        counted("add", KroneckerMatrix.add))
    assert np.array_equal(system.apply(v), first)
    assert calls["add"] == 0


def test_homogeneous_system_zero_rhs_and_instant_convergence():
    spec = ProblemSpec("wave", 2, 2, 1e-3)
    system = assemble_system(spec)
    assert not system.rhs.any()
    x, report = minres(lambda v: system.matrix @ v, lambda r: r, system.rhs)
    assert report.iterations == 0 and report.converged
    assert not x.any()


def test_heat_system_structure():
    spec = ProblemSpec("heat", 2, 2, 1e-3)
    system = assemble_system(spec)
    assert system.spaces.block_names == ("y", "u", "p_u", "p_r1")
    assert system.dim == 3568
    assert abs(system.matrix - system.matrix.T).max() == 0.0
    with pytest.raises(ValueError):
        k_r2_form(spec, system.spaces)


def test_project_state_reproduces_member_function():
    spec = ProblemSpec("wave", 2, 2, 1e-3)
    sp_ = build_spaces(spec)
    rng = np.random.default_rng(8)
    coef = rng.standard_normal(sp_.block_shape("y"))
    f = tensor_eval(coef, [sp_.y_time, sp_.y_x, sp_.y_y],
                    [None, sp_.ix, sp_.iy])
    got = project_state_l2(sp_, f)
    assert np.allclose(got, coef.reshape(-1), atol=1e-12)


def test_univariate_projection_of_linear_on_hats():
    # L2 projection of x onto two-element hats interpolates: (0, 1/2, 1)
    s = make_space(1, 1, 0)
    m = univariate_matrix(s, s, 0, 0)
    rule = gauss_rule(s)
    mom = eval_basis_many(s, rule.flat_points, 0).T @ (
        rule.flat_weights * rule.flat_points)
    coef = np.linalg.solve(m, mom)
    assert np.allclose(coef, [0.0, 0.5, 1.0], atol=1e-13)


def test_rhs_moments_for_member_data():
    # initial data already in the discrete spaces: the rhs rows equal the
    # Gram matrices applied to the member coefficients, the p_r2 rows after
    # the projection onto range(K_R2)
    spec = ProblemSpec("wave", 2, 2, 1e-3)
    sp_ = build_spaces(spec)
    rng = np.random.default_rng(10)
    y0c = rng.standard_normal(sp_.block_dim("p_r1"))
    y1c = rng.standard_normal(sp_.block_dim("p_r2"))

    def y0(x, y):
        return _spatial_eval(y0c.reshape(len(sp_.ix), len(sp_.iy)), sp_, x, y)

    def y0_grad(x, y):
        ex = [eval_basis_many(sp_.y_x, np.ravel(x), d)[:, sp_.ix] for d in (0, 1)]
        ey = [eval_basis_many(sp_.y_y, np.ravel(y), d)[:, sp_.iy] for d in (0, 1)]
        c = y0c.reshape(len(sp_.ix), len(sp_.iy))
        return (np.einsum("bc,xb,yc->xy", c, ex[1], ey[0]),
                np.einsum("bc,xb,yc->xy", c, ex[0], ey[1]))

    def velocity(coef):
        def y1(x, y):
            ex = eval_basis_many(sp_.y_x, np.ravel(x), 0)
            ey = eval_basis_many(sp_.y_y, np.ravel(y), 0)
            return np.einsum("bc,xb,yc->xy",
                             coef.reshape(sp_.y_x.dim, sp_.y_y.dim), ex, ey)
        return y1

    data = ProblemData(y0=y0, y0_grad=y0_grad, y1=velocity(y1c))
    system = assemble_system(spec, sp_, data=data)
    r1 = system.rhs[system.spaces.block_slice("p_r1")]
    r2 = system.rhs[system.spaces.block_slice("p_r2")]
    assert np.allclose(r1, h10_gram_form(sp_).apply(y0c), atol=1e-12)
    # unrestricted y1: Q Q' (M_R2 y1c), Q an orthonormal basis of each
    # factor's range (independent of the pseudo-inverse projector)
    qx, qy = (orth(sp_.factor(r, c)) for r, c in (("r2_x", "y_x"),
                                                 ("r2_y", "y_y")))
    proj = np.kron(qx @ qx.T, qy @ qy.T)
    r2_mass = mass_form(sp_, "p_r2")
    full = r2_mass.apply(y1c)
    assert np.allclose(r2, proj @ full, atol=1e-12)
    assert np.linalg.norm(r2 - full) > 1e-3 * np.linalg.norm(full)
    # y1 in the H^1_0 spatial space: K_R2 reaches its moments, none dropped
    y1r = np.zeros((sp_.y_x.dim, sp_.y_y.dim))
    y1r[np.ix_(sp_.ix, sp_.iy)] = rng.standard_normal((len(sp_.ix), len(sp_.iy)))
    system = assemble_system(spec, sp_, data=ProblemData(y1=velocity(y1r)))
    r2 = system.rhs[system.spaces.block_slice("p_r2")]
    assert np.allclose(r2, r2_mass.apply(y1r.reshape(-1)),
                       atol=1e-12)


def test_missing_gradient_is_rejected():
    spec = ProblemSpec("wave", 2, 2, 1e-3)
    data = ProblemData(y0=lambda x, y: x * y)
    with pytest.raises(ValueError):
        assemble_system(spec, data=data)


def _sine_grad(x, y):
    return (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))


NONHOMOGENEOUS_DATA = ProblemData(
    d=lambda t, x, y: (1.0 + t) * np.sin(np.pi * x) * np.sin(np.pi * y),
    g_u=lambda t, x, y: np.cos(np.pi * t) * x * (1.0 - y),
    y0=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
    y0_grad=_sine_grad,
)


@pytest.mark.parametrize("alpha", [1e-3, 1e-6])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["wave", "heat"])
def test_nonhomogeneous_data_solves(kind, p, alpha):
    spec = ProblemSpec(kind, p, 2, alpha)
    sp_ = build_spaces(spec)
    data = NONHOMOGENEOUS_DATA
    if spec.is_wave:
        data = dataclasses.replace(
            data, y1=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    system = assemble_system(spec, sp_, data=data)
    for name in set(sp_.block_names) - {"u"}:
        assert system.rhs[sp_.block_slice(name)].any(), name
    precon = build_preconditioner(spec, sp_, system.blocks)
    _, rep = minres(system.apply, precon.apply_inverse, system.rhs)
    assert rep.stop == "converged"
    assert rep.final_true_relres <= 1e-8


def test_coarsest_level_assembles_and_solves():
    # one spatial interior function per direction: the smallest legal setup
    from saddleprec.krylov import random_start

    spec = ProblemSpec("wave", 2, 0, 1e-3)
    sp_ = build_spaces(spec)
    assert sp_.block_dim("y") == 3
    system = assemble_system(spec, sp_)
    precon = build_preconditioner(spec, sp_, system.blocks)
    x0 = random_start(system.dim, 1)
    _, rep = minres(lambda v: system.matrix @ v, precon.apply_inverse,
                    system.rhs, x0=x0)
    assert rep.converged
