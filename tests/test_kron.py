"""Kronecker sums: materialization and planned application (of a vector or
its columns, also the columns of a transposed array) against dense products
and term-by-term mode products, tensor solves against per-factor Cholesky
and sparse direct solves."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import spsolve

from saddleprec import kron
from saddleprec.assembly import ProblemSpec, build_spaces, mass_solver, system_blocks
from saddleprec.kron import (
    KroneckerDiagonal,
    KroneckerMatrix,
    KroneckerSolver,
    mode_products,
)
from saddleprec.precond import Setup, state_residual_form, trace_form


def _rand_spd(rng, n):
    g = rng.standard_normal((n, n))
    return g.T @ g + n * np.eye(n)


def test_materialize_matches_dense_kron():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((2, 5))
    c = rng.standard_normal((4, 2))
    km = KroneckerMatrix()
    km.add(2.0, a, b, c)
    km.add(-0.5, a, b, c)
    dense = 1.5 * np.kron(np.kron(a, b), c)
    assert sp.issparse(km.materialize())
    assert km.materialize().shape == dense.shape == (3 * 2 * 4, 4 * 5 * 2)
    assert np.allclose(km.materialize().toarray(), dense, atol=1e-14)


def test_nonconforming_terms_rejected():
    km = KroneckerMatrix()
    km.add(1.0, np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        km.add(1.0, np.eye(2), np.eye(4))
    with pytest.raises(ValueError):
        km.add(1.0, np.eye(2), np.eye(3), np.eye(2))


@pytest.mark.parametrize("dims", [(4, 3), (3, 4, 5)])
def test_solver_matches_dense_solve(dims):
    rng = np.random.default_rng(1)
    factors = [_rand_spd(rng, n) for n in dims]
    solver = KroneckerSolver(factors)
    dense = factors[0]
    for f in factors[1:]:
        dense = np.kron(dense, f)
    r = rng.standard_normal(dense.shape[0])
    assert np.allclose(solver.solve(r), np.linalg.solve(dense, r), rtol=1e-10)


def test_solver_multiple_right_hand_sides():
    rng = np.random.default_rng(2)
    factors = [_rand_spd(rng, 3), _rand_spd(rng, 4)]
    solver = KroneckerSolver(factors)
    dense = np.kron(factors[0], factors[1])
    r = rng.standard_normal((12, 7))
    assert np.allclose(solver.solve(r), np.linalg.solve(dense, r), rtol=1e-10)


def test_solver_rejects_rectangular_factor():
    with pytest.raises(ValueError):
        KroneckerSolver([np.ones((2, 3))])


def _dense(factors):
    out = np.ones((1, 1))
    for f in factors:
        out = np.kron(out, f)
    return out


# factor shapes per term: square, rectangular (wide and tall), and 1 x n rows
# (the shape of the endpoint-row trace factors) in each mode position
APPLY_SHAPES = [
    [(5, 5)],
    [(3, 7)],
    [(4, 6), (5, 3)],
    [(1, 6), (4, 4)],
    [(6, 4), (3, 5), (4, 2)],
    [(2, 5), (1, 4), (3, 3)],
    [(3, 3), (4, 2), (1, 5)],
    [(1, 4), (1, 3), (5, 2)],
]


@pytest.mark.parametrize("shapes", APPLY_SHAPES,
                         ids=["x".join(f"{m}-{n}" for m, n in s)
                              for s in APPLY_SHAPES])
def test_apply_matches_materialize_and_dense_kron(shapes):
    rng = np.random.default_rng(3)
    km = KroneckerMatrix()
    dense = 0.0
    for weight in (1.0, -0.75, 2.5):
        factors = [rng.standard_normal(s) for s in shapes]
        km.add(weight, *factors)
        dense = dense + weight * _dense(factors)
    x = rng.standard_normal(dense.shape[1])
    scale = np.abs(dense).sum(axis=1).max() * np.abs(x).max()
    assert km.apply(x).shape == (dense.shape[0],)
    assert np.max(np.abs(km.apply(x) - km.materialize() @ x)) <= 1e-14 * scale
    assert np.max(np.abs(km.apply(x) - dense @ x)) <= 1e-14 * scale
    cols = rng.standard_normal((dense.shape[1], 3))
    assert np.allclose(km.apply(cols), dense @ cols, rtol=0, atol=1e-14 * scale * 3)
    z = rng.standard_normal(dense.shape[0])
    assert np.allclose(km.T.apply(z), dense.T @ z, rtol=0,
                       atol=1e-14 * np.abs(dense).sum(axis=0).max() * np.abs(z).max())
    rows = rng.standard_normal((3, dense.shape[1]))
    transposed = km.apply(rows.T).T
    assert transposed.shape == (3, dense.shape[0])
    assert np.allclose(transposed, rows @ dense.T, rtol=0, atol=1e-14 * scale * 3)


def _per_term(km, x):
    """The sum term by term, one chain of mode products per term: the
    plan's oracle."""
    return sum(t.weight * mode_products(t.factors, x) for t in km.terms)


def _shared_sums(kind, p, lev):
    """Sums whose terms share first or last factors: the residual Gram, the
    rotated K_U (its shared factors rotated once) and its transpose (shared
    transposed views), the initial-trace Gram and K_R1."""
    spec = ProblemSpec(kind, p, lev, 1e-3)
    spaces = build_spaces(spec)
    blocks = system_blocks(spec, spaces)
    k_u = Setup(spec, spaces, blocks).k_u
    return {"G": state_residual_form(spec, spaces), "K_U": k_u, "K_U'": k_u.T,
            "trace": trace_form(spec, spaces), "K_R1": blocks["p_r1", "y"]}


@pytest.mark.parametrize("lev", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_plan_matches_per_term_mode_products_and_dense_kron(kind, p, lev):
    # the plan stacks the distinct first and last factors and folds weights
    # and middle factors into one block matrix, in either mode order; on
    # vectors, trailing columns and the columns of a transpose it agrees
    # with the term-by-term sum and the dense product to the tolerance of
    # test_apply_matches_materialize_and_dense_kron
    rng = np.random.default_rng(7)
    orders = set()
    for name, km in _shared_sums(kind, p, lev).items():
        firsts = kron._distinct([t.factors[0] for t in km.terms])[0]
        lasts = kron._distinct([t.factors[-1] for t in km.terms])[0]
        assert min(len(firsts), len(lasts)) < len(km.terms), name
        dense = sum(t.weight * _dense(t.factors) for t in km.terms)
        rowsum = np.abs(dense).sum(axis=1).max()
        x = rng.standard_normal(dense.shape[1])
        cols = rng.standard_normal((dense.shape[1], 3))
        rows = rng.standard_normal((2, dense.shape[1]))
        for got, ref, oracle, arg in (
                (km.apply(x), dense @ x, _per_term(km, x), x),
                (km.apply(cols), dense @ cols, _per_term(km, cols), cols),
                (km.apply(rows.T).T, rows @ dense.T, _per_term(km, rows.T).T,
                 rows)):
            assert got.shape == ref.shape == oracle.shape, name
            tol = 1e-14 * rowsum * np.abs(arg).max()
            assert np.max(np.abs(got - ref)) <= tol, name
            assert np.max(np.abs(got - oracle)) <= tol, name
        orders.add(km._plan.first_mode)
    # K_U runs from the first mode and K_U' from the last, so both orders ran
    assert orders == {True, False}


def test_add_after_apply_drops_the_plan():
    rng = np.random.default_rng(8)
    a, b, c = (rng.standard_normal((3, 3)) for _ in range(3))
    km = KroneckerMatrix().add(1.0, a, b, c)
    x = rng.standard_normal(27)
    before = km.apply(x)
    km.add(-2.0, a, c, b)
    dense = _dense((a, b, c)) - 2.0 * _dense((a, c, b))
    tol = 1e-14 * np.abs(dense).sum(axis=1).max() * np.abs(x).max()
    assert np.max(np.abs(km.apply(x) - dense @ x)) <= tol
    assert not np.allclose(km.apply(x), before)


def test_transpose_is_built_once_and_add_drops_it():
    # every caller of T shares one transposed sum, whose T is the sum; an
    # add to either side drops the pair, and the next T has the new term
    rng = np.random.default_rng(9)
    a, b, c = (rng.standard_normal((3, 4)) for _ in range(3))
    km = KroneckerMatrix().add(1.0, a, b, c)
    km_t = km.T
    assert km.T is km_t and km_t.T is km
    x = rng.standard_normal(27)
    km.add(-2.0, b, c, a)
    assert km.T is not km_t and km.T.T is km and km_t.T is not km
    dense = _dense((a, b, c)) - 2.0 * _dense((b, c, a))
    tol = 1e-14 * np.abs(dense).sum(axis=0).max() * np.abs(x).max()
    assert np.max(np.abs(km.T.apply(x) - dense.T @ x)) <= tol
    km_t = km.T
    km_t.add(1.0, a.T, b.T, c.T)
    assert km.T is not km_t and km.T.T is km and len(km.T.terms) == 2


def test_plan_refuses_more_than_three_factors():
    km = KroneckerMatrix().add(1.0, *[np.eye(2)] * 4)
    assert km.materialize().shape == (16, 16)
    with pytest.raises(ValueError, match="one to three factors"):
        km.apply(np.ones(16))


MASS_FACTORS = {"u": ("u_time", "u_x", "u_y"), "p_r2": ("r2_x", "r2_y")}


def _cholesky_solve(factors, r):
    """Solve with the Kronecker product of SPD factors one mode at a time,
    each by `cho_solve` on the unfolding that leads with that mode."""
    x = r.reshape(tuple(len(f) for f in factors) + r.shape[1:])
    for k, f in enumerate(factors):
        lead = np.moveaxis(x, k, 0)
        x = np.moveaxis(cho_solve(cho_factor(f), lead.reshape(len(f), -1))
                        .reshape(lead.shape), 0, k)
    return x.reshape(r.shape)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
@pytest.mark.parametrize("block", ["u", "p_r2"], ids=["u", "r2"])
def test_solver_matches_spsolve_on_spline_masses(block, p):
    # per-factor Cholesky solves at levels 1-3; spsolve at level 2 and p <= 4
    # only: at p=4 level 1 the tensor mass has condition 2.3e6, and spsolve
    # itself is off by 2.6e-12 there, while per-factor Cholesky solves agree
    # with the inverse to 3e-16
    for lev in (1, 2, 3):
        spaces = build_spaces(ProblemSpec("wave", p, lev, 1e-3))
        solver = mass_solver(spaces, block)
        factors = [spaces.factor(n, n) for n in MASS_FACTORS[block]]
        mass = KroneckerMatrix().add(1.0, *factors).materialize().tocsc()
        rng = np.random.default_rng(5 + p)
        r = rng.standard_normal(mass.shape[0])
        cols = rng.standard_normal((mass.shape[0], 4))
        oracles = [_cholesky_solve]
        if lev == 2 and p <= 4:
            oracles.append(lambda _, rhs: spsolve(mass, rhs))
        for rhs in (r, cols):
            got = solver.solve(rhs)
            assert got.shape == rhs.shape
            for oracle in oracles:
                ref = oracle(factors, rhs)
                assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_kronecker_diagonal_is_the_kron_of_its_diagonals():
    rng = np.random.default_rng(42)
    diags = [rng.uniform(0.5, 2.0, n) for n in (3, 4, 5)]
    dense = np.diag(np.kron(np.kron(diags[0], diags[1]), diags[2]))
    kd = KroneckerDiagonal(*diags)
    # the square block of columns is the shape a column-wise quotient passes
    for x in (rng.standard_normal(60), rng.standard_normal((60, 3)),
              rng.standard_normal((60, 60))):
        assert np.allclose(kd.apply(x), dense @ x, rtol=1e-15, atol=0)
        assert np.allclose(kd.solve(x), np.linalg.solve(dense, x), rtol=1e-14, atol=0)
    # with op=np.add, the Kronecker sum of the diagonal factors
    d, i = [np.diag(x) for x in diags], [np.eye(len(x)) for x in diags]
    dense = (np.kron(np.kron(d[0], i[1]), i[2]) + np.kron(np.kron(i[0], d[1]), i[2])
             + np.kron(np.kron(i[0], i[1]), d[2]))
    kd = KroneckerDiagonal(*diags, op=np.add)
    assert np.allclose(np.diag(dense), kd.diagonal, rtol=1e-15, atol=0)
