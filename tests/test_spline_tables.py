"""The Gauss rules and basis tables each spline space keeps: bitwise the
per-call rule and element loop they replace, read-only, built once per key,
and gone with their space."""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddleprec import precond, splines, verify
from saddleprec.assembly import (
    BLOCK_FACTORS,
    FACTOR_SPACES,
    ProblemData,
    ProblemSpec,
    assemble_system,
    build_spaces,
    moments,
    system_blocks,
)
from saddleprec.kron import mode_products
from saddleprec.splines import (
    QuadratureRule,
    eval_basis_many,
    make_space,
    univariate_matrix,
)


# The reference: the rule and the Galerkin matrix as they were built before
# the spaces kept them, with a leggauss and two basis evaluations per call and
# one matmul per element.

def reference_gauss_rule(space, n_points=None, sub=None):
    if n_points is None:
        n_points = space.degree + 1
    q, w = np.polynomial.legendre.leggauss(n_points)
    edges = space.element_edges()
    pts = np.zeros((space.n_elements, n_points))
    wts = np.zeros((space.n_elements, n_points))
    for e in range(space.n_elements):
        x0, x1 = edges[e], edges[e + 1]
        if sub is not None:
            x0, x1 = max(x0, sub[0]), min(x1, sub[1])
            if x1 <= x0:
                pts[e] = edges[e]  # inert points, zero weight
                continue
        pts[e] = 0.5 * (x1 - x0) * q + 0.5 * (x0 + x1)
        wts[e] = 0.5 * (x1 - x0) * w
    return QuadratureRule(pts, wts)


def reference_univariate_matrix(row_space, col_space, d_row=0, d_col=0, sub=None):
    if not row_space.same_mesh(col_space):
        raise ValueError("row and column spaces must share interval and mesh")
    A = np.zeros((row_space.dim, col_space.dim))
    if sub is not None:
        sub = (max(sub[0], row_space.a), min(sub[1], row_space.b))
        if sub[1] <= sub[0]:
            return A
    n = max(row_space.degree, col_space.degree) + 1
    rule = reference_gauss_rule(row_space, n_points=n, sub=sub)
    er = eval_basis_many(row_space, rule.flat_points, d_row)
    ec = eval_basis_many(col_space, rule.flat_points, d_col)
    for e in range(row_space.n_elements):
        w = rule.weights[e]
        if not np.any(w):
            continue
        rows = slice(e * n, (e + 1) * n)
        A += er[rows].T @ (w[:, None] * ec[rows])
    if row_space is col_space and d_row == d_col:
        A = 0.5 * (A + A.T)  # bitwise symmetry, independent of BLAS ordering
    return A


def reference_moments(spaces, block, f, derivs=None, subs=None):
    n = len(BLOCK_FACTORS[block])
    rules, tables = [], []
    for name, d, sub in zip(BLOCK_FACTORS[block], derivs or (0,) * n,
                            subs or (None,) * n):
        space, restr = FACTOR_SPACES[name]
        space = getattr(spaces, space)
        rules.append(reference_gauss_rule(space, sub=sub))
        e = eval_basis_many(space, rules[-1].flat_points, d)
        tables.append((e if restr is None else e[:, getattr(spaces, restr)]).T)
    vals = np.asarray(f(*np.ix_(*(r.flat_points for r in rules))), dtype=float)
    w = math.prod(np.ix_(*(r.flat_weights for r in rules)))
    return mode_products(tables, (vals * w).ravel())


def reference_residual_on_grid(system, y_coef):
    spec, spaces = system.spec, system.spaces
    rules = [reference_gauss_rule(s) for s in (spaces.u_time, spaces.u_x, spaces.u_y)]
    pts = [r.flat_points for r in rules]
    wts = [r.flat_weights for r in rules]
    dt = 2 if spec.is_wave else 1

    def ev(space, x, d, restrict):
        e = eval_basis_many(space, x, d)
        return e[:, restrict] if restrict is not None else e

    et = [ev(spaces.y_time, pts[0], d, None) for d in (0, dt)]
    ex = [ev(spaces.y_x, pts[1], d, spaces.ix) for d in (0, 2)]
    ey = [ev(spaces.y_y, pts[2], d, spaces.iy) for d in (0, 2)]
    vals = mode_products((et[1], ex[0], ey[0]), y_coef)
    vals -= mode_products((et[0], ex[1], ey[0]), y_coef)
    vals -= mode_products((et[0], ex[0], ey[1]), y_coef)
    w3 = wts[0][:, None, None] * wts[1][None, :, None] * wts[2][None, None, :]
    return vals.reshape(w3.shape + np.shape(y_coef)[1:]), w3


def bitwise_equal(a, b):
    """Equal in shape and in every bit, the sign of zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_factor(spaces, row, col, d_row, d_col, sub):
    (row_space, row_idx), (col_space, col_idx) = FACTOR_SPACES[row], FACTOR_SPACES[col]
    mat = reference_univariate_matrix(getattr(spaces, row_space),
                                      getattr(spaces, col_space), d_row, d_col, sub)
    if row_idx is not None:
        mat = mat[getattr(spaces, row_idx), :]
    if col_idx is not None:
        mat = mat[:, getattr(spaces, col_idx)]
    return mat


OFF_MESH = ((0.3, 0.71), (0.1, 0.9))


@pytest.mark.parametrize("kind", ["heat", "wave"])
@pytest.mark.parametrize("degree", [2, 3, 4, 5])
def test_every_factor_is_bitwise_the_per_element_loop(kind, degree):
    # every factor key the system table, the setup and the trace Gram reach,
    # with the default omega and with one whose edges lie off the mesh lines
    for level in range(4):
        for omega in (ProblemSpec.omega, OFF_MESH):
            spec = ProblemSpec(kind, degree, level, 1e-3, omega=omega)
            spaces = build_spaces(spec)
            blocks = system_blocks(spec, spaces)
            precond.Setup(spec, spaces, blocks)
            precond.trace_form(spec, spaces)
            assert len(spaces._factors) >= 20
            for key, mat in spaces._factors.items():
                assert bitwise_equal(mat, reference_factor(spaces, *key)), key


def _data(kind):
    return ProblemData(
        d=lambda t, x, y: np.sin(3 * t + x) * y,
        g_u=lambda t, x, y: t * x * x + np.cos(y),
        y0=lambda x, y: x * (1 - x) * y * (1 - y),
        y0_grad=lambda x, y: ((1 - 2 * x) * y * (1 - y), x * (1 - x) * (1 - 2 * y)),
        y1=(lambda x, y: np.cos(x + 2 * y)) if kind == "wave" else None)


@pytest.mark.parametrize("kind", ["heat", "wave"])
def test_moments_and_the_residual_grid_are_bitwise_the_per_call_rule(kind):
    for degree, level in ((2, 2), (3, 1), (5, 0)):
        spec = ProblemSpec(kind, degree, level, 1e-3, omega=OFF_MESH)
        spaces = build_spaces(spec)
        data = _data(kind)
        cases = [("y", data.d, None, (None,) + OFF_MESH), ("p_u", data.g_u, None, None),
                 ("p_r1", lambda x, y: data.y0_grad(x, y)[0], (1, 0), None),
                 ("p_r1", lambda x, y: data.y0_grad(x, y)[1], (0, 1), None)]
        if kind == "wave":
            cases.append(("p_r2", data.y1, None, None))
        for block, f, derivs, subs in cases:
            assert bitwise_equal(moments(spaces, block, f, derivs, subs),
                                 reference_moments(spaces, block, f, derivs, subs))
        # and the right-hand side that reads them is nonzero in every block
        # but the control's, which no data enter
        system = assemble_system(spec, spaces, data)
        assert [n for n in spaces.block_names
                if not np.any(system.rhs[spaces.block_slice(n)])] == ["u"]
        y = np.random.default_rng(degree).standard_normal((spaces.block_dim("y"), 3))
        vals, w3 = verify.residual_on_grid(system, y)
        ref_vals, ref_w3 = reference_residual_on_grid(system, y)
        assert bitwise_equal(vals, ref_vals) and bitwise_equal(w3, ref_w3)


# Spaces on one mesh (interval and level), possibly of different degree and
# continuity, and clip intervals of every kind: none, empty, ending on an
# element edge, straddling elements, reaching beyond the interval.

@st.composite
def matrix_cases(draw):
    a, b = draw(st.sampled_from([(0.0, 1.0), (0.0, 10.0), (-1.0, 2.0)]))
    level = draw(st.integers(0, 4))

    def space():
        p = draw(st.integers(2, 5))
        return make_space(p, level, draw(st.integers(-1, p - 1)), a, b)

    row = space()
    col = row if draw(st.booleans()) else space()
    d_row = draw(st.integers(0, row.degree))
    d_col = d_row if col is row and draw(st.booleans()) else draw(
        st.integers(0, col.degree))
    edges = st.sampled_from(list(row.element_edges()))
    inside = st.floats(a, b)
    beyond = st.floats(a - (b - a), b + (b - a))
    kind = draw(st.sampled_from(["none", "empty", "edge", "straddle", "beyond"]))
    if kind == "none":
        sub = None
    elif kind == "empty":
        lo = draw(beyond)
        sub = draw(st.sampled_from([(lo, lo), (lo, lo - 1.0), (b, b + 1.0),
                                    (a - 1.0, a)]))
    else:
        ends = {"edge": (edges, edges), "straddle": (inside, inside),
                "beyond": (beyond, beyond)}[kind]
        sub = tuple(sorted((draw(ends[0]), draw(ends[1]))))
    return row, col, d_row, d_col, sub


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(matrix_cases())
def test_shared_table_matrix_is_bitwise_the_reference(case):
    row, col, d_row, d_col, sub = case
    ref = reference_univariate_matrix(row, col, d_row, d_col, sub)
    for _ in range(2):  # built, then from the spaces' cached tables
        mat = univariate_matrix(row, col, d_row, d_col, sub)
        assert bitwise_equal(mat, ref)
    if row is col and d_row == d_col:
        assert np.array_equal(mat, mat.T)


def test_cached_rules_and_tables_are_read_only():
    space = make_space(3, 2, 1)
    rule = space.rule(4, (0.25, 0.6))
    table = space.table(4, (0.25, 0.6), 1)
    assert space.rule(4, (0.25, 0.6)) is rule and space.table(4, (0.25, 0.6), 1) is table
    for array in (rule.points, rule.weights, rule.flat_points, table):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_a_space_dies_with_the_grid_that_holds_it():
    spec = ProblemSpec("wave", 2, 2, 1e-6)
    spaces = build_spaces(spec)
    system = assemble_system(spec, spaces, _data("wave"))
    setup = precond.Setup(spec, spaces, system.blocks)
    verify.residual_on_grid(system, np.ones(spaces.block_dim("y")))
    assert spaces.y_x._tables and spaces.u_time._rules
    refs = [weakref.ref(getattr(spaces, name))
            for name in ("y_time", "y_x", "y_y", "u_time", "u_x", "u_y")]
    del spaces, system, setup
    assert all(ref() is None for ref in refs)  # by reference counts alone


def test_a_setup_builds_each_rule_node_and_table_once(monkeypatch):
    # wave p=3 level 3: one leggauss per points-per-element, and each basis
    # evaluation on a rule (more than one point; an endpoint row has one) of
    # its own (space, rule, derivative), one BSpline each
    leggauss, bspline = np.polynomial.legendre.leggauss, splines.BSpline
    nodes, evaluations = [], []

    def counted_leggauss(n):
        nodes.append(n)
        return leggauss(n)

    def counted_bspline(t, c, k):
        spline = bspline(t, c, k)
        evaluations.append(None)

        def evaluate(x, nu=0):
            evaluations[-1] = (id(t), np.asarray(x).tobytes(), nu)
            return spline(x, nu=nu)
        return evaluate

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted_leggauss)
    monkeypatch.setattr(splines, "BSpline", counted_bspline)
    spec = ProblemSpec("wave", 3, 3, 1e-6)
    spaces = build_spaces(spec)
    precond.Setup(spec, spaces, system_blocks(spec, spaces))
    assert sorted(nodes) == sorted(set(nodes)) == [4]
    assert None not in evaluations  # each BSpline built is evaluated once
    on_rules = [e for e in evaluations if len(e[1]) > 8]
    assert len(on_rules) == len(set(on_rules))
    tables = sum(len(getattr(spaces, name)._tables)
                 for name in ("y_time", "y_x", "y_y", "u_time", "u_x", "u_y"))
    assert len(on_rules) == tables >= 10
