"""Univariate spline spaces: dimensions, basis properties, Galerkin matrices."""

import math

import numpy as np
import pytest

from saddleprec.splines import (
    dimension,
    endpoint_row,
    eval_basis,
    eval_basis_many,
    gauss_rule,
    h10_restriction,
    make_space,
    univariate_matrix,
)


def test_dimension_formula_matches_knot_count():
    for p in range(5):
        for level in range(6):
            for k in range(-1, p):
                s = make_space(p, level, k)
                # the basis count implied by the knot vector is the oracle
                assert s.dim == len(s.knots) - p - 1
                assert s.dim == dimension(p, level, k)


def test_known_dimensions():
    assert make_space(2, 2, 1).dim == 6
    assert make_space(2, 2, -1).dim == 12  # 3 polynomials per element x 4 elements
    assert make_space(3, 2, 0).dim == 13
    # maximal continuity: 2^level + p
    assert make_space(3, 5, 2).dim == 2**5 + 3


def test_parameter_validation():
    with pytest.raises(ValueError):
        make_space(2, 2, 2)  # continuity above degree - 1
    with pytest.raises(ValueError):
        make_space(2, 2, -2)
    with pytest.raises(ValueError):
        make_space(-1, 2, 0)
    with pytest.raises(ValueError):
        make_space(2, 2, 1, 1.0, 0.0)  # empty interval


def test_partition_of_unity_and_derivative_sums():
    rng = np.random.default_rng(3)
    for p, level, k in [(2, 2, 1), (3, 3, 0), (2, 1, -1), (4, 2, 3)]:
        s = make_space(p, level, k, 0.0, 2.0)
        x = rng.uniform(0.0, 2.0, size=40)
        vals = eval_basis_many(s, x, 0)
        assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-12)
        if p >= 1:
            dvals = eval_basis_many(s, x, 1)
            assert np.max(np.abs(dvals.sum(axis=1))) < 1e-9


def test_endpoint_interpolation():
    s = make_space(2, 2, 1)
    v = eval_basis(s, 0.0)
    assert v[0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(v[1:])) < 1e-14
    v = eval_basis(s, 1.0)
    assert v[-1] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(v[:-1])) < 1e-14


def test_eval_domain_and_order_errors():
    s = make_space(2, 2, 1)
    with pytest.raises(ValueError):
        eval_basis(s, -0.1)
    with pytest.raises(ValueError):
        eval_basis(s, 1.1)
    with pytest.raises(ValueError):
        eval_basis(s, 0.5, d=3)


def test_endpoint_first_derivative_row():
    # first interior knot at 1/4: derivative row is p/(t_{p+1}-t_1) differences
    s = make_space(2, 2, 1)
    row = endpoint_row(s, "a", 1)
    expect = np.zeros(6)
    expect[0], expect[1] = -8.0, 8.0
    assert np.allclose(row, expect, atol=1e-12)
    # derivative row applied to the constant-1 spline coefficient vector
    assert endpoint_row(s, "a", 0) @ np.ones(6) == pytest.approx(1.0)


def test_h10_restriction():
    s = make_space(2, 2, 1)
    idx = h10_restriction(s)
    assert list(idx) == [1, 2, 3, 4]
    s3 = make_space(3, 2, 2)
    assert len(h10_restriction(s3)) == 5
    # restricted basis vanishes at both endpoints
    for x in (s.a, s.b):
        assert np.max(np.abs(eval_basis(s, x)[idx])) < 1e-14
    with pytest.raises(ValueError):
        h10_restriction(make_space(2, 2, -1))


def test_quadrature_exactness_against_monomials():
    for p in (1, 2, 3, 4):
        s = make_space(p, 2, p - 1, 0.25, 1.75)
        rule = gauss_rule(s)
        assert np.all(rule.flat_weights > 0)
        for k in range(2 * p + 2):
            exact = (s.b ** (k + 1) - s.a ** (k + 1)) / (k + 1)
            approx = rule.flat_weights @ rule.flat_points**k
            assert approx == pytest.approx(exact, rel=1e-13)


def test_single_constant_mass():
    s = make_space(0, 0, -1)
    m = univariate_matrix(s, s, 0, 0)
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(1.0, rel=1e-14)


def test_hat_function_stiffness():
    # piecewise linear hats on two elements of (0,1): hand-integrated stiffness
    s = make_space(1, 1, 0)
    k = univariate_matrix(s, s, 1, 1)
    expect = np.array([[2.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 2.0]])
    assert np.allclose(k, expect, atol=1e-13)


def test_mass_row_sums_are_basis_integrals():
    s = make_space(3, 3, 1, 0.0, 2.5)
    m = univariate_matrix(s, s, 0, 0)
    # row sums = integral of each basis function (partition of unity);
    # independent oracle: direct quadrature of each basis function
    rule = gauss_rule(s)
    vals = eval_basis_many(s, rule.flat_points, 0)
    integrals = vals.T @ rule.flat_weights
    assert np.allclose(m.sum(axis=1), integrals, atol=1e-13)
    assert m.sum() == pytest.approx(2.5, rel=1e-13)


def test_mass_spd_and_stiffness_kernel():
    for p, k in [(2, 1), (3, 0), (2, -1)]:
        s = make_space(p, 2, k)
        m = univariate_matrix(s, s, 0, 0)
        evm = np.linalg.eigvalsh(m)
        assert evm[0] > 0
        if k >= 0:
            st = univariate_matrix(s, s, 1, 1)
            evs = np.linalg.eigvalsh(st)
            assert evs[0] > -1e-12 * evs[-1]
            # kernel = constants only
            assert np.sum(evs < 1e-10 * evs[-1]) == 1
            assert np.max(np.abs(st @ np.ones(s.dim))) < 1e-12


def test_integration_by_parts_identity():
    # int u' v = [u v] - int u v' assembled from matrices and endpoint rows
    s = make_space(3, 2, 2, 0.0, 1.0)
    a10 = univariate_matrix(s, s, 1, 0)
    a01 = univariate_matrix(s, s, 0, 1)
    ra = endpoint_row(s, "a", 0)
    rb = endpoint_row(s, "b", 0)
    boundary = np.outer(rb, rb) - np.outer(ra, ra)
    assert np.max(np.abs(a10 + a01 - boundary)) < 1e-12


def test_clipped_matrix():
    s = make_space(2, 2, 1)
    full = univariate_matrix(s, s, 0, 0)
    clipped_full = univariate_matrix(s, s, 0, 0, sub=(0.0, 1.0))
    assert np.allclose(clipped_full, full, atol=1e-15)

    sub = (0.25, 0.75)
    clip = univariate_matrix(s, s, 0, 0, sub=sub)
    # knot-aligned: equals the sum of the two middle per-element contributions
    oracle = np.zeros_like(full)
    rule = gauss_rule(s)
    for e in (1, 2):
        vals = eval_basis_many(s, rule.points[e], 0)
        oracle += vals.T @ (rule.weights[e][:, None] * vals)
    assert np.allclose(clip, oracle, atol=1e-14)
    # total clipped mass against the partition of unity
    assert np.ones(s.dim) @ clip @ np.ones(s.dim) == pytest.approx(0.5, rel=1e-13)

    empty = univariate_matrix(s, s, 0, 0, sub=(2.0, 3.0))
    assert not empty.any()


def test_mismatched_meshes_rejected():
    a = make_space(2, 2, 1)
    b = make_space(2, 3, 1)
    with pytest.raises(ValueError):
        univariate_matrix(a, b, 0, 0)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_derivatives_reproduce_monomial(p):
    # independent oracle: x^p lies in every degree-p spline space, so its
    # coefficients fitted from values alone must give the exact derivatives
    # p!/(p-d)! x^(p-d), discontinuous spaces and every order d included
    rng = np.random.default_rng(8 + p)
    for level in (0, 2, 3):
        for k in range(-1, p):
            s = make_space(p, level, k, 0.5, 2.0)
            rule = gauss_rule(s)
            fit_x = rule.flat_points
            coef = np.linalg.lstsq(eval_basis_many(s, fit_x, 0), fit_x**p,
                                   rcond=None)[0]
            x = np.concatenate([rng.uniform(s.a, s.b, size=40),
                                s.element_edges()])
            for d in range(p + 1):
                expect = math.factorial(p) / math.factorial(p - d) * x ** (p - d)
                got = eval_basis_many(s, x, d) @ coef
                assert np.abs(got - expect).max() <= 1e-8 * np.abs(expect).max(), \
                    (p, level, k, d)


def test_cross_space_matrix_symmetric_pairing():
    # rows in the low-continuity space, columns in the smooth space
    smooth = make_space(2, 2, 1)
    rough = make_space(2, 2, -1)
    cross = univariate_matrix(rough, smooth, 0, 2)
    assert cross.shape == (12, 6)
    # oracle: direct quadrature entry by entry
    rule = gauss_rule(smooth)
    er = eval_basis_many(rough, rule.flat_points, 0)
    ec = eval_basis_many(smooth, rule.flat_points, 2)
    oracle = er.T @ (rule.flat_weights[:, None] * ec)
    assert np.allclose(cross, oracle, atol=1e-13)
