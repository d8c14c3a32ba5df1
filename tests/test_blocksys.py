"""Block-tridiagonal laboratory: assembly, kernels, constant round trips."""

import numpy as np
import pytest

from saddleprec.blocksys import (
    BlockTridiagonalSystem,
    assemble_full,
    c_from_gamma,
    gamma_from_c,
    kernel_equality_check,
    measure_c,
    measure_gamma,
    phi_min,
    random_spd_blocks,
    random_system,
    split_D_B,
)


def _sys_1x1(diag_vals, off_vals):
    return BlockTridiagonalSystem(
        [np.array([[v]]) for v in diag_vals],
        [np.array([[v]]) for v in off_vals],
    )


def test_assemble_sign_pattern_n2():
    sys_ = _sys_1x1([1.0, 1.0], [0.0])
    assert np.array_equal(assemble_full(sys_), np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_assemble_n3_scalar_blocks():
    a = [1.5, 2.5, 0.5]
    b = [0.7, -1.2]
    sys_ = _sys_1x1(a, b)
    expect = np.array([
        [a[0], b[0], 0.0],
        [b[0], -a[1], b[1]],
        [0.0, b[1], a[2]],
    ])
    assert np.array_equal(assemble_full(sys_), expect)


def test_assemble_matches_index_loop_oracle():
    rng = np.random.default_rng(11)
    sys_ = random_system(rng, 4, [2, 3, 1, 2])
    full = assemble_full(sys_)
    offs = sys_.offsets()
    # brute-force index-loop assembler
    oracle = np.zeros_like(full)
    for i, a in enumerate(sys_.diag):
        for r in range(a.shape[0]):
            for c in range(a.shape[1]):
                oracle[offs[i] + r, offs[i] + c] = (-1.0) ** i * a[r, c]
    for i, b in enumerate(sys_.off):
        for r in range(b.shape[0]):
            for c in range(b.shape[1]):
                oracle[offs[i + 1] + r, offs[i] + c] = b[r, c]
                oracle[offs[i] + c, offs[i + 1] + r] = b[r, c]
    assert np.array_equal(full, oracle)
    assert np.array_equal(full, full.T)


def test_split_and_reconstruct():
    sys_ = _sys_1x1([1.0, 1.0], [0.0])
    d, b = split_D_B(sys_)
    assert np.array_equal(d, np.eye(2))
    assert not b.any()

    a_vals, b_vals = [1.0, 2.0, 3.0], [4.0, 5.0]
    sys3 = _sys_1x1(a_vals, b_vals)
    d, b = split_D_B(sys3)
    assert np.array_equal(d, np.diag(a_vals))
    assert np.array_equal(
        b, np.array([[0, 4, 0], [4, 0, 5], [0, 5, 0]], dtype=float))

    rng = np.random.default_rng(5)
    sysr = random_system(rng, 3, [2, 2, 3])
    d, b = split_D_B(sysr)
    signed_d = d.copy()
    offs = sysr.offsets()
    for i in range(sysr.n):
        signed_d[offs[i]:offs[i + 1], offs[i]:offs[i + 1]] *= (-1.0) ** i
    assert np.array_equal(assemble_full(sysr), signed_d + b)


def test_shape_validation():
    with pytest.raises(ValueError):
        BlockTridiagonalSystem([np.eye(2), np.eye(2)],
                               [np.ones((3, 2))])  # wrong row count
    with pytest.raises(ValueError):
        BlockTridiagonalSystem([np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)],
                               [np.eye(2)])  # nonsymmetric diagonal
    with pytest.raises(ValueError):
        BlockTridiagonalSystem([-np.eye(2), np.eye(2)], [np.eye(2)])  # indefinite


def _tilde(v, dims):
    """x -> x~: segment i of v times (-1)^i."""
    return np.repeat([(-1.0) ** i for i in range(len(dims))], dims) * v


def test_tilde_involution_and_identity():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(_tilde(x, [1, 2, 1]), [1.0, -2.0, -3.0, 4.0])
    assert np.array_equal(_tilde(_tilde(x, [1, 2, 1]), [1, 2, 1]), x)

    # <A x, x~> = <D x, x> on random instances (Theorem 2.2)
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        dims = rng.integers(1, 5, size=n)
        sys_ = random_system(rng, n, dims)
        full = assemble_full(sys_)
        d, _ = split_D_B(sys_)
        v = rng.standard_normal(sys_.total_dim)
        lhs = (full @ v) @ _tilde(v, dims)
        rhs = (d @ v) @ v
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_kernel_equality_trivial_cases():
    n = 3
    zero = _sys_1x1([0.0] * n, [0.0] * (n - 1))
    chk = kernel_equality_check(zero)
    assert chk.equal and chk.dim_full == n

    # crafted instance: ker A = span{(0,1,0)}
    sys_ = BlockTridiagonalSystem(
        [np.diag([1.0, 0.0]), np.zeros((1, 1))],
        [np.array([[1.0, 0.0]])],
    )
    chk = kernel_equality_check(sys_)
    assert chk.equal and chk.dim_full == 1 and chk.max_angle <= 1e-8


def test_kernel_equality_random_instances():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        dims = rng.integers(1, 5, size=n)
        sys_ = random_system(rng, n, dims, rank_deficient=True)
        chk = kernel_equality_check(sys_)
        if chk.indeterminate:
            continue  # ambiguous rank decision is reported, not failed
        checked += 1
        assert chk.equal, f"kernel mismatch, angle {chk.max_angle}"
    assert checked >= 90


def test_gamma_from_c_values():
    assert gamma_from_c(1.0, 1.0) == pytest.approx((0.5, 5.0))
    lo, hi = gamma_from_c(0.5, 2.0)
    assert lo == pytest.approx(0.25 / 3.0)
    assert hi == pytest.approx(18.0)
    for c in (0.1, 1.0, 7.3):
        lo, hi = gamma_from_c(c, c)
        assert lo <= hi
    with pytest.raises(ValueError):
        gamma_from_c(0.0, 1.0)
    with pytest.raises(ValueError):
        gamma_from_c(2.0, 1.0)


def test_c_from_gamma_values():
    lo, hi = c_from_gamma(1.0, 1.0)
    assert lo == pytest.approx(0.145)
    assert hi == pytest.approx(np.sqrt(2.0))
    lo, hi = c_from_gamma(0.5, 5.0)
    assert lo == pytest.approx(0.29 * 0.25 / 5.0)
    assert hi == pytest.approx(np.sqrt(30.0))
    # large gamma: the ratio c_lo/c_hi collapses
    lo, hi = c_from_gamma(1e3, 1e3)
    assert lo / hi < 1e-3
    with pytest.raises(ValueError):
        c_from_gamma(-1.0, 1.0)


def test_measure_c_basic():
    ident = BlockTridiagonalSystem([np.eye(1), np.eye(1)], [np.zeros((1, 1))])
    p = [np.eye(1), np.eye(1)]
    assert measure_c(ident, p) == pytest.approx((1.0, 1.0))

    scaled = BlockTridiagonalSystem([2 * np.eye(1), 2 * np.eye(1)],
                                    [np.zeros((1, 1))])
    assert measure_c(scaled, p) == pytest.approx((2.0, 2.0))


def test_measure_c_brackets_samples():
    rng = np.random.default_rng(9)
    sys_ = random_system(rng, 3, [2, 3, 2])
    blocks = random_spd_blocks(rng, [2, 3, 2])
    c_lo, c_hi = measure_c(sys_, blocks)
    from scipy.linalg import block_diag, cholesky
    p = block_diag(*blocks)
    full = assemble_full(sys_)
    # sampled dual-norm ratios must lie inside the measured bracket
    l = cholesky(p, lower=True)
    for _ in range(1000):
        x = rng.standard_normal(sys_.total_dim)
        ax = full @ x
        num = np.sqrt(ax @ np.linalg.solve(p, ax))
        den = np.sqrt(x @ p @ x)
        ratio = num / den
        assert c_lo - 1e-10 <= ratio <= c_hi + 1e-10


def test_measure_gamma_basic():
    ident = BlockTridiagonalSystem([np.eye(1), np.eye(1)], [np.zeros((1, 1))])
    p = [np.eye(1), np.eye(1)]
    assert measure_gamma(ident, p) == pytest.approx((1.0, 1.0))

    # A_i = 0, B = 1: D + B P^{-1} B = [[1, 0], [0, 1]] by hand
    coupled = BlockTridiagonalSystem([np.zeros((1, 1)), np.zeros((1, 1))],
                                     [np.ones((1, 1))])
    assert measure_gamma(coupled, p) == pytest.approx((1.0, 1.0))


def test_measure_rejects_bad_inner_products():
    sys_ = _sys_1x1([1.0, 1.0], [0.5])
    with pytest.raises(ValueError):
        measure_c(sys_, [np.zeros((1, 1)), np.eye(1)])
    with pytest.raises(ValueError):
        measure_gamma(sys_, [np.eye(1)])
    # definite only to roundoff relative to its norm: refused, as
    # spectral.SchurInstance refuses it, not measured as c_hi = 1e14
    sys2 = BlockTridiagonalSystem([np.eye(2), np.eye(2)], [np.eye(2)])
    near_singular = [np.diag([1.0, 1e-14]), np.eye(2)]
    for measure in (measure_c, measure_gamma):
        with pytest.raises(ValueError, match="not positive definite"):
            measure(sys2, near_singular)


def _roundtrip_instances(count, seed):
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        n = int(rng.integers(2, 5))
        dims = rng.integers(1, 5, size=n)
        sys_ = random_system(rng, n, dims)
        blocks = random_spd_blocks(rng, dims)
        c_lo, c_hi = measure_c(sys_, blocks)
        if c_lo <= 1e-8 * c_hi:
            continue  # near-singular draw; the bracketing needs c_lo > 0
        made += 1
        yield sys_, blocks, c_lo, c_hi


def test_constant_round_trips():
    for sys_, blocks, c_lo, c_hi in _roundtrip_instances(100, seed=2024):
        g_lo, g_hi = measure_gamma(sys_, blocks)
        # forward: constants derived from measured c bracket measured gamma
        gd_lo, gd_hi = gamma_from_c(c_lo, c_hi)
        assert gd_lo <= g_lo * (1 + 1e-10)
        assert g_hi <= gd_hi * (1 + 1e-10)
        # reverse: constants derived from measured gamma bracket measured c
        cd_lo, cd_hi = c_from_gamma(g_lo, g_hi)
        assert cd_lo <= c_lo * (1 + 1e-10)
        assert c_hi <= cd_hi * (1 + 1e-10)


def test_phi_min_bound():
    val = phi_min()
    # independent oracle: brute force over the quarter circle (kink at the
    # minimizer limits the grid accuracy to about the step size)
    x = np.linspace(0.0, 1.0, 2000001)
    y = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    phi = np.maximum(np.abs(y - x), x * x)
    i = phi.argmin()
    assert val == pytest.approx(phi[i], abs=1e-5)
    assert x[i] == pytest.approx(0.5437, abs=1e-3)
    assert 0.29 <= val <= 0.30
    # endpoints of the arc
    assert max(abs(1.0 - 0.0), 0.0) == 1.0
    assert max(abs(0.0 - 1.0), 1.0) == 1.0
