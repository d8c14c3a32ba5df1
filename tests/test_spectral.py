"""Schur-complement and block-diagonal equivalence oracles, n-block conditions."""

import numpy as np
import pytest
from scipy.linalg import block_diag, eigh

from saddleprec.blocksys import (
    measure_gamma,
    random_spd_blocks,
    random_system,
)
from saddleprec.spectral import (
    Block2x2Instance,
    SchurInstance,
    block2x2_equivalence_check,
    check_condition_n,
    domination_equivalence,
    schur_sup_identity,
)


def _spd(rng, n, shift=1.0):
    g = rng.standard_normal((n, n))
    return g.T @ g + shift * np.eye(n)


def test_sup_identity_zero_coupling():
    inst = SchurInstance(np.eye(3), np.zeros((2, 3)), np.eye(2))
    assert schur_sup_identity(inst, np.array([1.0, -2.0])) == (0.0, 0.0)


def test_sup_identity_identity_operators():
    inst = SchurInstance(np.eye(3), np.eye(3), np.eye(3))
    q = np.array([1.0, 2.0, -1.0])
    lhs, rhs = schur_sup_identity(inst, q)
    assert lhs == pytest.approx(q @ q, rel=1e-14)
    assert rhs == pytest.approx(q @ q, rel=1e-14)


def test_sup_identity_random_with_sampling():
    rng = np.random.default_rng(12)
    inst = SchurInstance(_spd(rng, 3), rng.standard_normal((2, 3)), np.eye(2))
    q = rng.standard_normal(2)
    lhs, rhs = schur_sup_identity(inst, q)
    assert abs(lhs - rhs) <= 1e-10 * lhs
    # sampled Rayleigh quotients never exceed the analytic supremum
    best = 0.0
    for _ in range(100000):
        v = rng.standard_normal(3)
        best = max(best, (inst.b @ v @ q) ** 2 / (v @ inst.a @ v))
    assert best <= lhs * (1 + 1e-10)
    assert best >= 0.99 * lhs  # the sampler gets close in 3 dimensions


def test_sup_identity_validates_spd():
    with pytest.raises(ValueError):
        SchurInstance(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ValueError):
        SchurInstance(np.eye(2), np.zeros((3, 2)), -np.eye(3))


def test_domination_trivial_cases():
    inst = SchurInstance(np.eye(2), np.zeros((2, 2)), np.eye(2))
    assert domination_equivalence(inst) == (True, True)
    inst = SchurInstance(np.eye(2), 2.0 * np.eye(2), np.eye(2))
    assert domination_equivalence(inst) == (False, False)


def test_domination_flags_agree_on_random_instances():
    rng = np.random.default_rng(13)
    for _ in range(100):
        nv, nq = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        inst = SchurInstance(_spd(rng, nv), rng.standard_normal((nq, nv)),
                             _spd(rng, nq))
        f, b = domination_equivalence(inst)
        assert f == b


def test_domination_near_boundary():
    # scale C so that B A^{-1} B' <= C holds with equality in one direction
    rng = np.random.default_rng(14)
    for _ in range(20):
        nv, nq = 4, 3
        a = _spd(rng, nv)
        b = rng.standard_normal((nq, nv))
        s = b @ np.linalg.solve(a, b.T)
        lam = eigh(s, eigvals_only=True)[-1]
        c = lam * np.eye(nq)  # touches the bound in the top eigendirection
        f, bwd = domination_equivalence(SchurInstance(a, b, c))
        assert f == bwd
        assert f  # equality counts as domination within tolerance


def test_block2x2_identity_and_decoupled():
    inst = Block2x2Instance(np.eye(2), np.zeros((2, 3)), np.eye(3),
                            np.eye(2), np.eye(3))
    cond, direct = block2x2_equivalence_check(inst)
    for lo, hi in cond:
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)
    assert direct == (pytest.approx(1.0), pytest.approx(1.0))

    rng = np.random.default_rng(15)
    m11, m22 = _spd(rng, 2), _spd(rng, 3)
    inst = Block2x2Instance(m11, np.zeros((2, 3)), m22, m11, m22)
    cond, direct = block2x2_equivalence_check(inst)
    for lo, hi in cond:
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)


def test_block2x2_canonical_correlation_identity():
    # D = block diagonal of M: conditions 1-2 are exact, condition 3 reads
    # 1 - rho^2, and the direct bounds are 1 -+ rho (largest canonical
    # correlation rho), so min*max of the direct bounds equals condition 3.
    rng = np.random.default_rng(16)
    for _ in range(50):
        nv, nq = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        m = _spd(rng, nv + nq, shift=0.1)
        inst = Block2x2Instance(m[:nv, :nv], m[:nv, nv:], m[nv:, nv:],
                                m[:nv, :nv], m[nv:, nv:])
        cond, direct = block2x2_equivalence_check(inst)
        assert cond[0] == (pytest.approx(1.0), pytest.approx(1.0))
        assert cond[1] == (pytest.approx(1.0), pytest.approx(1.0))
        lo, hi = direct
        rho = max(abs(1.0 - lo), abs(hi - 1.0))
        assert cond[2][0] == pytest.approx(1.0 - rho**2, rel=1e-10, abs=1e-12)
        assert lo * hi == pytest.approx(cond[2][0], rel=1e-9, abs=1e-12)


def test_block2x2_requires_spd():
    with pytest.raises(ValueError):
        Block2x2Instance(np.eye(2), 10 * np.ones((2, 2)), np.eye(2),
                         np.eye(2), np.eye(2))


def test_condition_n2_hand_case():
    from saddleprec.blocksys import BlockTridiagonalSystem

    sys_ = BlockTridiagonalSystem([np.zeros((1, 1)), np.zeros((1, 1))],
                                  [np.ones((1, 1))])
    bounds = check_condition_n(sys_, [np.eye(1), np.eye(1)])
    assert len(bounds) == 2
    for lo, hi in bounds:
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(1.0)


def test_condition_n2_recovers_two_block_formulas():
    # the two conditions must be the generalized spectra of
    # A1 + B1' P2^{-1} B1 vs P1 and A2 + B1 P1^{-1} B1' vs P2
    rng = np.random.default_rng(17)
    sys_ = random_system(rng, 2, [3, 2])
    p = random_spd_blocks(rng, [3, 2])
    bounds = check_condition_n(sys_, p)
    a1, a2 = sys_.diag
    b1 = sys_.off[0]
    c1 = a1 + b1.T @ np.linalg.solve(p[1], b1)
    c2 = a2 + b1 @ np.linalg.solve(p[0], b1.T)
    ev1 = eigh(c1, p[0], eigvals_only=True)
    ev2 = eigh(c2, p[1], eigvals_only=True)
    assert bounds[0] == (pytest.approx(ev1[0]), pytest.approx(ev1[-1]))
    assert bounds[1] == (pytest.approx(ev2[0]), pytest.approx(ev2[-1]))


def test_condition_n3_recovers_hand_formulas():
    # odd blocks 1, 3 against diag(P1, P3) and the even block 2 against P2,
    # spelled out term by term
    rng = np.random.default_rng(19)
    sys_ = random_system(rng, 3, [2, 3, 2])
    p = random_spd_blocks(rng, [2, 3, 2])
    a, b = sys_.diag, sys_.off
    pi = [np.linalg.inv(m) for m in p]
    odd = np.block([
        [a[0] + b[0].T @ pi[1] @ b[0], b[0].T @ pi[1] @ b[1].T],
        [b[1] @ pi[1] @ b[0], a[2] + b[1] @ pi[1] @ b[1].T],
    ])
    even = a[1] + b[0] @ pi[0] @ b[0].T + b[1].T @ pi[2] @ b[1]
    ev_odd = eigh(odd, block_diag(p[0], p[2]), eigvals_only=True)
    ev_even = eigh(even, p[1], eigvals_only=True)
    bounds = check_condition_n(sys_, p)
    assert bounds[0] == (pytest.approx(ev_odd[0]), pytest.approx(ev_odd[-1]))
    assert bounds[1] == (pytest.approx(ev_even[0]), pytest.approx(ev_even[-1]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_conditions_reproduce_measure_gamma(n):
    # the conditions are an odd/even block permutation of the full relation,
    # so their combined extreme bounds equal the direct measurement
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        dims = rng.integers(1, 5, size=n)
        sys_ = random_system(rng, n, dims)
        p = random_spd_blocks(rng, dims)
        bounds = check_condition_n(sys_, p)
        lo = min(b[0] for b in bounds)
        hi = max(b[1] for b in bounds)
        g_lo, g_hi = measure_gamma(sys_, p)
        assert lo == pytest.approx(g_lo, rel=1e-10, abs=1e-12)
        assert hi == pytest.approx(g_hi, rel=1e-10, abs=1e-12)

