"""Schur-complement and block-diagonal equivalence oracles."""

import numpy as np
import pytest
from scipy.linalg import eigh

from saddleprec.spectral import (
    Block2x2Instance,
    SchurInstance,
    block2x2_equivalence_check,
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
    inst = Block2x2Instance(np.eye(2), np.zeros((2, 3)), np.eye(3))
    (lo, hi), direct = block2x2_equivalence_check(inst)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)
    assert direct == (pytest.approx(1.0), pytest.approx(1.0))

    rng = np.random.default_rng(15)
    inst = Block2x2Instance(_spd(rng, 2), np.zeros((2, 3)), _spd(rng, 3))
    (lo, hi), direct = block2x2_equivalence_check(inst)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)
    assert direct == (pytest.approx(1.0), pytest.approx(1.0))


def test_block2x2_canonical_correlation_identity():
    # against D = diag(M11, M22) the Schur condition reads 1 - rho^2 and the
    # direct bounds are 1 -+ rho (largest canonical correlation rho), so
    # min*max of the direct bounds equals the condition's lower bound.
    rng = np.random.default_rng(16)
    for _ in range(50):
        nv, nq = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        m = _spd(rng, nv + nq, shift=0.1)
        inst = Block2x2Instance(m[:nv, :nv], m[:nv, nv:], m[nv:, nv:])
        (schur_lo, _), (lo, hi) = block2x2_equivalence_check(inst)
        rho = max(abs(1.0 - lo), abs(hi - 1.0))
        assert schur_lo == pytest.approx(1.0 - rho**2, rel=1e-10, abs=1e-12)
        assert lo * hi == pytest.approx(schur_lo, rel=1e-9, abs=1e-12)


def test_block2x2_requires_spd():
    with pytest.raises(ValueError):
        Block2x2Instance(np.eye(2), 10 * np.ones((2, 2)), np.eye(2))
