"""Numeric oracles for Schur-complement and block-diagonal equivalence identities.

Small dense instances only. Spectral equivalence is witnessed by returning
the extreme constants; the pass/fail thresholds live with the checks of
`cli.SUITES`.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, eigh

from .blocksys import (BlockTridiagonalSystem, gamma_pencil, is_definite,
                       require_definite)


@dataclass
class SchurInstance:
    """Coercive A on V, coupling B: V -> Q', coercive C on Q."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.a = require_definite(self.a, "A")
        self.c = require_definite(self.c, "C")
        self.b = np.asarray(self.b, dtype=float)
        if self.b.shape != (self.c.shape[0], self.a.shape[0]):
            raise ValueError("B must map V into Q'")


@dataclass
class Block2x2Instance:
    """Symmetric positive definite 2x2 block operator and an SPD block diagonal."""

    m11: np.ndarray
    m12: np.ndarray
    m22: np.ndarray
    d11: np.ndarray
    d22: np.ndarray

    def __post_init__(self):
        self.m11 = np.asarray(self.m11, dtype=float)
        self.m12 = np.asarray(self.m12, dtype=float)
        self.m22 = np.asarray(self.m22, dtype=float)
        self.d11 = require_definite(self.d11, "D11")
        self.d22 = require_definite(self.d22, "D22")
        require_definite(self.full(), "assembled 2x2 operator")

    def full(self) -> np.ndarray:
        return np.block([[self.m11, self.m12], [self.m12.T, self.m22]])

    def diag(self) -> np.ndarray:
        return block_diag(self.d11, self.d22)


def schur_sup_identity(inst: SchurInstance, q: np.ndarray):
    """Both sides of <B A^{-1} B' q, q> = sup_v <Bv, q>^2 / <Av, v>.

    The supremum is evaluated at its analytic maximizer v* = A^{-1} B' q.
    """
    q = np.asarray(q, dtype=float)
    bq = inst.b.T @ q
    lhs = float(bq @ np.linalg.solve(inst.a, bq))
    v_star = np.linalg.solve(inst.a, bq)
    denom = float(v_star @ (inst.a @ v_star))
    rhs = 0.0 if denom == 0.0 else float((inst.b @ v_star @ q) ** 2 / denom)
    return lhs, rhs


def domination_equivalence(inst: SchurInstance):
    """Decide B A^{-1} B' <= C and B' C^{-1} B <= A by smallest eigenvalue.

    The two flags are equal in exact arithmetic; both are returned so the
    equivalence can be witnessed.
    """
    s1 = inst.c - inst.b @ np.linalg.solve(inst.a, inst.b.T)
    s2 = inst.a - inst.b.T @ np.linalg.solve(inst.c, inst.b)
    # both differences are symmetric in exact arithmetic
    return tuple(is_definite((s + s.T) / 2, what, strict=False)
                 for s, what in ((s1, "C - B A^-1 B'"), (s2, "A - B' C^-1 B")))


def block2x2_equivalence_check(inst: Block2x2Instance):
    """Constants for the three block-diagonal equivalence conditions and the direct bounds.

    Conditions: M11 vs D11, M22 vs D22, and the Schur complement
    M11 - M12 M22^{-1} M21 vs M11 (the one-sided domination). The direct
    bounds are the extreme generalized eigenvalues of the assembled operator
    versus the block diagonal.
    """
    cond = []
    for m, d in ((inst.m11, inst.d11), (inst.m22, inst.d22)):
        ev = eigh(m, d, eigvals_only=True)
        cond.append((float(ev[0]), float(ev[-1])))
    schur = inst.m11 - inst.m12 @ np.linalg.solve(inst.m22, inst.m12.T)
    ev = eigh(schur, inst.m11, eigvals_only=True)
    cond.append((float(ev[0]), float(ev[-1])))
    ev = eigh(inst.full(), inst.diag(), eigvals_only=True)
    direct = (float(ev[0]), float(ev[-1]))
    return cond, direct


def check_condition_n(sys: BlockTridiagonalSystem, inner_blocks):
    """Bounds of the block-diagonal equivalence conditions, for any n >= 2.

    G = D + B P^{-1} B couples block i only to blocks i and i +- 2, so an
    odd/even permutation splits it into two principal blocks: one on the
    odd-indexed blocks 1, 3, ... and one on the even-indexed blocks 2, 4, ...
    (counting from 1). Each condition returns the extreme generalized
    eigenvalues of its principal block against the matching blocks of P;
    jointly they reproduce measure_gamma.
    """
    G, P = gamma_pencil(sys, inner_blocks)
    offs = sys.offsets()
    bounds = []
    for first in (0, 1):
        idx = np.concatenate([np.arange(offs[i], offs[i + 1])
                              for i in range(first, sys.n, 2)])
        ev = eigh(G[np.ix_(idx, idx)], P[np.ix_(idx, idx)], eigvals_only=True)
        bounds.append((float(ev[0]), float(ev[-1])))
    return bounds
