"""Numeric oracles for Schur-complement and block-diagonal equivalence identities.

Small dense instances only. Spectral equivalence is witnessed by returning
the extreme constants; the pass/fail thresholds live with the checks of
`cli.SUITES`.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, eigh

from .blocksys import is_definite, require_definite


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
    """Symmetric positive definite 2x2 block operator."""

    m11: np.ndarray
    m12: np.ndarray
    m22: np.ndarray

    def __post_init__(self):
        self.m11 = np.asarray(self.m11, dtype=float)
        self.m12 = np.asarray(self.m12, dtype=float)
        self.m22 = np.asarray(self.m22, dtype=float)
        require_definite(self.full(), "assembled 2x2 operator")

    def full(self) -> np.ndarray:
        return np.block([[self.m11, self.m12], [self.m12.T, self.m22]])


def schur_sup_identity(inst: SchurInstance, q: np.ndarray):
    """Both sides of <B A^{-1} B' q, q> = sup_v <Bv, q>^2 / <Av, v>.

    The supremum is evaluated at its analytic maximizer v* = A^{-1} B' q.
    """
    q = np.asarray(q, dtype=float)
    bq = inst.b.T @ q
    v_star = np.linalg.solve(inst.a, bq)
    lhs = float(bq @ v_star)
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
    """Schur-complement condition and direct bounds against D = diag(M11, M22).

    The condition is M11 - M12 M22^{-1} M21 vs M11 (the one-sided
    domination); the direct bounds are the extreme generalized eigenvalues of
    the assembled operator versus D. Each is returned as (lowest, highest).
    """
    schur = inst.m11 - inst.m12 @ np.linalg.solve(inst.m22, inst.m12.T)
    ev = eigh(schur, inst.m11, eigvals_only=True)
    condition = (float(ev[0]), float(ev[-1]))
    ev = eigh(inst.full(), block_diag(inst.m11, inst.m22), eigvals_only=True)
    return condition, (float(ev[0]), float(ev[-1]))
