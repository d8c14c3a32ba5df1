"""Block-diagonal preconditioner for the discrete optimality systems.

The state block realizes the weighted norm

    |y|^2 = (y, y)_{L2(q_T)} + alpha * |state residual|^2_{L2(Q_T)}
            + |grad y(0)|^2_{L2} [+ |d_t y(0)|^2_{L2} for the wave problem]

materialized from its Kronecker terms and factorized by a sparse direct
solver. The initial-displacement block (a 2-D stiffness, not a pure tensor
product) is materialized for a sparse LU too; these two are the only blocks
a solve materializes. The control and initial-velocity blocks are pure
tensor-product mass matrices; their inverses are Kronecker products of the
univariate factor inverses, applied by mode products. A dense reference for
the state block, built from the system blocks through explicit mass
inverses, witnesses that the sparse block equals the operator-preconditioning
candidate whenever the residual inclusion holds.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import (
    DiscreteSpaces,
    ProblemSpec,
    SystemBlocks,
    h10_gram_form,
    residual_terms,
)
from .kron import KroneckerMatrix, KroneckerSolver
# univariate_matrix is imported here only so the benchmark probes can rebind it
from .splines import endpoint_row, univariate_matrix  # noqa: F401


def state_residual_form(spec: ProblemSpec, spaces: DiscreteSpaces) -> KroneckerMatrix:
    """Gram matrix of the state residual ((d_tt|d_t) - Lap) on the state space.

    The double sum over the terms (s_i, d_i) of `residual_terms`, the one
    definition of the state operator: s_i s_j times the Kronecker product of
    the factors pairing derivative orders d_i and d_j in each direction.
    Mixed terms are exact transposes of each other only up to roundoff;
    `_symmetrize` makes the materialized Gram exactly symmetric.
    """
    names = ("y_time", "y_x", "y_y")
    terms = residual_terms(spec)
    km = KroneckerMatrix()
    for s_i, *d_i in terms:
        for s_j, *d_j in terms:
            km.add(s_i * s_j, *(spaces.factor(n, n, di, dj)
                                for n, di, dj in zip(names, d_i, d_j)))
    return km


def trace_form(spec: ProblemSpec, spaces: DiscreteSpaces) -> KroneckerMatrix:
    """(grad y(0), grad z(0)) [+ (d_t y(0), d_t z(0)) for the wave problem].

    Endpoint-row outer products in time tensor the 2-D stiffness, and for
    the velocity trace first-derivative rows tensor the 2-D mass.
    """
    e0 = endpoint_row(spaces.y_time, "a", 0)
    km = h10_gram_form(spaces, np.outer(e0, e0))
    if spec.is_wave:
        e1 = endpoint_row(spaces.y_time, "a", 1)
        km.add(1.0, np.outer(e1, e1), spaces.factor("y_x", "y_x"),
               spaces.factor("y_y", "y_y"))
    return km


def _symmetrize(mat: sp.spmatrix) -> sp.csr_matrix:
    """Remove summation-order roundoff: exact bitwise symmetry."""
    return (0.5 * (mat + mat.T)).tocsr()


def graph_norm_terms(spec: ProblemSpec, spaces: DiscreteSpaces):
    """Materialized state-residual Gram and initial-trace Gram.

    These are the alpha-independent parts of the state block and, summed,
    the graph norm of the state operator.
    """
    return (state_residual_form(spec, spaces).materialize(),
            trace_form(spec, spaces).materialize())


def y_norm_gram(spec: ProblemSpec, spaces: DiscreteSpaces) -> sp.csr_matrix:
    """Gram matrix of the graph norm of the state operator (residual + traces)."""
    residual, trace = graph_norm_terms(spec, spaces)
    return _symmetrize(residual + trace)


def state_block(spec: ProblemSpec, spaces: DiscreteSpaces, blocks: SystemBlocks,
                alpha: float) -> sp.csr_matrix:
    """The state block P_Y: observation + alpha * residual Gram + trace Grams."""
    residual, trace = graph_norm_terms(spec, spaces)
    observation = blocks.observation.materialize()
    return _symmetrize(observation + alpha * residual + trace)


def mass_solver(spaces: DiscreteSpaces, *names: str) -> KroneckerSolver:
    """Inverse of the tensor-product mass on the named factors."""
    return KroneckerSolver([spaces.factor(n, n) for n in names])


class BlockDiagPreconditioner:
    """Factored diagonal blocks of the preconditioner, in system block order.

    Block scaling follows diag(P_Y, alpha P_U, alpha^{-1} P_U, P_R1[, P_R2])
    with alpha = spec.alpha. The state block comes from `state_block` and is
    factorized by a sparse LU; the control-mass and initial-velocity blocks
    are inverted by Kronecker products of univariate inverses, the
    initial-displacement block by a sparse LU. `block_matrix` and
    `materialize` build the sparse control blocks on request, for
    verification and export.
    """

    def __init__(self, spec, spaces, blocks):
        self.spec = spec
        self.spaces = spaces
        self.blocks = blocks
        self.alpha = spec.alpha
        self._p_y = state_block(spec, spaces, blocks, self.alpha)
        try:
            self._y_lu = splu(self._p_y.tocsc())
        except RuntimeError as exc:  # pragma: no cover - signals an assembly bug
            raise ValueError(f"state block factorization failed: {exc}") from exc
        self._u_solver = mass_solver(spaces, "u_time", "u_x", "u_y")
        self._r1_lu = splu(blocks.r1_gram.materialize().tocsc())
        if spec.is_wave:
            self._r2_solver = mass_solver(spaces, "r2_x", "r2_y")
        self._offsets = spaces.offsets()

    @property
    def dim(self) -> int:
        return int(self._offsets[-1])

    def block_matrix(self, name: str) -> sp.csr_matrix:
        """The scaled sparse matrix of one diagonal block."""
        a = self.alpha
        if name == "y":
            return self._p_y
        if name == "u":
            return (a * self.blocks.u_mass.materialize()).tocsr()
        if name == "p_u":
            return (self.blocks.u_mass.materialize() / a).tocsr()
        if name == "p_r1":
            return self.blocks.r1_gram.materialize()
        if name == "p_r2" and self.spec.is_wave:
            return self.blocks.r2_mass.materialize()
        raise KeyError(name)

    def materialize(self) -> sp.csr_matrix:
        """The full block-diagonal matrix (verification and export use)."""
        return sp.block_diag([self.block_matrix(n)
                              for n in self.spaces.block_names],
                             format="csr")

    def apply_inverse(self, r: np.ndarray) -> np.ndarray:
        """Per-block solve; Kronecker blocks by mode products of factor inverses."""
        r = np.asarray(r, dtype=float)
        if r.shape != (self.dim,):
            raise ValueError(f"residual has shape {r.shape}, expected ({self.dim},)")
        o = self._offsets
        out = np.empty_like(r)
        out[o[0]:o[1]] = self._y_lu.solve(r[o[0]:o[1]])
        out[o[1]:o[2]] = self._u_solver.solve(r[o[1]:o[2]]) / self.alpha
        out[o[2]:o[3]] = self._u_solver.solve(r[o[2]:o[3]]) * self.alpha
        out[o[3]:o[4]] = self._r1_lu.solve(r[o[3]:o[4]])
        if self.spec.is_wave:
            out[o[4]:o[5]] = self._r2_solver.solve(r[o[4]:o[5]])
        return out


def build_preconditioner(spec: ProblemSpec, spaces: DiscreteSpaces,
                         blocks: SystemBlocks) -> BlockDiagPreconditioner:
    """Assemble and factorize all diagonal blocks at alpha = spec.alpha."""
    return BlockDiagPreconditioner(spec, spaces, blocks)


PTILDE_DIM_CAP = 200


def build_Ptilde_Y(spec: ProblemSpec, spaces: DiscreteSpaces,
                   blocks: SystemBlocks, alpha: float | None = None) -> np.ndarray:
    """Dense operator-preconditioning reference for the state block.

    observation + alpha K_U' M_U^{-1} K_U + K_R1' S^{-1} K_R1
    [+ K_R2' M_R2^{-1} K_R2]. Dense by construction, so it is refused beyond
    the state-space dimension PTILDE_DIM_CAP; alpha = 0 is allowed here to
    inspect the term dropout.
    """
    if spaces.dim_y > PTILDE_DIM_CAP:
        raise ValueError(f"state dimension {spaces.dim_y} exceeds the dense "
                         f"reference cap {PTILDE_DIM_CAP}")
    a = spec.alpha if alpha is None else float(alpha)
    if a < 0:
        raise ValueError("alpha must be nonnegative")
    residual, initial = dual_grams(spaces, blocks)
    return blocks.observation.materialize().toarray() + a * residual + initial


def dual_grams(spaces: DiscreteSpaces, blocks: SystemBlocks):
    """Dense K' N^{-1} K on the state space, for the residual rows and the
    initial-condition rows.

    Returns (K_U' M_U^{-1} K_U, K_R1' S^{-1} K_R1 [+ K_R2' M_R2^{-1} K_R2]).
    """
    def dual(k, solve):
        k = k.materialize().toarray()
        return k.T @ solve(k)

    residual = dual(blocks.k_u, mass_solver(spaces, "u_time", "u_x", "u_y").solve)
    initial = dual(blocks.k_r1, splu(blocks.r1_gram.materialize().tocsc()).solve)
    if spaces.has_r2:
        initial += dual(blocks.k_r2, mass_solver(spaces, "r2_x", "r2_y").solve)
    return residual, initial
