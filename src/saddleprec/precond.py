"""Block-diagonal preconditioner for the discrete optimality systems.

The preconditioner is one table, block name -> (scale, unscaled matrix,
solver), scaled as diag(P_Y, alpha M_U, M_U / alpha, S_R1[, M_R2]); its
apply, its export and the dense reference below all read it. The state
block realizes the weighted norm

    |y|^2 = (y, y)_{L2(q_T)} + alpha * |state residual|^2_{L2(Q_T)}
            + |grad y(0)|^2_{L2} [+ |d_t y(0)|^2_{L2} for the wave problem]

and is the one block a solve materializes and factorizes, by a sparse LU in
the geometric nested-dissection order of its tensor grid
(`nested_dissection`, after George, SINUM 1973) without pivoting: the block
is SPD, and a state-space basis function couples only with those within p
indices per axis, so a slab of p grid planes separates the grid. Every
other block is a Kronecker product of univariate masses, or the r1 Gram
S_x x M_y + M_x x S_y, and is inverted in the eigenbases of its factors
(`kron.KroneckerSolver`). P reads the observation and the control mass from
the system table of `assembly.system_blocks` and builds the r1 Gram and the
r2 mass, which A does not contain. Only P_Y, its LU and the control scales
depend on alpha; `alpha_free_setup` holds P_Y's Grams and the
`ControlEigenbasis`, so that solves at several alphas can share them. The
solve runs in that basis: there the control mass of A and P is diagonal.
The basis's control-mass solver also serves the B-spline table, whose
matrices stay in the B-spline basis. The dense reference is the
Schur complement observation + sum_m K_m' P_m^{-1} K_m over the multiplier
blocks m of the same P, K_m the (m, y) entries of the system table; it
equals the sparse state block whenever the residual inclusion holds.
"""

import copy
import math
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import (
    BLOCK_FACTORS,
    DiscreteSpaces,
    DiscreteSystem,
    ProblemSpec,
    h10_gram_form,
    h10_gram_solver,
    mass_form,
    mass_solver,
    residual_terms,
)
from .kron import KroneckerMatrix, mode_products
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
    names = BLOCK_FACTORS["y"]
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
        km.add(1.0, np.outer(e1, e1),
               *(spaces.factor(n, n) for n in BLOCK_FACTORS["p_r1"]))
    return km


def _symmetrize(mat: sp.spmatrix) -> sp.csr_matrix:
    """Remove summation-order roundoff: exact bitwise symmetry."""
    return (0.5 * (mat + mat.T)).tocsr()


def state_grams(spec: ProblemSpec, spaces: DiscreteSpaces, blocks: dict) -> tuple:
    """P_Y's alpha-free terms materialized: observation, residual, trace."""
    return (blocks["y", "y"].materialize(),
            state_residual_form(spec, spaces).materialize(),
            trace_form(spec, spaces).materialize())


def state_block(grams: tuple, alpha: float) -> sp.csr_matrix:
    """P_Y: observation + alpha * residual Gram + trace Grams (`state_grams`)."""
    observation, residual, trace = grams
    return _symmetrize(observation + alpha * residual + trace)


# unknowns at which `nested_dissection` stops splitting
ND_LEAF = 64


def nested_dissection(shape: tuple, p: int) -> np.ndarray:
    """Nested-dissection order of the C-ordered tensor grid `shape`.

    The longest axis is split by a separator slab of p planes; the two
    halves are ordered first, recursively, and the separator last. Blocks of
    at most ND_LEAF unknowns keep their natural order.
    """
    order = []

    def visit(block):
        n = max(block.shape)
        if block.size <= ND_LEAF or n <= p:
            order.append(block.ravel())
            return
        axis = block.shape.index(n)
        left, sep, right = np.split(block, [(n - p) // 2, (n + p) // 2], axis=axis)
        visit(left)
        visit(right)
        order.append(sep.ravel())

    visit(np.arange(math.prod(shape)).reshape(shape))
    return np.concatenate(order)


class OrderedLU:
    """Unpivoted sparse LU of an SPD block in the `nested_dissection` order
    of its tensor grid `shape`."""

    def __init__(self, mat: sp.spmatrix, shape: tuple, p: int):
        self.perm = nested_dissection(shape, p)
        try:
            self.lu = splu(mat[self.perm][:, self.perm].tocsc(),
                           permc_spec="NATURAL", diag_pivot_thresh=0,
                           options=dict(SymmetricMode=True))
        except RuntimeError as exc:  # pragma: no cover - signals an assembly bug
            raise ValueError(f"block factorization failed: {exc}") from exc

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Solve with the unpermuted block; r may carry extra columns."""
        x = np.empty(r.shape)
        x[self.perm] = self.lu.solve(r[self.perm])
        return x


class DiagonalBlock(NamedTuple):
    """One block of P: scale * matrix, inverted as solver.solve(r) / scale.
    In the `ControlEigenbasis` one `KroneckerDiagonal` is both."""

    scale: float
    matrix: object  # sparse matrix or KroneckerMatrix, unscaled
    solver: object  # OrderedLU or KroneckerSolver of the unscaled matrix


class ControlEigenbasis:
    """The control mass's orthonormal eigenvectors Q = Q_t x Q_x x Q_y.

    They are the factor eigenvectors of the control mass's `mass_solver`,
    M_f = Q_f diag(lam_f) Q_f', so M_U = Q diag(lam) Q' with lam = lam_t x
    lam_x x lam_y; that `solver` also serves the u and p_u blocks of the
    B-spline P, so M_U is factored once per setup. The basis change
    D = blockdiag(I, Q', Q', I[, I]) is orthogonal: MINRES on D A D' with the
    preconditioner D P D', from D x0 and D b, computes D x_k with the same
    Euclidean and preconditioned residual norms. There the control mass of
    A's (u, u) and (u, p_u) entries and of P's u and p_u blocks is `mass`,
    one elementwise product, and K_U keeps its Kronecker terms with each
    control factor F replaced by Q_f' F (`k_u`). Nothing depends on alpha.
    The rotated system and preconditioner serve MINRES: they apply and solve
    but do not materialize, which stays with the B-spline ones.
    """

    def __init__(self, spaces: DiscreteSpaces, blocks: dict):
        self.spaces = spaces
        self.solver = mass_solver(spaces, "u")
        self.q, self.mass = self.solver.vectors, self.solver.values
        self.k_u = KroneckerMatrix()
        for term in blocks["p_u", "y"].terms:
            self.k_u.add(term.weight, *(q.T @ f for q, f in zip(self.q, term.factors)))

    def rotate(self, v: np.ndarray, back: bool = False) -> np.ndarray:
        """D v, or D' v when back: the control blocks change basis."""
        factors = self.q if back else tuple(q.T for q in self.q)
        out = np.array(v, dtype=float)
        for name in ("u", "p_u"):
            part = self.spaces.block_slice(name)
            out[part] = mode_products(factors, out[part])
        return out

    def system(self, system: DiscreteSystem) -> DiscreteSystem:
        """D A D' and D b: A's table with the control entries replaced."""
        blocks = {**system.blocks, ("u", "u"): self.mass, ("u", "p_u"): self.mass,
                  ("p_u", "y"): self.k_u}
        return DiscreteSystem(system.spec, system.spaces, blocks,
                              self.rotate(system.rhs))

    def preconditioner(self, precon: "BlockDiagPreconditioner"):
        """D P D': P's table with the control mass diagonal."""
        rotated = copy.copy(precon)
        rotated.table = {**precon.table, **{
            name: DiagonalBlock(precon.table[name].scale, self.mass, self.mass)
            for name in ("u", "p_u")}}
        return rotated


def alpha_free_setup(spec: ProblemSpec, spaces: DiscreteSpaces,
                     blocks: dict) -> tuple:
    """The part of P that every alpha shares and that costs more than the
    eigh of a few univariate factors: the `state_grams` and the
    `ControlEigenbasis` the solve runs in."""
    return state_grams(spec, spaces, blocks), ControlEigenbasis(spaces, blocks)


class BlockDiagPreconditioner:
    """Factored diagonal blocks of the preconditioner at alpha = spec.alpha.

    `table` maps each block name to its `DiagonalBlock`: P_Y from
    `state_block` with its `OrderedLU`, the other blocks as Kronecker sums
    with their `KroneckerSolver`s. P_Y's Grams and `basis`, the
    `ControlEigenbasis` whose control-mass solver serves u and p_u, come
    from `setup`, an `alpha_free_setup` built when None.
    """

    def __init__(self, spec, spaces, blocks, setup=None):
        self.spaces = spaces
        self.alpha = a = spec.alpha
        grams, self.basis = setup or alpha_free_setup(spec, spaces, blocks)
        p_y = state_block(grams, a)
        del grams  # those of a setup built here are freed before P_Y's LU
        u_mass = blocks["u", "u"]
        self.table = {
            "y": DiagonalBlock(1.0, p_y, OrderedLU(p_y, spaces.block_shape("y"),
                                                   spec.degree)),
            "u": DiagonalBlock(a, u_mass, self.basis.solver),
            "p_u": DiagonalBlock(1.0 / a, u_mass, self.basis.solver),
            "p_r1": DiagonalBlock(1.0, h10_gram_form(spaces),
                                  h10_gram_solver(spaces)),
        }
        if spaces.has_r2:
            self.table["p_r2"] = DiagonalBlock(1.0, mass_form(spaces, "p_r2"),
                                               mass_solver(spaces, "p_r2"))

    @property
    def dim(self) -> int:
        return sum(self.spaces.block_dims)

    def block_matrix(self, name: str) -> sp.csr_matrix:
        """The scaled sparse matrix of one diagonal block."""
        scale, mat, _ = self.table[name]
        if isinstance(mat, KroneckerMatrix):
            mat = mat.materialize()
        return mat if scale == 1.0 else (scale * mat).tocsr()

    def materialize(self) -> sp.csr_matrix:
        """The full block-diagonal matrix, the dense reference of the tests."""
        return sp.block_diag([self.block_matrix(n)
                              for n in self.spaces.block_names],
                             format="csr")

    def solve_block(self, name: str, r: np.ndarray) -> np.ndarray:
        """Solve with one scaled diagonal block; r may carry extra columns."""
        scale, _, solver = self.table[name]
        return solver.solve(r) / scale

    def apply_inverse(self, r: np.ndarray) -> np.ndarray:
        """Per-block solve; Kronecker blocks in their factor eigenbases."""
        r = np.asarray(r, dtype=float)
        if r.shape != (self.dim,):
            raise ValueError(f"residual has shape {r.shape}, expected ({self.dim},)")
        names = self.spaces.block_names
        parts = np.split(r, self.spaces.offsets()[1:-1])
        return np.concatenate([self.solve_block(n, part)
                               for n, part in zip(names, parts)])


def build_preconditioner(spec: ProblemSpec, spaces: DiscreteSpaces, blocks: dict,
                         setup: tuple | None = None) -> BlockDiagPreconditioner:
    """Assemble and factorize all diagonal blocks at alpha = spec.alpha."""
    return BlockDiagPreconditioner(spec, spaces, blocks, setup)


PTILDE_DIM_CAP = 200


def dual_grams(system: DiscreteSystem,
               precon: BlockDiagPreconditioner) -> dict:
    """Dense K_m' P_m^{-1} K_m on the state space for each multiplier block m.

    K_m is the (m, y) entry of the system table; P_m^{-1} is
    `precon.solve_block`, so the p_u term is alpha K_U' M_U^{-1} K_U.
    """
    grams = {}
    for (name, col), k in system.blocks.items():
        if col == "y" and name != "y":
            k = k.materialize().toarray()
            grams[name] = k.T @ precon.solve_block(name, k)
    return grams


def build_Ptilde_Y(system: DiscreteSystem,
                   precon: BlockDiagPreconditioner) -> np.ndarray:
    """Dense operator-preconditioning reference for the state block.

    The observation plus `dual_grams`: the Schur complement of the system in
    the multiplier blocks of P. Refused beyond PTILDE_DIM_CAP state unknowns.
    """
    dim_y = system.spaces.block_dim("y")
    if dim_y > PTILDE_DIM_CAP:
        raise ValueError(f"state dimension {dim_y} exceeds the dense "
                         f"reference cap {PTILDE_DIM_CAP}")
    return (system.blocks["y", "y"].materialize().toarray()
            + sum(dual_grams(system, precon).values()))
