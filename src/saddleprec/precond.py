"""Block-diagonal preconditioner for the discrete optimality systems.

The preconditioner is one table, block name -> (scale, unscaled matrix,
solver), scaled as diag(P_Y, alpha M_U, M_U / alpha, S_R1[, M_R2]); its
apply, its export and the dense reference below all read it. The state
block realizes the weighted norm

    |y|^2 = (y, y)_{L2(q_T)} + alpha * |state residual|^2_{L2(Q_T)}
            + |grad y(0)|^2_{L2} [+ |d_t y(0)|^2_{L2} for the wave problem]

and is the one block a solve factorizes, by LAPACK's banded Cholesky
(dpbtrf, dpbtrs); one `StateBlock`, its values and its factor, is both its
matrix and its solver. A state-space basis function couples only with those
within p indices per axis, so P_Y's pattern is the Kronecker product of the
per-axis bands |i - j| <= p (`band_size`), and in the natural order of its
C-ordered tensor grid P_Y is a band matrix of half-bandwidth p (n_x n_y +
n_y + 1) (`bandwidth`). P_Y is defined by its lower triangle, the one
LAPACK reads, and mirrored: its three alpha-free Grams (`state_grams`) are
value arrays on the lower triangle of that band, from outer products of
their univariate factors' band entries (the trace Gram's time factors are
A's, `trace_form`), so per alpha P_Y is a weighted sum of three arrays,
scattered into LAPACK's lower band storage through one int32 array of slots
that the setup holds beside the Grams; no sparse matrix is formed unless
export, verify or a test reads one (`StateBlock.materialize`). Every other
block is a Kronecker product of univariate masses, or the r1 Gram S_x x M_y
+ M_x x S_y, and is inverted in the eigenbases of its factors
(`kron.KroneckerSolver`). P reads the observation and the control mass from
the system table of `assembly.system_blocks` and builds the r1 Gram and the
r2 mass, which A does not contain. Only P_Y, its factor and the control
scales depend on alpha; the rest is one `Setup` per grid, which solves at
several alphas share and nothing outlives. The solve runs in its control
eigenbasis: there the control mass of A and P is diagonal. The basis's
control-mass solver also serves the B-spline table, whose matrices stay in
the B-spline basis. The dense reference is the Schur complement observation
+ sum_m K_m' P_m^{-1} K_m over the multiplier blocks m of the same P, K_m the (m, y)
entries of the system table; it equals the sparse state block whenever the
residual inclusion holds.
"""

import copy
import dataclasses
import math
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dpbtrs

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
from .splines import univariate_matrix  # noqa: F401


def state_residual_form(spec: ProblemSpec, spaces: DiscreteSpaces) -> KroneckerMatrix:
    """Gram matrix of the state residual ((d_tt|d_t) - Lap) on the state space.

    The double sum over the terms (s_i, d_i) of `residual_terms`, the one
    definition of the state operator: s_i s_j times the Kronecker product of
    the factors pairing derivative orders d_i and d_j in each direction.
    Mixed terms are exact transposes of each other only up to roundoff;
    P_Y takes the lower triangle (`StateBlock`) and so is exactly
    symmetric.
    """
    names = BLOCK_FACTORS["y"]
    terms = residual_terms(spec)
    km = KroneckerMatrix()
    for s_i, *d_i in terms:
        for s_j, *d_j in terms:
            km.add(s_i * s_j, *(spaces.factor(n, n, di, dj)
                                for n, di, dj in zip(names, d_i, d_j)))
    return km


def trace_form(spaces: DiscreteSpaces, blocks: dict) -> KroneckerMatrix:
    """(grad y(0), grad z(0)) [+ (d_t y(0), d_t z(0)) for the wave problem].

    Outer products of the endpoint rows in time, the time factors of A's
    (p_r1, y) and (p_r2, y) entries, tensor the 2-D stiffness and, for the
    velocity trace, the 2-D mass.
    """
    e0 = blocks["p_r1", "y"].terms[0].factors[0]
    km = h10_gram_form(spaces, np.outer(e0, e0))
    if spaces.has_r2:
        e1 = blocks["p_r2", "y"].terms[0].factors[0]
        km.add(1.0, np.outer(e1, e1),
               *(spaces.factor(n, n) for n in BLOCK_FACTORS["p_r1"]))
    return km


def _axis_band(n: int, p: int) -> tuple:
    """Rows and columns of the band |i - j| <= p of an n x n matrix, row by
    row, as int32 arrays."""
    near = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= p
    return tuple(idx.astype(np.int32) for idx in np.nonzero(near))


def band_values(km: KroneckerMatrix, p: int) -> np.ndarray:
    """A Kronecker sum of square factors on the Kronecker product of the
    per-axis bands |i - j| <= p, in its natural order: the entries of each
    axis's band row by row, the last axis fastest.

    Each term adds w ((F_1 x F_2) x F_3) of its factors' band entries: the
    products, and the terms in their order, of `KroneckerMatrix.materialize`.
    Raises ValueError when a factor has a nonzero beyond its band, which the
    band would drop.
    """
    total = None
    for term in km.terms:
        prod = None
        for f in term.factors:
            vals = f[_axis_band(f.shape[0], p)]
            if np.count_nonzero(vals) != np.count_nonzero(f):
                raise ValueError("a Kronecker factor has a nonzero beyond its band")
            prod = vals if prod is None else np.multiply.outer(prod, vals)
        prod = prod.ravel()
        prod *= term.weight
        if total is None:
            total = prod
        else:
            total += prod
    return total


def state_grams(spec: ProblemSpec, spaces: DiscreteSpaces, blocks: dict,
                residual: KroneckerMatrix) -> tuple:
    """P_Y's alpha-free data on the lower triangle (row at or after column)
    of its band, in the order of `band_values`: the observation, residual
    (`residual`, a `state_residual_form`) and trace Grams, each entry's slot
    in LAPACK's lower band storage of the reversed order, ab[i - j, j] =
    a_(n-1-i, n-1-j): (n - 1 - row) (bandwidth + 1) + row - col, its place
    in the C-ordered (n, bandwidth + 1) array whose transpose is ab. Row -
    col and the slot are sums of per-axis terms, built by outer sums."""
    shape, p = spaces.block_shape("y"), spec.degree
    n, width = math.prod(shape), bandwidth(shape, p)
    if n * (width + 1) >= 2 ** 31:
        raise ValueError("the band has too many entries for int32 slots")
    diff = np.zeros((), dtype=np.int32)
    slot = np.full((), (n - 1) * (width + 1), dtype=np.int32)
    for k, n_k in enumerate(shape):
        stride = math.prod(shape[k + 1:])
        i, j = _axis_band(n_k, p)
        diff = np.add.outer(diff, (i - j) * stride)
        slot = np.add.outer(slot, (i - j - (width + 1) * i) * stride)
    lower = diff.ravel() >= 0
    slots = slot.ravel()[lower]
    del diff, slot  # freed before the Grams' full-band values
    return (*(band_values(km, p)[lower] for km in (
        blocks["y", "y"], residual, trace_form(spaces, blocks))), slots)


def band_size(shape: tuple, p: int) -> int:
    """Entries of the Kronecker product of the per-axis bands |i - j| <= p
    on the C-ordered grid `shape`, P_Y's nonzeros."""
    return math.prod(_axis_band(n, p)[0].size for n in shape)


def bandwidth(shape: tuple, p: int) -> int:
    """Half-bandwidth of that band in the natural order: p planes of each
    axis, p (n_x n_y + n_y + 1) on a 3-D grid."""
    return p * sum(math.prod(shape[k + 1:]) for k in range(len(shape)))


class StateBlock:
    """P_Y on the band of the C-ordered grid `shape` with degree `p`, both
    matrix and solver: `lower`, the value of each band entry in the lower
    triangle, `slots`, its place in LAPACK's lower band storage
    (`state_grams`), and `factor`, LAPACK's L L' (dpbtrf, in place on the
    `band_storage`) of the reversed order, which eliminates the last time
    slab first and the initial traces last: at alpha <= 1e-6 its solves are
    the more accurate (README). A pivot that is not positive raises
    LinAlgError, a ValueError. Only `materialize` builds a sparse matrix."""

    def __init__(self, lower: np.ndarray, slots: np.ndarray, shape: tuple, p: int):
        self.lower, self.slots, self.shape, self.p = lower, slots, shape, p
        self.factor = cholesky_banded(self.band_storage(), lower=True,
                                      overwrite_ab=True, check_finite=False)

    def band_storage(self) -> np.ndarray:
        """LAPACK's lower band storage ab (bandwidth + 1, n) of the reversed
        order, Fortran ordered, so that `cholesky_banded` factors it in
        place."""
        n, width = math.prod(self.shape), bandwidth(self.shape, self.p)
        ab = np.zeros((n, width + 1))
        ab.reshape(-1)[self.slots] = self.lower
        return ab.T

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Solve with the block (dpbtrs, called directly); r may carry extra
        columns. Raises ValueError for an r of the wrong length or a nonzero
        LAPACK info."""
        if r.shape[0] != self.factor.shape[1]:
            raise ValueError(f"right-hand side has {r.shape[0]} rows, expected "
                             f"{self.factor.shape[1]}")
        x, info = dpbtrs(self.factor, r[::-1], lower=1)
        if info:
            raise ValueError(f"dpbtrs returned info = {info}")
        return x[::-1]

    def materialize(self) -> sp.csr_matrix:
        """The exact CSR matrix L + tril(L, -1)', L the lower triangle, for
        export, the verify instruments and the tests; a zero entry is left
        out. Each slot gives its entry's row and row - col."""
        n, width = math.prod(self.shape), bandwidth(self.shape, self.p)
        rows = n - 1 - self.slots // (width + 1)
        cols = rows - self.slots % (width + 1)
        low = sp.csr_matrix((self.lower, (rows, cols)), shape=(n, n))
        return (low + sp.tril(low, -1).T).tocsr()


class DiagonalBlock(NamedTuple):
    """One block of P: scale * matrix, inverted as solver.solve(r) / scale.
    P_Y's one `StateBlock` is both, and so is one `KroneckerDiagonal` in the
    control eigenbasis of a `Setup`."""

    scale: float
    matrix: object  # StateBlock or KroneckerMatrix, unscaled
    solver: object  # StateBlock or KroneckerSolver, unscaled


class Setup:
    """What no alpha changes on the grid of the specs it `serves`: the spaces,
    A's table (`blocks`), the state residual's Gram G (`residual_gram`),
    P_Y's `grams` and slots, which a P built on a setup of its own drops
    before its factor, P's r1 and r2 blocks (`multipliers`), and the control
    mass's orthonormal eigenvectors Q = Q_t x Q_x x Q_y.

    Q are the factor eigenvectors of the control mass's `mass_solver`,
    M_f = Q_f diag(lam_f) Q_f', so M_U = Q diag(lam) Q' with lam = lam_t x
    lam_x x lam_y; that `solver` also serves the u and p_u blocks of the
    B-spline P, so M_U is factored once per setup. The basis change
    D = blockdiag(I, Q', Q', I[, I]) is orthogonal: MINRES on D A D' with the
    preconditioner D P D', from D x0 and D b, computes D x_k with the same
    Euclidean and preconditioned residual norms. There the control mass of
    A's (u, u) and (u, p_u) entries and of P's u and p_u blocks is `mass`,
    one elementwise product, and K_U keeps its Kronecker terms with each
    control factor F replaced by Q_f' F (`k_u`). The rotated system and
    preconditioner serve MINRES (`ControlCoordinates`): they apply and solve
    but do not materialize, which stays with the B-spline ones.
    """

    def __init__(self, spec: ProblemSpec, spaces: DiscreteSpaces, blocks: dict):
        self.spec, self.spaces, self.blocks = spec, spaces, blocks
        self.residual_gram = state_residual_form(spec, spaces)
        self.grams = state_grams(spec, spaces, blocks, self.residual_gram)
        self.multipliers = {"p_r1": DiagonalBlock(1.0, h10_gram_form(spaces),
                                                  h10_gram_solver(spaces))}
        if spaces.has_r2:
            self.multipliers["p_r2"] = DiagonalBlock(
                1.0, mass_form(spaces, "p_r2"), mass_solver(spaces, "p_r2"))
        self.solver = mass_solver(spaces, "u")
        self.q, self.mass = self.solver.vectors, self.solver.values
        self.k_u = KroneckerMatrix()
        rotated = {}  # each shared factor is rotated once, so K_U's terms share it
        for term in blocks["p_u", "y"].terms:
            for mode, (q, f) in enumerate(zip(self.q, term.factors)):
                if (mode, id(f)) not in rotated:
                    rotated[mode, id(f)] = q.T @ f
            self.k_u.add(term.weight, *(rotated[mode, id(f)]
                                        for mode, f in enumerate(term.factors)))

    def serves(self, spec: ProblemSpec) -> bool:
        """Whether spec differs from the setup's own in alpha and seed only,
        and the setup still holds its Grams."""
        return self.grams is not None and dataclasses.replace(
            spec, alpha=self.spec.alpha, seed=self.spec.seed) == self.spec

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


class ControlCoordinates:
    """MINRES coordinates (`krylov.Euclidean` names their methods) of the
    rotated system and preconditioner of a `Setup`, in which a
    vector's control blocks are fixed by state-sized vectors and 4 scalars.

    With D = `basis.mass`, K_U = `basis.k_u` and F = [x0_u, x0_pu, D^-1 b_u,
    D^-1 b_pu] (set by `start`), an iterate or a P^-1 output has u block
    F c_u + D^-1 K_U a_u, and p_u block F c_pu + D^-1 K_U a_pu; a residual or
    an A output has u block D F d_u + K_U b_u, and p_u likewise. y and the
    multipliers after p_u stay explicit. A coordinate array holds five rows
    of dim Y: y, a_u, a_pu (b_u, b_pu) and g_u = G a_u, g_pu = G a_pu (zero
    in a residual), then c_u, c_pu (d_u, d_pu) and the multiplier tail.
    G = K_U' M_U^-1 K_U is the state residual's Gram (the setup's
    `residual_gram`), by the residual inclusion. P^-1 computes it afresh on
    each output.

    A's control rows are then coefficient arithmetic (u: alpha a_u + a_pu,
    alpha c_u + c_pu; p_u: a_u + y, c_u), its state row obs y + (K_U'F) c_pu
    + g_pu + sum K_m' r_m; P^-1 solves P_Y and the multiplier blocks and
    scales the control rows; and the control part of the pairing of iterate
    (a, c, g) with residual (b, d) is c'(F'DF) d + c'(K_U'F)' b + a'(K_U'F) d
    + g'b per block. Everything but `start` and the expansions works on
    about 5 dim Y numbers, not dim Y + 2 dim U.
    """

    def __init__(self, system: DiscreteSystem, precon: "BlockDiagPreconditioner"):
        spaces = system.spaces
        self.basis, self.system, self.precon = precon.basis, system, precon
        self.gram = precon.basis.residual_gram
        self.dim_y = spaces.block_dim("y")
        self.full = [spaces.block_slice(n) for n in spaces.block_names]
        # the multipliers after p_u, each with its place in the tail and its
        # K_m and K_m'
        lo = self.full[3].start
        self.tail = [(n, slice(s.start - lo, s.stop - lo), system.blocks[n, "y"],
                      system.blocks[n, "y"].T)
                     for n, s in zip(spaces.block_names[3:], self.full[3:])]
        self.alpha = system.weight("u", "u")
        self.scales = np.array([[precon.table[n].scale] for n in ("u", "p_u")])
        self.f = self.kf = self.fdf = None

    @staticmethod
    def length(spaces: DiscreteSpaces) -> int:
        """Entries of a coordinate array."""
        return 5 * spaces.block_dim("y") + 8 + sum(
            spaces.block_dim(n) for n in spaces.block_names[3:])

    def _parts(self, z: np.ndarray) -> tuple:
        """Views of coordinates: the (5, dim Y) rows, the (2, 4) scalars and
        the multiplier tail."""
        n = 5 * self.dim_y
        return z[:n].reshape(5, self.dim_y), z[n:n + 8].reshape(2, 4), z[n + 8:]

    def _coordinates(self, v: np.ndarray, coefs: np.ndarray) -> np.ndarray:
        """Coordinates with full v's y and tail, zero rows, and coefs."""
        z = np.zeros(self.length(self.system.spaces))
        rows, c, tail = self._parts(z)
        rows[0], c[...], tail[...] = v[self.full[0]], coefs, v[self.full[3].start:]
        return z

    def start(self, b, x0, r0, y0) -> tuple:
        """Bind F to b and x0; the coordinates of x0, of its residual and of
        that residual's preconditioned form (r0 and y0 are not read)."""
        mass, k_u = self.basis.mass, self.basis.k_u
        u, p_u = self.full[1:3]
        # F, F'K_U and F'DF, F's columns as rows
        self.f = np.stack([x0[u], x0[p_u], mass.solve(b[u]), mass.solve(b[p_u])])
        self.kf = k_u.T.apply(self.f.T).T
        self.fdf = self.f @ mass.apply(self.f.T)
        eye = np.eye(4)
        x = self._coordinates(x0, eye[:2])
        r = self._coordinates(b, eye[2:]) - self.apply_a(x)
        return x, r, self.apply_pinv(r)

    def apply_a(self, z: np.ndarray) -> np.ndarray:
        rows, c, tail = self._parts(z)
        out = np.zeros_like(z)
        o_rows, o_c, o_tail = self._parts(out)
        y, a_u, a_pu, _, g_pu = rows
        alpha = self.alpha
        state = self.system.blocks["y", "y"].apply(y) + c[1] @ self.kf + g_pu
        for _, part, k_m, k_m_t in self.tail:
            state += k_m_t.apply(tail[part])
            o_tail[part] = k_m.apply(y)
        o_rows[0] = state
        o_rows[1] = alpha * a_u + a_pu
        o_rows[2] = a_u + y
        o_c[0] = alpha * c[0] + c[1]
        o_c[1] = c[0]
        return out

    def apply_pinv(self, r: np.ndarray) -> np.ndarray:
        rows, d, tail = self._parts(r)
        out = np.empty_like(r)
        o_rows, o_c, o_tail = self._parts(out)
        solve, scales = self.precon.solve_block, self.scales
        o_rows[0] = solve("y", rows[0])
        o_rows[1:3] = rows[1:3] / scales
        o_rows[3:5] = self.gram.apply(o_rows[1:3].T).T
        o_c[...] = d / scales
        for name, part, _, _ in self.tail:
            o_tail[part] = solve(name, tail[part])
        return out

    def pair(self, z: np.ndarray, r: np.ndarray) -> float:
        rows, c, tail = self._parts(z)
        r_rows, d, r_tail = self._parts(r)
        b = r_rows[1:3]
        return float(rows[0] @ r_rows[0] + np.vdot(rows[3:5], b)
                     + np.vdot(c, b @ self.kf.T + d @ self.fdf.T)
                     + np.vdot(rows[1:3] @ self.kf.T, d) + tail @ r_tail)

    def _expand(self, z: np.ndarray, residual: bool) -> np.ndarray:
        rows, c, tail = self._parts(z)
        mass = self.basis.mass
        v = np.empty(self.full[-1].stop)
        v[self.full[0]] = rows[0]
        for a, coefs, part in zip(rows[1:3], c, self.full[1:3]):
            span, image = coefs @ self.f, self.basis.k_u.apply(a)
            v[part] = mass.apply(span) + image if residual else span + mass.solve(image)
        v[self.full[3].start:] = tail
        return v

    def expand(self, z: np.ndarray) -> np.ndarray:
        return self._expand(z, residual=False)

    def expand_residual(self, r: np.ndarray) -> np.ndarray:
        return self._expand(r, residual=True)


class BlockDiagPreconditioner:
    """Factored diagonal blocks of the preconditioner at alpha = spec.alpha.

    `table` maps each block name to its `DiagonalBlock`: P_Y as one
    `StateBlock`, (observation + alpha * residual) + trace on its band, the
    other blocks as Kronecker sums with their `KroneckerSolver`s. Everything
    but P_Y and the control scales comes from `basis`, the `Setup` given, or
    one built here that keeps no Grams once P_Y is summed.
    """

    def __init__(self, spec, spaces, blocks, setup=None):
        if setup is not None and not setup.serves(spec):
            raise ValueError("the setup is for another grid or has freed its Grams")
        self.spaces = spaces
        self.alpha = a = spec.alpha
        self.basis = basis = setup or Setup(spec, spaces, blocks)
        observation, residual, trace, slots = basis.grams
        lower = observation + a * residual + trace
        del observation, residual, trace
        if setup is None:
            basis.grams = None  # freed before P_Y's factor
        p_y = StateBlock(lower, slots, spaces.block_shape("y"), spec.degree)
        u_mass = basis.blocks["u", "u"]
        self.table = {
            "y": DiagonalBlock(1.0, p_y, p_y),
            "u": DiagonalBlock(a, u_mass, basis.solver),
            "p_u": DiagonalBlock(1.0 / a, u_mass, basis.solver),
            **basis.multipliers,
        }

    @property
    def dim(self) -> int:
        return sum(self.spaces.block_dims)

    def block_matrix(self, name: str) -> sp.csr_matrix:
        """The scaled sparse matrix of one diagonal block."""
        scale, mat, _ = self.table[name]
        mat = mat.materialize()
        return mat if scale == 1.0 else (scale * mat).tocsr()

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
                         setup: Setup | None = None) -> BlockDiagPreconditioner:
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
