"""Block-diagonal preconditioner for the discrete optimality systems.

The preconditioner is one table, block name -> (scale, unscaled matrix,
solver), scaled as diag(P_Y, alpha M_U, M_U / alpha, S_R1[, M_R2]); its
apply, its export and the dense reference below all read it. The state
block realizes the weighted norm

    |y|^2 = (y, y)_{L2(q_T)} + alpha * |state residual|^2_{L2(Q_T)}
            + |grad y(0)|^2_{L2} [+ |d_t y(0)|^2_{L2} for the wave problem]

and is the one block a solve factorizes, by a multifrontal Cholesky
(`MultifrontalCholesky`, after Duff & Reid, ACM TOMS 1983) over the
geometric nested-dissection tree of its tensor grid (`nested_dissection`,
after George, SINUM 1973): a state-space basis function couples only with
those within p indices per axis, so a slab of p grid planes separates the
grid, and the front of each tree node is dense and factored by LAPACK. Its
symbolic phase (`FrontalTree`) depends on the grid and p alone, and so does
its scatter map: P_Y's pattern is the Kronecker product of the per-axis
bands |i - j| <= p, and the map sends each band entry of the lower triangle
of the tree's order to its place in one flat buffer of every front's F11
and F21. P_Y's three alpha-free Grams (`state_grams`) are value arrays on
that band, outer products of their univariate factors' band entries, so per
alpha P_Y is a sum of three arrays, symmetrized and scattered into the
fronts in one assignment (`state_block`); no sparse matrix is formed unless
export, verify or a test reads one (`StateBlock.materialize`). Every
other block is a Kronecker product of univariate masses, or the r1 Gram
S_x x M_y + M_x x S_y, and is inverted in the eigenbases of its factors
(`kron.KroneckerSolver`). P reads the observation and the control mass from
the system table of `assembly.system_blocks` and builds the r1 Gram and the
r2 mass, which A does not contain. Only P_Y, its factor and the control
scales depend on alpha; `alpha_free_setup` holds P_Y's Grams and the
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
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack

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
    `state_block` makes P_Y exactly symmetric.
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


def _axis_band(n: int, p: int) -> tuple:
    """Rows and columns of the band |i - j| <= p of an n x n matrix, row by
    row, as int32 arrays."""
    near = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= p
    return tuple(idx.astype(np.int32) for idx in np.nonzero(near))


def band_values(km: KroneckerMatrix, p: int) -> np.ndarray:
    """A Kronecker sum of square factors on the Kronecker product of the
    per-axis bands |i - j| <= p, in the order of `FrontalTree.band`.

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


def state_grams(spec: ProblemSpec, spaces: DiscreteSpaces, blocks: dict) -> tuple:
    """P_Y's alpha-free terms on its band (`band_values`): observation,
    residual (`state_residual_form`), trace."""
    return tuple(band_values(km, spec.degree) for km in (
        blocks["y", "y"], state_residual_form(spec, spaces),
        trace_form(spec, spaces)))


# unknowns at which `nested_dissection` stops splitting. Of 64, 128, 256 and
# 512, 256 factored and solved P_Y fastest at wave p=2 level 4 (one BLAS
# thread); at level 3 and at wave p=3 level 4 they were within noise.
ND_LEAF = 256


class TreeNode(NamedTuple):
    """A node of the `nested_dissection` tree: its subtree holds positions
    [start, stop) of the order, the node itself (a leaf block or a
    separator) the last ones, [own, stop)."""

    start: int
    own: int
    stop: int


def nested_dissection(shape: tuple, p: int) -> tuple:
    """Nested-dissection order of the C-ordered tensor grid `shape`, and
    its tree as `TreeNode`s in postorder.

    The longest axis is split by a separator slab of p planes; the two
    halves are ordered first, recursively, and the separator last. Blocks of
    at most ND_LEAF unknowns keep their natural order and are the leaves.
    """
    order, nodes = [], []

    def visit(block, start):
        n = max(block.shape)
        if block.size <= ND_LEAF or n <= p:
            if block.size:
                order.append(block.ravel())
                nodes.append(TreeNode(start, start, start + block.size))
            return
        axis = block.shape.index(n)
        left, sep, right = np.split(block, [(n - p) // 2, (n + p) // 2], axis=axis)
        visit(left, start)
        visit(right, start + left.size)
        own = start + left.size + right.size
        order.append(sep.ravel())
        nodes.append(TreeNode(start, own, own + sep.size))

    visit(np.arange(math.prod(shape)).reshape(shape), 0)
    return np.concatenate(order), nodes


class Front(NamedTuple):
    """The symbolic front of one tree node: its own positions [own, stop),
    the sorted positions beyond its subtree that its columns of L reach
    (`update`), its children's extend-add maps as (front index,
    `_extend_add_runs`) pairs, and where its F11 and F21 begin in the flat
    buffer of `FrontalTree.front_map` (`offset`)."""

    start: int
    own: int
    stop: int
    update: np.ndarray
    children: tuple
    offset: int


def _extend_add_runs(rows: np.ndarray, own: int, stop: int,
                     update: np.ndarray) -> tuple:
    """A child's update rows (sorted positions) as runs that land on
    consecutive rows of the parent front: (start, stop) in the child's
    update matrix, the first row in the parent's own block (rows[i] - own)
    or update block (index into `update`), and whether it is the latter."""
    n_own = int(np.searchsorted(rows, stop))
    local = np.concatenate([rows[:n_own] - own,
                            np.searchsorted(update, rows[n_own:])])
    cut = np.flatnonzero((np.diff(local) != 1) | (np.arange(1, rows.size) == n_own))
    bounds = [0, *(cut + 1).tolist(), rows.size]
    return tuple((a, b, int(local[a]), a >= n_own)
                 for a, b in zip(bounds, bounds[1:]))


class FrontalTree:
    """Symbolic multifrontal Cholesky (Duff & Reid, ACM TOMS 1983) of a
    block with the full band of width p per axis on the C-ordered grid
    `shape`, in its `nested_dissection` order.

    A front's update set is the positions beyond its subtree that the band
    reaches from its own box, joined with its children's update sets. The
    tree, the front sizes and the extend-add maps depend on the grid and p
    alone, so `band_nnz` (the band's entries), `factor_bytes` (the stored L,
    which is also the flat buffer of every front's F11 and F21) and
    `stack_bytes` (the peak of the pending update matrices) are known before
    any value is.
    """

    def __init__(self, shape: tuple, p: int):
        self.shape, self.p = shape, p
        self.band_nnz = math.prod(_axis_band(n, p)[0].size for n in shape)
        self.perm, nodes = nested_dissection(shape, p)
        self.iperm = np.empty_like(self.perm)
        self.iperm[self.perm] = np.arange(self.perm.size)
        where = self.iperm.reshape(shape)
        self.fronts, open_fronts = [], []
        self.factor_bytes = self.stack_bytes = pending = 0
        for node in nodes:
            kids = []
            while open_fronts and self.fronts[open_fronts[-1]].start >= node.start:
                kids.append(open_fronts.pop())
            coords = np.unravel_index(self.perm[node.own:node.stop], shape)
            reach = where[tuple(slice(max(c.min() - p, 0), c.max() + p + 1)
                                for c in coords)].ravel()
            update = np.unique(np.concatenate(
                [reach] + [self.fronts[c].update for c in kids]))
            update = update[update >= node.stop]
            k, u = node.stop - node.own, update.size
            children = tuple((c, _extend_add_runs(self.fronts[c].update, node.own,
                                                  node.stop, update))
                             for c in kids)
            self.fronts.append(Front(*node, update, children, self.factor_bytes // 8))
            open_fronts.append(len(self.fronts) - 1)
            self.factor_bytes += 8 * (k + u) * k
            self.stack_bytes = max(self.stack_bytes, pending + 8 * u * u)
            pending += 8 * (u * u - sum(self.fronts[c].update.size ** 2
                                        for c in kids))

    def band(self) -> tuple:
        """Row, column and transpose's index of each band entry, in the
        natural order: the Kronecker product of the per-axis bands."""
        rows = cols = mirror = np.zeros(1, dtype=np.int32)
        for n in self.shape:
            i, j = _axis_band(n, self.p)
            index = np.zeros((n, n), dtype=np.int32)
            index[i, j] = np.arange(i.size)
            rows = (rows[:, None] * n + i).ravel()
            cols = (cols[:, None] * n + j).ravel()
            mirror = (mirror[:, None] * i.size + index[j, i]).ravel()
        return rows, cols, mirror

    @cached_property
    def front_map(self) -> tuple:
        """The alpha-free scatter map of the band into the fronts, as int32
        arrays: for each band entry in the lower triangle of the order (row
        position at or after column position), its index, its transpose's
        index, and its place in the flat buffer that holds, front after
        front from `Front.offset`, F11 (k x k) and then F21 (u x k), each in
        Fortran order."""
        if self.factor_bytes // 8 >= 2 ** 31:
            raise ValueError("the factor has too many entries for int32 maps")
        rows, cols, mirror = self.band()
        iperm = self.iperm.astype(np.int32)
        pos, col = iperm[rows], iperm[cols]
        del rows, cols
        lower = np.flatnonzero(pos >= col).astype(np.int32)
        pos, col = pos[lower], col[lower]
        # per column position: its F11 column's start less its front's own
        # start, its F21 column's start less the update rows of the earlier
        # fronts, its front's stop and its front's key for the update search
        n = self.perm.size
        base11, base21, stop, key = np.empty((4, n), dtype=np.int64)
        first = 0
        for i, front in enumerate(self.fronts):
            k, u = front.stop - front.own, front.update.size
            own = slice(front.own, front.stop)
            base11[own] = front.offset + k * np.arange(k) - front.own
            base21[own] = front.offset + k * k + u * np.arange(k) - first
            stop[own], key[own] = front.stop, i * n
            first += u
        keys = np.concatenate([i * n + f.update for i, f in enumerate(self.fronts)])
        slot = base11[col] + pos
        outer = np.flatnonzero(pos >= stop[col])
        col = col[outer]
        slot[outer] = base21[col] + np.searchsorted(keys, key[col] + pos[outer])
        return lower, mirror[lower], slot.astype(np.int32)


class MultifrontalCholesky:
    """Cholesky factor L L' of an SPD block with the band of `tree`, from
    the lower triangle of its permuted fronts in the flat `buffer` (see
    `FrontalTree.front_map`), which it factors in place.

    Front by front in postorder: the children's update matrices are added to
    F11, F21 and a zeroed F22 at their increasing index maps (lower
    triangles to lower triangles, so nothing is symmetrized), and LAPACK
    factors the front: L11 by dpotrf, L21 = F21 L11^-T by dtrsm, and the
    update F22 - L21 L21' by dsyrk. Raises ValueError when a pivot is not
    positive.
    """

    def __init__(self, buffer: np.ndarray, tree: FrontalTree):
        self.tree = tree
        self.factors, updates = [], {}
        for i, front in enumerate(tree.fronts):
            k, u, at = front.stop - front.own, front.update.size, front.offset
            f11 = buffer[at:at + k * k].reshape((k, k), order="F")
            f21 = buffer[at + k * k:at + (k + u) * k].reshape((u, k), order="F")
            blocks = f11, f21, np.zeros((u, u), order="F")
            for child, runs in front.children:
                update = updates.pop(child)
                for j, (a, b, r, r_upd) in enumerate(runs):
                    for c, d, q, q_upd in runs[:j + 1]:
                        target = blocks[r_upd + q_upd]
                        target[r:r + b - a, q:q + d - c] += update[a:b, c:d]
            l11, info = lapack.dpotrf(f11, lower=1, clean=0, overwrite_a=1)
            if info:
                raise ValueError(f"block is not positive definite: pivot "
                                 f"{info} of front {i} failed")
            if u:
                f21 = blas.dtrsm(1.0, l11, f21, side=1, lower=1, trans_a=1,
                                 overwrite_b=1)
                updates[i] = blas.dsyrk(-1.0, f21, beta=1.0, c=blocks[2], lower=1,
                                        overwrite_c=1)
            self.factors.append((l11, f21))

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Solve with the unpermuted block; r may carry extra columns."""
        perm, fronts = self.tree.perm, self.tree.fronts
        y = np.asarray(r, dtype=float)[perm]
        for front, (l11, l21) in zip(fronts, self.factors):
            part = y[front.own:front.stop]
            part[...] = lapack.dtrtrs(l11, part, lower=1)[0].reshape(part.shape)
            if front.update.size:
                y[front.update] -= l21 @ part
        for front, (l11, l21) in zip(reversed(fronts), reversed(self.factors)):
            part = y[front.own:front.stop]
            if front.update.size:
                part -= l21.T @ y[front.update]
            part[...] = lapack.dtrtrs(l11, part, lower=1,
                                      trans=1)[0].reshape(part.shape)
        x = np.empty_like(y)
        x[perm] = y
        return x


@lru_cache(maxsize=4)
def frontal_tree(shape: tuple, p: int) -> FrontalTree:
    """The `FrontalTree` of a grid, built once for the memory gate and the
    factors; every caller shares it and must not modify it."""
    return FrontalTree(shape, p)


class StateBlock(NamedTuple):
    """P_Y on the band of its `FrontalTree`, held as `lower`: the value of
    each band entry in the lower triangle of the tree's order, in the order
    of `FrontalTree.front_map`. Only `materialize` builds a sparse matrix."""

    lower: np.ndarray
    tree: FrontalTree

    def fronts(self) -> np.ndarray:
        """The tree's flat buffer of every front's F11 and F21, holding the
        lower triangle of the permuted block."""
        buffer = np.zeros(self.tree.factor_bytes // 8)
        buffer[self.tree.front_map[2]] = self.lower
        return buffer

    def materialize(self) -> sp.csr_matrix:
        """The exact CSR matrix, for export, the verify instruments and the
        tests; a zero entry is left out."""
        lower, mirror, _ = self.tree.front_map
        rows, cols, _ = self.tree.band()
        values = np.empty(self.tree.band_nnz)
        values[lower] = values[mirror] = self.lower
        keep = values != 0
        n = self.tree.perm.size
        mat = sp.csr_matrix((values[keep], (rows[keep], cols[keep])), shape=(n, n))
        mat.sort_indices()
        return mat


def state_block(grams: tuple, alpha: float, tree: FrontalTree) -> StateBlock:
    """P_Y at alpha from its `state_grams`: v = (observation + alpha *
    residual) + trace on the band, and the mean 0.5 (v_ij + v_ji) of each
    entry and its transpose, bit for bit the CSR sum 0.5 (m + m') of the
    materialized Grams."""
    observation, residual, trace = grams
    v = observation + alpha * residual + trace
    lower, mirror, _ = tree.front_map
    half = v[lower]
    half += v[mirror]
    half *= 0.5
    return StateBlock(half, tree)


class DiagonalBlock(NamedTuple):
    """One block of P: scale * matrix, inverted as solver.solve(r) / scale.
    In the `ControlEigenbasis` one `KroneckerDiagonal` is both."""

    scale: float
    matrix: object  # StateBlock or KroneckerMatrix, unscaled
    solver: object  # MultifrontalCholesky or KroneckerSolver, unscaled


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
    The rotated system and preconditioner serve MINRES
    (`ControlCoordinates`): they apply and solve but do not materialize,
    which stays with the B-spline ones.
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


class ControlCoordinates:
    """MINRES coordinates (`krylov.Euclidean` names their methods) of the
    rotated system and preconditioner of a `ControlEigenbasis`, in which a
    vector's control blocks are fixed by state-sized vectors and 4 scalars.

    With D = `basis.mass`, K_U = `basis.k_u` and F = [x0_u, x0_pu, D^-1 b_u,
    D^-1 b_pu] (set by `start`), an iterate or a P^-1 output has u block
    F c_u + D^-1 K_U a_u, and p_u block F c_pu + D^-1 K_U a_pu; a residual or
    an A output has u block D F d_u + K_U b_u, and p_u likewise. y and the
    multipliers after p_u stay explicit. A coordinate array holds five rows
    of dim Y: y, a_u, a_pu (b_u, b_pu) and g_u = G a_u, g_pu = G a_pu (zero
    in a residual), then c_u, c_pu (d_u, d_pu) and the multiplier tail.
    G = K_U' M_U^-1 K_U is the state residual's Gram (`state_residual_form`,
    built here), by the residual inclusion. P^-1 computes it afresh on each
    output.

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
        self.gram = state_residual_form(system.spec, spaces)
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
        self.kf = np.stack([k_u.T.apply(col) for col in self.f])
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
        o_rows[3:5] = self.gram.apply(o_rows[1:3], stacked=True)
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


def alpha_free_setup(spec: ProblemSpec, spaces: DiscreteSpaces,
                     blocks: dict) -> tuple:
    """The part of P that every alpha shares and that costs more than the
    eigh of a few univariate factors: the `state_grams` and the
    `ControlEigenbasis` the solve runs in."""
    return state_grams(spec, spaces, blocks), ControlEigenbasis(spaces, blocks)


class BlockDiagPreconditioner:
    """Factored diagonal blocks of the preconditioner at alpha = spec.alpha.

    `table` maps each block name to its `DiagonalBlock`: P_Y as a
    `StateBlock` with its `MultifrontalCholesky`, the other blocks as
    Kronecker sums with their `KroneckerSolver`s. P_Y's Grams and `basis`, the
    `ControlEigenbasis` whose control-mass solver serves u and p_u, come
    from `setup`, an `alpha_free_setup` built when None.
    """

    def __init__(self, spec, spaces, blocks, setup=None):
        self.spaces = spaces
        self.alpha = a = spec.alpha
        grams, self.basis = setup or alpha_free_setup(spec, spaces, blocks)
        p_y = state_block(grams, a, frontal_tree(spaces.block_shape("y"), spec.degree))
        del grams  # those of a setup built here are freed before P_Y's factor
        u_mass = blocks["u", "u"]
        self.table = {
            "y": DiagonalBlock(1.0, p_y, MultifrontalCholesky(p_y.fronts(), p_y.tree)),
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
