"""Verification measurements on the assembled systems.

Measures the discrete Brezzi constants of the 2x2 reordering, the
residual-inclusion defect, the gap between the sparse state block and its
dense operator-preconditioning reference, and the condition number of the
preconditioned system. Everything here is a measurement; the pass/fail
thresholds live with the checks of `cli.SUITES`.

The Brezzi constants and the condition number are eigenvalues of dense
pencils of A and P, and their control blocks are deflated exactly. Over the
control pair (u, p_u), A holds s x M_U and P holds diag(alpha, 1/alpha) x M_U,
s a symmetric 2x2 scalar matrix, and the control rows reach the other
unknowns only through K_U = A[p_u, y]. For each w with K_U' w = 0, the pair
(a w, b w) is therefore an eigenvector of (A, P) whenever (a, b) is an
eigenvector of the 2x2 scalar pencil (s, diag(alpha, 1/alpha)). The
P-orthogonal complement of these vectors is invariant and spanned by
v = diag(I, V, V, I[, I]), V = M_U^-1 K_U R^-1, where G = K_U' M_U^-1 K_U =
R'R is the state-sized Gram of K_U and R its Cholesky factor. In this basis
V' M_U V = I and V' K_U = R, so every control block of A and P is a scalar
times the identity and the (p_u, y) block is R; the Brezzi pencils split
the same way. Each pencil is solved on that span (340 unknowns in place of
3604 at wave p=2 level 2, 2,084 in place of 28,452 at level 3), and the
scalar pencil's eigenvalues are added with multiplicity dim U - dim Y:
(1 +- sqrt 5) / 2 for P^-1 A, the values of Murphy, Golub and Wathen (SISC
2000), and 1 for both Brezzi pencils. Neither A nor P is assembled, and K_U
is neither applied nor densified: `_control_deflation` builds G as a
Kronecker sum from K_U's factors and the control mass's factor eigenpairs,
densifies it on the state space and factors it; every other block is
densified by its Kronecker apply, P_Y from its CSR matrix. Only the control
entries are materialized otherwise, to check the structure on them.
DENSE_CAP bounds the unknowns of the deflated pencil.
"""

from dataclasses import asdict, dataclass, replace
import math

import numpy as np
from scipy.linalg import cholesky, eigh, null_space

from .assembly import DiscreteSystem, mass_solver
from .kron import KroneckerMatrix, mode_products
from .precond import BlockDiagPreconditioner, StateBlock, build_Ptilde_Y

# unknowns of the deflated pencil beyond which the dense instruments refuse a
# system
DENSE_CAP = 6000

CONTROL = ("u", "p_u")
# relative Frobenius defect up to which a control block of A counts as a
# multiple of the control mass: the blocks are scaled copies of one matrix
MULTIPLE_RTOL = 1e-12


def _refuse_beyond_cap(system: DiscreteSystem, instrument: str):
    """ValueError if the deflated pencil, dim - 2 dim U + 2 dim Y unknowns,
    exceeds DENSE_CAP."""
    spaces = system.spaces
    n = system.dim - 2 * (spaces.block_dim("u") - spaces.block_dim("y"))
    if n > DENSE_CAP:
        raise ValueError(f"instance too large for the dense {instrument} "
                         f"({n} deflated unknowns > {DENSE_CAP})")


def _dense(op) -> np.ndarray:
    """The dense matrix of a Kronecker sum, by its apply on the identity, or
    of P_Y, from its `StateBlock`'s CSR matrix."""
    if isinstance(op, StateBlock):
        return op.materialize().toarray()
    return op.apply(np.eye(math.prod(f.shape[1] for f in op.terms[0].factors)))


def _state_gram(k_u: KroneckerMatrix, solver) -> KroneckerMatrix:
    """G = K_U' M_U^-1 K_U as a Kronecker sum.

    With K_U = sum_k w_k K_k1 x K_k2 x K_k3 and the control mass's factor
    eigenpairs M_f = Q_f diag(lam_f) Q_f' (`solver`, a `KroneckerSolver`),
    G = sum_{k,l} w_k w_l (x)_f W_kf' W_lf, W_kf = diag(lam_f)^-1/2 Q_f'
    K_kf: one term per pair of K_U's terms. Each W and each product is
    formed once, so the terms share their factors as K_U's terms do."""
    scaled, products, gram = {}, {}, KroneckerMatrix()
    for term in k_u.terms:
        for mode, f in enumerate(term.factors):
            if (mode, id(f)) not in scaled:
                scaled[mode, id(f)] = ((solver.vectors[mode].T @ f)
                                       / np.sqrt(solver.factor_values[mode])[:, None])

    def product(mode, f, g):
        key = mode, id(f), id(g)
        if key not in products:
            products[key] = scaled[mode, id(f)].T @ scaled[mode, id(g)]
        return products[key]

    for a in k_u.terms:
        for b in k_u.terms:
            gram.add(a.weight * b.weight,
                     *(product(mode, f, g) for mode, (f, g)
                       in enumerate(zip(a.factors, b.factors))))
    return gram


def _control_deflation(system: DiscreteSystem,
                       precon: BlockDiagPreconditioner) -> tuple:
    """The deflated pencil (G, H) = (v'Av, v'Pv), s, d and rank V.

    The control basis is V = M_U^-1 K_U R^-1, with R the upper Cholesky
    factor of the state-sized Gram K_U' M_U^-1 K_U = R'R, which
    `_state_gram` builds from the system's (p_u, y) entry and the factor
    eigenpairs of the control mass in P's `Setup`, and which is densified
    on the state space. V spans range(M_U^-1 K_U), so no rank is decided:
    ValueError unless the Gram is positive definite (K_U of full column
    rank, rank V = dim Y). V' M_U V = I, so every control block of A and P
    is a scalar times the identity, and the (p_u, y) block is V' K_U = R.
    Every other block, an entry of the system table times its
    `DiscreteSystem.weight` or a block of P's table times its scale, is
    densified by its Kronecker apply on the identity, P_Y from its CSR
    matrix; its transpose fills the mirrored block. s, with
    A[c, c'] = s[c, c'] M_U for c, c' in CONTROL, is read from the control
    entries, d from P's control scales; an absent entry is a zero block.
    Besides P_Y, only the entries that touch a control, K_U aside, are
    materialized, each once, to check the structure: ValueError unless each
    control entry is such a multiple to roundoff and no entry but K_U
    couples the controls to another block.
    """
    held = {}

    def matrix(op):
        if id(op) not in held:
            held[id(op)] = op.materialize()
        return held[id(op)]

    m_u = matrix(precon.table["u"].matrix)
    s = np.zeros((2, 2))
    for (row, col), op in system.blocks.items():
        if row in CONTROL and col in CONTROL:
            blk = system.weight(row, col) * matrix(op)
            i, j = CONTROL.index(row), CONTROL.index(col)
            s[i, j] = s[j, i] = blk.multiply(m_u).sum() / m_u.multiply(m_u).sum()
            defect = (blk - s[i, j] * m_u).data  # Frobenius norms: CSR values
            if np.linalg.norm(defect) > MULTIPLE_RTOL * np.linalg.norm(blk.data):
                raise ValueError(f"block ({row}, {col}) is not a multiple of "
                                 f"the control mass: no exact deflation")
        elif ((row in CONTROL) != (col in CONTROL) and (row, col) != ("p_u", "y")
              and matrix(op).count_nonzero()):
            raise ValueError(f"block ({row}, {col}) couples the controls "
                             f"outside K_U: no exact deflation")
    spaces = system.spaces
    if ("p_u", "y") in system.blocks:
        gram = _state_gram(system.blocks["p_u", "y"], precon.basis.solver)
        try:
            r = cholesky(_dense(gram), check_finite=False)
        except np.linalg.LinAlgError:
            raise ValueError("K_U' M_U^-1 K_U is not positive definite: "
                             "no exact deflation") from None
    else:
        r = np.zeros((0, spaces.block_dim("y")))
    eye = np.eye(r.shape[0])
    names = spaces.block_names
    offs = np.cumsum([0] + [r.shape[0] if n in CONTROL else spaces.block_dim(n)
                            for n in names])
    part = dict(zip(names, map(slice, offs, offs[1:])))
    g, h = np.zeros((2, offs[-1], offs[-1]))

    def put(pencil, row, col, blk):
        pencil[part[col], part[row]] = blk.T
        pencil[part[row], part[col]] = blk

    for (row, col), op in system.blocks.items():
        if row in CONTROL and col in CONTROL:
            put(g, row, col, s[CONTROL.index(row), CONTROL.index(col)] * eye)
        elif (row, col) == ("p_u", "y"):
            put(g, row, col, r)
        elif row not in CONTROL and col not in CONTROL:  # else zero, checked
            put(g, row, col, system.weight(row, col) * _dense(op))
    for n in names:
        scale, op, _ = precon.table[n]
        put(h, n, n, scale * (eye if n in CONTROL else _dense(op)))
    return g, h, s, np.diag([precon.table[n].scale for n in CONTROL]), r.shape[0]


@dataclass
class BrezziReport:
    """Measured saddle-point constants next to the continuous bounds."""

    alpha: float
    c_a: float
    c_b: float
    gamma0: float
    k0: float
    bound_c_a: float
    bound_c_b: float
    dim_x: int
    dim_m: int
    kernel_dim: int

    def as_dict(self):
        return asdict(self)


def measure_brezzi(system: DiscreteSystem, alpha: float | None = None) -> BrezziReport:
    """Brezzi constants of the (state, control) x (multiplier) reordering.

    Measured on the system A and the block-diagonal preconditioner P that
    the solver builds at alpha, split after the primal pair x = (y, u): the
    upper left block of A is the form a, its lower left block is B, and the
    two diagonal blocks of P are the metrics on the primal pair (state
    metric, alpha control mass) and on the multipliers m (control mass /
    alpha, initial-condition Grams). c_B and k0 are the roots of the largest
    and the smallest eigenvalue of the one pencil (B N_x^-1 B', N_m), the
    smaller of the two that share the nonzero spectrum of B.

    All four come from the deflated pencil (G, H), split after x, and the
    deflated eigenvalue 1: c_A from (G_xx, H_xx), gamma0 from that pencil on
    ker G_mx, c_B and k0 from (G_mx H_xx^-1 G_xm, H_mm). This is exact: ker B
    lies in the span of v_x = diag(I, V), as B's (p_u, u) block s[1, 0] M_U
    is invertible; ker(B v_x) = ker G_mx, as the p_u rows of B v_x lie in
    M_U range(V), where V' is injective; N_x^-1 B' v_m lies in the span of
    v_x, as the u rows of B' v_m are s[0, 1] M_U V. Systems whose deflated
    pencil exceeds DENSE_CAP unknowns, or whose control blocks lack that
    structure, are refused.
    """
    spec = system.spec
    spec_a = replace(spec, alpha=spec.alpha if alpha is None else float(alpha))
    _refuse_beyond_cap(system, "Brezzi measurement")
    spaces = system.spaces
    g, h, s, d, rank = _control_deflation(
        replace(system, spec=spec_a),
        BlockDiagPreconditioner(spec_a, spaces, system.blocks))
    if not s[1, 0]:
        raise ValueError("B has no control block: ker B is not confined to "
                         "the deflated span")
    n_deflated = spaces.block_dim("u") - rank
    dim_x = spaces.block_dim("y") + spaces.block_dim("u")
    k = dim_x - n_deflated  # the columns of v_x

    # a and N_x are s[0, 0] M_U and d[0, 0] M_U on the deflated controls
    a_x, n_x, b = g[:k, :k], h[:k, :k], g[k:, :k]
    ev = eigh(a_x, n_x, eigvals_only=True)
    c_a = float(max(abs(ev[0]), abs(ev[-1]),
                    abs(s[0, 0] / d[0, 0]) if n_deflated else 0.0))

    # the rank rule of null_space for B itself: eps * max(B.shape)
    z = null_space(b, rcond=np.finfo(float).eps * max(system.dim - dim_x, dim_x))
    gamma0 = (float(eigh(z.T @ a_x @ z, z.T @ n_x @ z, eigvals_only=True)[0])
              if z.shape[1] else np.nan)

    # on the deflated multipliers B N_x^-1 B' is s[1, 0]^2 / d[0, 0] M_U and
    # N_m is d[1, 1] M_U
    ev = eigh(b @ np.linalg.solve(n_x, b.T), h[k:, k:], eigvals_only=True)
    if n_deflated:
        ev = np.sort(np.append(ev, s[1, 0] ** 2 / (d[0, 0] * d[1, 1])))
    c_b = float(np.sqrt(max(ev[-1], 0.0)))
    k0 = float(np.sqrt(max(ev[0], 0.0)))

    return BrezziReport(spec_a.alpha, c_a, c_b, gamma0, k0, 1.0, math.sqrt(2.0),
                        dim_x, system.dim - dim_x, z.shape[1])


@dataclass
class ConditionReport:
    kappa: float
    lam_abs_max: float
    lam_abs_min: float
    n_zero_modes: int

    def as_dict(self):
        return asdict(self)


ZERO_MODE_RTOL = 1e-8


def condition_number_estimate(system: DiscreteSystem,
                              precon: BlockDiagPreconditioner) -> ConditionReport:
    """Extreme |eigenvalues| of the preconditioned operator, kappa over the range.

    The wave system is rank deficient by construction (the initial-velocity
    rows cannot reach the non-H^1_0 part of their multiplier space), so
    eigenvalues below ZERO_MODE_RTOL times the largest magnitude are counted
    as null modes and excluded from kappa; MINRES never sees them when the
    right-hand side is compatible. The deflated pencil (G, H) is solved and
    the eigenvalues of the scalar pencil (s, d) are added with multiplicity
    dim U - rank V. Systems whose deflated pencil exceeds DENSE_CAP
    unknowns, or whose control blocks lack the deflated structure, are
    refused.
    """
    _refuse_beyond_cap(system, "condition number")
    g, h, s, d, rank = _control_deflation(system, precon)
    ev = eigh(g, h, eigvals_only=True)
    deflated = eigh(s, d, eigvals_only=True)
    aev = np.abs(np.concatenate(
        [ev, np.repeat(deflated, system.spaces.block_dim("u") - rank)]))
    hi = float(aev.max())
    nonzero = aev[aev > ZERO_MODE_RTOL * hi]
    lo = float(nonzero.min())
    return ConditionReport(hi / lo, hi, lo, int(aev.size - nonzero.size))



def residual_on_grid(system: DiscreteSystem, y_coef: np.ndarray):
    """State residual ((d_tt|d_t) - Lap) y_h sampled on the control-space Gauss grid.

    y_coef may carry extra trailing columns, one state each. Returns (values,
    weights): the values as a 3-D tensor over the grid, with the columns
    trailing, and the weights as a 3-D tensor; the grid integrates products
    of two residual/control functions exactly. Each term of the strong form
    is one `mode_products` call on the basis tables.
    """
    spec, spaces = system.spec, system.spaces
    n = spaces.u_time.degree + 1
    wts = [s.rule(n, None).flat_weights
           for s in (spaces.u_time, spaces.u_x, spaces.u_y)]
    dt = 2 if spec.is_wave else 1
    # the state spaces share the control spaces' meshes, so their tables
    # are evaluated on the same Gauss points
    et = [spaces.y_time.table(n, None, d) for d in (0, dt)]
    ex = [spaces.y_x.table(n, None, d)[:, spaces.ix] for d in (0, 2)]
    ey = [spaces.y_y.table(n, None, d)[:, spaces.iy] for d in (0, 2)]
    vals = mode_products((et[1], ex[0], ey[0]), y_coef)
    vals -= mode_products((et[0], ex[1], ey[0]), y_coef)
    vals -= mode_products((et[0], ex[0], ey[1]), y_coef)
    w3 = wts[0][:, None, None] * wts[1][None, :, None] * wts[2][None, None, :]
    return vals.reshape(w3.shape + np.shape(y_coef)[1:]), w3


def inclusion_residuals(system: DiscreteSystem, n_samples: int = 20,
                        seed: int = 0) -> np.ndarray:
    """Relative L2 defect of projecting the state residual into the control space.

    The residuals of random state functions are sampled on the exact Gauss
    grid, their control-space least-squares projections are evaluated on the
    same grid, and each defect is integrated pointwise. All samples ride as
    columns of one evaluation. When the inclusion holds the defect is zero up
    to projection-solve roundoff.
    """
    spaces, blocks = system.spaces, system.blocks
    eu = [s.table(s.degree + 1, None, 0)
          for s in (spaces.u_time, spaces.u_x, spaces.u_y)]
    rng = np.random.default_rng(seed)
    yv = rng.standard_normal((n_samples, spaces.block_dim("y"))).T
    vals, w3 = residual_on_grid(system, yv)
    coef = mass_solver(spaces, "p_u").solve(blocks["p_u", "y"].apply(yv))
    proj = mode_products(eu, coef).reshape(vals.shape)
    norm_sq = np.tensordot(w3, vals**2, 3)
    defect_sq = np.tensordot(w3, (vals - proj) ** 2, 3)
    return np.sqrt(np.divide(defect_sq, norm_sq, out=np.zeros(n_samples),
                             where=norm_sq > 0))


@dataclass
class ReferenceGapReport:
    abs_gap: float
    rel_gap: float
    scale: float


def sparse_vs_reference_gap(system: DiscreteSystem) -> ReferenceGapReport:
    """Max-abs gap between P's factorized state block and the reference
    `build_Ptilde_Y` builds from the same P."""
    precon = BlockDiagPreconditioner(system.spec, system.spaces, system.blocks)
    sparse_block = precon.block_matrix("y").toarray()
    reference = build_Ptilde_Y(system, precon)
    scale = float(np.abs(sparse_block).max())
    gap = float(np.abs(sparse_block - reference).max())
    return ReferenceGapReport(gap, gap / scale, scale)
