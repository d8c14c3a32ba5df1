"""Verification measurements on the assembled systems.

Measures the discrete Brezzi constants of the 2x2 reordering, the
residual-inclusion defect, the gap between the sparse state block and its
dense operator-preconditioning reference, and the condition number of the
preconditioned system. Everything here is a measurement; the pass/fail
thresholds live with the checks of `cli.SUITES`.

The Brezzi constants and the condition number are eigenvalues of dense
pencils built from A and P, and their control blocks are deflated exactly.
Over the control pair (u, p_u), A holds s x M_U and P holds
diag(alpha, 1/alpha) x M_U, s a symmetric 2x2 scalar matrix, and the control
rows reach the other unknowns only through K_U = A[p_u, y], of rank at most
dim Y. For each w with K_U' w = 0, the pair (a w, b w) is therefore an
eigenvector of (A, P) whenever (a, b) is an eigenvector of the 2x2 scalar
pencil (s, diag(alpha, 1/alpha)). The P-orthogonal complement of these
vectors is invariant and spanned by diag(I, Q, Q, I), Q an orthonormal basis
of a space containing range(M_U^-1 K_U); the Brezzi pencils split the same
way. Each pencil is solved on that span (340 unknowns in place of 3604 at
wave p=2 level 2), and the scalar pencil's eigenvalues are added with
multiplicity dim U - rank Q: (1 +- sqrt 5) / 2 for P^-1 A, the values of
Murphy, Golub and Wathen (SISC 2000), and 1 for both Brezzi pencils.
`_control_deflation` checks that structure on the matrix it is given and
refuses one without it.
"""

from dataclasses import asdict, dataclass, replace
import math

import numpy as np
from scipy.linalg import block_diag, eigh, null_space
from scipy.sparse.linalg import norm as sparse_norm

from .assembly import DiscreteSystem, assemble_system, mass_solver
from .splines import eval_basis_many, gauss_rule
from .precond import BlockDiagPreconditioner, build_Ptilde_Y

# unknowns beyond which the dense instruments refuse a system
DENSE_CAP = 6000

CONTROL = ("u", "p_u")
# relative Frobenius defect up to which a control block of A counts as a
# multiple of the control mass: the blocks are scaled copies of one matrix
MULTIPLE_RTOL = 1e-12


def _control_deflation(mat, precon: BlockDiagPreconditioner) -> tuple:
    """The deflation of the control blocks of `mat` against P: (Q, s, d).

    Q is the orthonormal QR factor of M_U^-1 K_U: its range contains
    range(M_U^-1 K_U) whatever the rank of K_U, so no rank is decided.
    K_U = mat[p_u, y] and s, with mat[c, c'] = s[c, c'] M_U for c, c' in
    CONTROL, are read from `mat`; M_U, its solver and d, the diagonal of P's
    control scales, from the preconditioner table. Raises ValueError unless
    each control block of `mat` is such a multiple to roundoff and the
    control rows of `mat` reach the other blocks only through K_U.
    """
    spaces = precon.spaces
    _, mass, solver = precon.table["u"]
    m_u = mass.materialize()
    s = np.empty((2, 2))
    for i, row in enumerate(CONTROL):
        rows = mat[spaces.block_slice(row)]
        for col in spaces.block_names:
            blk = rows[:, spaces.block_slice(col)]
            if col in CONTROL:
                j = CONTROL.index(col)
                s[i, j] = blk.multiply(m_u).sum() / m_u.multiply(m_u).sum()
                if sparse_norm(blk - s[i, j] * m_u) > MULTIPLE_RTOL * sparse_norm(blk):
                    raise ValueError(f"block ({row}, {col}) is not a multiple of "
                                     f"the control mass: no exact deflation")
            elif (row, col) != ("p_u", "y") and blk.count_nonzero():
                raise ValueError(f"block ({row}, {col}) couples the controls "
                                 f"outside K_U: no exact deflation")
    k_u = mat[spaces.block_slice("p_u"), spaces.block_slice("y")].toarray()
    q = np.linalg.qr(solver.solve(k_u))[0]
    return q, s, np.diag([precon.table[n].scale for n in CONTROL])


def _basis(spaces, names, q: np.ndarray) -> np.ndarray:
    """Dense diag(Q on each control block, the identity elsewhere) over `names`."""
    return block_diag(*(q if n in CONTROL else np.eye(spaces.block_dim(n))
                        for n in names))


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

    Measured on the system matrix A and the block-diagonal preconditioner P
    that the solver builds at alpha, split after the primal pair: the upper
    left block of A is the form a, its lower left block is B, and the two
    diagonal blocks of P are the metrics on the primal pair (state metric,
    alpha control mass) and on the multipliers (control mass / alpha,
    initial-condition Grams). c_B and k0 are the roots of the largest and
    the smallest eigenvalue of the one pencil (B N_x^-1 B', N_m), the
    smaller of the two that share the nonzero spectrum of B, with N_x^-1
    applied by P's block solves.

    The control blocks are deflated as the module docstring says: c_A from
    the pencil (a, N_x) on diag(I, Q) and the deflated eigenvalue 1; gamma0
    from the kernel of B diag(I, Q), found through the R factor of that
    product (ker B lies in the span of diag(I, Q) because B's (p_u, u)
    block, s[1, 0] M_U, is invertible); c_B and k0 from (B N_x^-1 B', N_m)
    on diag(Q, I) and the deflated eigenvalue 1. Systems beyond DENSE_CAP
    unknowns are refused, and so is a system whose control blocks lack the
    deflated structure.
    """
    spec = system.spec
    spec_a = replace(spec, alpha=spec.alpha if alpha is None else float(alpha))
    if system.dim > DENSE_CAP:
        raise ValueError(f"instance too large for dense Brezzi measurement "
                         f"({system.dim} > {DENSE_CAP})")
    spaces, blocks = system.spaces, system.blocks
    mat = assemble_system(spec_a, spaces, blocks=blocks).matrix
    precon = BlockDiagPreconditioner(spec_a, spaces, blocks)
    metric = precon.materialize()
    q, s, d = _control_deflation(mat, precon)
    if not s[1, 0]:
        raise ValueError("B has no control block: ker B is not confined to "
                         "the deflated span")
    n_deflated = spaces.block_dim("u") - q.shape[1]
    names, k = spaces.block_names, spaces.block_dim("y") + spaces.block_dim("u")
    v_x, v_m = _basis(spaces, names[:2], q), _basis(spaces, names[2:], q)

    # a and N_x are s[0, 0] M_U and d[0, 0] M_U on the deflated controls
    a_x = v_x.T @ (mat[:k, :k] @ v_x)
    n_x = v_x.T @ (metric[:k, :k] @ v_x)
    ev = eigh(a_x, n_x, eigvals_only=True)
    c_a = float(max(abs(ev[0]), abs(ev[-1]),
                    abs(s[0, 0] / d[0, 0]) if n_deflated else 0.0))

    # the rank rule of null_space for B itself: eps * max(B.shape)
    r = np.linalg.qr(mat[k:, :k] @ v_x, mode="r")
    z = null_space(r, rcond=np.finfo(float).eps * max(mat.shape[0] - k, k))
    if z.shape[1]:
        ev = eigh(z.T @ a_x @ z, z.T @ n_x @ z, eigvals_only=True)
        gamma0 = float(ev[0])
    else:
        gamma0 = np.nan

    # B' on diag(Q, I), then N_x^-1 block by block; on the deflated
    # multipliers B N_x^-1 B' is s[1, 0]^2 / d[0, 0] M_U and N_m is d[1, 1] M_U
    bt_m = mat[:k, k:] @ v_m
    parts = np.split(bt_m, [spaces.block_dim("y")])
    w = np.vstack([precon.solve_block(n, part) for n, part in zip(names, parts)])
    ev = eigh(bt_m.T @ w, v_m.T @ (metric[k:, k:] @ v_m), eigvals_only=True)
    if n_deflated:
        ev = np.sort(np.append(ev, s[1, 0] ** 2 / (d[0, 0] * d[1, 1])))
    c_b = float(np.sqrt(max(ev[-1], 0.0)))
    k0 = float(np.sqrt(max(ev[0], 0.0)))

    return BrezziReport(spec_a.alpha, c_a, c_b, gamma0, k0, 1.0, math.sqrt(2.0),
                        k, system.dim - k, z.shape[1])


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
    right-hand side is compatible. The control blocks are deflated as the
    module docstring says: the pencil (A, P) is solved on
    diag(I, Q, Q, I), and the eigenvalues of the 2x2 scalar pencil of the
    control blocks, read from `system.matrix`, are added with multiplicity
    dim U - rank Q. Systems beyond DENSE_CAP unknowns are refused, and so is
    a matrix whose control blocks lack the deflated structure.
    """
    if system.dim > DENSE_CAP:
        raise ValueError(f"instance too large for the dense condition number "
                         f"({system.dim} > {DENSE_CAP})")
    spaces, mat = system.spaces, system.matrix
    q, s, d = _control_deflation(mat, precon)
    v = _basis(spaces, spaces.block_names, q)
    ev = eigh(v.T @ (mat @ v), v.T @ (precon.materialize() @ v),
              eigvals_only=True)
    deflated = eigh(s, d, eigvals_only=True)
    aev = np.abs(np.concatenate(
        [ev, np.repeat(deflated, spaces.block_dim("u") - q.shape[1])]))
    hi = float(aev.max())
    nonzero = aev[aev > ZERO_MODE_RTOL * hi]
    lo = float(nonzero.min())
    return ConditionReport(hi / lo, hi, lo, int(aev.size - nonzero.size))


def residual_on_grid(system: DiscreteSystem, y_coef: np.ndarray):
    """State residual ((d_tt|d_t) - Lap) y_h sampled on the control-space Gauss grid.

    Returns (values, weights) as 3-D tensors; the grid integrates products of
    two residual/control functions exactly.
    """
    spec, spaces = system.spec, system.spaces
    rules = [gauss_rule(s) for s in (spaces.u_time, spaces.u_x, spaces.u_y)]
    pts = [r.flat_points for r in rules]
    wts = [r.flat_weights for r in rules]
    dt = 2 if spec.is_wave else 1

    def ev(space, x, d, restrict):
        e = eval_basis_many(space, x, d)
        return e[:, restrict] if restrict is not None else e

    y3 = y_coef.reshape(spaces.block_shape("y"))
    et = [ev(spaces.y_time, pts[0], d, None) for d in (0, dt)]
    ex = [ev(spaces.y_x, pts[1], d, spaces.ix) for d in (0, 2)]
    ey = [ev(spaces.y_y, pts[2], d, spaces.iy) for d in (0, 2)]
    vals = np.einsum("abc,ta,xb,yc->txy", y3, et[1], ex[0], ey[0])
    vals -= np.einsum("abc,ta,xb,yc->txy", y3, et[0], ex[1], ey[0])
    vals -= np.einsum("abc,ta,xb,yc->txy", y3, et[0], ex[0], ey[1])
    w3 = wts[0][:, None, None] * wts[1][None, :, None] * wts[2][None, None, :]
    return vals, w3


def inclusion_residuals(system: DiscreteSystem, n_samples: int = 20,
                        seed: int = 0) -> np.ndarray:
    """Relative L2 defect of projecting the state residual into the control space.

    The residual of a random state function is sampled on the exact Gauss
    grid, its control-space least-squares projection is evaluated on the same
    grid, and the defect is integrated pointwise. When the inclusion holds the
    defect is zero up to projection-solve roundoff.
    """
    spec, spaces, blocks = system.spec, system.spaces, system.blocks
    solver = mass_solver(spaces, "p_u")
    rules = [gauss_rule(s) for s in (spaces.u_time, spaces.u_x, spaces.u_y)]
    eu = [eval_basis_many(s, r.flat_points, 0)
          for s, r in zip((spaces.u_time, spaces.u_x, spaces.u_y), rules)]
    rng = np.random.default_rng(seed)
    out = np.empty(n_samples)
    for i in range(n_samples):
        yv = rng.standard_normal(spaces.block_dim("y"))
        vals, w3 = residual_on_grid(system, yv)
        coef = solver.solve(blocks["p_u", "y"].apply(yv)).reshape(
            spaces.block_shape("p_u"))
        proj = np.einsum("abc,ta,xb,yc->txy", coef, eu[0], eu[1], eu[2])
        norm_sq = float(np.sum(w3 * vals**2))
        defect_sq = float(np.sum(w3 * (vals - proj) ** 2))
        out[i] = np.sqrt(defect_sq / norm_sq) if norm_sq > 0 else 0.0
    return out


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
