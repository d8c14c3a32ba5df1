"""Verification measurements on the assembled systems.

Measures the discrete Brezzi constants of the 2x2 reordering, the
residual-inclusion defect, the gap between the sparse state block and its
dense operator-preconditioning reference, and the condition number of the
preconditioned system. Everything here is a measurement; the pass/fail
thresholds live with the checks of `cli.SUITES`.
"""

from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.linalg import eigh, null_space

from .assembly import DiscreteSystem, assemble_system, mass_solver
from .splines import eval_basis_many, gauss_rule
from .precond import BlockDiagPreconditioner, build_Ptilde_Y

# unknowns beyond which the dense instruments refuse a system
DENSE_CAP = 6000


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
    smaller of the two that share the nonzero spectrum of B. Dense
    eigen-solves, desk scale only.
    """
    spec = system.spec
    spec_a = replace(spec, alpha=spec.alpha if alpha is None else float(alpha))
    if system.dim > DENSE_CAP:
        raise ValueError(f"instance too large for dense Brezzi measurement "
                         f"({system.dim} > {DENSE_CAP})")
    spaces, blocks = system.spaces, system.blocks
    mat = assemble_system(spec_a, spaces, blocks=blocks).matrix
    metric = BlockDiagPreconditioner(spec_a, spaces, blocks).materialize()
    k = spaces.block_dim("y") + spaces.block_dim("u")
    a_mat, b_mat = mat[:k, :k].toarray(), mat[k:, :k].toarray()
    n_x, n_m = metric[:k, :k].toarray(), metric[k:, k:].toarray()

    ev = eigh(a_mat, n_x, eigvals_only=True)
    c_a = float(max(abs(ev[0]), abs(ev[-1])))

    z = null_space(b_mat)
    if z.shape[1]:
        ev = eigh(z.T @ a_mat @ z, z.T @ n_x @ z, eigvals_only=True)
        gamma0 = float(ev[0])
    else:
        gamma0 = np.nan

    v = np.linalg.solve(n_x, b_mat.T)
    ev = eigh(b_mat @ v, n_m, eigvals_only=True)
    c_b = float(np.sqrt(max(ev[-1], 0.0)))
    k0 = float(np.sqrt(max(ev[0], 0.0)))

    return BrezziReport(spec_a.alpha, c_a, c_b, gamma0, k0, 1.0, np.sqrt(2.0),
                        k, n_m.shape[0], z.shape[1])


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
    right-hand side is compatible. The full dense pencil is solved, so systems
    beyond DENSE_CAP unknowns are refused.
    """
    if system.dim > DENSE_CAP:
        raise ValueError(f"instance too large for the dense condition number "
                         f"({system.dim} > {DENSE_CAP})")
    ev = eigh(system.matrix.toarray(), precon.materialize().toarray(),
              eigvals_only=True)
    aev = np.abs(ev)
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

    def as_dict(self):
        return asdict(self)


def sparse_vs_reference_gap(system: DiscreteSystem) -> ReferenceGapReport:
    """Max-abs gap between P's factorized state block and the reference
    `build_Ptilde_Y` builds from the same P."""
    precon = BlockDiagPreconditioner(system.spec, system.spaces, system.blocks)
    sparse_block = precon.block_matrix("y").toarray()
    reference = build_Ptilde_Y(system, precon)
    scale = float(np.abs(sparse_block).max())
    gap = float(np.abs(sparse_block - reference).max())
    return ReferenceGapReport(gap, gap / scale, scale)
