"""Dense laboratory for symmetric block-tridiagonal saddle-point operators.

Small systems with alternating-sign diagonal blocks A_i and coupling blocks
B_i are assembled here, together with the quantities that connect
well-posedness constants (c_lo, c_hi) to the spectral-equivalence constants
(gamma_lo, gamma_hi) of a block-diagonal inner product. Everything is dense
and capped at total dimension 64: this module is a verification instrument,
not the production solver path.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag, eigh, subspace_angles
from scipy.optimize import brentq

MAX_TOTAL_DIM = 64
# every tolerance relative to the spectral norm of the matrix tested
SYM_RTOL = 1e-12  # largest asymmetry
PSD_RTOL = 1e-10  # semidefinite: smallest eigenvalue at least -PSD_RTOL
SPD_RTOL = 1e-12  # definite: smallest eigenvalue above SPD_RTOL


def is_definite(mat, what: str, strict: bool = True) -> bool:
    """Whether the symmetric `mat` is positive definite (`strict`) or
    semidefinite, to the relative tolerances above; the zero matrix is
    semidefinite only. Refuses a `mat` that is not symmetric."""
    nrm = np.linalg.norm(mat, 2) if mat.size else 0.0
    if nrm == 0.0:
        return not strict
    if np.max(np.abs(mat - mat.T)) > SYM_RTOL * nrm:
        raise ValueError(f"{what} is not symmetric")
    lo = eigh(mat, eigvals_only=True, subset_by_index=[0, 0])[0] / nrm
    return bool(lo > SPD_RTOL) if strict else bool(lo >= -PSD_RTOL)


def require_definite(mat, what: str, strict: bool = True) -> np.ndarray:
    """`mat` as a float array, refused unless `is_definite`."""
    mat = np.asarray(mat, dtype=float)
    if not is_definite(mat, what, strict):
        raise ValueError(f"{what} is not positive "
                         f"{'definite' if strict else 'semidefinite'}")
    return mat


@dataclass
class BlockTridiagonalSystem:
    """Diagonal blocks A_i (symmetric PSD) and sub-diagonal blocks B_i.

    B_i maps block i into block i+1, i.e. has shape (dim_{i+1}, dim_i).
    The alternating sign pattern is applied on assembly, not stored.
    """

    diag: list
    off: list
    block_dims: list = field(init=False)

    def __post_init__(self):
        self.diag = [np.asarray(a, dtype=float) for a in self.diag]
        self.off = [np.asarray(b, dtype=float) for b in self.off]
        if len(self.diag) < 2:
            raise ValueError("need at least two blocks")
        if len(self.off) != len(self.diag) - 1:
            raise ValueError("need exactly n-1 coupling blocks")
        self.block_dims = [a.shape[0] for a in self.diag]
        if sum(self.block_dims) > MAX_TOTAL_DIM:
            raise ValueError(f"total dimension exceeds the dense cap {MAX_TOTAL_DIM}")
        for i, a in enumerate(self.diag):
            if a.shape[0] != a.shape[1]:
                raise ValueError(f"diagonal block {i} is not square")
            require_definite(a, f"diagonal block {i}", strict=False)
        for i, b in enumerate(self.off):
            expect = (self.block_dims[i + 1], self.block_dims[i])
            if b.shape != expect:
                raise ValueError(
                    f"coupling block {i} has shape {b.shape}, expected {expect}"
                )

    @property
    def n(self) -> int:
        return len(self.diag)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    def offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.block_dims)])


def assemble_full(sys: BlockTridiagonalSystem) -> np.ndarray:
    """The symmetric operator with (-1)^{i-1} A_i on the diagonal and B_i
    couplings: signed D plus B of `split_D_B`."""
    D, B = split_D_B(sys)
    signs = np.repeat([(-1.0) ** i for i in range(sys.n)], sys.block_dims)
    return signs[:, None] * D + B


def split_D_B(sys: BlockTridiagonalSystem):
    """Unsigned block-diagonal part D and the pure coupling part B.

    The full operator is recovered as signed-D plus B, where signed-D carries
    the alternating signs.
    """
    offs = sys.offsets()
    D = block_diag(*sys.diag)
    B = np.zeros((sys.total_dim, sys.total_dim))
    for i, b in enumerate(sys.off):
        B[offs[i + 1]:offs[i + 2], offs[i]:offs[i + 1]] = b
        B[offs[i]:offs[i + 1], offs[i + 1]:offs[i + 2]] = b.T
    return D, B


@dataclass
class KernelCheck:
    equal: bool
    max_angle: float
    indeterminate: bool
    dim_full: int


def _nullspace(mat: np.ndarray, rel_tol: float):
    """Orthonormal null-space basis with an indeterminacy flag.

    Singular values below rel_tol * sigma_max count as zero; a value within a
    factor 10 of that threshold makes the rank decision ambiguous.
    """
    u, s, vh = np.linalg.svd(mat)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(mat.shape[1]), False
    thresh = rel_tol * s[0]
    indeterminate = bool(np.any((s > thresh / 10) & (s < thresh * 10)))
    rank = int(np.sum(s > thresh))
    return vh[rank:].T, indeterminate


def kernel_equality_check(sys: BlockTridiagonalSystem,
                          tol: float = 1e-10) -> KernelCheck:
    """Compare ker(full operator) with ker(D) intersected with ker(B).

    The intersection is the kernel of the matrix [D; B]. Subspaces are
    declared equal when their dimensions agree and the largest principal angle
    is at most 1e-8.
    """
    full = assemble_full(sys)
    D, B = split_D_B(sys)
    ker_a, ind_a = _nullspace(full, tol)
    ker_db, ind_db = _nullspace(np.vstack([D, B]), tol)
    indeterminate = ind_a or ind_db
    da, db = ker_a.shape[1], ker_db.shape[1]
    if da != db:
        return KernelCheck(False, np.pi / 2, indeterminate, da)
    if da == 0:
        return KernelCheck(True, 0.0, indeterminate, 0)
    angle = float(np.max(subspace_angles(ker_a, ker_db)))
    return KernelCheck(angle <= 1e-8, angle, indeterminate, da)


def gamma_from_c(c_lo: float, c_hi: float):
    """Spectral-equivalence constants implied by the operator-norm bounds."""
    if not (0 < c_lo <= c_hi):
        raise ValueError("need 0 < c_lo <= c_hi")
    return c_lo**2 / (c_hi + 1.0), c_hi + 4.0 * c_hi**2


def c_from_gamma(gamma_lo: float, gamma_hi: float):
    """Operator-norm bounds implied by the spectral-equivalence constants."""
    if not (0 < gamma_lo <= gamma_hi):
        raise ValueError("need 0 < gamma_lo <= gamma_hi")
    c_lo = 0.29 * min(gamma_lo**2, gamma_lo / 2.0) / gamma_hi
    c_hi = np.sqrt(gamma_hi * (gamma_hi + 1.0))
    return c_lo, c_hi


def _check_inner_product_blocks(blocks, dims):
    if [len(p) for p in blocks] != list(dims):
        raise ValueError("inner-product blocks do not conform to block dims")
    return [require_definite(p, f"inner-product block {i}")
            for i, p in enumerate(blocks)]


def measure_c(sys: BlockTridiagonalSystem, inner_blocks):
    """Extreme values of ||A x|| (dual norm) over ||x|| in the P metric.

    Returns the square roots of the extreme generalized eigenvalues of
    A P^{-1} A versus P.
    """
    blocks = _check_inner_product_blocks(inner_blocks, sys.block_dims)
    P = block_diag(*blocks)
    A = assemble_full(sys)
    G = A @ np.linalg.solve(P, A)
    ev = eigh(G, P, eigvals_only=True)
    return float(np.sqrt(max(ev[0], 0.0))), float(np.sqrt(ev[-1]))


def measure_gamma(sys: BlockTridiagonalSystem, inner_blocks):
    """Extreme generalized eigenvalues of D + B P^{-1} B versus P."""
    blocks = _check_inner_product_blocks(inner_blocks, sys.block_dims)
    P = block_diag(*blocks)
    D, B = split_D_B(sys)
    ev = eigh(D + B @ np.linalg.solve(P, B), P, eigvals_only=True)
    return float(ev[0]), float(ev[-1])


def phi_min() -> float:
    """Minimum of max(|y - x|, x^2) on the quarter circle x, y >= 0, x^2+y^2=1.

    On the branch y >= x the maximum switches from y - x to x^2 at the root of
    sqrt(1 - x^2) - x - x^2, where the minimum x*^2 is attained; the x > y
    branch stays above 1/2. Root-finding gives the value well inside 1e-6.
    """
    root = brentq(lambda x: np.sqrt(1.0 - x * x) - x - x * x, 0.0, np.sqrt(0.5),
                  xtol=1e-12)
    return float(root * root)


def random_system(rng: np.random.Generator, n: int, dims,
                  rank_deficient: bool = False) -> BlockTridiagonalSystem:
    """Random instance with A_i = G^T G (optionally rank-deficient) and Gaussian B_i."""
    dims = list(dims)
    diag = []
    for d in dims:
        g = rng.standard_normal((d, d))
        if rank_deficient and d > 1 and rng.random() < 0.5:
            g[:, rng.integers(d)] = 0.0
        diag.append(g.T @ g)
    off = [rng.standard_normal((dims[i + 1], dims[i])) for i in range(n - 1)]
    return BlockTridiagonalSystem(diag, off)


def random_spd_blocks(rng: np.random.Generator, dims):
    """Random SPD inner-product blocks, one per block dimension."""
    blocks = []
    for d in dims:
        g = rng.standard_normal((d, d))
        blocks.append(g.T @ g + np.eye(d))
    return blocks
