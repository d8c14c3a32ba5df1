"""Kronecker assembly of the discrete heat/wave optimal-control optimality systems.

The state space is a tensor product of a temporal spline factor and two
H^1_0-restricted spatial spline factors; the control/test space uses three
reduced-continuity factors so that the state residual is exactly
representable in it. Block shapes, block masses, their inverses and data
moments read the factors of a block from `BLOCK_FACTORS`. The system
operator A is one table, `system_blocks`: (row, column) -> sum of Kronecker
products of univariate matrices, one entry per symmetric pair of nonzero
blocks. Its apply, its sparse matrix, the dual Grams of the preconditioner
reference and the verify instruments all read that table. A is applied
block by block, each Kronecker sum by its three-product plan
(`kron.KroneckerPlan`), without being assembled; the sparse system
matrix, symmetric by construction (transposed blocks are placed
explicitly), is built only when read, for export and as the dense
reference of the tests.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np
import scipy.sparse as sp

from .kron import KroneckerMatrix, KroneckerSolver, mode_products
from .splines import (
    SplineSpace,
    endpoint_row,
    h10_restriction,
    make_space,
    share_gauss_nodes,
    univariate_matrix,
)

HEAT = "heat"
WAVE = "wave"


@dataclass
class ProblemSpec:
    """Configuration of one optimal-control discretization.

    The PDE lives on the unit square over (0, final_time); observation is
    restricted to the axis-aligned box omega.
    """

    kind: str
    degree: int
    level: int
    alpha: float
    final_time: float = 1.0
    omega: tuple = ((0.25, 0.75), (0.25, 0.75))
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (HEAT, WAVE):
            raise ValueError(f"kind must be '{HEAT}' or '{WAVE}'")
        if self.degree < 2:
            raise ValueError("degree must be at least 2 (the state Laplacian "
                             "must be square integrable)")
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError("alpha must be a finite positive number")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError("seed must be a nonnegative integer")
        if not (math.isfinite(self.final_time) and self.final_time > 0):
            raise ValueError("final_time must be a finite positive number")
        (x0, x1), (y0, y1) = self.omega
        if not (0.0 <= x0 < x1 <= 1.0 and 0.0 <= y0 < y1 <= 1.0):
            raise ValueError("omega must be a box inside the unit square")

    @property
    def is_wave(self) -> bool:
        return self.kind == WAVE


# factor name -> (univariate space, name of its H^1_0 index set or None). The
# state factors y_x, y_y are restricted to zero boundary values; the wave
# initial-velocity multiplier space uses the same splines unrestricted.
FACTOR_SPACES = {
    "y_time": ("y_time", None), "y_x": ("y_x", "ix"), "y_y": ("y_y", "iy"),
    "u_time": ("u_time", None), "u_x": ("u_x", None), "u_y": ("u_y", None),
    "r2_x": ("y_x", None), "r2_y": ("y_y", None),
}

# unknown block -> its factor names, in Kronecker order. The
# initial-displacement multipliers live on the spatial state factors.
BLOCK_FACTORS = {
    "y": ("y_time", "y_x", "y_y"),
    "u": ("u_time", "u_x", "u_y"), "p_u": ("u_time", "u_x", "u_y"),
    "p_r1": ("y_x", "y_y"), "p_r2": ("r2_x", "r2_y"),
}


@dataclass
class DiscreteSpaces:
    """Univariate factors of the discrete spaces plus the interior index sets.

    `factor` serves every univariate Galerkin factor of the space-time
    operators, already restricted to the H^1_0 indices where its space is,
    and caches it read-only for the lifetime of this object. The spaces
    cache, for their own lifetime, the Gauss rules and basis tables the
    factors and data moments integrate with; the spaces of `build_spaces`
    share one set of reference Gauss nodes (`splines.share_gauss_nodes`).
    """

    y_time: SplineSpace
    y_x: SplineSpace
    y_y: SplineSpace
    u_time: SplineSpace
    u_x: SplineSpace
    u_y: SplineSpace
    ix: np.ndarray
    iy: np.ndarray
    has_r2: bool
    _factors: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def factor(self, row: str, col: str, d_row: int = 0, d_col: int = 0,
               sub: tuple[float, float] | None = None) -> np.ndarray:
        """Read-only Galerkin factor between two named factor spaces.

        Names are the keys of FACTOR_SPACES; ``sub`` clips the integral to a
        sub-interval. Repeated requests return the same array.
        """
        sub = None if sub is None else (float(sub[0]), float(sub[1]))
        key = (row, col, d_row, d_col, sub)
        if key not in self._factors:
            (row_space, row_idx), (col_space, col_idx) = (
                FACTOR_SPACES[row], FACTOR_SPACES[col])
            mat = univariate_matrix(getattr(self, row_space),
                                    getattr(self, col_space), d_row, d_col,
                                    sub=sub)
            if row_idx is not None:
                mat = mat[getattr(self, row_idx), :]
            if col_idx is not None:
                mat = mat[:, getattr(self, col_idx)]
            mat.setflags(write=False)
            self._factors[key] = mat
        return self._factors[key]

    @property
    def block_names(self) -> tuple:
        """Unknown blocks of the optimality system, in system order."""
        return ("y", "u", "p_u", "p_r1") + (("p_r2",) if self.has_r2 else ())

    def block_shape(self, name: str) -> tuple:
        """A block's factor dimensions in Kronecker order, restricted to the
        H^1_0 indices where `FACTOR_SPACES` names an index set."""
        if name not in self.block_names:
            raise ValueError(f"no block {name!r} in {self.block_names}")
        return tuple(len(getattr(self, idx)) if idx else getattr(self, space).dim
                     for space, idx in map(FACTOR_SPACES.get, BLOCK_FACTORS[name]))

    def block_dim(self, name: str) -> int:
        return math.prod(self.block_shape(name))

    @cached_property
    def block_dims(self) -> tuple:
        return tuple(self.block_dim(name) for name in self.block_names)

    def offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.block_dims)])

    def block_slice(self, name: str) -> slice:
        i = self.block_names.index(name)
        offs = self.offsets()
        return slice(int(offs[i]), int(offs[i + 1]))


def build_spaces(spec: ProblemSpec) -> DiscreteSpaces:
    """State factors at maximal continuity, control factors at continuity p-3.

    The continuity drop makes the control space contain the image of the
    state space under the differential operator, which is what keeps the
    sparse preconditioner block equal to its dense reference.
    """
    p, lev, T = spec.degree, spec.level, spec.final_time
    y_time = make_space(p, lev, p - 1, 0.0, T)
    y_x = make_space(p, lev, p - 1, 0.0, 1.0)
    y_y = make_space(p, lev, p - 1, 0.0, 1.0)
    u_time = make_space(p, lev, p - 3, 0.0, T)
    u_x = make_space(p, lev, p - 3, 0.0, 1.0)
    u_y = make_space(p, lev, p - 3, 0.0, 1.0)
    share_gauss_nodes(y_time, y_x, y_y, u_time, u_x, u_y)
    return DiscreteSpaces(
        y_time, y_x, y_y, u_time, u_x, u_y,
        h10_restriction(y_x), h10_restriction(y_y),
        has_r2=spec.is_wave,
    )


def dof_count(spec: ProblemSpec) -> int:
    """Total unknowns of the optimality system: dim Y + 2 dim U + dim R1 (+ dim R2)."""
    return sum(build_spaces(spec).block_dims)


def mass_form(spaces: DiscreteSpaces, block: str) -> KroneckerMatrix:
    """L2 mass of a block's space: the product of its factor masses."""
    return KroneckerMatrix().add(1.0, *(spaces.factor(n, n)
                                        for n in BLOCK_FACTORS[block]))


def mass_solver(spaces: DiscreteSpaces, block: str) -> KroneckerSolver:
    """Inverse of `mass_form(spaces, block)`, in its factor eigenbases."""
    return KroneckerSolver([spaces.factor(n, n) for n in BLOCK_FACTORS[block]])


def observation_form(spec: ProblemSpec, spaces: DiscreteSpaces) -> KroneckerMatrix:
    """Mass matrix of the state space over the observed sub-cylinder omega x (0, T)."""
    subs = (None,) + tuple(spec.omega)
    return KroneckerMatrix().add(1.0, *(spaces.factor(n, n, sub=s) for n, s
                                        in zip(BLOCK_FACTORS["y"], subs)))


def residual_terms(spec: ProblemSpec) -> tuple:
    """The state operator (d_tt | d_t) - Lap as (sign, d_t, d_x, d_y) terms.

    The one definition of the state residual: K_U and the residual Gram of
    the preconditioner are both built from this table.
    """
    dt = 2 if spec.is_wave else 1
    return ((+1, dt, 0, 0), (-1, 0, 2, 0), (-1, 0, 0, 2))


def k_u_form(spec: ProblemSpec, spaces: DiscreteSpaces) -> KroneckerMatrix:
    """State-residual pairing: rows test the control space, columns the state space.

    Wave: (d_tt y - Lap y, sigma); heat: (d_t y - Lap y, sigma). One
    Kronecker term per entry of `residual_terms`, its derivative orders
    falling on the state factors.
    """
    pairs = list(zip(BLOCK_FACTORS["p_u"], BLOCK_FACTORS["y"]))
    km = KroneckerMatrix()
    for sign, *derivs in residual_terms(spec):
        km.add(sign, *(spaces.factor(row, col, 0, d)
                       for (row, col), d in zip(pairs, derivs)))
    return km


def h10_gram_form(spaces: DiscreteSpaces, *lead) -> KroneckerMatrix:
    """2-D H^1_0 inner product Sx x My + Mx x Sy on the restricted spatial
    space (the r1 Gram), behind optional leading (time) factors."""
    x, y = BLOCK_FACTORS["p_r1"]
    f = spaces.factor
    km = KroneckerMatrix()
    km.add(1.0, *lead, f(x, x, 1, 1), f(y, y))
    km.add(1.0, *lead, f(x, x), f(y, y, 1, 1))
    return km


def h10_gram_solver(spaces: DiscreteSpaces) -> KroneckerSolver:
    """Inverse of the r1 Gram `h10_gram_form(spaces)`, in the eigenbases of
    its factor pencils (S_f, M_f)."""
    names = BLOCK_FACTORS["p_r1"]
    return KroneckerSolver([spaces.factor(n, n) for n in names],
                           [spaces.factor(n, n, 1, 1) for n in names])


def k_r1_form(spaces: DiscreteSpaces) -> KroneckerMatrix:
    """Initial-displacement pairing (grad y(0), grad r): endpoint row in time
    tensor the 2-D stiffness."""
    return h10_gram_form(spaces, endpoint_row(spaces.y_time, "a", 0)[None, :])


def k_r2_form(spec: ProblemSpec, spaces: DiscreteSpaces) -> KroneckerMatrix:
    """Initial-velocity pairing (d_t y(0), r) against the unrestricted spatial space."""
    if not spec.is_wave:
        raise ValueError("the initial-velocity block exists only for the wave problem")
    e1 = endpoint_row(spaces.y_time, "a", 1)[None, :]
    return KroneckerMatrix().add(1.0, e1, *(
        spaces.factor(r, c) for r, c in zip(BLOCK_FACTORS["p_r2"],
                                            BLOCK_FACTORS["p_r1"])))


def system_blocks(spec: ProblemSpec, spaces: DiscreteSpaces) -> dict:
    """A's nonzero blocks, (row, column) -> Kronecker sum, one entry per
    symmetric pair: entry (r, c) is A[r, c], and off the diagonal A[c, r] is
    its transpose. The control mass serves (u, u) and (u, p_u) as one object.
    No entry holds alpha: `DiscreteSystem` scales (u, u) by `spec.alpha`."""
    u_mass = mass_form(spaces, "u")
    blocks = {
        ("y", "y"): observation_form(spec, spaces),
        ("u", "u"): u_mass,
        ("u", "p_u"): u_mass,
        ("p_u", "y"): k_u_form(spec, spaces),
        ("p_r1", "y"): k_r1_form(spaces),
    }
    if spec.is_wave:
        blocks["p_r2", "y"] = k_r2_form(spec, spaces)
    return blocks


@dataclass
class ProblemData:
    """Data callbacks; None means homogeneous.

    d(t, x, y): observation target on the sub-cylinder; g_u(t, x, y): forcing
    tested against the control space; y0(x, y) with gradient y0_grad(x, y) ->
    (gx, gy): initial displacement; y1(x, y): initial velocity (wave only).
    The velocity trace of a discrete state lies in the H^1_0 spatial space,
    so the part of the y1 moments outside the range of K_R2 is unreachable
    and is dropped: `assemble_system` projects them onto that range.
    Callbacks must broadcast over numpy grids.
    """

    d: object = None
    g_u: object = None
    y0: object = None
    y0_grad: object = None
    y1: object = None


@dataclass(repr=False)
class DiscreteSystem:
    """Symmetric optimality system; block layout as in its spaces.

    `blocks` is the table of `system_blocks`, its (u, u) entry scaled by
    `spec.alpha` here. `apply` multiplies by the system operator block by
    block. `matrix` is its sparse form, built on first read for export and
    as the dense reference of the tests.
    """

    spec: ProblemSpec
    spaces: DiscreteSpaces
    blocks: dict
    rhs: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.spaces.offsets()[-1])

    def weight(self, row: str, col: str) -> float:
        """The scalar of table entry (row, col) in A: alpha on (u, u), else 1."""
        return self.spec.alpha if (row, col) == ("u", "u") else 1.0

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """Sparse matrix of the symmetric optimality system, in block order."""
        index = {name: i for i, name in enumerate(self.spaces.block_names)}
        grid = [[None] * len(index) for _ in index]
        for (r, c), k in self.blocks.items():
            grid[index[r]][index[c]] = mat = self.weight(r, c) * k.materialize()
            if r != c:
                grid[index[c]][index[r]] = mat.T
        return sp.bmat(grid, format="csr")

    @cached_property
    def _plan(self) -> list:
        """Per block row, [(operator, [(column, weight), ...])], built once:
        each distinct operator of a row acts on the weighted sum of its
        columns (the control mass on alpha u + p_u). A diagonal block is
        symmetric, so an entry that is also its row's diagonal block is its
        own transpose."""
        rows = {name: {} for name in self.spaces.block_names}

        def put(row, op, col, weight):
            rows[row].setdefault(id(op), (op, []))[1].append((col, weight))

        for (r, c), k in self.blocks.items():
            put(r, k, c, self.weight(r, c))
            if r != c:
                put(c, k if self.blocks.get((r, r)) is k else k.T, r, 1.0)
        return [list(ops.values()) for ops in rows.values()]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A v by block rows, every operator by its Kronecker plan."""
        o = self.spaces.offsets()
        parts = {name: v[lo:hi] for name, lo, hi in zip(self.spaces.block_names,
                                                        o, o[1:])}
        out = []
        for row in self._plan:
            total = None
            for op, cols in row:
                y = op.apply(reduce(np.add, (parts[c] if w == 1.0 else
                                             w * parts[c] for c, w in cols)))
                total = y if total is None else np.add(total, y, out=total)
            out.append(total)
        return np.concatenate(out)


def moments(spaces: DiscreteSpaces, block: str, f, derivs=None,
            subs=None) -> np.ndarray:
    """(f, basis)_{L2} moments against a block's tensor basis.

    One Gauss rule per factor of `BLOCK_FACTORS[block]`, degree + 1 points
    per element, clipped to the per-direction interval of ``subs``;
    ``derivs`` differentiates the basis per direction. Rules and basis
    tables are the spaces' cached ones. The basis is restricted as
    `FACTOR_SPACES` says. The weighted grid values are contracted with the
    transposed basis tables by `mode_products`.
    """
    n = len(BLOCK_FACTORS[block])
    rules, tables = [], []
    for name, d, sub in zip(BLOCK_FACTORS[block], derivs or (0,) * n,
                            subs or (None,) * n):
        space, restr = FACTOR_SPACES[name]
        space = getattr(spaces, space)
        rules.append(space.rule(space.degree + 1, sub))
        e = space.table(space.degree + 1, sub, d)
        tables.append((e if restr is None else e[:, getattr(spaces, restr)]).T)
    vals = np.asarray(f(*np.ix_(*(r.flat_points for r in rules))), dtype=float)
    w = math.prod(np.ix_(*(r.flat_weights for r in rules)))
    return mode_products(tables, (vals * w).ravel())


def assemble_system(spec: ProblemSpec, spaces: DiscreteSpaces | None = None,
                    data: ProblemData | None = None,
                    blocks: dict | None = None) -> DiscreteSystem:
    """The symmetric saddle-point system and its right-hand side.

    Unknown order is (y, u, p_u, p_r1[, p_r2]). No system matrix is built
    here: `DiscreteSystem.apply` applies the blocks, and `matrix` assembles
    them on first read with transposed blocks placed explicitly, so that it
    is symmetric exactly, not to rounding. Homogeneous data yield an exactly
    zero right-hand side.
    """
    if spaces is None:
        spaces = build_spaces(spec)
    if blocks is None:
        blocks = system_blocks(spec, spaces)
    if data is None:
        data = ProblemData()
    rhs = np.zeros(sum(spaces.block_dims))
    if data.d is not None:
        rhs[spaces.block_slice("y")] = moments(spaces, "y", data.d,
                                               subs=(None,) + tuple(spec.omega))
    if data.g_u is not None:
        rhs[spaces.block_slice("p_u")] = moments(spaces, "p_u", data.g_u)
    if data.y0 is not None:
        if data.y0_grad is None:
            raise ValueError("initial displacement needs its gradient callback "
                             "for the H^1_0 pairing")
        # (grad y0, grad r), one gradient component at a time
        mx = moments(spaces, "p_r1", lambda x, y: data.y0_grad(x, y)[0],
                     derivs=(1, 0))
        my = moments(spaces, "p_r1", lambda x, y: data.y0_grad(x, y)[1],
                     derivs=(0, 1))
        rhs[spaces.block_slice("p_r1")] = mx + my
    if data.y1 is not None:
        if not spec.is_wave:
            raise ValueError("initial velocity data only exists for the wave problem")
        # keep the part K_R2 reaches: with K_R2 = e x F_x x F_y, project by
        # (F_x F_x^+) x (F_y F_y^+) onto range(K_R2) = range(F_x x F_y)
        ranges = [f @ np.linalg.pinv(f)
                  for f in blocks["p_r2", "y"].terms[0].factors[1:]]
        rhs[spaces.block_slice("p_r2")] = mode_products(
            ranges, moments(spaces, "p_r2", data.y1))
    return DiscreteSystem(spec, spaces, blocks, rhs)
