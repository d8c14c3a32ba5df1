"""Univariate spline spaces on uniform dyadic knot vectors.

Provides the spaces, basis/derivative evaluation (scipy's ``BSpline`` with
identity coefficients), per-element Gauss quadrature and the Galerkin
matrices (mass, stiffness, derivative couplings, possibly clipped to a
sub-interval) from which all space-time operators are assembled as Kronecker
products. The matrices are plain arrays; `assembly.DiscreteSpaces.factor`
caches them read-only per set of discrete spaces.

What the matrices and the data moments integrate with is cached on the
space, read-only, and lives exactly as long as the space: its Gauss rule per
(points per element, clip interval) (`SplineSpace.rule`) and its basis table
per (rule, derivative order) (`SplineSpace.table`). The reference
Gauss-Legendre nodes per points-per-element are held by the space too, and
shared among the spaces of one grid (`share_gauss_nodes`). Nothing is cached
process-wide.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import BSpline


def dimension(degree: int, level: int, continuity: int) -> int:
    """Dimension of the spline space: (p+1) + (2^level - 1)(p - k)."""
    return (degree + 1) + (2**level - 1) * (degree - continuity)


@dataclass
class SplineSpace:
    """Splines of a given degree on 2^level uniform elements of (a, b).

    Interior knots have multiplicity degree - continuity, boundary knots
    multiplicity degree + 1 (open knot vector). ``continuity = degree - 1``
    is the maximal-smoothness space; ``continuity = -1`` is discontinuous.
    Instances are immutable after construction, but for their caches: the
    Gauss rules of `rule`, the basis tables of `table` and the reference
    Gauss nodes of `gauss_rule`, each built on first request and kept
    read-only for the lifetime of the space.
    """

    degree: int
    level: int
    continuity: int
    a: float
    b: float
    knots: np.ndarray = field(init=False, repr=False)
    dim: int = field(init=False)
    _gauss: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    _rules: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        p, k = self.degree, self.continuity
        if p < 0 or self.level < 0:
            raise ValueError("degree and level must be nonnegative")
        if not (-1 <= k <= p - 1):
            raise ValueError(f"continuity must be in [-1, {p - 1}], got {k}")
        if not self.a < self.b:
            raise ValueError("empty interval")
        nel = 2**self.level
        h = (self.b - self.a) / nel
        interior = np.repeat(self.a + h * np.arange(1, nel), p - k)
        self.knots = np.concatenate(
            [np.full(p + 1, self.a), interior, np.full(p + 1, self.b)]
        )
        self.dim = len(self.knots) - p - 1
        assert self.dim == dimension(p, self.level, k)

    @property
    def n_elements(self) -> int:
        return 2**self.level

    @property
    def mesh(self) -> float:
        return (self.b - self.a) / self.n_elements

    def element_edges(self) -> np.ndarray:
        return self.a + self.mesh * np.arange(self.n_elements + 1)

    def same_mesh(self, other: "SplineSpace") -> bool:
        return (
            self.a == other.a and self.b == other.b and self.level == other.level
        )

    def rule(self, n_points: int, sub: tuple[float, float] | None) -> "QuadratureRule":
        """The space's `gauss_rule` with n_points per element, clipped to
        sub; built once per (n_points, sub)."""
        key = _rule_key(n_points, sub)
        if key not in self._rules:
            self._rules[key] = gauss_rule(self, *key)
        return self._rules[key]

    def table(self, n_points: int, sub: tuple[float, float] | None,
              d: int) -> np.ndarray:
        """Read-only d-th derivative basis values at the points of
        `rule(n_points, sub)`, shape (points, dim); built once per key. Spaces
        on the same mesh have bitwise the same rule points."""
        key = (*_rule_key(n_points, sub), d)
        if key not in self._tables:
            values = eval_basis_many(self, self.rule(n_points, sub).flat_points, d)
            values.setflags(write=False)
            self._tables[key] = values
        return self._tables[key]


def _rule_key(n_points: int, sub) -> tuple:
    return n_points, None if sub is None else (float(sub[0]), float(sub[1]))


def share_gauss_nodes(*spaces: SplineSpace) -> None:
    """Let the spaces of one grid hold one set of reference Gauss nodes, so
    that leggauss runs once per points-per-element among them."""
    nodes = {}
    for space in spaces:
        nodes.update(space._gauss)
        space._gauss = nodes


def make_space(degree: int, level: int, continuity: int, a: float = 0.0,
               b: float = 1.0) -> SplineSpace:
    """Build the spline space of the given degree/level/interior continuity."""
    return SplineSpace(degree, level, continuity, a, b)


def eval_basis_many(space: SplineSpace, x: np.ndarray, d: int = 0) -> np.ndarray:
    """Values of the d-th derivative of all basis functions, shape (len(x), dim).

    Values at interior knots are one-sided limits from the right; at x = b
    the limit is taken from the left.
    """
    if d < 0 or d > space.degree:
        raise ValueError(f"derivative order must be in [0, {space.degree}]")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size and (x.min() < space.a or x.max() > space.b):
        raise ValueError("evaluation point outside the interval")
    basis = BSpline(space.knots, np.eye(space.dim), space.degree)
    return basis(x, nu=d)


def eval_basis(space: SplineSpace, x: float, d: int = 0) -> np.ndarray:
    """Dense vector of d-th derivative basis values at a single point."""
    return eval_basis_many(space, [x], d)[0]


def endpoint_row(space: SplineSpace, endpoint: str, d: int = 0) -> np.ndarray:
    """Row of d-th derivative basis values at endpoint 'a' or 'b'."""
    if endpoint not in ("a", "b"):
        raise ValueError("endpoint must be 'a' or 'b'")
    x = space.a if endpoint == "a" else space.b
    return eval_basis(space, x, d)


def h10_restriction(space: SplineSpace) -> np.ndarray:
    """Indices of basis functions vanishing at both endpoints.

    With an open knot vector only the first and last basis functions have a
    nonzero endpoint value, so the restricted set is everything in between.
    """
    if space.continuity < 0:
        raise ValueError("trace has no meaning for discontinuous splines")
    return np.arange(1, space.dim - 1)


@dataclass
class QuadratureRule:
    """Per-element Gauss-Legendre rule, optionally clipped to a sub-interval.

    points/weights have shape (n_elements, n_points), read-only; elements
    whose intersection with the clip interval is empty carry zero weights.
    """

    points: np.ndarray
    weights: np.ndarray

    @property
    def flat_points(self) -> np.ndarray:
        return self.points.reshape(-1)

    @property
    def flat_weights(self) -> np.ndarray:
        return self.weights.reshape(-1)


def gauss_rule(space: SplineSpace, n_points: int | None = None,
               sub: tuple[float, float] | None = None) -> QuadratureRule:
    """Gauss rule with n_points per element (default degree+1), read-only.

    degree+1 points integrate products of two basis functions exactly
    (piecewise polynomial of degree <= 2*degree). An element outside the
    clip interval keeps inert points at its left edge with zero weights.
    The reference nodes come from the space's store (`share_gauss_nodes`).
    """
    if n_points is None:
        n_points = space.degree + 1
    if n_points not in space._gauss:
        nodes = np.polynomial.legendre.leggauss(n_points)
        for a in nodes:
            a.setflags(write=False)
        space._gauss[n_points] = nodes
    q, w = space._gauss[n_points]
    edges = space.element_edges()
    x0, x1 = edges[:-1], edges[1:]
    if sub is not None:
        x0, x1 = np.maximum(x0, sub[0]), np.minimum(x1, sub[1])
    live = (x1 > x0)[:, None]
    half = (0.5 * (x1 - x0))[:, None]
    pts = np.where(live, half * q + (0.5 * (x0 + x1))[:, None], edges[:-1, None])
    wts = np.where(live, half * w, 0.0)
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadratureRule(pts, wts)


def univariate_matrix(row_space: SplineSpace, col_space: SplineSpace,
                      d_row: int = 0, d_col: int = 0,
                      sub: tuple[float, float] | None = None) -> np.ndarray:
    """Galerkin matrix int D^{d_row} (row basis)_i * D^{d_col} (col basis)_j.

    Both spaces must share the interval and element partition. With ``sub``
    the integral runs over the element intersections with that interval; an
    empty intersection yields a zero matrix, not an error. The rule uses
    max(degree) + 1 points per element, exact for the piecewise-polynomial
    integrand, and the spaces' cached rule and basis tables. The element
    contributions are formed by one batched matmul and accumulated in
    element order, so assembly is bit-reproducible.
    """
    if not row_space.same_mesh(col_space):
        raise ValueError("row and column spaces must share interval and mesh")
    if sub is not None:
        sub = (max(sub[0], row_space.a), min(sub[1], row_space.b))
        if sub[1] <= sub[0]:
            return np.zeros((row_space.dim, col_space.dim))
    n = max(row_space.degree, col_space.degree) + 1
    w = row_space.rule(n, sub).weights
    live = w.any(axis=1)
    shape = (row_space.n_elements, n, -1)
    er = row_space.table(n, sub, d_row).reshape(shape)[live]
    ec = col_space.table(n, sub, d_col).reshape(shape)[live]
    per_element = np.matmul(er.transpose(0, 2, 1), w[live][:, :, None] * ec)
    A = np.add.reduce(per_element, axis=0, initial=0.0)
    if row_space is col_space and d_row == d_col:
        A = 0.5 * (A + A.T)  # bitwise symmetry, independent of BLAS ordering
    return A
