"""Univariate spline spaces on uniform dyadic knot vectors.

Provides the spaces, basis/derivative evaluation (scipy's ``BSpline`` with
identity coefficients), per-element Gauss quadrature and the Galerkin
matrices (mass, stiffness, derivative couplings, possibly clipped to a
sub-interval) from which all space-time operators are assembled as Kronecker
products. The matrices are plain arrays; `assembly.DiscreteSpaces.factor`
caches them read-only per set of discrete spaces.
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
    Instances are immutable after construction.
    """

    degree: int
    level: int
    continuity: int
    a: float
    b: float
    knots: np.ndarray = field(init=False, repr=False)
    dim: int = field(init=False)

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

    points/weights have shape (n_elements, n_points); elements whose
    intersection with the clip interval is empty carry zero weights.
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
    """Gauss rule with n_points per element (default degree+1).

    degree+1 points integrate products of two basis functions exactly
    (piecewise polynomial of degree <= 2*degree).
    """
    if n_points is None:
        n_points = space.degree + 1
    q, w = np.polynomial.legendre.leggauss(n_points)
    edges = space.element_edges()
    pts = np.zeros((space.n_elements, n_points))
    wts = np.zeros((space.n_elements, n_points))
    for e in range(space.n_elements):
        x0, x1 = edges[e], edges[e + 1]
        if sub is not None:
            x0, x1 = max(x0, sub[0]), min(x1, sub[1])
            if x1 <= x0:
                pts[e] = edges[e]  # inert points, zero weight
                continue
        pts[e] = 0.5 * (x1 - x0) * q + 0.5 * (x0 + x1)
        wts[e] = 0.5 * (x1 - x0) * w
    return QuadratureRule(pts, wts)


def univariate_matrix(row_space: SplineSpace, col_space: SplineSpace,
                      d_row: int = 0, d_col: int = 0,
                      sub: tuple[float, float] | None = None) -> np.ndarray:
    """Galerkin matrix int D^{d_row} (row basis)_i * D^{d_col} (col basis)_j.

    Both spaces must share the interval and element partition. With ``sub``
    the integral runs over the element intersections with that interval; an
    empty intersection yields a zero matrix, not an error. The rule uses
    max(degree) + 1 points per element, exact for the piecewise-polynomial
    integrand. Element contributions are accumulated in a fixed order, so
    assembly is bit-reproducible.
    """
    if not row_space.same_mesh(col_space):
        raise ValueError("row and column spaces must share interval and mesh")
    A = np.zeros((row_space.dim, col_space.dim))
    if sub is not None:
        sub = (max(sub[0], row_space.a), min(sub[1], row_space.b))
        if sub[1] <= sub[0]:
            return A
    n = max(row_space.degree, col_space.degree) + 1
    rule = gauss_rule(row_space, n_points=n, sub=sub)
    er = eval_basis_many(row_space, rule.flat_points, d_row)
    ec = eval_basis_many(col_space, rule.flat_points, d_col)
    for e in range(row_space.n_elements):
        w = rule.weights[e]
        if not np.any(w):
            continue
        rows = slice(e * n, (e + 1) * n)
        A += er[rows].T @ (w[:, None] * ec[rows])
    if row_space is col_space and d_row == d_col:
        A = 0.5 * (A + A.T)  # bitwise symmetry, independent of BLAS ordering
    return A
