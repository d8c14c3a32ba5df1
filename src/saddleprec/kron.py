"""Sums of Kronecker products of small univariate matrices.

Space-time operators on tensor-product spline spaces are sums of terms
w * (T x X x Y) with dense univariate factors. Every block of the optimality
systems is held in this form. This module applies such sums by mode products
(sum factorization: one small matrix product per factor, never forming the
product), materializes them as sparse matrices only where a matrix is needed
(a sparse LU, export, the dense verify instruments), and inverts a single SPD
tensor-product operator as the Kronecker product of its factor inverses,
applied by the same mode products. A Kronecker product of diagonal factors
is held as its diagonal (`KroneckerDiagonal`) and applied elementwise.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve


def mode_products(factors, x: np.ndarray) -> np.ndarray:
    """(F_1 x ... x F_m) x by one matrix product per factor.

    x has the product of the factor column dimensions as its length, and may
    carry extra trailing columns. The leading mode is one GEMM on the
    unfolding, middle modes are batched products, and a mode with nothing
    behind it is one GEMM against the transposed factor; every intermediate
    stays C-contiguous, so no axis is ever moved.
    """
    x = np.asarray(x)
    extra = x.shape[1:]
    rest = x.size
    rows = 1
    y = x
    for f in factors:
        m, n = f.shape
        rest //= n
        if rows == 1:
            y = f @ y.reshape(n, rest)
        elif rest == 1:
            y = y.reshape(rows, n) @ f.T
        else:
            y = np.matmul(f, y.reshape(rows, n, rest))
        rows *= m
    return y.reshape((rows,) + extra)


@dataclass
class KroneckerTerm:
    weight: float
    factors: tuple


class KroneckerMatrix:
    """A sum of weighted Kronecker products with conforming factor shapes."""

    def __init__(self):
        self.terms: list[KroneckerTerm] = []

    def add(self, weight: float, *factors) -> "KroneckerMatrix":
        factors = tuple(np.asarray(f) for f in factors)
        if self.terms:
            ref = self.terms[0].factors
            if len(ref) != len(factors) or any(
                f.shape != g.shape for f, g in zip(factors, ref)
            ):
                raise ValueError("term factor shapes do not conform")
        self.terms.append(KroneckerTerm(float(weight), factors))
        return self

    @property
    def T(self) -> "KroneckerMatrix":
        """The transposed sum; its factors are views of these."""
        km = KroneckerMatrix()
        for term in self.terms:
            km.add(term.weight, *(f.T for f in term.factors))
        return km

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Product with x (a vector, or columns of one), term by term."""
        if not self.terms:
            raise ValueError("empty Kronecker sum")
        total = None
        for term in self.terms:
            y = mode_products(term.factors, x)
            if term.weight != 1.0:
                y *= term.weight
            if total is None:
                total = y
            else:
                total += y
        return total

    def materialize(self) -> sp.csr_matrix:
        """Assemble the sum into one sparse CSR matrix."""
        if not self.terms:
            raise ValueError("empty Kronecker sum")
        total = None
        for term in self.terms:
            prod = sp.csr_matrix(term.factors[0])
            for f in term.factors[1:]:
                prod = sp.kron(prod, sp.csr_matrix(f), format="csr")
            prod = term.weight * prod
            total = prod if total is None else total + prod
        total.eliminate_zeros()
        return total.tocsr()


class KroneckerDiagonal:
    """The diagonal matrix diag(d_1) x ... x diag(d_m), held as its diagonal.

    It stands in for a KroneckerMatrix where a basis diagonalizes one: its
    apply and its solve are one elementwise product or quotient.
    """

    def __init__(self, *diagonals):
        self.diagonal = reduce(np.multiply.outer, diagonals).ravel()

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Product with the vector x."""
        return self.diagonal * x

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Solve with the diagonal for the vector r."""
        return r / self.diagonal


class KroneckerSolver:
    """Inverse of a single SPD tensor-product operator A_1 x ... x A_m.

    The inverse is the Kronecker product of the factor inverses. Each factor
    inverse is computed once from the factor's Cholesky factor and
    symmetrized; a solve is then one mode product per factor. The package
    inverts univariate B-spline mass matrices this way: their condition
    numbers are small and bounded in the mesh size, so the explicit inverses
    lose nothing against triangular solves.
    """

    def __init__(self, factors):
        inverses = []
        for f in factors:
            f = np.asarray(f)
            if f.ndim != 2 or f.shape[0] != f.shape[1]:
                raise ValueError("factors must be square")
            inv = cho_solve(cho_factor(f), np.eye(f.shape[0]))
            inverses.append(0.5 * (inv + inv.T))
        self._inverse = KroneckerMatrix().add(1.0, *inverses)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Solve (A_1 x ... x A_m) x = r; r may carry extra trailing columns."""
        return self._inverse.apply(r)
