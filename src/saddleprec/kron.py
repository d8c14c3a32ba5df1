"""Sums of Kronecker products of small univariate matrices.

Space-time operators on tensor-product spline spaces are sums of terms
w * (T x X x Y) with dense univariate factors. Every block of the optimality
systems is held in this form. This module applies such sums by mode products
(sum factorization: one small matrix product per factor, never forming the
product), materializes them as sparse matrices only where a matrix is needed
(export, the dense verify instruments, the tests), and inverts an SPD
Kronecker product, or Kronecker sum, in the eigenbases of its factors (fast
diagonalization). A Kronecker product or sum of diagonal
factors is held as its diagonal (`KroneckerDiagonal`) and applied
elementwise.
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh


def mode_products(factors, x: np.ndarray, stacked: bool = False) -> np.ndarray:
    """(F_1 x ... x F_m) x by one matrix product per factor.

    x has the product of the factor column dimensions as its length, and may
    carry extra trailing columns; or, stacked, x holds such vectors as its
    rows and each row gets the product. The leading mode is one GEMM on the
    unfolding (one per row of a stack), middle modes are batched products, and a mode with nothing
    behind it is one GEMM against the transposed factor; every intermediate
    stays C-contiguous, so no axis is ever moved. A stack's rows ride as the
    leading batch of every mode, so the whole stack costs one call per
    factor.
    """
    x = np.asarray(x)
    lead = x.shape[0] if stacked else 1
    extra = () if stacked else x.shape[1:]
    rest = x.size // lead
    rows = lead
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
    return y.reshape((lead, rows // lead) if stacked else (rows,) + extra)


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

    def apply(self, x: np.ndarray, stacked: bool = False) -> np.ndarray:
        """Product with x (a vector, or columns of one; stacked, with each
        row of x), term by term."""
        if not self.terms:
            raise ValueError("empty Kronecker sum")
        total = None
        for term in self.terms:
            y = mode_products(term.factors, x, stacked)
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
    """The diagonal matrix diag(d_1) x ... x diag(d_m), held as its diagonal,
    or with op=np.add the Kronecker sum of the diagonal factors.

    It stands in for a KroneckerMatrix where a basis diagonalizes one: its
    apply and its solve are one elementwise product or quotient per row, for
    a vector or for each of its extra trailing columns.
    """

    def __init__(self, *diagonals, op=np.multiply):
        self.diagonal = reduce(op.outer, diagonals).ravel()

    def _rows(self, x: np.ndarray) -> np.ndarray:
        return self.diagonal.reshape(self.diagonal.shape + (1,) * (np.ndim(x) - 1))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Product with x (a vector, or columns of one)."""
        return self._rows(x) * x

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Solve with the diagonal for r (a vector, or columns of one)."""
        return r / self._rows(r)


class KroneckerSolver:
    """Inverse of an SPD Kronecker product M_1 x ... x M_m of masses, or of
    the Kronecker sum of M_1 x ... x S_f x ... x M_m over f, in the factors'
    eigenbases (Lynch, Rice & Thomas, Numer. Math. 1964).

    Each factor is diagonalized once by `scipy.linalg.eigh`: the product by
    eigh(M_f), M_f = W_f diag(lam_f) W_f' with W_f orthonormal; the sum by
    the pencil eigh(S_f, M_f), W_f' M_f W_f = I and W_f' S_f W_f =
    diag(lam_f). With W = W_1 x ... x W_m the operator is W^-T diag(lam) W^-1,
    lam the outer product (or sum) of the lam_f held as the
    `KroneckerDiagonal` `values`, so a solve is mode products by the W_f',
    an elementwise quotient and mode products by the W_f (`vectors`).
    """

    def __init__(self, masses, stiffnesses=None):
        if stiffnesses is None:
            pairs, op = [eigh(m) for m in masses], np.multiply
        else:
            pairs, op = [eigh(s, m) for s, m in zip(stiffnesses, masses)], np.add
        lams, self.vectors = zip(*pairs)
        self.values = KroneckerDiagonal(*lams, op=op)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Solve with the operator; r may carry extra trailing columns."""
        rotated = mode_products(tuple(w.T for w in self.vectors), r)
        return mode_products(self.vectors, self.values.solve(rotated))
