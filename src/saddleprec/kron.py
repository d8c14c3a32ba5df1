"""Sums of Kronecker products of small univariate matrices.

Space-time operators on tensor-product spline spaces are sums of terms
w * (T x X x Y) with dense univariate factors. Every block of the optimality
systems is held in this form. This module applies such a sum by one plan of
three matrix products, whatever its number of terms (`KroneckerPlan`, sum
factorization with the terms' shared factors stacked), applies a plain
product by mode products (one small matrix product per factor, never forming
the product), materializes sums as sparse matrices only where a matrix is
needed (export, the dense verify instruments, the tests), and inverts an SPD
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


def mode_products(factors, x: np.ndarray) -> np.ndarray:
    """(F_1 x ... x F_m) x by one matrix product per factor.

    x has the product of the factor column dimensions as its length, and may
    carry extra trailing columns. The leading mode is one GEMM on the
    unfolding, middle modes are batched products, and a mode with nothing
    behind it is one GEMM against the transposed factor; every intermediate
    stays C-contiguous, so no axis is ever moved.
    """
    x = np.asarray(x)
    rest, rows, y = x.size, 1, x
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
    return y.reshape((rows,) + x.shape[1:])


@dataclass
class KroneckerTerm:
    weight: float
    factors: tuple


# the 1 x 1 factor that pads a sum of one or two factors to three
_ONE = np.ones((1, 1))
_ONE.setflags(write=False)


def _distinct(factors) -> tuple:
    """The distinct factors in first-seen order, and each factor's index
    among them. Factors are equal when they are the same memory (same
    address, shape, strides and dtype), so transposed views of one shared
    factor are equal too."""
    seen = {}
    index = [seen.setdefault((f.__array_interface__["data"][0], f.shape, f.strides,
                              f.dtype.str), (len(seen), f))[0] for f in factors]
    return [f for _, f in seen.values()], index


class KroneckerPlan:
    """Sum_k w_k A_k x B_k x C_k in three products, whatever the number of
    terms; a sum of one or two factors is padded with 1 x 1 leading factors.

    With A_1 .. A_na and C_1 .. C_nc the distinct first and last factors
    (`_distinct`), all weights and middle factors fold into one block matrix,
    M[(a, i), (j, c)] = sum of w_k B_k[i, j] over the terms with A_k = A_a
    and C_k = C_c. From the last mode: x's unfolding with n_y columns times
    the C stacked side by side (one GEMM), each (n_x nc, m_y) slab of that by
    M (one batched product), and [A_1 ... A_na] times the (n_t na, m_x m_y)
    unfolding (one GEMM). From the first mode, the mirror image: the A
    stacked, M with its block indices swapped, then [C_1 ... C_nc]. The plan
    runs the order with fewer multiply-adds, the first mode on a tie. Stacked rows
    ride as the batch of every product; trailing columns are transposed into
    stacked rows and back.
    """

    def __init__(self, terms):
        factors = [(_ONE,) * (3 - len(t.factors)) + t.factors for t in terms]
        if len(factors[0]) != 3:
            raise ValueError("a Kronecker plan takes sums of one to three factors")
        firsts, a_of = _distinct([f[0] for f in factors])
        lasts, c_of = _distinct([f[2] for f in factors])
        self.shapes = (m_t, n_t), (m_x, n_x), (m_y, n_y) = [f.shape for f in factors[0]]
        na, nc = len(firsts), len(lasts)
        middle = np.zeros((na, m_x, n_x, nc))
        for t, (_, b, _), a, c in zip(terms, factors, a_of, c_of):
            middle[a, :, :, c] += t.weight * b
        # multiply-adds per row of each order: stacked GEMM, block product,
        # stacked GEMM
        from_first = (m_t * na * n_t * n_x * n_y + m_t * m_x * nc * na * n_x * n_y
                      + m_t * m_x * m_y * nc * n_y)
        from_last = (n_t * n_x * nc * m_y * n_y + n_t * na * m_x * n_x * nc * m_y
                     + m_t * na * n_t * m_x * m_y)
        self.first_mode = from_first <= from_last
        if self.first_mode:
            self.first = np.stack(firsts, axis=1).reshape(m_t * na, n_t)
            middle = middle.transpose(1, 3, 0, 2).reshape(m_x * nc, na * n_x)
            last = np.concatenate(lasts, axis=1)
        else:
            last = np.concatenate(lasts)
            middle = middle.reshape(na * m_x, n_x * nc)
            self.first = np.stack(firsts, axis=-1).reshape(m_t, n_t * na)
        # stored in Fortran order: OpenBLAS ran the block product and the
        # last GEMM up to a quarter faster on operands so laid out (levels
        # 2-4, one thread)
        self.middle, self.last = np.asfortranarray(middle), np.asfortranarray(last)

    def apply(self, x: np.ndarray, stacked: bool = False) -> np.ndarray:
        """Product with x (a vector, or columns of one; stacked, with each
        row of x)."""
        x = np.asarray(x)
        (m_t, n_t), (m_x, n_x), (m_y, n_y) = self.shapes
        columns = not stacked and x.ndim > 1
        rows = x.reshape(n_t * n_x * n_y, -1).T if columns else x
        lead = rows.shape[0] if stacked or columns else 1
        if self.first_mode:
            y = np.matmul(self.first, rows.reshape(lead, n_t, -1))
            y = np.matmul(self.middle, y.reshape(lead * m_t, -1, n_y))
            y = y.reshape(lead * m_t * m_x, -1) @ self.last.T
        else:
            y = rows.reshape(-1, n_y) @ self.last.T
            y = np.matmul(self.middle, y.reshape(lead * n_t, -1, m_y))
            y = np.matmul(self.first, y.reshape(lead, -1, m_x * m_y))
        if columns:
            return y.reshape(lead, -1).T.reshape((-1,) + x.shape[1:])
        return y.reshape((lead, -1) if stacked else -1)


class KroneckerMatrix:
    """A sum of weighted Kronecker products with conforming factor shapes.

    The first apply builds a `KroneckerPlan`, which holds copies of the
    factors, and the first `T` the transposed sum; `add` drops both, so do
    not modify a factor in place after an apply."""

    def __init__(self):
        self.terms: list[KroneckerTerm] = []
        self._plan = self._transpose = None

    def add(self, weight: float, *factors) -> "KroneckerMatrix":
        factors = tuple(np.asarray(f) for f in factors)
        if self.terms:
            ref = self.terms[0].factors
            if len(ref) != len(factors) or any(
                f.shape != g.shape for f, g in zip(factors, ref)
            ):
                raise ValueError("term factor shapes do not conform")
        self.terms.append(KroneckerTerm(float(weight), factors))
        if self._transpose is not None:
            self._transpose._transpose = None
        self._plan = self._transpose = None
        return self

    @property
    def T(self) -> "KroneckerMatrix":
        """The transposed sum, built once, so that every caller shares it
        and its plan; its factors are views of these, and its T is this."""
        if self._transpose is None:
            km = KroneckerMatrix()
            for term in self.terms:
                km.add(term.weight, *(f.T for f in term.factors))
            km._transpose, self._transpose = self, km
        return self._transpose

    def apply(self, x: np.ndarray, stacked: bool = False) -> np.ndarray:
        """Product with x (a vector, or columns of one; stacked, with each
        row of x), by the `KroneckerPlan` built on the first apply."""
        if not self.terms:
            raise ValueError("empty Kronecker sum")
        if self._plan is None:
            self._plan = KroneckerPlan(self.terms)
        return self._plan.apply(x, stacked)

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
    lam the outer product (or sum) of the lam_f (`factor_values`) held as the
    `KroneckerDiagonal` `values`, so a solve is mode products by the W_f',
    an elementwise quotient and mode products by the W_f (`vectors`).
    """

    def __init__(self, masses, stiffnesses=None):
        if stiffnesses is None:
            pairs, op = [eigh(m) for m in masses], np.multiply
        else:
            pairs, op = [eigh(s, m) for s, m in zip(stiffnesses, masses)], np.add
        self.factor_values, self.vectors = zip(*pairs)
        self.values = KroneckerDiagonal(*self.factor_values, op=op)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """Solve with the operator; r may carry extra trailing columns."""
        rotated = mode_products(tuple(w.T for w in self.vectors), r)
        return mode_products(self.vectors, self.values.solve(rotated))
