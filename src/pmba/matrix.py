"""Dense exact matrices over a prime field.

Entries live in a numpy int64 array of canonical residues; every product is
reduced immediately, and the field's modulus bound keeps every inner
product exact in int64.
Includes the generalized Vandermonde constructor, the inverse the decode
and repair maps are built from, and the standalone `solve_symmetric_pair`.
"""

from __future__ import annotations

import numpy as np

from .field import FieldElement, PrimeField


class SingularMatrixError(ValueError):
    """A square matrix had no inverse."""


class InconsistencyError(ValueError):
    """Input data contradicted itself; typically a corrupted shard."""


class Matrix:
    """An immutable rows x cols matrix of residues mod a prime."""

    __slots__ = ("field", "data")

    def __init__(self, field: PrimeField, data):
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        arr = np.mod(arr, field.modulus)
        arr.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # construction helpers -------------------------------------------------

    @classmethod
    def from_rows(cls, field: PrimeField, rows) -> "Matrix":
        vals = [[int(x) for x in row] for row in rows]
        if not vals or not vals[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(vals[0])
        if any(len(r) != width for r in vals):
            raise ValueError("rows have unequal lengths")
        return cls(field, vals)

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "Matrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Matrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @classmethod
    def diagonal(cls, field: PrimeField, entries) -> "Matrix":
        return cls(field, np.diag([int(x) for x in entries]))

    @classmethod
    def row_vector(cls, field: PrimeField, entries) -> "Matrix":
        return cls(field, [[int(x) for x in entries]])

    @classmethod
    def column_vector(cls, field: PrimeField, entries) -> "Matrix":
        return cls(field, [[int(x)] for x in entries])

    # shape and access -----------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def entry(self, i: int, j: int) -> FieldElement:
        return self.field.element(int(self.data[i, j]))

    def row_values(self, i: int) -> tuple:
        return tuple(int(v) for v in self.data[i])

    def to_lists(self):
        return [[int(v) for v in row] for row in self.data]

    def submatrix(self, row_indices=None, col_indices=None) -> "Matrix":
        d = self.data
        if row_indices is not None:
            d = d[list(row_indices), :]
        if col_indices is not None:
            d = d[:, list(col_indices)]
        return Matrix(self.field, d)

    # arithmetic -----------------------------------------------------------

    def _check_same_field(self, other: "Matrix"):
        if self.field.modulus != other.field.modulus:
            raise ValueError(
                f"cannot mix moduli {self.field.modulus} and {other.field.modulus}"
            )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.data.shape != other.data.shape:
            raise ValueError(f"shape mismatch {self.data.shape} vs {other.data.shape}")
        return Matrix(self.field, self.data + other.data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.data.shape != other.data.shape:
            raise ValueError(f"shape mismatch {self.data.shape} vs {other.data.shape}")
        return Matrix(self.field, self.data - other.data)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def scaled(self, scalar) -> "Matrix":
        s = int(scalar) % self.field.modulus
        return Matrix(self.field, self.data * s)

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.data.T)

    @property
    def T(self) -> "Matrix":
        return self.transpose()

    def is_zero(self) -> bool:
        return not self.data.any()

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and np.array_equal(self.data, self.data.T)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field.modulus == other.field.modulus and np.array_equal(
            self.data, other.data
        )

    def __hash__(self):
        return hash((self.field.modulus, self.data.tobytes(), self.data.shape))

    def __repr__(self):
        return f"Matrix(mod {self.field.modulus}, {self.to_lists()})"


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    a._check_same_field(b)
    if a.cols != b.rows:
        raise ValueError(
            f"inner dimensions disagree: {a.rows}x{a.cols} times {b.rows}x{b.cols}"
        )
    return Matrix(a.field, a.data @ b.data)  # the constructor reduces mod q


def transpose(a: Matrix) -> Matrix:
    return a.transpose()


def build_gvm(points, start_power: int, cols: int) -> Matrix:
    """Generalized Vandermonde matrix: entry (i, j) is points[i] ** (start_power + j).

    Points must be pairwise distinct and nonzero; that is exactly the
    condition under which every square submatrix of consecutive columns
    is invertible.
    """
    pts = list(points)
    if not pts:
        raise ValueError("need at least one point")
    field = pts[0].field if isinstance(pts[0], FieldElement) else None
    if field is None:
        raise ValueError("points must be FieldElement values")
    vals = []
    for p in pts:
        if not isinstance(p, FieldElement) or p.field.modulus != field.modulus:
            raise ValueError("points must share one field")
        vals.append(p.value)
    if any(v == 0 for v in vals):
        raise ValueError("points must be nonzero")
    if len(set(vals)) != len(vals):
        raise ValueError("points must be pairwise distinct")
    if start_power < 0:
        raise ValueError("start_power must be non-negative")
    if cols < 1:
        raise ValueError("cols must be positive")
    q = field.modulus
    col = np.array([pow(v, start_power, q) for v in vals], dtype=np.int64)
    base = np.array(vals, dtype=np.int64)
    out = np.empty((len(vals), cols), dtype=np.int64)
    for j in range(cols):
        out[:, j] = col
        col = col * base % q
    return Matrix(field, out)


def invert(a: Matrix) -> Matrix:
    """Gauss-Jordan inverse with first-nonzero pivot selection; each column
    is cleared by one outer-product update, exact in int64 as every
    product is below q**2."""
    if a.rows != a.cols:
        raise ValueError(f"cannot invert a {a.rows}x{a.cols} matrix; it is not square")
    n = a.rows
    q = a.field.modulus
    aug = np.concatenate([a.data, np.eye(n, dtype=np.int64)], axis=1)
    for col in range(n):
        nonzero = np.flatnonzero(aug[col:, col])
        if not nonzero.size:
            raise SingularMatrixError(f"matrix is singular mod {q} (column {col})")
        aug[[col, col + nonzero[0]]] = aug[[col + nonzero[0], col]]
        aug[col] = aug[col] * pow(int(aug[col, col]), -1, q) % q
        factors = aug[:, col].copy()
        factors[col] = 0
        aug -= np.outer(factors, aug[col])
        aug %= q
    return Matrix(a.field, aug[:, n:])


def _validate_gvm_shape(phi: Matrix):
    q = phi.field.modulus
    d = phi.data
    if np.any(d[:, 0] == 0):
        raise ValueError("phi rows must start from a nonzero power")
    if phi.cols >= 2:
        inv0 = np.array([pow(int(v), q - 2, q) for v in d[:, 0]], dtype=np.int64)
        ratios = d[:, 1] * inv0 % q
        if np.any(ratios == 0):
            raise ValueError("phi has a zero evaluation point")
        if len(set(int(r) for r in ratios)) != phi.rows:
            raise ValueError("phi rows must come from pairwise distinct points")
        for j in range(2, phi.cols):
            if np.any(d[:, j] != d[:, j - 1] * ratios % q):
                raise ValueError("phi rows are not geometric progressions")


def solve_symmetric_pair(x: Matrix, phi: Matrix, delta: Matrix):
    """Solve x = phi*A + delta*phi*B for symmetric A and B.

    phi is k x (k-1) with rows from distinct nonzero points, delta is
    diagonal with distinct nonzero diagonal entries. The off-diagonal
    entries of x*phi^T split into a symmetric pair of matrices, one per
    unknown, and each unknown then falls out of k-1 small punctured
    Vandermonde solves. The reassembled result is checked against x, so
    inconsistent input (a corrupted shard upstream) cannot pass silently.
    """
    k = phi.rows
    if k < 2 or phi.cols != k - 1:
        raise ValueError(f"phi must be k x (k-1) with k >= 2, got {phi.rows}x{phi.cols}")
    if x.rows != k or x.cols != k - 1:
        raise ValueError(f"x must match phi's shape {k}x{k - 1}, got {x.rows}x{x.cols}")
    if delta.rows != k or delta.cols != k:
        raise ValueError(f"delta must be {k}x{k}, got {delta.rows}x{delta.cols}")
    x._check_same_field(phi)
    x._check_same_field(delta)
    field = x.field
    q = field.modulus
    dd = delta.data
    if np.any(dd[~np.eye(k, dtype=bool)]):
        raise ValueError("delta must be diagonal")
    diag = [int(v) for v in np.diag(dd)]
    if any(v == 0 for v in diag):
        raise ValueError("delta diagonal entries must be nonzero")
    if len(set(diag)) != k:
        raise ValueError(f"delta diagonal entries must be pairwise distinct, got {diag}")
    _validate_gvm_shape(phi)

    xpt = (x.data @ phi.data.T) % q
    p = np.zeros((k, k), dtype=np.int64)
    qq = np.zeros((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(i + 1, k):
            den_inv = pow((diag[i] - diag[j]) % q, q - 2, q)
            qij = (xpt[i, j] - xpt[j, i]) * den_inv % q
            pij = (xpt[i, j] - diag[i] * qij) % q
            p[i, j] = p[j, i] = pij
            qq[i, j] = qq[j, i] = qij

    # Row i of phi * unknown comes from the off-diagonal row i, pushed
    # through the transposed Vandermonde with row i punctured out.
    others = [[j for j in range(k) if j != i] for i in range(k - 1)]
    punct_inv = [
        invert(phi.submatrix(row_indices=rows).transpose()) for rows in others
    ]
    top_inv = invert(phi.submatrix(row_indices=range(k - 1)))

    def recover(sym: np.ndarray) -> Matrix:
        stacked = np.empty((k - 1, k - 1), dtype=np.int64)
        for i in range(k - 1):
            row = sym[i, others[i]].reshape(1, -1)
            stacked[i] = (row @ punct_inv[i].data) % q
        return Matrix(field, (top_inv.data @ stacked) % q)

    a = recover(p)
    b = recover(qq)

    recomposed = (phi.data @ a.data + dd @ phi.data @ b.data) % q
    if (
        not a.is_symmetric()
        or not b.is_symmetric()
        or not np.array_equal(recomposed, x.data)
    ):
        raise InconsistencyError(
            "x is not of the form phi*A + delta*phi*B for symmetric A, B"
        )
    return a, b
