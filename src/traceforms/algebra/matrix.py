"""Exact matrices over the rationals.

Determinants go through Bareiss fraction-free elimination on a
denominator-cleared integer copy, characteristic polynomials through the
Faddeev-LeVerrier recurrence (safe in characteristic zero) on such a copy,
checked against Bareiss determinants at n+1 points, and congruence
diagonalization through symmetric row+column elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .intmath import _int_det_bareiss, _rational_det
from .poly import RationalPoly

Vector = tuple[Fraction, ...]


class SingularKrylov(ArithmeticError):
    """The Krylov vectors v, Mv, ... are linearly dependent."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Matrix:
    """Immutable rational matrix, row-major."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rs = tuple(tuple(_frac(x) for x in row) for row in rows)
        if not rs or not rs[0]:
            raise ValueError("empty matrix")
        width = len(rs[0])
        if any(len(r) != width for r in rs):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rs)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        entries = list(entries)
        n = len(entries)
        return cls([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def random_symmetric(cls, n: int, bound: int, rng) -> "Matrix":
        """Symmetric n x n integer matrix, entries uniform in [-bound, bound].

        The upper triangle is drawn row by row from `rng` (a random.Random).
        """
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
        return cls(rows)

    @classmethod
    def from_columns(cls, cols) -> "Matrix":
        cols = [tuple(c) for c in cols]
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i + 1, self.ncols)
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix([{body}])"

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Matrix([[x * other for x in row] for row in self.rows])
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            cols = list(zip(*other.rows))
            return Matrix(
                [
                    [sum(a * b for a, b in zip(row, col)) for col in cols]
                    for row in self.rows
                ]
            )
        if isinstance(other, tuple):
            if self.ncols != len(other):
                raise ValueError("shape mismatch")
            return tuple(sum(a * b for a, b in zip(row, other)) for row in self.rows)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), Fraction(0))

    def det(self) -> Fraction:
        """Exact determinant (Bareiss on a denominator-cleared copy)."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        return _rational_det(self.rows)


def charpoly(m: Matrix) -> RationalPoly:
    """Monic characteristic polynomial det(xI - M), computed in integers.

    With L the lcm of the entries' denominators, Faddeev-LeVerrier runs on
    B = L*M, where every trace divides by k exactly, and c_k(M) = c_k(B) / L^k.
    The integer result is checked against Bareiss determinants det(cI - B) at
    the n+1 points c = 0..n, which pin a degree-n polynomial down; a mismatch
    raises ArithmeticError.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    scale = math.lcm(*(x.denominator for row in m.rows for x in row))
    b = [[x.numerator * (scale // x.denominator) for x in row] for row in m.rows]
    coeffs = [1]  # det(xI - B), x^n downward
    acc = [row[:] for row in b]  # B * (B^(k-1) + c_1 B^(k-2) + ... + c_(k-1) I)
    for k in range(1, n + 1):
        coeffs.append(-sum(acc[i][i] for i in range(n)) // k)
        if k < n:
            for i in range(n):
                acc[i][i] += coeffs[-1]
            cols = list(zip(*acc))
            acc = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in b]
    for c in range(n + 1):
        value = 0
        for coeff in coeffs:
            value = value * c + coeff
        shifted = [[-x for x in row] for row in b]
        for i in range(n):
            shifted[i][i] += c
        if _int_det_bareiss(shifted) != value:
            raise ArithmeticError(f"charpoly cross-check failed at x = {c}/{scale}")
    return RationalPoly(reversed([Fraction(ck, scale**k) for k, ck in enumerate(coeffs)]))


def krylov_matrix(m: Matrix, v: Vector) -> Matrix:
    """Matrix with columns v, Mv, ..., M^(n-1)v; raises if they are dependent."""
    if not m.is_square:
        raise ValueError("Krylov matrix needs a square matrix")
    n = m.nrows
    if len(v) != n:
        raise ValueError("vector length mismatch")
    cols = [tuple(_frac(x) for x in v)]
    for _ in range(n - 1):
        cols.append(m * cols[-1])
    result = Matrix.from_columns(cols)
    if result.det() == 0:
        raise SingularKrylov("vector is not cyclic for this matrix")
    return result


def solve_linear(a: Matrix, rhs: Vector) -> Vector:
    """Unique solution of a x = rhs; raises ValueError on a singular system."""
    if not a.is_square or len(rhs) != a.nrows:
        raise ValueError("shape mismatch")
    n = a.nrows
    work = [list(row) + [_frac(rhs[i])] for i, row in enumerate(a.rows)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("singular system")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col] / pivot
                for c in range(col, n + 1):
                    work[r][c] -= factor * work[col][c]
    return tuple(work[i][n] / work[i][i] for i in range(n))


def congruence_diagonalize(b: Matrix) -> tuple[Matrix, tuple[Fraction, ...]]:
    """Invertible Q and diagonal d with Q^T B Q = diag(d), exactly.

    Zero pivots are repaired by swapping in a later nonzero diagonal entry
    when one exists, and only otherwise by the substitution e_i -> e_i + e_j
    against a nonzero off-diagonal entry.  A row that is entirely zero from
    the pivot on contributes a zero diagonal entry (corank).
    """
    if not b.is_symmetric:
        raise ValueError("congruence diagonalization needs a symmetric matrix")
    n = b.nrows
    a = [list(row) for row in b.rows]
    q = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]

    def col_op(dst: int, src: int, factor: Fraction) -> None:
        # column dst += factor * column src, mirrored on rows; same on q's columns
        for r in range(n):
            a[r][dst] += factor * a[r][src]
        for c in range(n):
            a[dst][c] += factor * a[src][c]
        for r in range(n):
            q[r][dst] += factor * q[r][src]

    def swap(i: int, j: int) -> None:
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            q[r][i], q[r][j] = q[r][j], q[r][i]

    for i in range(n):
        if a[i][i] == 0:
            j = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if j is not None:
                swap(i, j)
            else:
                j = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if j is None:
                    continue  # whole remaining row/column is zero: corank
                col_op(i, j, Fraction(1))
        pivot = a[i][i]
        for j in range(i + 1, n):
            if a[i][j] != 0:
                col_op(j, i, -a[i][j] / pivot)

    qm = Matrix(q)
    d = tuple(a[i][i] for i in range(n))
    if qm.transpose() * b * qm != Matrix.diagonal(d):
        raise ArithmeticError("congruence check failed")
    return qm, d
