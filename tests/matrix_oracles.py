"""Reference matrix routines on plain rows of Fractions.

These are the per-entry `Fraction` bodies that `traceforms.algebra.matrix`
used before `Matrix` moved to integer rows over one common denominator, and
`det` is the determinant it used then (each row cleared of denominators on
its own, then Bareiss).  None of them goes through `Matrix` arithmetic, so
the tests compare against them.
Inputs are row sequences (or `Matrix.rows`); outputs are tuples of Fraction
rows, except `krylov_matrix`, which returns a `Matrix` like the function it
replaces.
"""

from fractions import Fraction

from traceforms.algebra import Matrix
from traceforms.algebra.intmath import _rational_det as det  # Bareiss on rows cleared one by one


class SingularKrylov(ArithmeticError):
    """The Krylov vectors v, Mv, ... are linearly dependent."""


def as_rows(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def mul(a, b):
    """Matrix x matrix product."""
    cols = list(zip(*b))
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols) for row in a)


def mul_vector(a, v):
    return tuple(sum((x * Fraction(y) for x, y in zip(row, v)), Fraction(0)) for row in a)


def transpose(a):
    return tuple(zip(*a))


def solve_linear(a, rhs):
    """Unique solution of a x = rhs; raises ValueError on a singular system."""
    n = len(a)
    work = [list(row) + [Fraction(rhs[i])] for i, row in enumerate(a)]
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


def congruence_diagonalize(b):
    """(Q rows, d) with Q^T B Q = diag(d): the per-entry Fraction elimination,
    same pivot order and column operations as the library."""
    n = len(b)
    a = [list(row) for row in b]
    q = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]

    def col_op(dst, src, factor):
        for r in range(n):
            a[r][dst] += factor * a[r][src]
        for c in range(n):
            a[dst][c] += factor * a[src][c]
        for r in range(n):
            q[r][dst] += factor * q[r][src]

    def swap(i, j):
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
                    continue
                col_op(i, j, Fraction(1))
        pivot = a[i][i]
        for j in range(i + 1, n):
            if a[i][j] != 0:
                col_op(j, i, -a[i][j] / pivot)
    return tuple(tuple(row) for row in q), tuple(a[i][i] for i in range(n))


def krylov_matrix(m: Matrix, v) -> Matrix:
    """Matrix with columns v, Mv, ..., M^(n-1)v; raises if they are dependent."""
    rows = m.rows
    n = len(rows)
    if len(v) != n:
        raise ValueError("vector length mismatch")
    cols = [tuple(Fraction(x) for x in v)]
    for _ in range(n - 1):
        cols.append(mul_vector(rows, cols[-1]))
    if det(transpose(cols)) == 0:
        raise SingularKrylov("vector is not cyclic for this matrix")
    return Matrix.from_columns(cols)
