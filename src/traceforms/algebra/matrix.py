"""Exact matrices over the rationals.

A Matrix is stored as integer rows (`numerators`) over one positive common
denominator (`denominator`), in lowest terms: the gcd of the denominator and
every numerator is 1, so equal matrices have equal (numerators, denominator)
pairs, and `==` and `hash` compare those directly.  `rows` and indexing hand
out Fractions built on demand.

Everything below stays in integers until a result is handed out:

  * products (matrix x matrix, matrix x vector, scalar), sums, transposes,
    symmetry tests and traces work on the integer rows and normalize each
    result once;
  * determinants are Bareiss fraction-free elimination on the integer rows,
    divided by den^n;
  * characteristic polynomials are the Faddeev-LeVerrier recurrence (safe in
    characteristic zero) on the integer rows, checked against Bareiss
    determinants at n+1 points;
  * linear systems are fraction-free Gauss-Jordan on the cleared augmented
    system;
  * congruence diagonalization is symmetric row+column elimination on
    Q^T B Q kept as an integer matrix, with each column of Q an integer
    vector over its own denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .intmath import _int_det_bareiss
from .poly import RationalPoly

Vector = tuple[Fraction, ...]


def _exact(x):
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _lowest_terms(num, den: int) -> "Matrix":
    """The Matrix num / den (den > 0), after dividing out the gcd of den and
    every entry of num (a tuple of integer tuples)."""
    g = math.gcd(den, *(x for row in num for x in row))
    if g != 1:
        num = tuple(tuple(x // g for x in row) for row in num)
        den //= g
    return _raw(num, den)


def _raw(num, den: int) -> "Matrix":
    """The Matrix num / den; the caller guarantees it is in lowest terms."""
    m = object.__new__(Matrix)
    object.__setattr__(m, "numerators", num)
    object.__setattr__(m, "denominator", den)
    return m


class Matrix:
    """Immutable rational matrix, row-major: integer rows `numerators` over one
    positive common `denominator`, in lowest terms."""

    __slots__ = ("numerators", "denominator")

    def __init__(self, rows):
        rs = [[_exact(x) for x in row] for row in rows]
        if not rs or not rs[0]:
            raise ValueError("empty matrix")
        width = len(rs[0])
        if any(len(r) != width for r in rs):
            raise ValueError("ragged rows")
        # the lcm of reduced denominators leaves no common factor to divide out
        den = math.lcm(*(x.denominator for row in rs for x in row))
        num = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rs)
        object.__setattr__(self, "numerators", num)
        object.__setattr__(self, "denominator", den)

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
    def rows(self) -> tuple[Vector, ...]:
        den = self.denominator
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.numerators)

    @property
    def nrows(self) -> int:
        return len(self.numerators)

    @property
    def ncols(self) -> int:
        return len(self.numerators[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def is_symmetric(self) -> bool:
        num = self.numerators
        return self.is_square and all(
            num[i][j] == num[j][i] for i in range(self.nrows) for j in range(i + 1, self.ncols)
        )

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.numerators[i][j], self.denominator)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self):
        return hash((self.numerators, self.denominator))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Matrix([{body}])"

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        den = math.lcm(self.denominator, other.denominator)
        s1, s2 = den // self.denominator, den // other.denominator
        num = tuple(
            tuple(a * s1 + b * s2 for a, b in zip(r1, r2))
            for r1, r2 in zip(self.numerators, other.numerators)
        )
        return _lowest_terms(num, den)

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            num = tuple(tuple(x * p for x in row) for row in self.numerators)
            return _lowest_terms(num, self.denominator * other.denominator)
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            cols = tuple(zip(*other.numerators))
            num = tuple(
                tuple(sum(map(mul, row, col)) for col in cols) for row in self.numerators
            )
            return _lowest_terms(num, self.denominator * other.denominator)
        if isinstance(other, tuple):
            if self.ncols != len(other):
                raise ValueError("shape mismatch")
            vec = [_exact(x) for x in other]
            vden = math.lcm(*(x.denominator for x in vec))
            ints = [x.numerator * (vden // x.denominator) for x in vec]
            den = self.denominator * vden
            return tuple(Fraction(sum(map(mul, row, ints)), den) for row in self.numerators)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def transpose(self) -> "Matrix":
        return _raw(tuple(zip(*self.numerators)), self.denominator)

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        num = self.numerators
        return Fraction(sum(num[i][i] for i in range(self.nrows)), self.denominator)

    def det(self) -> Fraction:
        """Exact determinant: Bareiss on the integer rows, over den^n."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        det = _int_det_bareiss([list(row) for row in self.numerators])
        return Fraction(det, self.denominator**self.nrows)


def charpoly(m: Matrix) -> RationalPoly:
    """Monic characteristic polynomial det(xI - M), computed in integers.

    With M = B / L (B the integer rows, L the denominator), Faddeev-LeVerrier
    runs on B, where every trace divides by k exactly, and
    c_k(M) = c_k(B) / L^k.  The integer result is checked against Bareiss
    determinants det(cI - B) at the n+1 points c = 0..n, which pin a degree-n
    polynomial down; a mismatch raises ArithmeticError.
    """
    if not m.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    scale = m.denominator
    b = m.numerators
    coeffs = [1]  # det(xI - B), x^n downward
    acc = [list(row) for row in b]  # B * (B^(k-1) + c_1 B^(k-2) + ... + c_(k-1) I)
    for k in range(1, n + 1):
        coeffs.append(-sum(acc[i][i] for i in range(n)) // k)
        if k < n:
            for i in range(n):
                acc[i][i] += coeffs[-1]
            cols = tuple(zip(*acc))
            acc = [[sum(map(mul, row, col)) for col in cols] for row in b]
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


def solve_linear(a: Matrix, rhs: Vector) -> Vector:
    """Unique solution of a x = rhs; raises ValueError on a singular system.

    With a = A / d and rhs = r / s (A, r integer), a x = rhs is A (s x) = d r,
    solved by fraction-free Gauss-Jordan: every division is exact, and at
    the end each row i reads D * (s x)_i = w_i with D the last pivot.
    """
    if not a.is_square or len(rhs) != a.nrows:
        raise ValueError("shape mismatch")
    n = a.nrows
    vec = [_exact(x) for x in rhs]
    s = math.lcm(*(x.denominator for x in vec))
    d = a.denominator
    work = [list(row) + [x.numerator * (s // x.denominator) * d] for row, x in zip(a.numerators, vec)]
    prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot_row is None:
            raise ValueError("singular system")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot_line = work[col]
        pivot = pivot_line[col]
        for r in range(n):
            if r == col:
                continue
            line = work[r]
            factor = line[col]
            for c in range(col + 1, n + 1):
                line[c] = (pivot * line[c] - factor * pivot_line[c]) // prev
            line[col] = 0
        prev = pivot
    return tuple(Fraction(work[i][n], prev * s) for i in range(n))


def congruence_diagonalize(b: Matrix) -> tuple[Matrix, tuple[Fraction, ...]]:
    """Invertible Q and diagonal d with Q^T B Q = diag(d), exactly.

    Zero pivots are repaired by swapping in a later nonzero diagonal entry
    when one exists, and only otherwise by the substitution e_i -> e_i + e_j
    against a nonzero off-diagonal entry.  A row that is entirely zero from
    the pivot on contributes a zero diagonal entry (corank).

    Runs in integers with the same pivots and column operations as over Q:
    with B = G / den, column Q_j of Q is the integer vector q_j over the
    positive integer s_j, in lowest terms, and the working matrix is
    a = [q_i^T G q_j], so (Q^T B Q)_ij = a_ij / (den s_i s_j) and a zero
    test on a is a zero test on Q^T B Q.
    """
    if not b.is_symmetric:
        raise ValueError("congruence diagonalization needs a symmetric matrix")
    n = b.nrows
    a = [list(row) for row in b.numerators]
    q = [[1 if i == j else 0 for i in range(n)] for j in range(n)]  # columns of Q
    s = [1] * n

    def col_op(dst: int, u: int, src: int, w: int, scale: int) -> None:
        # column dst of Q becomes (u q_dst + w q_src) / scale; a follows on
        # its column dst, then its row dst; then both drop q_dst's content
        for row in a:
            row[dst] = u * row[dst] + w * row[src]
        a[dst] = [u * x + w * y for x, y in zip(a[dst], a[src])]
        q[dst] = [u * x + w * y for x, y in zip(q[dst], q[src])]
        g = math.gcd(scale, *q[dst])
        if g != 1:
            q[dst] = [x // g for x in q[dst]]
            scale //= g
            for row in a:
                row[dst] //= g
            a[dst] = [x // g for x in a[dst]]
        s[dst] = scale

    def swap(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        a[i], a[j] = a[j], a[i]
        q[i], q[j] = q[j], q[i]
        s[i], s[j] = s[j], s[i]

    for i in range(n):
        if a[i][i] == 0:
            j = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if j is not None:
                swap(i, j)
            else:
                j = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if j is None:
                    continue  # whole remaining row/column is zero: corank
                # Q_i + Q_j over lcm(s_i, s_j)
                scale = math.lcm(s[i], s[j])
                col_op(i, scale // s[i], j, scale // s[j], scale)
        pivot = a[i][i]
        for j in range(i + 1, n):
            if a[i][j] != 0:
                # Q_j - (A_ij / A_ii) Q_i = (a_ii q_j - a_ij q_i) / (a_ii s_j), over gcd(a_ii, a_ij)
                g = math.gcd(pivot, a[i][j])
                u, w = pivot // g, -a[i][j] // g
                if u < 0:
                    u, w = -u, -w
                col_op(j, u, i, w, s[j] * u)

    width = math.lcm(*s)
    qm = _lowest_terms(
        tuple(tuple(q[j][r] * (width // s[j]) for j in range(n)) for r in range(n)), width
    )
    d = tuple(Fraction(a[i][i], b.denominator * s[i] * s[i]) for i in range(n))
    if qm.transpose() * b * qm != Matrix.diagonal(d):
        raise ArithmeticError("congruence check failed")
    return qm, d
