"""Exact square matrices over the rationals.

A Matrix is n x n with n >= 1, a rule of its constructor, so no operation
checks more of a shape than a size.  It is stored as integer rows
(`numerators`) over one positive common denominator (`denominator`), in
lowest terms: the gcd of the denominator and every numerator is 1, so equal
matrices have equal (numerators, denominator) pairs, and `==` and `hash`
compare those directly.

The constructor reads each entry as an integer pair (`poly._rational_pair`)
and builds the rows with one lcm and one division by the common gcd, with no
Fraction per entry; `_lowest_terms` builds a Matrix from integer rows over
any positive denominator the same way.  The Fractions a Matrix hands out are
those of `rows`, indexing and `det`, built on demand.

Everything below stays in integers until a result is handed out:

  * products (matrix x matrix), transposes and symmetry tests work on the
    integer rows, and a product is normalized once;
  * determinants are Bareiss fraction-free elimination on the integer rows,
    divided by den^n;
  * characteristic polynomials are the Faddeev-LeVerrier recurrence (safe in
    characteristic zero) on the integer rows, with its divisions checked
    exact and its result checked by Cayley-Hamilton;
  * nonsingular integer systems are the same Bareiss elimination on the
    augmented rows, then back-substitution (`_int_solve`, which hands back
    the solution as integers over one common divisor);
  * congruence diagonalization is symmetric row+column elimination on
    Q^T B Q kept as an integer matrix, with each column of Q an integer
    vector over its own denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .intmath import _int_det_bareiss
from .poly import RationalPoly, _rational_pair, sequence

Vector = tuple[Fraction, ...]


def _lowest_terms(num, den: int, into: "Matrix | None" = None) -> "Matrix":
    """The Matrix num / den (den > 0), after dividing out the gcd of den and
    every entry of num (a tuple of integer tuples); `into` is the instance
    to fill (Matrix.__init__ passes its own), a new one by default."""
    g = math.gcd(den, *(x for row in num for x in row))
    if g != 1:
        num = tuple(tuple(x // g for x in row) for row in num)
        den //= g
    return _raw(num, den, into)


def _raw(num, den: int, into: "Matrix | None" = None) -> "Matrix":
    """The Matrix num / den; the caller guarantees it is in lowest terms."""
    m = object.__new__(Matrix) if into is None else into
    object.__setattr__(m, "numerators", num)
    object.__setattr__(m, "denominator", den)
    return m


class Matrix:
    """Immutable n x n rational matrix (n >= 1), row-major: integer rows
    `numerators` over one positive common `denominator`, in lowest terms."""

    __slots__ = ("numerators", "denominator")

    def __init__(self, rows):
        rs = [[_rational_pair(x) for x in sequence(row, "matrix row")] for row in sequence(rows, "matrix")]
        if not rs or any(len(r) != len(rs) for r in rs):
            raise ValueError("a matrix must be n x n with n >= 1")
        den = math.lcm(*(q for row in rs for _, q in row))
        _lowest_terms(tuple(tuple(p * (den // q) for p, q in row) for row in rs), den, self)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        entries = list(sequence(entries, "diagonal"))
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

    @property
    def rows(self) -> tuple[Vector, ...]:
        den = self.denominator
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.numerators)

    @property
    def nrows(self) -> int:
        return len(self.numerators)

    @property
    def is_symmetric(self) -> bool:
        num, n = self.numerators, self.nrows
        return all(num[i][j] == num[j][i] for i in range(n) for j in range(i + 1, n))

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

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows:
            raise ValueError("size mismatch")
        cols = tuple(zip(*other.numerators))
        num = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self.numerators)
        return _lowest_terms(num, self.denominator * other.denominator)

    def transpose(self) -> "Matrix":
        return _raw(tuple(zip(*self.numerators)), self.denominator)

    def det(self) -> Fraction:
        """Exact determinant: Bareiss on the integer rows, over den^n."""
        det = _int_det_bareiss([list(row) for row in self.numerators])
        return Fraction(det, self.denominator**self.nrows)


def charpoly(m: Matrix) -> RationalPoly:
    """Monic characteristic polynomial det(xI - M), computed in integers.

    With M = B / L (B the integer rows, L the denominator), Faddeev-LeVerrier
    runs on B and c_k(M) = c_k(B) / L^k.  Its one step outside the ring, the
    division of a trace by k, is checked to be exact, so the integer recurrence
    is the rational one and its result is det(xI - B); the last accumulator
    is p(B), which is checked to vanish (Cayley-Hamilton).  Either failure
    raises ArithmeticError.
    """
    n = m.nrows
    scale = m.denominator
    b = m.numerators
    coeffs = [1]  # det(xI - B), x^n downward
    acc = [list(row) for row in b]  # B^k + c_1 B^(k-1) + ... + c_(k-1) B
    for k in range(1, n + 1):
        trace = sum(acc[i][i] for i in range(n))
        if trace % k:
            raise ArithmeticError(f"charpoly: trace {trace} at step {k} is not divisible by {k}")
        coeffs.append(-trace // k)
        for i in range(n):
            acc[i][i] += coeffs[-1]
        if k < n:
            cols = tuple(zip(*acc))
            acc = [[sum(map(mul, row, col)) for col in cols] for row in b]
    if any(any(row) for row in acc):
        raise ArithmeticError("charpoly: p(B) != 0, Cayley-Hamilton check failed")
    return RationalPoly(reversed([Fraction(ck, scale**k) for k, ck in enumerate(coeffs)]))


def _int_solve(rows: list[list[int]], rhs: list[int]) -> tuple[list[int], int]:
    """(y, d) with rows . y = d rhs and d != 0 for an n x n integer system with
    n entries of rhs; raises ValueError on a singular system.

    `_int_det_bareiss` eliminates the augmented rows to an upper-triangular
    system U x = r and returns d = +-det(rows).  By Cramer's rule y = d x is
    integral, so back-substitution y_i = (d r_i - sum_(j>i) u_ij y_j) // u_ii
    divides exactly.
    """
    n = len(rows)
    work = [list(row) + [r] for row, r in zip(rows, rhs)]
    d = _int_det_bareiss(work)
    if d == 0:
        raise ValueError("singular system")
    y = [0] * n
    for i in range(n - 1, -1, -1):
        u = work[i]
        y[i] = (d * u[n] - sum(map(mul, u[i + 1 : n], y[i + 1 :]))) // u[i]
    return y, d


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
