import math
import random
import subprocess
import sys
from fractions import Fraction

import matrix_oracles as oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from matrix_oracles import SingularKrylov, krylov_matrix

from traceforms.algebra import (
    Matrix,
    RationalPoly,
    charpoly,
    congruence_diagonalize,
    is_irreducible_over_rationals,
    solve_linear,
    squarefree_part,
)

X = RationalPoly.x()


def _charpoly_interpolation(m: Matrix) -> RationalPoly:
    """det(xI - M) reconstructed from n+1 determinant evaluations."""
    n = m.nrows
    ident = Matrix.identity(n)
    points = [(Fraction(c), (ident * c - m).det()) for c in range(n + 1)]
    total = RationalPoly.zero()
    for i, (xi, yi) in enumerate(points):
        term = RationalPoly.constant(yi)
        for j, (xj, _) in enumerate(points):
            if i != j:
                term = term * RationalPoly((-xj / (xi - xj), 1 / (xi - xj)))
        total = total + term
    return total


def _random_matrix(rng, n, span=9, denominators=False):
    def entry():
        if denominators:
            return Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 4))
        return Fraction(rng.randrange(-span, span + 1))

    return Matrix([[entry() for _ in range(n)] for _ in range(n)])


def _random_symmetric(rng, n, span=9):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randrange(-span, span + 1))
    return Matrix(rows)


def test_det_examples():
    assert Matrix.identity(4).det() == 1
    assert Matrix([[1, 1], [1, 2]]).det() == 1
    assert Matrix([[1, 1], [1, 1]]).det() == 0
    with pytest.raises(ValueError):
        Matrix([[1, 2, 3], [4, 5, 6]]).det()


def test_det_multiplicative():
    rng = random.Random(10)
    for _ in range(100):
        n = rng.randrange(1, 6)
        a = _random_matrix(rng, n, denominators=True)
        b = _random_matrix(rng, n, denominators=True)
        assert (a * b).det() == a.det() * b.det()


def test_det_against_permutation_expansion():
    from itertools import permutations

    rng = random.Random(11)
    for _ in range(30):
        n = rng.randrange(1, 5)
        m = _random_matrix(rng, n, denominators=True)
        total = Fraction(0)
        for perm in permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            product = Fraction(1)
            for i in range(n):
                product *= m[i, perm[i]]
            total += sign * product
        assert m.det() == total


def test_charpoly_examples():
    assert charpoly(Matrix.identity(2)) == (X - 1) * (X - 1)
    assert charpoly(Matrix([[0, 1], [1, 0]])) == X * X - 1
    assert charpoly(Matrix.diagonal([3, -7])) == (X - 3) * (X + 7)
    with pytest.raises(ValueError):
        charpoly(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_charpoly_matches_interpolation():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randrange(1, 7)
        m = _random_matrix(rng, n)
        assert charpoly(m) == _charpoly_interpolation(m)


RATIONAL_ENTRIES = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(RATIONAL_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_charpoly_matches_interpolation_property(rows):
    m = Matrix(rows)
    assert charpoly(m) == _charpoly_interpolation(m)


def test_charpoly_cross_check_raises_under_optimize():
    # a wrong determinant must be caught even with asserts stripped
    script = """
import sys
import traceforms.algebra.matrix as matrix
real = matrix._int_det_bareiss
matrix._int_det_bareiss = lambda a: real(a) + 1
try:
    matrix.charpoly(matrix.Matrix([[1, 2], [3, 4]]))
except ArithmeticError:
    sys.exit(0 if sys.flags.optimize else 3)
sys.exit(4)
"""
    run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_charpoly_evaluates_to_det():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randrange(1, 6)
        m = _random_matrix(rng, n, denominators=True)
        f = charpoly(m)
        assert f.is_monic and f.degree == n
        c = Fraction(rng.randrange(-10, 11))
        assert f(c) == (Matrix.identity(n) * c - m).det()


def test_krylov_examples():
    e1 = (Fraction(1), Fraction(0))
    assert krylov_matrix(Matrix([[1, 1], [1, -1]]), e1) == Matrix([[1, 1], [0, 1]])
    assert krylov_matrix(Matrix([[5]]), (Fraction(1),)) == Matrix([[1]])
    with pytest.raises(SingularKrylov):
        krylov_matrix(Matrix.identity(2), e1)


def test_irreducible_charpoly_forces_cyclic_vectors():
    rng = random.Random(14)
    instances = 0
    while instances < 50:
        n = rng.randrange(2, 5)
        m = _random_matrix(rng, n, span=5)
        if not is_irreducible_over_rationals(charpoly(m)):
            continue
        instances += 1
        basis = [
            tuple(Fraction(1 if i == j else 0) for i in range(n)) for j in range(n)
        ]
        extras = [
            tuple(Fraction(rng.randrange(-5, 6)) for _ in range(n)) for _ in range(10)
        ]
        for v in basis + extras:
            if all(x == 0 for x in v):
                continue
            assert krylov_matrix(m, v).det() != 0


def test_congruence_diagonalize_examples():
    q, d = congruence_diagonalize(Matrix.diagonal([1, -1]))
    assert q == Matrix.identity(2) and d == (1, -1)

    b = Matrix([[1, 1], [1, 2]])
    q, d = congruence_diagonalize(b)
    assert q.transpose() * b * q == Matrix.diagonal(d)
    assert [squarefree_part((x).numerator * (x).denominator) for x in d] == [1, 1]

    b = Matrix([[0, 1], [1, 0]])
    q, d = congruence_diagonalize(b)
    assert q.transpose() * b * q == Matrix.diagonal(d)
    prod = d[0] * d[1]
    assert squarefree_part(prod.numerator * prod.denominator) == -1

    with pytest.raises(ValueError):
        congruence_diagonalize(Matrix([[0, 1], [2, 0]]))


def test_congruence_diagonalize_random():
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randrange(1, 7)
        b = _random_symmetric(rng, n)
        q, d = congruence_diagonalize(b)
        assert q.transpose() * b * q == Matrix.diagonal(d)
        assert q.det() != 0
        assert q.det() ** 2 * b.det() == _product(d)
        # zero entries count the corank exactly
        assert sum(1 for x in d if x == 0) == n - _rank(b)


def _product(values):
    out = Fraction(1)
    for v in values:
        out *= v
    return out


def _rank(m):
    work = [list(row) for row in m.rows]
    n = len(work)
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(n):
            if r != rank and work[r][col] != 0:
                factor = work[r][col] / work[rank][col]
                for c in range(n):
                    work[r][c] -= factor * work[rank][c]
        rank += 1
    return rank


def test_solve_linear():
    rng = random.Random(16)
    for _ in range(50):
        n = rng.randrange(1, 6)
        a = _random_matrix(rng, n, denominators=True)
        if a.det() == 0:
            with pytest.raises(ValueError):
                solve_linear(a, tuple(Fraction(1) for _ in range(n)))
            continue
        x = tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(n))
        assert solve_linear(a, a * x) == x


# ints and Fractions with mixed denominators, as callers pass them
ENTRIES = st.one_of(st.integers(-20, 20), RATIONAL_ENTRIES)


@st.composite
def _square_rows(draw, n):
    rows = draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n))
    kind = draw(st.sampled_from(("dense", "dense", "zero", "singular")))
    if kind == "zero":
        rows = [[0] * n for _ in range(n)]
    elif kind == "singular":
        c = draw(RATIONAL_ENTRIES)
        rows[-1] = [c * x for x in rows[0]] if n > 1 else [0]
    return rows


def _assert_lowest_terms(m):
    assert m.denominator > 0
    assert math.gcd(m.denominator, *(x for row in m.numerators for x in row)) == 1


def _assert_is(m, expected_rows):
    """m holds exactly expected_rows, in lowest terms, and compares and hashes
    equal to a Matrix built from those Fractions."""
    assert m.rows == tuple(tuple(row) for row in expected_rows)
    _assert_lowest_terms(m)
    rebuilt = Matrix(expected_rows)
    assert m == rebuilt and hash(m) == hash(rebuilt)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            _square_rows(n), _square_rows(n), st.lists(ENTRIES, min_size=n, max_size=n), ENTRIES
        )
    )
)
def test_integer_matrix_matches_fraction_oracles(data):
    rows_a, rows_b, vec, scalar = data
    a, b = Matrix(rows_a), Matrix(rows_b)
    ra, rb = oracle.as_rows(rows_a), oracle.as_rows(rows_b)
    _assert_is(a, ra)
    # the same matrix spelled with strings, plain Fractions and ints compares and hashes alike
    for spelled in ([[str(x) for x in row] for row in rows_a], ra):
        assert Matrix(spelled) == a and hash(Matrix(spelled)) == hash(a)

    _assert_is(a * b, oracle.mul(ra, rb))
    _assert_is(a.transpose() * b * a, oracle.mul(oracle.mul(oracle.transpose(ra), rb), ra))
    _assert_is(a.transpose(), oracle.transpose(ra))
    _assert_is(a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(ra, rb)])
    _assert_is(a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(ra, rb)])
    _assert_is(a * scalar, [[x * scalar for x in row] for row in ra])
    _assert_is(scalar * a, [[scalar * x for x in row] for row in ra])
    _assert_is((a * 6) * Fraction(1, 6), ra)
    assert a * tuple(vec) == oracle.mul_vector(ra, vec)
    assert a.det() == oracle.det(ra)
    assert a.trace() == sum(ra[i][i] for i in range(len(ra)))
    assert a.is_symmetric == (ra == tuple(oracle.transpose(ra)))

    if oracle.det(ra) == 0:
        with pytest.raises(ValueError):
            solve_linear(a, tuple(vec))
    else:
        assert solve_linear(a, tuple(vec)) == oracle.solve_linear(ra, vec)

    sym = a + a.transpose()
    hollow = Matrix([[0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(sym.rows)])
    for form in (sym, hollow):
        q, d = congruence_diagonalize(form)
        q_ref, d_ref = oracle.congruence_diagonalize(form.rows)
        _assert_is(q, q_ref)
        assert d == d_ref


def test_equal_matrices_compare_and_hash_alike():
    half = Matrix([[Fraction(1, 2), 3], [0, -1]])
    for same in (
        [[Fraction(2, 4), Fraction(6, 2)], [Fraction(0, 7), -1]],
        [["1/2", "3"], ["0", Fraction(-3, 3)]],
        [[Fraction(1, 2), 3.0], [0, -1]],
    ):
        assert Matrix(same) == half and hash(Matrix(same)) == hash(half)
    ints = Matrix([[1, 2], [3, 4]])
    assert ints == Matrix([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    assert ints.denominator == 1 and ints.numerators == ((1, 2), (3, 4))
    assert half.denominator == 2 and half.numerators == ((1, 6), (0, -2))
    zero = half - half
    assert zero == Matrix([[0, 0], [0, 0]]) and zero.denominator == 1
    assert half * 2 == Matrix([[1, 6], [0, -2]]) and (half * 2).denominator == 1
    assert half != Matrix([[1, 3], [0, -1]]) and half != half.rows
