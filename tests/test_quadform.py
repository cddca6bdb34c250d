import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceforms.algebra import Matrix, factorize, squarefree_part
from traceforms import quadform
from traceforms.algebra.intmath import FACTOR_LIMIT
from traceforms.quadform import (
    REAL_PLACE,
    DegenerateForm,
    SymmetricForm,
    WittInvariants,
    _is_local_square,
    equivalent,
    hilbert_symbol,
    invariants,
    invariants_of_diagonal,
    is_isotropic,
    relevant_places,
    square_class,
)

PLACES = [2, 3, 5, 7, 11, 97, REAL_PLACE]


def _random_rational(rng, span=300, den=30):
    return Fraction(
        rng.choice([-1, 1]) * rng.randrange(1, span), rng.randrange(1, den)
    )


def _random_symmetric(rng, n, span=9):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randrange(-span, span + 1))
    return Matrix(rows)


def test_hilbert_examples():
    assert hilbert_symbol(1, 7, 5) == 1
    assert hilbert_symbol(-1, -1, REAL_PLACE) == -1
    assert hilbert_symbol(2, 3, 3) == -1
    assert hilbert_symbol(2, 3, 2) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    with pytest.raises(ValueError):
        hilbert_symbol(1, 2, 15)
    with pytest.raises(ValueError):
        hilbert_symbol(0, 1, 3)


def test_hilbert_symmetry_and_bimultiplicativity():
    rng = random.Random(40)
    for _ in range(500):
        v = rng.choice(PLACES)
        a, b, c = (_random_rational(rng) for _ in range(3))
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a, b * c, v) == hilbert_symbol(a, b, v) * hilbert_symbol(
            a, c, v
        )


def test_hilbert_a_minus_a():
    rng = random.Random(41)
    for _ in range(200):
        v = rng.choice(PLACES)
        a = _random_rational(rng)
        assert hilbert_symbol(a, -a, v) == 1
        assert hilbert_symbol(a, 1 - a, v) == 1 if a != 1 else True


def test_global_product_formula():
    rng = random.Random(42)
    for _ in range(1000):
        a = rng.choice([-1, 1]) * rng.randrange(1, 10**4)
        b = rng.choice([-1, 1]) * rng.randrange(1, 10**4)
        product = 1
        for v in relevant_places([Fraction(a), Fraction(b)]):
            product *= hilbert_symbol(a, b, v)
        assert product == 1, (a, b)


def _local_solvable_bruteforce(a, b, p, k):
    """Primitive solutions of z^2 = a x^2 + b y^2 mod p^k; no solution mod p^k
    certifies local insolvability (the negative direction is unconditional)."""
    mod = p**k
    values = range(mod)
    for z in values:
        zz = z * z % mod
        for x in values:
            rhs_x = a * x * x % mod
            for y in values:
                if x % p == 0 and y % p == 0 and z % p == 0:
                    continue
                if (zz - rhs_x - b * y * y) % mod == 0:
                    return True
    return False


def test_hilbert_against_bruteforce_oracle():
    # classical values, negative direction certified by exhaustive search
    assert not _local_solvable_bruteforce(2, 3, 3, 3)
    assert not _local_solvable_bruteforce(2, 3, 2, 5)
    assert not _local_solvable_bruteforce(-1, -1, 2, 3)
    # positive sanity values: smooth points mod an odd prime lift
    assert _local_solvable_bruteforce(1, 3, 3, 3)
    assert _local_solvable_bruteforce(-1, -1, 3, 1)
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(1, 3, 3) == 1


SQUAREFREE = st.integers(-30, 30).filter(lambda n: n != 0 and squarefree_part(n) == n)


@settings(max_examples=200, deadline=None)
@given(a=SQUAREFREE, b=SQUAREFREE, p=st.sampled_from([2, 3, 5]))
def test_hilbert_symbol_matches_bruteforce_property(a, b, p):
    # depth 4 at p = 2 and 2 at odd p decide every squarefree pair in range both ways
    depth = 4 if p == 2 else 2
    assert (hilbert_symbol(a, b, p) == 1) == _local_solvable_bruteforce(a, b, p, depth)


def test_invariants_examples():
    inv = invariants(SymmetricForm.diagonal([1, 1]))
    assert (inv.dim, inv.disc, inv.signature) == (2, 1, (2, 0))
    assert not inv.hasse_minus_at

    inv = invariants(SymmetricForm.diagonal([1, -1]))
    assert (inv.disc, inv.signature) == (-1, (1, 1))
    assert not inv.hasse_minus_at

    inv = invariants(SymmetricForm.diagonal([2, 3]))
    assert (inv.disc, inv.signature) == (6, (2, 0))
    assert set(inv.hasse_minus_at) == {2, 3}

    with pytest.raises(DegenerateForm):
        invariants(SymmetricForm.diagonal([1, 0]))


def test_diagonalization_independence():
    rng = random.Random(43)
    done = 0
    while done < 100:
        n = rng.randrange(1, 7)
        gram = _random_symmetric(rng, n)
        if gram.det() == 0:
            continue
        done += 1
        base = invariants(SymmetricForm(gram))
        while True:
            q = Matrix(
                [[Fraction(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)]
            )
            if q.det() != 0:
                break
        other = invariants(SymmetricForm(q.transpose() * gram * q))
        assert base == other


def test_congruence_invariance():
    rng = random.Random(44)
    done = 0
    while done < 200:
        n = rng.randrange(1, 6)
        gram = _random_symmetric(rng, n)
        if gram.det() == 0:
            continue
        done += 1
        while True:
            q = Matrix(
                [[Fraction(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)]
            )
            if q.det() != 0:
                break
        assert equivalent(SymmetricForm(gram), SymmetricForm(q.transpose() * gram * q))


def test_equivalent_examples():
    assert equivalent(SymmetricForm.diagonal([1, 1]), SymmetricForm.diagonal([2, 2]))
    assert not equivalent(SymmetricForm.diagonal([1, 1]), SymmetricForm.diagonal([1, -1]))
    assert not equivalent(SymmetricForm.diagonal([1, 7]), SymmetricForm.diagonal([1, 14]))


def test_real_place_counterexample_mechanism():
    # Gram of Tr(alpha x y) for a complex-conjugation style quadratic layer:
    # always signature (1, 1), hence isotropic over R; the definite <1,1>
    # cannot arise this way
    rng = random.Random(45)
    for _ in range(100):
        a = Fraction(rng.randrange(-20, 21), rng.randrange(1, 7))
        b = Fraction(rng.randrange(-20, 21), rng.randrange(1, 7))
        if a == 0 and b == 0:
            a = Fraction(1)
        gram = Matrix([[2 * a, -2 * b], [-2 * b, -2 * a]])
        inv = invariants(SymmetricForm(gram))
        assert inv.signature == (1, 1)
    assert invariants(SymmetricForm.diagonal([1, 1])).signature == (2, 0)


def test_isotropy_examples():
    assert is_isotropic(SymmetricForm.diagonal([1, -1]))
    assert not is_isotropic(SymmetricForm.diagonal([1, 1]))
    assert not is_isotropic(SymmetricForm.diagonal([1, 1, -3]))
    assert is_isotropic(SymmetricForm.diagonal([1, 1, -2]))
    assert not is_isotropic(SymmetricForm.diagonal([1]))
    assert not is_isotropic(SymmetricForm.diagonal([1, 1, 1, -7]))
    assert is_isotropic(SymmetricForm.diagonal([1, 1, 1, -14]))
    assert is_isotropic(SymmetricForm.diagonal([1, 2, 3, 4, -5]))
    assert not is_isotropic(SymmetricForm.diagonal([1, 2, 3, 4, 5]))


def _isotropic_search(gram_ints, height):
    """Vectorized search for a nontrivial integer zero of height <= `height`."""
    n = len(gram_ints)
    g = np.array(gram_ints, dtype=np.int64)
    rng_axis = np.arange(-height, height + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng_axis] * n), indexing="ij")
    points = np.stack([grid.ravel() for grid in grids], axis=1)
    nonzero = np.any(points != 0, axis=1)
    points = points[nonzero]
    values = np.einsum("ij,jk,ik->i", points, g, points)
    return bool(np.any(values == 0))


def test_isotropy_against_search_oracle():
    # one-sided: a found zero must be reproduced by the decision procedure;
    # for n <= 2 the search is complete enough to check both directions on
    # the diagonal family below
    rng = random.Random(46)
    found_zero = 0
    for _ in range(100):
        n = rng.randrange(1, 4)
        while True:
            gram = _random_symmetric(rng, n, span=10)
            if gram.det() != 0:
                break
        gram_ints = [[int(x) for x in row] for row in gram.rows]
        decided = is_isotropic(SymmetricForm(gram))
        if _isotropic_search(gram_ints, 50 if n < 3 else 25):
            found_zero += 1
            assert decided, gram
    assert found_zero > 10  # the sample genuinely exercises the oracle


def test_isotropy_binary_family_bidirectional():
    # <a, -b> is isotropic iff a*b is a square class hit
    rng = random.Random(47)
    for _ in range(200):
        a = rng.randrange(1, 60)
        b = rng.randrange(1, 60)
        expect = squarefree_part(a * b) == 1
        assert is_isotropic(SymmetricForm.diagonal([a, -b])) == expect


def test_relevant_places_cover_all_nontrivial_symbols():
    rng = random.Random(48)
    for _ in range(100):
        a, b = (_random_rational(rng, span=50, den=10) for _ in range(2))
        places = set(relevant_places([a, b]))
        for p in [2, 3, 5, 7, 11, 13, 17, 19, 23]:
            if p not in places:
                assert hilbert_symbol(a, b, p) == 1


def _places_oracle(entries):
    primes = {2}
    for e in entries:
        primes.update(factorize(e.numerator))
        primes.update(factorize(e.denominator))
    return sorted(primes) + [REAL_PLACE]


def _invariants_oracle(entries):
    """The invariants as read off before each entry was factored once: square
    classes entry by entry, then the places factored a second time."""
    disc = 1
    for e in entries:
        c = square_class(e)
        g = math.gcd(disc, c)  # disc and c squarefree: the product's class drops g^2
        disc = (disc // g) * (c // g)
    pos = sum(1 for e in entries if e > 0)
    minus = []
    for place in _places_oracle(entries):
        sign = 1
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                sign *= hilbert_symbol(entries[i], entries[j], place)
        if sign == -1:
            minus.append(place)
    return WittInvariants(len(entries), disc, (pos, len(entries) - pos), frozenset(minus))


def _is_isotropic_oracle(entries):
    """Local criteria per dimension on the oracle invariants, places factored again."""
    n = len(entries)
    if n == 1:
        return False
    inv = _invariants_oracle(entries)
    if n == 2:
        return inv.disc == -1
    pos, neg = inv.signature
    if n >= 5:
        return pos > 0 and neg > 0
    disc = Fraction(inv.disc)
    for place in _places_oracle(entries):
        hasse = -1 if place in inv.hasse_minus_at else 1
        if n == 3:
            if hilbert_symbol(-1, -disc, place) != hasse:
                return False
        elif _is_local_square(disc, place) and hasse == -hilbert_symbol(-1, -1, place):
            return False
    return True


NONZERO_RATIONALS = st.builds(
    Fraction,
    st.integers(1, 10**6).flatmap(lambda k: st.sampled_from([k, -k])),
    st.integers(1, 2000),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(NONZERO_RATIONALS, min_size=1, max_size=6))
def test_factor_once_matches_two_pass_oracle(entries):
    assert invariants_of_diagonal(entries) == _invariants_oracle(entries)
    assert invariants(SymmetricForm.diagonal(entries)) == _invariants_oracle(entries)
    assert is_isotropic(SymmetricForm.diagonal(entries)) == _is_isotropic_oracle(entries)
    assert relevant_places(entries) == _places_oracle(entries)


def test_factor_limit_is_checked_before_factoring(monkeypatch):
    calls = []
    real = quadform.factorize
    monkeypatch.setattr(quadform, "factorize", lambda n: calls.append(n) or real(n))
    for entries in ([3, FACTOR_LIMIT + 1], [5, Fraction(1, FACTOR_LIMIT + 2)], [-(FACTOR_LIMIT + 1)]):
        with pytest.raises(ValueError, match="FACTOR_LIMIT"):
            invariants_of_diagonal(entries)
        with pytest.raises(ValueError, match="FACTOR_LIMIT"):
            is_isotropic(SymmetricForm.diagonal([7, 1] + entries))
    assert calls == []  # no entry was factored before the limit was met
    assert invariants_of_diagonal([FACTOR_LIMIT, 1]).dim == 2
