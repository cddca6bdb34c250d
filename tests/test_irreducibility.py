import math
import random
from fractions import Fraction

import pytest

from traceforms.algebra import (
    RationalPoly,
    cycle_type_mod_p,
    discriminant,
    is_irreducible_over_rationals,
    mignotte_bound,
    primes_above,
)
from traceforms.algebra.irreducibility import _lift_factors, _monicize
from traceforms.algebra.modpoly import BadPrime, factor_mod_p, mod_mul

X = RationalPoly.x()


def test_examples():
    assert not is_irreducible_over_rationals(X * X - 1)
    assert is_irreducible_over_rationals(X * X - 2)
    assert is_irreducible_over_rationals(RationalPoly((1, 0, 0, 0, 1)))  # x^4 + 1
    assert is_irreducible_over_rationals(RationalPoly((-5, 1)))
    assert not is_irreducible_over_rationals((X * X + 1) * (X * X + 1))
    with pytest.raises(ValueError):
        is_irreducible_over_rationals(RationalPoly.one())


def test_x4_plus_1_is_reducible_mod_every_good_prime():
    # the classical recombination stress case
    f = RationalPoly((1, 0, 0, 0, 1))
    checked = 0
    for p in primes_above(2):
        if checked >= 50:
            break
        try:
            t = cycle_type_mod_p(f, p)
        except BadPrime:
            continue
        assert len(t) >= 2
        checked += 1


def test_scalar_invariance():
    rng = random.Random(30)
    for _ in range(50):
        degree = rng.randrange(1, 6)
        f = RationalPoly([rng.randrange(-9, 10) for _ in range(degree)] + [1])
        c = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 9), rng.randrange(1, 9))
        assert is_irreducible_over_rationals(f) == is_irreducible_over_rationals(c * f)


def test_non_monic_cases():
    assert not is_irreducible_over_rationals(RationalPoly((-1, 0, 4)))  # (2x-1)(2x+1)
    assert is_irreducible_over_rationals(RationalPoly((-1, 0, 3)))  # 3x^2 - 1
    assert is_irreducible_over_rationals(RationalPoly((Fraction(-1, 3), 0, 1)))
    assert not is_irreducible_over_rationals(RationalPoly((Fraction(-1, 4), 0, 1)))
    # (3x^2 - 1)^2 (x/2 + 1): a repeated non-monic factor times a rational one
    f = RationalPoly((-1, 0, 3)) ** 2 * RationalPoly((1, Fraction(1, 2)))
    assert not is_irreducible_over_rationals(f)


def _mignotte_coeff_bound(ints, d, j):
    # |g_j| <= C(d-1, j) ||f||_2 + C(d-1, j-1) |lc| for monic divisors of degree d
    norm = math.isqrt(sum(c * c for c in ints)) + 1
    return math.comb(d - 1, j) * norm + (math.comb(d - 1, j - 1) if j >= 1 else 0)


def _oracle_irreducible_monic(ints):
    """Enumerate monic integer divisors within the Landau-Mignotte bound."""
    n = len(ints) - 1
    if n == 1:
        return True
    for d in range(1, n // 2 + 1):
        bounds = [_mignotte_coeff_bound(ints, d, j) for j in range(d)]

        def divides(g):
            rem = list(ints)
            for i in range(len(rem) - d - 1, -1, -1):
                c = rem[i + d]
                if c:
                    for j in range(d + 1):
                        rem[i + j] -= c * g[j]
            return all(c == 0 for c in rem)

        def search(prefix):
            j = len(prefix)
            if j == d:
                return divides(prefix + [1])
            return any(
                search(prefix + [v]) for v in range(-bounds[j], bounds[j] + 1)
            )

        if search([]):
            return False
    return True


def test_against_bounded_enumeration_oracle():
    # complete for monic inputs: monic rational factors of a monic integer
    # polynomial are integral (Gauss) with Mignotte-bounded coefficients
    rng = random.Random(31)
    for _ in range(200):
        degree = rng.randrange(2, 5)
        ints = [rng.randrange(-10, 11) for _ in range(degree)] + [1]
        f = RationalPoly(ints)
        assert is_irreducible_over_rationals(f) == _oracle_irreducible_monic(ints)


def test_hensel_lift_round_trip():
    rng = random.Random(32)
    for _ in range(40):
        degree = rng.randrange(2, 7)
        ints = [rng.randrange(-9, 10) for _ in range(degree)] + [1]
        f = RationalPoly(ints)
        work = _monicize(list(ints))
        disc = discriminant(RationalPoly(work)).numerator
        if disc == 0:
            continue
        p = next(q for q in primes_above(2) if disc % q)
        factors = [list(g) for g, _ in factor_mod_p(work, p)]
        target = 2 * mignotte_bound(work) + 1
        lifted, modulus = _lift_factors(work, factors, p, target)
        assert modulus >= target
        product = [1]
        for part in lifted:
            assert part[-1] == 1  # monic
            product = mod_mul(product, part, modulus)
        assert product == [c % modulus for c in work]
        for lifted_part, base_part in zip(lifted, factors):
            assert [c % p for c in lifted_part] == base_part


def test_known_irreducibles():
    # Eisenstein and cyclotomic standbys
    assert is_irreducible_over_rationals(RationalPoly((7, 0, 0, 0, 0, 0, 1)))
    assert is_irreducible_over_rationals(RationalPoly((1, 1, 1, 1, 1)))  # Phi_5
    assert is_irreducible_over_rationals(RationalPoly((1, 1, 1, 1, 1, 1, 1)))  # Phi_7
    assert not is_irreducible_over_rationals(RationalPoly((1, 1, 1)) * RationalPoly((1, 1)))
