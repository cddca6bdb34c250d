import random

import pytest

from traceforms.algebra import (
    BadPrime,
    RationalPoly,
    cycle_type_mod_p,
    factor_mod_p,
    mod_gcd,
    next_prime,
)
from traceforms.algebra.intmath import FACTOR_LIMIT, is_prime
from traceforms.algebra.modpoly import mod_add, mod_divmod, mod_mul, mod_pow, mod_reduce, mod_xgcd


def test_factor_examples():
    assert factor_mod_p([0, 0, 1], 5) == [((0, 1), 2)]

    facs = factor_mod_p([-2, 0, 1], 7)
    assert [(list(g), e) for g, e in facs] == [([3, 1], 1), ([4, 1], 1)]
    # roots are 3 and 4: (x-3) = x+4, (x-4) = x+3 mod 7

    facs = factor_mod_p([-2, 0, 1], 3)
    assert [(len(g) - 1, e) for g, e in facs] == [(2, 1)]  # 2 is a non-residue mod 3

    with pytest.raises(ValueError):
        factor_mod_p([], 5)
    with pytest.raises(ValueError):
        factor_mod_p([1, 1], 6)


def test_factor_reconstructs_input():
    rng = random.Random(20)
    for _ in range(500):
        p = next_prime(rng.randrange(2, 1 << 20))
        degree = rng.randrange(1, 9)
        coeffs = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
        f = mod_reduce(coeffs, p)
        product = [f[-1]]
        for g, e in factor_mod_p(f, p):
            assert g[-1] == 1
            assert _probably_irreducible(g, p)
            for _ in range(e):
                product = mod_mul(product, g, p)
        assert product == f


def _probably_irreducible(g, p):
    # no factor of degree <= deg/2 may divide an irreducible output; re-run the
    # machinery on the factor itself for small degrees
    if len(g) <= 2:
        return True
    return factor_mod_p(g, p) == [(g, 1)]


def test_factor_small_fields_exhaustive():
    # all monic cubics over GF(2) and GF(3) against direct root/feasible-split checks
    for p in (2, 3):
        for c0 in range(p):
            for c1 in range(p):
                for c2 in range(p):
                    f = [c0, c1, c2, 1]
                    facs = factor_mod_p(f, p)
                    product = [1]
                    for g, e in facs:
                        for _ in range(e):
                            product = mod_mul(product, g, p)
                    assert product == f
                    roots = [a for a in range(p) if _eval(f, a, p) == 0]
                    linear = sum(e for g, e in facs if len(g) == 2)
                    assert (len(roots) == 0) == (linear == 0)


def _eval(f, a, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * a + c) % p
    return acc


def test_gcd_and_pow():
    p = 13
    f = mod_mul([1, 0, 1], [2, 1], p)
    g = mod_mul([1, 0, 1], [5, 1], p)
    assert mod_gcd(f, g, p) == [1, 0, 1]
    s, t, d = mod_xgcd(f, g, p)
    assert mod_add(mod_mul(s, f, p), mod_mul(t, g, p), p) == d
    assert mod_pow([0, 1], p, f, p) == _naive_pow([0, 1], p, f, p)


def _naive_pow(base, e, modulus, p):
    acc = [1]
    for _ in range(e):
        acc = mod_divmod(mod_mul(acc, base, p), modulus, p)[1]
    return acc


def test_cycle_type_examples():
    f = RationalPoly((-2, 0, 1))
    assert cycle_type_mod_p(f, 7) == (1, 1)
    assert cycle_type_mod_p(f, 3) == (2,)
    with pytest.raises(BadPrime):
        cycle_type_mod_p(f, 2)  # 2 divides disc = 8


def test_moduli_above_factor_limit_are_refused():
    # FACTOR_LIMIT + 1 = 1287836182261 * 2575672364521 passes all twelve
    # Miller-Rabin witnesses, so is_prime refuses it rather than answer
    n = FACTOR_LIMIT + 1
    assert n == 1287836182261 * 2575672364521
    with pytest.raises(ValueError, match="FACTOR_LIMIT"):
        is_prime(n)
    with pytest.raises(ValueError, match="FACTOR_LIMIT"):
        cycle_type_mod_p(RationalPoly((-1, 0, 1)), n)
    with pytest.raises(ValueError, match="FACTOR_LIMIT"):
        factor_mod_p([-1, 0, 1], n)


def test_cycle_type_degrees_sum():
    rng = random.Random(21)
    done = 0
    while done < 50:
        degree = rng.randrange(1, 7)
        f = RationalPoly([rng.randrange(-9, 10) for _ in range(degree)] + [1])
        p = next_prime(rng.randrange(2, 10**4))
        try:
            t = cycle_type_mod_p(f, p)
        except BadPrime:
            continue
        except ValueError:
            continue
        assert sum(t) == f.degree
        assert t == tuple(sorted(t))
        done += 1


def test_cycle_type_respects_denominators():
    # clearing denominators first: f and c*f have the same pattern
    f = RationalPoly((-2, 0, 1))
    from fractions import Fraction

    scaled = f * Fraction(3, 5)
    assert cycle_type_mod_p(scaled, 7) == cycle_type_mod_p(f, 7)
