"""Property-based differential tests of the Z/qZ list kernel and its users."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from traceforms.algebra import (
    BadPrime,
    RationalPoly,
    cycle_type_mod_p,
    factor_mod_p,
    is_irreducible_over_rationals,
    is_prime,
)
from traceforms.algebra.intmath import FACTOR_LIMIT
from traceforms.algebra.modpoly import (
    _cycle_type,
    _distinct_degree,
    _pack,
    _slotwise_mod,
    _unpack,
    mod_add,
    mod_divmod,
    mod_gcd,
    mod_monic,
    mod_mul,
    mod_reduce,
    mod_xgcd,
)
from traceforms.algebra.poly import _integer_model, _monic_model
from poly_oracles import discriminant, distinct_degree, gcd, mul, primitive_part

PRIMES = st.sampled_from([p for p in range(2, 400) if is_prime(p)])
PRIME_POWERS = st.tuples(st.sampled_from([2, 3, 5, 7, 101]), st.integers(2, 4)).map(
    lambda pk: pk[0] ** pk[1]
)
COEFFS = st.lists(st.integers(-10**6, 10**6), max_size=9)


def int_poly(min_degree: int, max_degree: int, bound: int):
    """Integer coefficient lists with a nonzero leading coefficient."""
    return st.tuples(
        st.lists(st.integers(-bound, bound), min_size=min_degree, max_size=max_degree),
        st.integers(1, bound),
        st.booleans(),
    ).map(lambda t: t[0] + [-t[1] if t[2] else t[1]])


@settings(max_examples=300, deadline=None)
@given(coeffs=int_poly(1, 8, 40), p=PRIMES)
def test_cycle_type_matches_full_factorization(coeffs, p):
    # distinct-degree splitting alone against full Cantor-Zassenhaus
    # factorization, which refuses exactly the primes the cycle types refuse
    f = RationalPoly(coeffs)
    try:
        pattern = cycle_type_mod_p(f, p)
    except BadPrime as bad:
        with pytest.raises(BadPrime, match=str(bad)):
            factor_mod_p(primitive_part(f), p)
        return
    assert pattern == tuple(sorted(len(g) - 1 for g in factor_mod_p(primitive_part(f), p)))


# f's integer model and its cycle types as they were built before
# `poly._integer_model`: the primitive integer part and its own discriminant
# (here by the Euclidean resultant), then the primitive part mod p made monic.


def _integer_model_oracle(f: RationalPoly) -> tuple[list[int], int]:
    ints = primitive_part(f)
    return ints, discriminant(RationalPoly(ints)).numerator


def _cycle_type_oracle(ints: list[int], disc: int, p: int) -> tuple[int, ...]:
    if ints[-1] % p == 0:
        raise BadPrime(f"{p} divides the leading coefficient")
    if disc % p == 0:
        raise BadPrime(f"{p} divides the discriminant")
    degrees: list[int] = []
    for block, d in _distinct_degree(mod_monic(mod_reduce(ints, p), p), p):
        degrees += [d] * ((len(block) - 1) // d)
    return tuple(sorted(degrees))


RATIONALS = st.fractions(min_value=-30, max_value=30, max_denominator=12)
LEADING = st.sampled_from([1, -1, 2, 3, 6, 10, 12, Fraction(1, 2), Fraction(5, 3), Fraction(-7, 4)])
RATIONAL_POLYS = st.one_of(
    st.builds(lambda lower, lc: RationalPoly(lower + [lc]), st.lists(RATIONALS, min_size=1, max_size=7), LEADING),
    st.builds(mul, int_poly(1, 3, 6), int_poly(1, 3, 6)),
)
SMALL_PRIMES = st.sampled_from([p for p in range(2, 60) if is_prime(p)])


@settings(max_examples=400, deadline=None)
@given(f=RATIONAL_POLYS, p=st.one_of(SMALL_PRIMES, PRIMES))
@example(f=RationalPoly((0, 1, 1, 2)), p=2)  # 2 x^3 + x^2 + x: 2 divides lc, not disc = -7
@example(f=RationalPoly((-2, 0, 1)), p=2)  # x^2 - 2: 2 divides disc = 8, not lc
@example(f=RationalPoly((Fraction(1, 3), Fraction(-5, 7), 0, Fraction(3, 2))), p=2087)  # only disc
@example(f=RationalPoly((Fraction(1, 3), Fraction(-5, 7), 0, Fraction(3, 2))), p=3)  # lc and disc
@example(f=mul((1, -2, 1), (Fraction(1, 5), 1)), p=7)  # disc = 0
def test_cycle_type_reads_the_monic_model(f, p):
    g, b, disc = _integer_model(f)
    ints, old_disc = _integer_model_oracle(f)
    assert (g, b) == _monic_model(f) and b == ints[-1] and disc == old_disc
    try:
        expected = _cycle_type_oracle(ints, old_disc, p)
    except BadPrime as bad:
        with pytest.raises(BadPrime, match=str(bad)):
            _cycle_type(g, b, disc, p)
        with pytest.raises(BadPrime, match=str(bad)):
            cycle_type_mod_p(f, p)
        return
    assert _cycle_type(g, b, disc, p) == cycle_type_mod_p(f, p) == expected


# small p (n > p is common), primes near 10**3 and 10**6, 2**31 - 1, 2**61 - 1
# and the largest proven prime: packed slot widths from a few bits to ~170
LARGEST_PRIME = next(k for k in range(FACTOR_LIMIT, 0, -1) if is_prime(k))
DDF_PRIMES = st.sampled_from(
    [2, 3, 5, 7, 991, 997, 1009, 1013, 999953, 999983, 1000003, 1000033, 2**31 - 1, 2**61 - 1, LARGEST_PRIME]
)


@settings(max_examples=400, deadline=None)
@given(p=DDF_PRIMES, lower=st.lists(st.integers(0, 10**7), min_size=1, max_size=12), zero_constant=st.booleans())
@example(p=2, lower=[0, 1, 1, 0, 0, 1, 0], zero_constant=True)  # x(x+1)(x^2+x+1)(x^3+x+1)
@example(p=3, lower=[0, 2, 0, 2, 2, 1, 1], zero_constant=True)  # x(x+1)(x^2+1)(x^3+2x+1)
@example(p=2, lower=[1, 1, 0, 0, 0, 0, 0, 0, 0], zero_constant=False)  # x^9+x+1
@example(p=2, lower=[1], zero_constant=False)  # x + 1
@example(p=2, lower=[1, 1], zero_constant=False)  # x^2 + x + 1, irreducible
@example(p=2, lower=[1, 1], zero_constant=True)  # x(x + 1)
@example(p=LARGEST_PRIME, lower=[LARGEST_PRIME - 1], zero_constant=False)  # x - 1
@example(p=LARGEST_PRIME, lower=[LARGEST_PRIME - 3**i for i in range(12)], zero_constant=False)  # widest slots
def test_distinct_degree_matches_oracle(p, lower, zero_constant):
    f = [c % p for c in lower] + [1]
    if zero_constant:
        f[0] = 0
    assume(mod_gcd(f, mod_reduce([i * c for i, c in enumerate(f)][1:], p), p) == [1])
    assert _distinct_degree(f, p) == distinct_degree(f, p)


def test_slotwise_mod_at_the_slot_bounds():
    # every slot at 0, p - 1, p, 2p - 1 and 2^b - 1, the largest the
    # reduction takes, alike and mixed, against per-slot % p
    for p in (2, 3, 1009, 2**61 - 1, LARGEST_PRIME):
        for n in (1, 2, 7, 48):
            w, reduce = _slotwise_mod(n, p)
            edges = [0, p - 1, p, 2 * p - 1, (1 << (2 * n * p * p).bit_length()) - 1]
            patterns = [[e] * n for e in edges] + [[edges[(i + k) % 5] for i in range(n)] for k in range(5)]
            for slots in patterns:
                reduced = reduce(_pack(slots, w))
                assert reduced >> (n * w) == 0
                assert _unpack(reduced, w, n) == [s % p for s in slots], (p, n, slots)


@settings(max_examples=400, deadline=None)
@given(
    p=DDF_PRIMES,
    polys=st.lists(st.lists(st.integers(0, 2**90), max_size=10), min_size=3, max_size=3),
    shape=st.sampled_from(["any", "zero", "equal", "multiple", "common factor"]),
)
@example(p=2, polys=[[], [], []], shape="any")  # both zero
def test_gcd_matches_oracle(p, polys, shape):
    # the in-place Euclid against the oracle's Euclid on mod_divmod
    a, b, c = (mod_reduce(poly, p) for poly in polys)
    if shape == "zero":
        a = []
    elif shape == "equal":
        a = b
    elif shape == "multiple":
        a = mod_mul(a, b, p)
    elif shape == "common factor":
        a, b = mod_mul(a, c, p), mod_mul(b, c, p)
    for x, y in ((a, b), (b, a)):
        inputs = (list(x), list(y))
        assert mod_gcd(x, y, p) == gcd(x, y, p)
        assert (x, y) == inputs  # it reduces copies


def _check_divmod(a, b, q):
    quo, rem = mod_divmod(a, b, q)
    assert len(rem) < len(b)
    assert mod_add(mod_mul(quo, b, q), rem, q) == mod_reduce(a, q)


@settings(max_examples=300, deadline=None)
@given(a=COEFFS, b=COEFFS, p=PRIMES)
def test_divmod_over_prime(a, b, p):
    b = mod_reduce(b, p)
    assume(b)
    _check_divmod(a, b, p)


@settings(max_examples=300, deadline=None)
@given(a=COEFFS, b=COEFFS, q=PRIME_POWERS)
def test_divmod_over_prime_power_monic_divisor(a, b, q):
    _check_divmod(a, mod_reduce(b + [1], q), q)


def _check_xgcd(a, b, q):
    s, t, d = mod_xgcd(a, b, q)
    assert mod_add(mod_mul(s, a, q), mod_mul(t, b, q), q) == d
    return d


@settings(max_examples=300, deadline=None)
@given(a=COEFFS, b=COEFFS, p=PRIMES)
def test_xgcd_over_prime(a, b, p):
    a, b = mod_reduce(a, p), mod_reduce(b, p)
    d = _check_xgcd(a, b, p)
    if a or b:
        assert d[-1] == 1
        assert not mod_divmod(a, d, p)[1] and not mod_divmod(b, d, p)[1]
    else:
        assert d == []


@settings(max_examples=300, deadline=None)
@given(a=COEFFS, b=COEFFS, q=PRIME_POWERS)
def test_xgcd_over_prime_power_monic_divisor(a, b, q):
    a, b = mod_reduce(a, q), mod_reduce(b + [1], q)
    try:
        _check_xgcd(a, b, q)
    except ValueError:
        # a Euclidean remainder's leading coefficient is a zero divisor mod q
        assume(False)


@settings(max_examples=150, deadline=None)
@given(g=int_poly(1, 4, 30), h=int_poly(1, 4, 30))
def test_products_are_reducible(g, h):
    assert not is_irreducible_over_rationals(mul(g, h))
