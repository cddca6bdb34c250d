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
    primitive_integer_coeffs,
)
from traceforms.algebra.modpoly import (
    _cycle_type,
    _distinct_degree,
    _squarefree_decomposition,
    mod_add,
    mod_divmod,
    mod_gcd,
    mod_monic,
    mod_mul,
    mod_pow,
    mod_reduce,
    mod_sub,
    mod_xgcd,
)
from traceforms.algebra.poly import _integer_model, _monic_model
from poly_oracles import discriminant

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
    # distinct-degree splitting alone against full Cantor-Zassenhaus factorization
    f = RationalPoly(coeffs)
    try:
        pattern = cycle_type_mod_p(f, p)
    except BadPrime:
        assume(False)
    factors = factor_mod_p(primitive_integer_coeffs(f), p)
    assert all(e == 1 for _, e in factors)
    assert pattern == tuple(sorted(len(g) - 1 for g, _ in factors))


# f's integer model and its cycle types as they were built before
# `poly._integer_model`: the primitive integer part and its own discriminant
# (here by the Euclidean resultant), then the primitive part mod p made monic.


def _integer_model_oracle(f: RationalPoly) -> tuple[list[int], int]:
    ints = primitive_integer_coeffs(f)
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
    st.builds(lambda g, h: g * h, int_poly(1, 3, 6).map(RationalPoly), int_poly(1, 3, 6).map(RationalPoly)),
)
SMALL_PRIMES = st.sampled_from([p for p in range(2, 60) if is_prime(p)])


@settings(max_examples=400, deadline=None)
@given(f=RATIONAL_POLYS, p=st.one_of(SMALL_PRIMES, PRIMES))
@example(f=RationalPoly((0, 1, 1, 2)), p=2)  # 2 x^3 + x^2 + x: 2 divides lc, not disc = -7
@example(f=RationalPoly((-2, 0, 1)), p=2)  # x^2 - 2: 2 divides disc = 8, not lc
@example(f=RationalPoly((Fraction(1, 3), Fraction(-5, 7), 0, Fraction(3, 2))), p=2087)  # only disc
@example(f=RationalPoly((Fraction(1, 3), Fraction(-5, 7), 0, Fraction(3, 2))), p=3)  # lc and disc
@example(f=RationalPoly((1, -2, 1)) * RationalPoly((Fraction(1, 5), 1)), p=7)  # disc = 0
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


def _distinct_degree_oracle(f, p):
    """Squarefree monic f as (product of irreducibles of degree d, d) pairs."""
    out = []
    x = h = [0, 1]  # only read when deg f >= 2, where x mod f = x
    d = 0
    rest = f
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = mod_pow(h, p, rest, p)
        g = mod_gcd(mod_sub(h, x, p), rest, p)
        if len(g) > 1:
            out.append((g, d))
            rest = mod_divmod(rest, g, p)[0]
            h = mod_divmod(h, rest, p)[1]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


# small p (n > p is common), and primes near 10**3 and 10**6
DDF_PRIMES = st.sampled_from([2, 3, 5, 7, 991, 997, 1009, 1013, 999953, 999983, 1000003, 1000033])


@settings(max_examples=400, deadline=None)
@given(p=DDF_PRIMES, lower=st.lists(st.integers(0, 10**7), min_size=1, max_size=9), zero_constant=st.booleans())
@example(p=2, lower=[0, 1, 1, 0, 0, 1, 0], zero_constant=True)  # x(x+1)(x^2+x+1)(x^3+x+1)
@example(p=3, lower=[0, 2, 0, 2, 2, 1, 1], zero_constant=True)  # x(x+1)(x^2+1)(x^3+2x+1)
@example(p=2, lower=[1, 1, 0, 0, 0, 0, 0, 0, 0], zero_constant=False)  # x^9+x+1
def test_distinct_degree_matches_oracle(p, lower, zero_constant):
    f = [c % p for c in lower] + [1]
    if zero_constant:
        f[0] = 0
    assume(_squarefree_decomposition(f, p) == [(f, 1)])
    assert _distinct_degree(f, p) == _distinct_degree_oracle(f, p)


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
    assert not is_irreducible_over_rationals(RationalPoly(g) * RationalPoly(h))
