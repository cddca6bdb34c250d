"""Property-based differential tests of the Z/qZ list kernel and its users."""

from hypothesis import assume, given, settings
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
from traceforms.algebra.modpoly import mod_add, mod_divmod, mod_mul, mod_reduce, mod_xgcd

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
