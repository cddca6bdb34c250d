"""Property-based differential tests of the Z/qZ list kernel and its users."""

import ast
import math
import random
import sys
from bisect import bisect_right
from fractions import Fraction
from itertools import islice
from pathlib import Path

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
    next_prime,
    primes_above,
)
from traceforms.algebra import modpoly
from traceforms.algebra.intmath import FACTOR_LIMIT
from traceforms.algebra.modpoly import (
    CYCLE_TYPE_BATCH,
    _cycle_types,
    _distinct_degree,
    _frobenius,
    _good_primes,
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
            cycle_type_mod_p(f, p)
        if disc:  # `_cycle_types` trusts its primes: the walk from p on never yields p
            good, skipped = _good_primes(b, disc, p - 1, 1)
            assert good[0] > p and skipped >= 1
        return
    assert _cycle_types(g, disc, [p])[0] == cycle_type_mod_p(f, p) == expected


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


# the trace-and-parity route of `_cycle_types` (p > n) and the distinct-degree
# route (p <= n) against the oracle's splitting of the primitive part made
# monic mod p: the first prime above n is the route's boundary


def _oracle_pattern(ints: list[int], p: int) -> tuple[int, ...]:
    degrees: list[int] = []
    for block, d in distinct_degree(mod_monic(mod_reduce(ints, p), p), p):
        degrees += [d] * ((len(block) - 1) // d)
    return tuple(sorted(degrees))


def _route_prime(n: int, route: str) -> int:
    if route == "first above n":
        return next_prime(n)
    if route == "at most n":
        return max([k for k in range(2, n + 1) if is_prime(k)], default=2)  # n = 1: no such prime
    return {"near 10^3": 1009, "2^31 - 1": 2**31 - 1, "largest": LARGEST_PRIME}[route]


@settings(max_examples=300, deadline=None)
@given(
    f=st.one_of(
        int_poly(1, 12, 30).map(RationalPoly),
        st.builds(
            lambda lower, lc: RationalPoly(lower + [lc]), st.lists(RATIONALS, min_size=1, max_size=12), LEADING
        ),
    ),
    route=st.sampled_from(["first above n", "at most n", "near 10^3", "2^31 - 1", "largest"]),
)
@example(f=RationalPoly((-1, -1, 0, 0, 0, 1)), route="first above n")  # x^5 - x - 1 at 7
@example(f=RationalPoly((-1, -1, 0, 0, 0, 1)), route="at most n")  # at 5, Artin-Schreier
@example(f=RationalPoly((0, -1, 0, 0, 0, 1)), route="at most n")  # x^5 - x: 5 roots, a trace of 0 mod 5
def test_cycle_type_routes_match_oracle(f, route):
    p = _route_prime(f.degree, route)
    ints, disc = _integer_model_oracle(f)
    if ints[-1] % p == 0 or disc % p == 0:
        with pytest.raises(BadPrime):
            cycle_type_mod_p(f, p)
        return
    expected = _oracle_pattern(ints, p)
    g, _, disc = _integer_model(f)
    assert _cycle_types(g, disc, [p])[0] == cycle_type_mod_p(f, p) == expected


def _irreducibles(d: int, p: int):
    """Monic irreducibles of degree d mod p, in lexicographic order."""
    for k in range(p**d):
        f = [k // p**i % p for i in range(d)] + [1]
        if distinct_degree(f, p) == [(f, d)]:
            yield f


def _with_pattern(pattern: tuple[int, ...], p: int) -> list[int]:
    """A monic integer polynomial, coefficients in [0, p), whose factors mod p
    are distinct irreducibles of the degrees in pattern."""
    found = {d: _irreducibles(d, p) for d in set(pattern)}
    f = [1]
    for d in pattern:
        f = mod_mul(f, next(found[d]), p)
    return f


# pairs of patterns with one degree and one root count.  Below six degrees
# of factors of degree >= 2, the parity of the factor count tells a pair
# apart; from six on, Tr(Q^2) gives the number of quadratic factors, which
# tells apart (6)/(2,2,2), (3,3)/(2,4) and (2,5)/(2,2,3), and the parity
# then splits (6)/(3,3) and (7)/(3,4)
PARITY_PAIRS = [
    ((4,), (2, 2)),
    ((5,), (2, 3)),
    ((1, 4), (1, 2, 2)),
    ((1, 5), (1, 2, 3)),
    ((1, 1, 4), (1, 1, 2, 2)),
    ((6,), (2, 2, 2)),
    ((3, 3), (2, 4)),
    ((1, 6), (1, 2, 2, 2)),
    ((6,), (3, 3)),
    ((2, 2, 2), (2, 4)),
    ((7,), (3, 4)),
    ((2, 5), (2, 2, 3)),
]


@pytest.mark.parametrize("p", [7, 11, 101])
def test_cycle_type_parity_splits_each_pair(p):
    for pair in PARITY_PAIRS:
        for pattern in pair:
            if sum(pattern) >= p:
                continue
            ints = _with_pattern(pattern, p)
            assert _oracle_pattern(ints, p) == pattern
            f = RationalPoly(ints)
            g, _, disc = _integer_model(f)
            assert _cycle_types(g, disc, [p])[0] == cycle_type_mod_p(f, p) == pattern


def test_cycle_type_counts_n_roots_at_n_plus_one():
    # x (x - 1) ... (x - n + 1) has n roots mod p = n + 1, the largest count
    # below p, at the boundary of the exact root count
    for n in range(2, 13):
        p = n + 1
        if not is_prime(p):
            continue
        f = [1]
        for a in range(n):
            f = mod_mul(f, [-a % p, 1], p)
        assert cycle_type_mod_p(RationalPoly(f), p) == (1,) * n
        assert cycle_type_mod_p(RationalPoly(f), next_prime(p)) == _oracle_pattern(f, next_prime(p))


ODD_PRIMES = st.sampled_from([p for p in range(3, 400) if is_prime(p)] + [1009, 2**31 - 1])


@settings(max_examples=300, deadline=None)
@given(f=RATIONAL_POLYS, p=ODD_PRIMES)
@example(f=RationalPoly((1, 1, 0, 2)), p=3)  # 2 x^3 + x + 1: b = 2, a non-square mod 3
@example(f=RationalPoly((Fraction(1, 3), Fraction(-5, 7), 0, Fraction(3, 2))), p=5)
@example(f=RationalPoly((Fraction(1, 2), 0, Fraction(-7, 4), 0, Fraction(5, 3))), p=11)
def test_stickelberger_reads_the_integer_model_discriminant(f, p):
    # Euler's criterion on the primitive part's discriminant, as `_cycle_types`
    # reads it, is (-1)^(n - r) for r irreducible factors: disc(g) differs
    # from it by b^((n-1)(n-2)), an even power
    g, b, disc = _integer_model(f)
    assume(b % p and disc % p)
    r = len(factor_mod_p(primitive_part(f), p))
    assert pow(disc, (p - 1) // 2, p) == (1 if (f.degree - r) % 2 == 0 else p - 1)
    assert len(factor_mod_p(g, p)) == r


def test_small_degrees_above_the_degree_run_no_gcd(monkeypatch):
    # the traces of Frobenius and its square, with the parity, decide every
    # n <= 7 at p > n; at p <= n distinct-degree splitting still runs its
    # gcds, and so does a degree-8 pattern with 8 degrees in factors of
    # degree >= 3, such as (4, 4)
    calls = []

    def counting_gcd(a, b, q):
        calls.append(q)
        return mod_gcd(a, b, q)

    monkeypatch.setattr(modpoly, "mod_gcd", counting_gcd)
    rng = random.Random(33)
    checked = small = square_traced = 0
    while checked < 400:
        n = rng.randint(1, 7)
        f = RationalPoly([rng.randint(-20, 20) for _ in range(n)] + [rng.choice([1, 2, 3])])
        p = rng.choice([next_prime(n), 101, 2**31 - 1] + [k for k in range(2, n + 1) if is_prime(k)])
        calls.clear()
        try:
            pattern = cycle_type_mod_p(f, p)
        except BadPrime:
            continue
        checked += 1
        if p > n:
            assert calls == [], (f, p, pattern)
            square_traced += n - pattern.count(1) >= 6
        elif p <= n and n >= 2:
            assert calls, (f, p, pattern)
            small += 1
    assert small > 20 and square_traced > 20
    for p in (11, 101):
        calls.clear()
        assert cycle_type_mod_p(RationalPoly(_with_pattern((4, 4), p)), p) == (4, 4) and calls
    # x^5 - x - 1 is irreducible mod 5 (Artin-Schreier) and mod 7 has a root
    x5 = RationalPoly((-1, -1, 0, 0, 0, 1))
    calls.clear()
    assert cycle_type_mod_p(x5, 5) == (5,) and calls
    calls.clear()
    cycle_type_mod_p(x5, 7)
    assert calls == []


def test_batched_chain_matches_one_prime_at_a_time():
    # `_cycle_types` on lists of up to 60 good primes, in walk order and
    # shuffled, against the oracle's splitting prime by prime and against
    # one-prime calls: f of degree 2..12, primes from the walk above 2,
    # n + 1, 100, 10^3 or 10^6, some with a prime of 17, 31 or 61 bits or
    # the largest proven prime added, so a chain's primes differ in bit
    # length.  The walk above 2 mixes primes at or below n, which
    # distinct-degree splitting decides, with primes above n, and a list with
    # more than CYCLE_TYPE_BATCH primes above n spans several chains; the
    # good-prime walk from 2 skips exactly the primes dividing b disc, for
    # more than ten f one before its tenth good prime.  Where the root count
    # leaves six or more degrees in factors of degree >= 2, Tr(Q^2) = roots + 2 pairs
    # gives the quadratic factors, and R, the degree left in factors of
    # degree >= 3, is one part, two parts that the parity splits (R = 6, 7),
    # or left to distinct-degree splitting (R >= 8); each case is reached
    rng = random.Random(39)
    far = [65537, 2**31 - 1, 2**61 - 1, LARGEST_PRIME]
    small = mixed = chains = bad = 0
    rests = {"R <= 5": 0, "R = 6, 7": 0, "R >= 8": 0}
    for _ in range(100):
        n = rng.randint(2, 12)
        f = RationalPoly([rng.randint(-30, 30) for _ in range(n)] + [rng.choice([1, 2, 3, 6])])
        g, b, disc = _integer_model(f)
        if disc == 0:
            continue
        size = rng.randint(1, 60)
        walk = primes_above(rng.choice([2, 2, n + 1, 100, 1000, 10**6]))
        primes = [p for p in islice(walk, 2 * size + 4) if b % p and disc % p]
        primes = primes[:size] + [p for p in rng.sample(far, rng.randint(0, 2)) if b % p and disc % p]
        expected = {p: _oracle_pattern(g, p) for p in primes}
        assert [_cycle_types(g, disc, [p])[0] for p in primes] == list(expected.values()), f
        for batch in (primes, rng.sample(primes, len(primes)), [p for p in primes if p > n]):
            if batch:
                assert _cycle_types(g, disc, batch) == [expected[p] for p in batch], (f, batch)
        above = sum(p > n for p in primes)
        small += len(primes) - above
        mixed += 0 < above < len(primes)
        chains += above > CYCLE_TYPE_BATCH
        walked, skipped = _good_primes(b, disc, 1, 10)
        dividing = [q for q in range(2, walked[-1]) if is_prime(q) and b * disc % q == 0]
        assert walked == [q for q in range(2, walked[-1] + 1) if is_prime(q) and b * disc % q], f
        assert skipped == len(dividing), f
        bad += skipped > 0
        for p, t in expected.items():
            if p > n and n - t.count(1) >= 6:
                rest = n - t.count(1) - 2 * t.count(2)
                rests["R <= 5" if rest <= 5 else "R = 6, 7" if rest <= 7 else "R >= 8"] += 1
    reached = (small, mixed, chains, bad, rests)
    assert small > 50 and mixed > 10 and chains > 10 and bad > 10 and min(rests.values()) > 20, reached


def _sieve(limit: int) -> list[int]:
    """The primes below limit, by Eratosthenes' sieve."""
    marks = bytearray([1]) * limit
    marks[:2] = b"\0\0"
    for q in range(2, math.isqrt(limit) + 1):
        if marks[q]:
            marks[q * q :: q] = bytes(len(range(q * q, limit, q)))
    return [q for q in range(limit) if marks[q]]


def test_good_primes_match_a_brute_force_walk():
    # the one good-prime walk against a sieve: at floors 1, n, 100 and 10^6
    # and counts 0, 1, 5 and 300, the first `count` sieved primes above the
    # floor dividing neither b nor disc, and the number of sieved primes
    # below the last of them that divide one; b and disc carry many small
    # primes and some just above 100 and 10^6, so every floor skips a run
    sieved = _sieve(10**6 + 10**4)
    rng = random.Random(48)
    small = sieved[:60]
    near = [q for q in sieved if 100 < q < 200] + [q for q in sieved if 10**6 < q < 10**6 + 400]
    skips = 0
    for _ in range(8):
        n = rng.randint(2, 12)
        b = math.prod(rng.sample(small[:8], rng.randint(0, 4)))
        disc = rng.choice([1, -1]) * math.prod(rng.sample(small, 25) + rng.sample(near, 20))
        for floor in (1, n, 100, 10**6):
            walk = sieved[bisect_right(sieved, floor) :][:400]  # 300 good primes and every skip
            for count in (0, 1, 5, 300):
                good, skipped = _good_primes(b, disc, floor, count)
                expected = [q for q in walk if b % q and disc % q][:count]
                drawn = walk[: walk.index(expected[-1]) + 1] if count else []
                assert good == expected, (b, disc, floor, count)
                assert skipped == len(drawn) - count, (b, disc, floor, count)
                skips += skipped > 0
    assert skips > 50, skips
    # a count of 0 draws no prime, even where the walk could prove none
    assert _good_primes(1, 1, FACTOR_LIMIT, 0) == ([], 0)
    with pytest.raises(ValueError, match="FACTOR_LIMIT"):
        _good_primes(1, 1, FACTOR_LIMIT, 1)


# the moduli of batched Frobenius chains: products of 16 primes above 100,
# and of the 16 largest primes below 2^61; SLOT_MODULI adds single primes
# from 2 to the largest proven one
PRIMES_ABOVE_100 = [p for p in range(101, 200) if is_prime(p)][:16]
PRIMES_BELOW_2_61 = list(islice((p for p in range(2**61 - 1, 2**60, -2) if is_prime(p)), 16))
SLOT_MODULI = (
    2, 3, 257, 1009, 65537, 2**31 - 1, 2**61 - 1, LARGEST_PRIME,
    math.prod(PRIMES_ABOVE_100), math.prod(PRIMES_BELOW_2_61),
)


def test_slotwise_mod_at_the_slot_bounds():
    # every slot at 0, p - 1, p, 2p - 1, 3p - 1, the last multiple of p below
    # 2^b less 1, and 2^b - 1 (the largest the reduction takes), alike and
    # mixed, against per-slot % p; Barrett needs no prime, so composite
    # moduli reduce alike
    short = 0
    for p in SLOT_MODULI:
        for n in (1, 2, 3, 7, 16, 48):
            w, reduce = _slotwise_mod(n, p)
            b = (2 * n * p * p).bit_length()
            edges = [0, p - 1, p, 2 * p - 1, 3 * p - 1, ((1 << b) // p) * p - 1, (1 << b) - 1]
            k, mu = p.bit_length(), (1 << (b + 1)) // p
            short += sum(s // p - ((s >> (k - 2)) * mu >> (b + 3 - k)) == 1 for s in edges)
            e = len(edges)
            patterns = [[x] * n for x in edges] + [[edges[(i + j) % e] for i in range(n)] for j in range(e)]
            for slots in patterns:
                reduced = reduce(_pack(slots, w))
                assert reduced >> (n * w) == 0
                assert _unpack(reduced, w, n) == [s % p for s in slots], (p, n, slots)
    # Barrett's estimate falls one short on many edges, so the conditional
    # subtraction is needed
    assert short > 50, short


def test_frobenius_rows_do_not_depend_on_the_set_up_cache():
    # the chain set-up is cached per (n, primes): the rows from a cold cache,
    # from a warm one, and with the cache emptied in between are equal, for
    # one prime and for 16-prime groups, at several degrees sharing primes
    rng = random.Random(47)
    walk = list(islice(primes_above(100), 64))
    cases = []
    for _ in range(40):
        n = rng.choice([2, 3, 5, 9])
        f = [rng.randint(-40, 40) for _ in range(n)] + [1]
        start = rng.choice([0, 16, 48])
        primes = rng.choice([walk[start : start + 16], [rng.choice(walk[:3])], rng.sample(walk, 16)])
        cases.append((f, primes))
    modpoly._chain_setup.cache_clear()
    cold = [_frobenius(f, primes) for f, primes in cases]
    assert modpoly._chain_setup.cache_info().hits > 0  # some cases share (n, primes)
    warm = [_frobenius(f, primes) for f, primes in cases]
    for (f, primes), first, second in zip(cases, cold, warm):
        modpoly._chain_setup.cache_clear()
        third = _frobenius(f, primes)
        assert first[0] == second[0] == third[0] and first[2] == second[2] == third[2], (f, primes)
        n, (w, _, rows) = len(f) - 1, first
        for p in primes:  # each row is congruent to that prime's own x^(i p) mod f
            one_w, _, one_rows = _frobenius(f, [p])
            own = [_unpack(row, one_w, n) for row in one_rows]
            assert [[c % p for c in _unpack(row, w, n)] for row in rows] == own, (f, primes, p)


def test_chain_set_up_cache_is_bounded_and_cleared_with_the_library():
    # a functools cache with a fixed maxsize: the benchmark's
    # clear_library_caches empties every callable with `cache_clear` in the
    # package, this one included
    assert modpoly._chain_setup.cache_info().maxsize == modpoly.CHAIN_SETUP_CACHE
    _frobenius([1, 2, 1], [101, 103])
    assert modpoly._chain_setup.cache_info().currsize > 0
    tree = ast.parse((Path(__file__).resolve().parent.parent / "bench" / "run.py").read_text())
    clear = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "clear_library_caches")
    namespace = {"sys": sys}
    exec(compile(ast.Module(body=[clear], type_ignores=[]), "run.py", "exec"), namespace)
    namespace["clear_library_caches"]()
    assert modpoly._chain_setup.cache_info().currsize == 0


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
