import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from quadform_oracles import hilbert_symbol as hilbert_symbol_oracle
from quadform_oracles import squarefree_part

from traceforms.algebra import intmath
from traceforms.algebra import (
    divisors,
    factorize,
    is_prime,
    next_prime,
    primes_above,
)
from traceforms.algebra.intmath import FACTOR_LIMIT
from traceforms.groups import construct_group
from traceforms.quadform import hilbert_symbol


def test_factorize_examples():
    assert factorize(1) == {}
    assert factorize(-1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(97) == {97: 1}


def test_factorize_rejects():
    with pytest.raises(ValueError):
        factorize(0)
    # the refusal names the limit, and so does every routine that factors
    for call in (factorize, divisors):
        with pytest.raises(ValueError, match="FACTOR_LIMIT"):
            call(FACTOR_LIMIT + 1)
    with pytest.raises(ValueError, match="FACTOR_LIMIT"):
        factorize(-(FACTOR_LIMIT + 1))


def test_factorize_large_semiprime():
    # beyond the trial-division bound: exercises the rho path
    p, q = 1000003, 1000033
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize(p * p) == {p: 2}
    assert factorize(2**61 - 1) == {2**61 - 1: 1}
    r = next_prime(2**40)
    assert factorize(-2 * r * r) == {2: 1, r: 2}


# factorize trial-divides by the primes below 2**10; 1021 is the last of them
TABLE_LAST = 1021
AROUND_TABLE_BOUND = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051)
SMALL_PRIMES = st.integers(1, 200).map(next_prime)
PRIMES = st.one_of(
    SMALL_PRIMES,
    st.sampled_from(AROUND_TABLE_BOUND),
    st.integers(10**6, 2 * 10**6 - 100).map(next_prime),  # classify's hard entries
    st.integers(2**30 - 2**20, 2**30 + 2**20).map(next_prime),
)
PRIMES_NEAR_2_40 = st.integers(2**40 - 2**20, 2**40 + 2**20).map(next_prime)


@st.composite
def known_factorizations(draw):
    """n <= FACTOR_LIMIT and the prime multiset it was built from.

    Primes are taken with exponent 1, 2 or 3 while the product fits, at most
    one near 2**40 (rho on two of them would take seconds), and the product
    may be filled up to FACTOR_LIMIT with one small prime."""
    picks = draw(st.lists(st.tuples(PRIMES, st.integers(1, 3)), max_size=6))
    if draw(st.booleans()):
        picks.insert(0, (draw(PRIMES_NEAR_2_40), 1))
    n, primes = 1, Counter()
    for p, e in picks:
        if n * p**e <= FACTOR_LIMIT:
            n *= p**e
            primes[p] += e
    if draw(st.booleans()):
        p = draw(SMALL_PRIMES)
        while n * p <= FACTOR_LIMIT:
            n *= p
            primes[p] += 1
    return n, primes


@settings(max_examples=300, deadline=None)
@given(known_factorizations(), st.sampled_from([1, -1]))
def test_factorize_matches_known_primes(case, sign):
    n, primes = case
    with mock.patch.object(intmath, "_brent_rho", wraps=intmath._brent_rho) as rho:
        assert factorize(sign * n) == dict(sorted(primes.items()))
        seen = [call.args[0] for call in rho.call_args_list]
    # rho splits only composites trial division left, one split per extra prime
    for m in seen:
        assert not is_prime(m)
        assert all(p > TABLE_LAST for p in primes if m % p == 0)
    assert len(seen) == max(0, sum(e for p, e in primes.items() if p > TABLE_LAST) - 1)


def test_factorize_reconstructs_random():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randrange(1, 10**9)
        product = 1
        for p, e in factorize(n).items():
            assert is_prime(p)
            product *= p**e
        assert product == n


def test_squarefree_part_examples():
    assert squarefree_part(1) == 1
    assert squarefree_part(12) == 3
    assert squarefree_part(-18) == -2
    with pytest.raises(ValueError):
        squarefree_part(0)


def _trial_division_squarefree(n):
    sign = -1 if n < 0 else 1
    n = abs(n)
    d, out = 2, 1
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            out *= d
        d += 1
    return sign * out * n


def test_squarefree_part_against_trial_division():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.choice([-1, 1]) * rng.randrange(1, 10**6)
        assert squarefree_part(n) == _trial_division_squarefree(n)


def test_primality_basics():
    primes_below_100 = [n for n in range(100) if is_prime(n)]
    sieve = [True] * 100
    sieve[0] = sieve[1] = False
    for i in range(2, 10):
        if sieve[i]:
            for j in range(i * i, 100, i):
                sieve[j] = False
    assert primes_below_100 == [n for n in range(100) if sieve[n]]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    assert next_prime(100) == 101
    assert next_prime(1) == 2


def _next_prime_by_miller_rabin(n: int) -> int:
    """The smallest prime above n by the odd walk, each candidate proven by is_prime."""
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


def test_next_prime_reads_the_sieve_then_walks_past_it():
    # the range crosses the sieve's end (2**12), where the walk takes over
    assert intmath._PRIMES[-1] < 5000
    span = range(-5, 5000)
    assert [next_prime(n) for n in span] == [_next_prime_by_miller_rabin(n) for n in span]


def test_primality_is_refused_above_factor_limit():
    # FACTOR_LIMIT + 1 = 1287836182261 * 2575672364521 is a strong pseudoprime
    # to every witness: each routine that needs a proven prime refuses it
    # rather than treat it as prime
    n = FACTOR_LIMIT + 1
    assert not is_prime(FACTOR_LIMIT)  # the limit itself is still decided
    refusals = [
        lambda: is_prime(n),
        lambda: next_prime(FACTOR_LIMIT),
        lambda: next(primes_above(FACTOR_LIMIT)),
        lambda: hilbert_symbol(3, 5, n),
        lambda: construct_group(n, 1, 2 * n + 1),
    ]
    for call in refusals:
        with pytest.raises(ValueError, match="FACTOR_LIMIT"):
            call()


def test_phi_and_divisors():
    assert divisors(15) == [1, 3, 5, 15]
    # construct_group reads p | phi(m) off the factorization of m: for p not
    # dividing m, p | prod q^(e-1) (q - 1) exactly when some prime q | m is
    # 1 mod p; compare with the totient counted unit by unit
    for m in range(1, 200):
        phi = sum(1 for a in range(1, m + 1) if _gcd(a, m) == 1)
        for p in (2, 3, 5, 7):
            if m % p:
                assert (phi % p == 0) == any(q % p == 1 for q in factorize(m)), (m, p)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


@st.composite
def hilbert_cases(draw):
    """(a, b, p) at an odd prime p, with units of both signs and valuations of
    both parities; p is 3, 5, or of the size classify's entries carry."""
    p = draw(st.one_of(st.sampled_from([3, 5]), st.integers(4 * 10**7, 6 * 10**7).map(next_prime)))

    def element():
        num = draw(st.integers(0, 10**12)) * p + draw(st.integers(1, p - 1))
        den = draw(st.integers(0, 10**3)) * p + draw(st.integers(1, p - 1))
        sign = draw(st.sampled_from([1, -1]))
        return Fraction(sign * num, den) * Fraction(p) ** draw(st.integers(-3, 3))

    return element(), element(), p


@settings(max_examples=300, deadline=None)
@given(hilbert_cases())
def test_hilbert_symbol_matches_legendre_oracle(case):
    a, b, p = case
    assert hilbert_symbol(a, b, p) == hilbert_symbol_oracle(a, b, p)
