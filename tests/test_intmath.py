import random

import pytest

from traceforms.algebra import (
    divisors,
    euler_phi,
    factorize,
    is_prime,
    legendre_symbol,
    next_prime,
    primes_above,
    squarefree_part,
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
    for call in (factorize, euler_phi, divisors, squarefree_part):
        with pytest.raises(ValueError, match="FACTOR_LIMIT"):
            call(FACTOR_LIMIT + 1)
    with pytest.raises(ValueError, match="FACTOR_LIMIT"):
        factorize(-(FACTOR_LIMIT + 1))


def test_factorize_large_semiprime():
    # beyond the trial-division bound: exercises the rho path
    p, q = 1000003, 1000033
    assert factorize(p * q) == {p: 1, q: 1}
    assert factorize(2**61 - 1) == {2**61 - 1: 1}


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


def test_legendre_examples():
    assert legendre_symbol(1, 13) == 1
    assert legendre_symbol(2, 7) == 1  # 3^2 = 9 = 2 mod 7
    assert legendre_symbol(2, 3) == -1  # squares mod 3 are {0, 1}
    assert legendre_symbol(21, 7) == 0


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre_symbol(3, 2)
    with pytest.raises(ValueError):
        legendre_symbol(3, 15)


def test_legendre_matches_square_enumeration():
    for p in (3, 5, 7, 11, 13, 17):
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert legendre_symbol(a, p) == (1 if a in squares else -1)


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
        lambda: legendre_symbol(2, n),
        lambda: hilbert_symbol(3, 5, n),
        lambda: construct_group(n, 1, 2 * n + 1),
    ]
    for call in refusals:
        with pytest.raises(ValueError, match="FACTOR_LIMIT"):
            call()


def test_phi_and_divisors():
    assert euler_phi(1) == 1
    assert euler_phi(14) == 6
    assert euler_phi(360) == 96
    assert divisors(15) == [1, 3, 5, 15]
    for m in range(1, 60):
        assert euler_phi(m) == sum(1 for a in range(1, m + 1) if _gcd(a, m) == 1)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a
