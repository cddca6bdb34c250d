"""Exact integer helpers: primality, factorization, divisors, CRT idempotents,
and Bareiss elimination of integer matrices.

Factorization is trial division by the 172 primes below 2**10, then
Miller-Rabin on the cofactor and Brent's variant of Pollard's rho on whatever
is composite.  Primality tests and factorizations are capped at the range
where the fixed Miller-Rabin witness set is a proven primality certificate
(about 3.3 * 10**24, covering the numerators and denominators of the diagonal
entries `quadform` classifies and the parameters `groups` factors); anything
larger is rejected rather than risk a wrong answer.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import islice

FACTOR_LIMIT = 3_317_044_064_679_887_385_961_980  # deterministic MR witness range


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(p for p in range(n) if sieve[p])


# One sieve at import (about 0.2 ms) serves trial division and `next_prime`, so the
# Galois sampler's walks (300 primes above 100, to about 2,200) prove no prime again.
_PRIMES = _primes_below(2**12)

# Trial division stops here: beyond it rho finds a factor p in about sqrt(p)
# steps, where trial division needs about p / 2.
_TRIAL_BOUND = 2**10
_SMALL_PRIMES = _PRIMES[: bisect_left(_PRIMES, _TRIAL_BOUND)]

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, a proof for every n it answers.

    Raises ValueError for n > FACTOR_LIMIT: a strong pseudoprime to all twelve
    witnesses lies just above it (FACTOR_LIMIT + 1 = 1287836182261 *
    2575672364521), so an answer there would prove nothing.
    """
    if n > FACTOR_LIMIT:
        raise ValueError(f"{n} exceeds FACTOR_LIMIT = {FACTOR_LIMIT}: primality is not proven there")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = ((d & -d).bit_length()) - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n: read off the sieve below 2**12,
    and found by Miller-Rabin above it."""
    i = bisect_right(_PRIMES, n)
    if i < len(_PRIMES):
        return _PRIMES[i]
    k = n + 1
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


def primes_above(n: int):
    """Yield primes > n in increasing order, indefinitely: the sieve's primes
    above n, then `next_prime` from past the larger of n and the sieve."""
    yield from islice(_PRIMES, bisect_right(_PRIMES, n), None)
    p = max(n, _PRIMES[-1])
    while True:
        p = next_prime(p)
        yield p


def crt_idempotents(moduli) -> list[int]:
    """The CRT idempotents e_i of pairwise coprime moduli m_i, each in [0, M)
    for M = prod(m_i): e_i = 1 mod m_i and e_i = 0 mod every other m_j.

    e_i is (M / m_i) times its inverse mod m_i; one modulus gives [1 % m_1]."""
    total = math.prod(moduli)
    return [total // m * pow(total // m, -1, m) % total for m in moduli]


def _brent_rho(n: int) -> int:
    """A nontrivial factor of n (Brent's cycle method).

    n must be composite with no prime factor below _TRIAL_BOUND, as
    `factorize` leaves it; every factor returned is checked by a gcd, so
    only the running time depends on the walk."""
    c = 1
    while True:
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1  # rare: cycle collapsed, retry with another polynomial


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}.

    The sign of n is the caller's business: prod(p**e) == abs(n).
    Rejects 0 and |n| > FACTOR_LIMIT.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    if n > FACTOR_LIMIT:
        raise ValueError(f"|n| = {n} exceeds FACTOR_LIMIT = {FACTOR_LIMIT}: factorization is refused there")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors[p] = e
    # what is left has no prime factor p < _TRIAL_BOUND with p * p <= it, and
    # neither has any factor rho splits off it, so each below _TRIAL_BOUND**2
    # is prime
    stack = [n] if n > 1 else []
    while stack:
        n = stack.pop()
        if n < _TRIAL_BOUND**2 or is_prime(n):
            factors[n] = factors.get(n, 0) + 1
            continue
        g = _brent_rho(n)
        stack.append(g)
        stack.append(n // g)
    return dict(sorted(factors.items()))


def divisors(m: int, factors: "dict[int, int] | None" = None) -> list[int]:
    """All positive divisors of m, ascending; `factors`, when given, is
    factorize(m), so a caller that already holds it does not factor m again."""
    out = [1]
    for p, e in (factorize(m) if factors is None else factors).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def _int_det_bareiss(a: list[list[int]]) -> int:
    """Determinant of the leading n x n block of n integer rows by Bareiss
    fraction-free elimination, in place; all interior divisions are exact.
    Every column is eliminated, so for augmented rows a nonzero result leaves
    an equivalent upper-triangular system in `a`."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = a[k]
        pivot = row_k[k]
        for row_i in a[k + 1 :]:
            aik = row_i[k]
            for j in range(k + 1, len(row_i)):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[-1][n - 1]
