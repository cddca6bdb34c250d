"""Exact integer helpers: primality, factorization, square classes, Legendre
symbols, and Bareiss determinants of integer matrices.

Factorization is trial division up to 10**6 followed by Brent's variant of
Pollard's rho.  Primality tests and factorizations are capped at the range
where the fixed Miller-Rabin witness set is a proven primality certificate
(about 3.3 * 10**24, covering the numerators that certificate Gram matrices
produce at dimension 6); anything larger is rejected rather than risk a wrong
answer.
"""

from __future__ import annotations

import math

FACTOR_LIMIT = 3_317_044_064_679_887_385_961_980  # deterministic MR witness range

_TRIAL_BOUND = 10**6

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
    """Smallest prime strictly greater than n."""
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


def primes_above(n: int):
    """Yield primes > n in increasing order, indefinitely."""
    p = next_prime(n)
    while True:
        yield p
        p = next_prime(p)


def _brent_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n (Brent's cycle method)."""
    if n % 2 == 0:
        return 2
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
    for p in (2, 3, 5):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 7
    while d * d <= n and d <= _TRIAL_BOUND:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 2
    stack = [n] if n > 1 else []
    while stack:
        n = stack.pop()
        if n == 1:
            continue
        if is_prime(n):
            factors[n] = factors.get(n, 0) + 1
            continue
        g = _brent_rho(n)
        stack.append(g)
        stack.append(n // g)
    return dict(sorted(factors.items()))


def squarefree_part(n: int) -> int:
    """The unique squarefree d with n = d * s**2; the sign of n is kept."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    d = 1
    for p, e in factorize(n).items():
        if e % 2:
            d *= p
    return -d if n < 0 else d


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p: +1, -1, or 0 when p | a."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def euler_phi(m: int) -> int:
    """Euler's totient."""
    if m < 1:
        raise ValueError("phi is defined for positive integers")
    phi = 1
    for p, e in factorize(m).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi if m > 1 else 1


def divisors(m: int) -> list[int]:
    """All positive divisors of m, ascending."""
    out = [1]
    for p, e in factorize(m).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def _int_det_bareiss(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss fraction-free
    elimination, in place; all interior divisions are exact."""
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
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[-1][-1]
