"""Polynomials over Z/qZ as plain coefficient lists, plus factorization mod p.

This is the package's one Z/qZ polynomial kernel: factorization mod p here
and Hensel lifting in `irreducibility` both run on it.  A polynomial is a
trimmed list of integers in [0, q), lowest degree first; the zero polynomial
is the empty list.  Every function takes the modulus q explicitly.
`mod_divmod` inverts the divisor's leading coefficient mod q, so it works for
prime q and, with monic divisors, for the prime powers of Hensel lifting.

Factorization follows von zur Gathen & Gerhard, *Modern Computer Algebra*,
ch. 14: squarefree decomposition, then distinct-degree splitting, then
Cantor-Zassenhaus equal-degree splitting.  The randomness inside equal-degree
splitting is drawn from a PRNG seeded by the input polynomial, so results are
reproducible and the returned factor list is sorted canonically.  Cycle types
need only factor degrees, which distinct-degree splitting gives directly.

Distinct-degree splitting (Alg. 14.3 there) takes gcd(x^(p^d) - x, rest) for
d = 1, 2, ...  It computes one Frobenius power per prime: x^p mod f by binary
powering against the fixed reduction table x^n, ..., x^(2n-2) mod f, then
each later x^(p^d) = h(x^p) as one vector-matrix product with the Frobenius
rows x^(i p) mod f, i < n (the transpose of Berlekamp's Q matrix, §14.2).
"""

from __future__ import annotations

import random
from itertools import zip_longest

from .intmath import is_prime
from .poly import RationalPoly, _integer_model


class BadPrime(ValueError):
    """The prime divides the leading coefficient or the discriminant."""


def mod_reduce(a, q: int) -> list[int]:
    """Coefficients of a reduced mod q, trailing zeros trimmed."""
    out = [c % q for c in a]
    while out and out[-1] == 0:
        out.pop()
    return out


def mod_add(a, b, q: int) -> list[int]:
    return mod_reduce([x + y for x, y in zip_longest(a, b, fillvalue=0)], q)


def mod_sub(a, b, q: int) -> list[int]:
    return mod_reduce([x - y for x, y in zip_longest(a, b, fillvalue=0)], q)


def mod_mul(a, b, q: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return mod_reduce(out, q)


def mod_divmod(a, b, q: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by b mod q.

    The leading coefficient of b must be a unit mod q; otherwise `pow`
    raises ValueError.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(b[-1], -1, q)
    dd = len(b) - 1
    rem = list(a)
    quo = [0] * max(0, len(rem) - dd)
    for i in range(len(quo) - 1, -1, -1):
        c = rem[i + dd] % q * inv % q
        quo[i] = c
        if c:
            for j in range(dd):
                rem[i + j] -= c * b[j]
    return mod_reduce(quo, q), mod_reduce(rem[:dd], q)


def mod_monic(a, q: int) -> list[int]:
    if not a:
        raise ValueError("zero polynomial cannot be made monic")
    inv = pow(a[-1], -1, q)
    return [c * inv % q for c in a]


def mod_gcd(a, b, q: int) -> list[int]:
    """Monic gcd mod q (empty when both inputs are zero)."""
    while b:
        a, b = b, mod_divmod(a, b, q)[1]
    return mod_monic(a, q) if a else []


def mod_xgcd(a, b, q: int) -> tuple[list[int], list[int], list[int]]:
    """(s, t, d) with s a + t b = d mod q, d the monic gcd."""
    s0, s1, t0, t1 = [1], [], [], [1]
    while b:
        quo, rem = mod_divmod(a, b, q)
        a, b = b, rem
        s0, s1 = s1, mod_sub(s0, mod_mul(quo, s1, q), q)
        t0, t1 = t1, mod_sub(t0, mod_mul(quo, t1, q), q)
    if not a:
        return s0, t0, a
    inv = [pow(a[-1], -1, q)]
    return mod_mul(s0, inv, q), mod_mul(t0, inv, q), mod_monic(a, q)


def mod_pow(base, e: int, modulus, q: int) -> list[int]:
    """base**e reduced mod (modulus, q)."""
    result = [1]
    base = mod_divmod(base, modulus, q)[1]
    while e:
        if e & 1:
            result = mod_divmod(mod_mul(result, base, q), modulus, q)[1]
        base = mod_divmod(mod_mul(base, base, q), modulus, q)[1]
        e >>= 1
    return result


def _squarefree_decomposition(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Monic f over GF(p) as a list of (squarefree factor, multiplicity)."""
    out: list[tuple[list[int], int]] = []
    e = 1
    while len(f) > 1:
        df = mod_reduce([i * c for i, c in enumerate(f)][1:], p)
        if not df:
            # over GF(p) the Frobenius fixes coefficients, so g(x^p) -> g(x) directly
            f = f[::p]
            e *= p
            continue
        c = mod_gcd(f, df, p)
        w = mod_divmod(f, c, p)[0]
        i = 1
        while len(w) > 1:
            y = mod_gcd(w, c, p)
            z = mod_divmod(w, y, p)[0]
            if len(z) > 1:
                out.append((z, i * e))
            w = y
            c = mod_divmod(c, y, p)[0]
            i += 1
        if len(c) > 1:
            f = c[::p]
            e *= p
        else:
            break
    return out


def _times_x(h: list[int], x_n: list[int], p: int) -> list[int]:
    """x * h mod (f, p) for dense length-n h, given x_n = x^n mod f: shift up,
    fold the top coefficient back in."""
    top = h[-1]
    return [(c + top * r) % p for c, r in zip([0] + h[:-1], x_n)]


def _reduction_table(f: list[int], p: int) -> list[list[int]]:
    """Rows x^n, ..., x^(2n-2) mod the monic f of degree n >= 2, dense length n."""
    n = len(f) - 1
    table = [[-c % p for c in f[:n]]]
    for _ in range(n - 2):
        table.append(_times_x(table[-1], table[0], p))
    return table


def _mul_reduce(a: list[int], b: list[int], table: list[list[int]], p: int) -> list[int]:
    """a * b mod (f, p) for dense length-n a, b and f's reduction table."""
    n = len(a)
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    out = prod[:n]
    for c, row in zip(prod[n:], table):
        c %= p
        if c:
            for i, r in enumerate(row):
                out[i] += c * r
    return [c % p for c in out]


def _x_power(p: int, table: list[list[int]]) -> list[int]:
    """x^p mod (f, p), dense, by left-to-right binary powering from x."""
    n = len(table[0])
    h = [0, 1] + [0] * (n - 2)
    for bit in bin(p)[3:]:
        h = _mul_reduce(h, h, table, p)
        if bit == "1":
            h = _times_x(h, table[0], p)
    return h


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Squarefree monic f as (product of irreducibles of degree d, d) pairs.

    h runs through x^(p^d) mod f: x^p by powering against f's reduction
    table, then h(x^p) = h^p as one product with the Frobenius rows
    x^(i p) mod f.  h stays reduced mod f, not mod the shrinking rest: rest
    divides f, so gcd(h - x, rest) is the same.
    """
    n = len(f) - 1
    out = []
    x = [0, 1]
    d = 0
    rest = f
    while len(rest) - 1 >= 2 * (d + 1):  # first pass only when n >= 2
        d += 1
        if d == 1:
            table = _reduction_table(f, p)
            h = frobenius = _x_power(p, table)
        else:
            if d == 2:
                rows = [[1] + [0] * (n - 1), frobenius]
                for _ in range(n - 2):
                    rows.append(_mul_reduce(rows[-1], frobenius, table, p))
            acc = [0] * n
            for c, row in zip(h, rows):
                if c:
                    for j, r in enumerate(row):
                        acc[j] += c * r
            h = [c % p for c in acc]
        g = mod_gcd(mod_sub(h, x, p), rest, p)
        if len(g) > 1:
            out.append((g, d))
            rest = mod_divmod(rest, g, p)[0]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def _poly_seed(f: list[int], p: int) -> int:
    acc = p
    for c in f:
        acc = (acc * 1000003 + c) & 0xFFFFFFFFFFFFFFFF
    return acc


def _equal_degree_split(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus split of a monic squarefree f with all factors of degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = mod_reduce([rng.randrange(p) for _ in range(n)], p)
        if len(a) < 2:
            continue
        g = mod_gcd(a, f, p)
        if not 0 < len(g) - 1 < n:  # otherwise a lucky split by a shared factor
            if p == 2:
                t = b = a
                for _ in range(d - 1):
                    b = mod_divmod(mod_mul(b, b, p), f, p)[1]
                    t = mod_add(t, b, p)
                g = mod_gcd(t, f, p)
            else:
                b = mod_pow(a, (p**d - 1) // 2, f, p)
                g = mod_gcd(mod_sub(b, [1], p), f, p)
        if 0 < len(g) - 1 < n:
            cofactor = mod_divmod(f, g, p)[0]
            return _equal_degree_split(g, d, p, rng) + _equal_degree_split(cofactor, d, p, rng)


def _require_proven_prime(p: int) -> None:
    """ValueError unless p is prime; `is_prime` itself refuses p above
    FACTOR_LIMIT, where it would be no proof."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")


def factor_mod_p(f, p: int) -> list[tuple[tuple[int, ...], int]]:
    """Factor the integer polynomial f mod the prime p into monic irreducibles.

    f is a coefficient sequence, lowest degree first.  Returns sorted
    (monic coefficient tuple, exponent) pairs; the leading coefficient of f
    mod p is the implicit unit: f = lc * prod(factor**exponent) mod p.
    Raises ValueError unless p is a prime at most FACTOR_LIMIT.
    """
    _require_proven_prime(p)
    a = mod_reduce(f, p)
    if not a:
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(_poly_seed(a, p))
    result = []
    for squarefree, mult in _squarefree_decomposition(mod_monic(a, p), p):
        for product, d in _distinct_degree(squarefree, p):
            for irreducible in _equal_degree_split(product, d, p, rng):
                result.append((tuple(irreducible), mult))
    result.sort(key=lambda pair: (len(pair[0]), pair[0]))
    return result


def cycle_type_mod_p(f: RationalPoly, p: int) -> tuple[int, ...]:
    """Sorted degrees of the irreducible factors of f mod p.

    Raises BadPrime when p divides the leading coefficient or the
    discriminant of f's primitive part (the factorization pattern mod such p
    does not reflect a Frobenius cycle type).  Otherwise f's monic model is
    squarefree mod p with the same factor degrees as f, and distinct-degree
    splitting alone gives the pattern: a degree-k block of degree-d factors
    holds k/d of them.  Raises ValueError unless p is a prime at most FACTOR_LIMIT.
    """
    if f.degree < 1:
        raise ValueError("cycle type requires degree >= 1")
    _require_proven_prime(p)
    return _cycle_type(*_integer_model(f), p)


def _cycle_type(g: list[int], b: int, disc: int, p: int) -> tuple[int, ...]:
    """`cycle_type_mod_p` at the prime p, for f's `_integer_model` (g, b, disc)."""
    if b % p == 0:
        raise BadPrime(f"{p} divides the leading coefficient")
    if disc % p == 0:
        raise BadPrime(f"{p} divides the discriminant")
    degrees: list[int] = []
    for block, d in _distinct_degree(mod_reduce(g, p), p):
        degrees += [d] * ((len(block) - 1) // d)
    return tuple(sorted(degrees))
