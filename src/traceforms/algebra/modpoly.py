"""Polynomials over Z/qZ as plain coefficient lists, plus factorization mod p.

This is the package's one Z/qZ polynomial kernel: factorization mod p here
and Hensel lifting in `irreducibility` both run on it.  A polynomial is a
trimmed list of integers in [0, q), lowest degree first; the zero polynomial
is the empty list.  Every function takes the modulus q explicitly.
`mod_divmod` inverts the divisor's leading coefficient mod q, so it works for
prime q and, with monic divisors, for the prime powers of Hensel lifting.

Factorization follows von zur Gathen & Gerhard, *Modern Computer Algebra*,
ch. 14, at good primes only: like the cycle types, `factor_mod_p` refuses a
prime dividing the leading coefficient or one where f is not squarefree
(BadPrime), so the monic image it factors is squarefree, and distinct-degree
splitting, then Cantor-Zassenhaus equal-degree splitting, factor it.  The
randomness inside equal-degree splitting is drawn from a PRNG seeded by the
input polynomial, so results are reproducible and the returned factor list
is sorted canonically.  Cycle types need only factor degrees, which
distinct-degree splitting gives directly, and which the trace of Frobenius
and the discriminant's parity often give sooner (below).

Distinct-degree splitting (Alg. 14.3 there) takes gcd(x^(p^d) - x, rest) for
d = 1, 2, ...  Its Frobenius arithmetic runs on Kronecker-packed integers
(§8.4 there): h of degree < n = deg f becomes the one integer
sum(h_i 2^(w i)).  Every packed value stays nonnegative, since coefficients
and rows are reduced to [0, p), so no slot borrows from its neighbour.  A
product mod (f, p) is one integer product; each high slot, reduced mod p,
times the packed row x^(n+k) mod f is added to the n low slots, and all n
are then reduced mod p at once.  A product slot is below n p^2 and the rows
add below n p^2, so every slot to reduce is below 2^b, b = bitlength(2 n p^2).
The reduction is Barrett's (CRYPTO '86) on every slot in parallel: with
mu = floor(2^b / p), the estimate e = floor(s mu / 2^b) of a slot s's
quotient q by p is q - 1 or q, so s - e p lies in [0, 2p), and one
conditional subtraction of p, read off each slot's top bit after adding
2^(w-1) - p, finishes it.  The slot width w = b + bitlength(mu) + 1 leaves
room for s mu, so no carry crosses a slot boundary.  The rows x^n, ...,
x^(2n-1) mod f are built one from the last: shifted up one slot, its one
slot past n folded in times row 0 = x^n mod f, one product and one
reduction each.  x^p mod f comes by binary powering from x, a "square, then
times x" step reducing h^2 shifted up one slot against those rows.  Each
later x^(p^d) = h(x^p) = sum(h_i x^(i p)) is one combination of the packed
Frobenius rows x^(i p) mod f, i < n (the transpose of Berlekamp's Q matrix,
§14.2), with slots below n p^2.  h is unpacked to a list only for the gcd,
a remainder-only Euclid that reduces copies of its inputs in place.

Cycle types at a prime p > n >= 2 first read exact facts off those rows
and the discriminant, and run gcds only when these leave the pattern open.
Let f have a_e irreducible factors of degree e mod p.  As f is squarefree,
F_p[x]/(f) is the product of the fields F_(p^e), one per factor, and the
Frobenius map a -> a^p, whose matrix has the rows x^(i p) mod f
(Berlekamp's Q, Bell Syst. Tech. J. 46, 1967), acts on each: on F_(p^e) it
generates the cyclic Galois group of order e, so it permutes a normal basis
cyclically and has characteristic polynomial x^e - 1.  Its square then has
trace e when e divides 2 and 0 otherwise, so Tr(Q) = a_1, the number of
roots of f in F_p, and Tr(Q^2) = a_1 + 2 a_2 mod p.  Both are at most
n < p, so both are exact; Tr(Q^2) = sum over i, j of Q[i][j] Q[j][i] needs
the n^2 products of the rows' slots, not a matrix product.  Stickelberger's
theorem (Swan, Pacific J. Math. 12, 1962) gives the parity of the number r
of irreducible factors: (disc/p) = (-1)^(n - r) at odd p, read by Euler's
criterion on the discriminant of f's primitive part b h, which differs
from disc(g) by the square b^((n-1)(n-2)).  Let L = n - a_1, the degree of
the factors of degree >= 2.  These are (L) for L < 4, and (L) or (2, L - 2)
for L = 4, 5, told apart by the parity.  Only at L >= 6 is Tr(Q^2) taken,
so every n <= 5, and every n = 6 with a root, reads the root count and
the parity alone.  Then a_2 = (Tr(Q^2) - a_1) / 2, and R = L - 2 a_2, the
degree of the factors of degree >= 3, is one factor (R) for R in {0, 3, 4,
5}, and (R) or (3, R - 3) for R = 6, 7, told apart by the parity.  So every
n <= 7 needs no gcd.  At R >= 8 distinct-degree splitting continues on the
same packed rows, skipping the first gcd when there is no root.  At p <= n
the traces are only counts mod p, and there, as in `factor_mod_p`, which
needs the blocks, and at n = 1, distinct-degree splitting alone decides.

Many primes share one chain.  Barrett's reduction needs no prime, so the
packed arithmetic runs unchanged modulo the product P = p_1 ... p_B of
distinct primes, and by the Chinese remainder theorem (§5.4 there) one
powering chain in (Z/P)[x]/(f) computes every x^(p_i) mod (f, p_i) at once.
Let e_i be the CRT idempotents, e_i = 1 mod p_i and 0 mod every other p_j
(`intmath.crt_idempotents`).  The chain walks the bits j of the largest
p_i, from the top, by h <- h^2 u_j with u_j = 1 + c_j (x - 1), where c_j is
the sum of the e_i over the p_i whose bit j is set: u_j is x mod those p_i
and 1 mod the others, so mod each p_i the chain is that prime's own.  A c_j
of 0 makes the step a square, and a c_j of 1 the "square, then times x"
step; at one prime the idempotent is 1 and the c_j are the bits of p, read
with no CRT set-up, so a one-prime chain is exactly the single-prime
powering above.  n - 2 more products give the rows
x^(i p_i) mod (f, P), and the sum of their diagonal slots is the trace of
Frobenius mod P.  Reduced mod p_i it is the root count mod p_i, exact because
the count is at most n < p_i; the parity is read per prime from the
discriminant, as above.  Likewise the one sum of Q[i][j] Q[j][i] over the
rows mod P, taken at the chain's first prime that needs it, is Tr(Q^2) mod
each p_i.  `_cycle_types`, the one cycle-type routine, decides the
batching: it takes any distinct primes, chains those above n in
consecutive groups of CYCLE_TYPE_BATCH, and reads every pattern that the
traces and the parity decide.  A prime at or below n, and a prime that the
traces leave open (R >= 8, so n >= 8), goes to distinct-degree splitting,
which reuses the chain's root count, and a one-prime chain's rows as well,
so no gcd runs modulo a product.  The slots widen with P (about 540 bits
for 16 primes near 2,000), and CYCLE_TYPE_BATCH balances those wider
products against the chains saved.
"""

from __future__ import annotations

import math
import random
from itertools import zip_longest

from .intmath import crt_idempotents, is_prime
from .poly import RationalPoly, _integer_model

# Good primes above n per Frobenius chain in `_cycle_types`.  On 20 galois
# bench polynomials per degree (n = 3..6, 300 primes above 100; Python 3.11,
# one core of a shared 2-core host, medians of process time), a sample takes
# 2.5, 3.4, 4.5 and 5.8 ms at n = 3..6 with batches of 16, about the same
# with 8 (2.7, 3.6, 4.5 and 5.9 ms) and 11-21 % more with 32: the chain's
# integers grow with the product of its primes.  The chain's own rows decide
# every pattern at n <= 7, so no prime redoes its chain alone.
CYCLE_TYPE_BATCH = 16


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
    """Monic gcd mod q of a and b, both reduced mod q (empty when both are zero).

    A remainder-only Euclid on copies of a and b: each step reduces the longer
    list in place by the shorter, popping its leading term at each quotient
    coefficient, and keeps no quotient.
    """
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], -1, q)
        db = len(b) - 1
        while len(a) > db:
            c = a.pop() * inv % q
            if c:
                low = len(a) - db
                for j in range(db):
                    a[low + j] = (a[low + j] - c * b[j]) % q
        while a and not a[-1]:
            a.pop()
        a, b = b, a
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


def _pack(coeffs, w: int) -> int:
    """Sum of c_i 2^(w i) over coefficients c_i in [0, 2^w)."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc << w | c
    return acc


def _slotwise_mod(n: int, p: int):
    """(w, reduce): the slot width w for n coefficients mod p, and `reduce`,
    which takes every slot of an n-slot packed value, each below
    2^b with b = bitlength(2 n p^2), to its residue mod p at once (Barrett,
    see the module docstring)."""
    b = (2 * n * p * p).bit_length()
    mu = (1 << b) // p
    w = b + mu.bit_length() + 1
    ones = ((1 << (n * w)) - 1) // ((1 << w) - 1)
    high = ones * ((1 << w) - (1 << b))  # bits b..w-1 of every slot
    bias = ones * ((1 << (w - 1)) - p)
    top = w - 1

    def reduce(acc: int) -> int:
        r = acc - ((acc * mu & high) >> b) * p  # every slot in [0, 2p)
        return r - ((r + bias) >> top & ones) * p  # top bit set: the slot is >= p

    return w, reduce


def _unpack(h: int, w: int, n: int) -> list[int]:
    """The n low w-bit slots of the nonnegative packed h."""
    mask = (1 << w) - 1
    return [h >> (w * i) & mask for i in range(n)]


def _frobenius(f: list[int], primes):
    """Packed arithmetic mod (f, P) for monic f of degree n >= 2 and P the
    product of the distinct `primes`, and the Frobenius rows mod (f, p) for
    every p in them.

    Returns (w, reduce, rows): the slot width and slotwise reduction mod P of
    `_slotwise_mod`, and all n packed Frobenius rows x^(i p) mod f, i < n,
    each congruent mod every p to that prime's own (by the Chinese remainder
    theorem).  Row 1, h = x^p, comes from the one powering chain over P, and
    each later row is the last times h, one product each, except that a row
    x^k with k < 2n, which only a single prime p < n has, is x^k itself or
    one of the powers x^n, ..., x^(2n-1) mod f that products reduce
    against.  The module docstring describes those powers, x^(n+k+1) =
    x x^(n+k), and the chain.  f's coefficients may lie outside [0, P).
    """
    n = len(f) - 1
    if len(primes) == 1:  # the idempotent is 1, so the c_j are the bits of p
        q = primes[0]
        steps = [q >> j & 1 for j in range(q.bit_length() - 1, -1, -1)]
    else:
        # c_j: the sum of the idempotents of the primes with bit j set, so that
        # u_j = 1 + c_j (x - 1) is x mod those primes and 1 mod the others
        q = math.prod(primes)
        steps = [0] * max(primes).bit_length()
        for p, e in zip(primes, crt_idempotents(primes)):
            for j, bit in enumerate(bin(p)[:1:-1]):
                if bit == "1":
                    steps[j] = (steps[j] + e) % q
        steps.reverse()
    w, reduce = _slotwise_mod(n, q)
    mask, low, top = (1 << w) - 1, (1 << (n * w)) - 1, n * w
    powers = [_pack([-c % q for c in f[:n]], w)]
    while len(powers) < n:
        shifted = powers[-1] << w
        powers.append(reduce((shifted & low) + (shifted >> top) * powers[0]))

    def mulmod(a: int, b: int) -> int:
        # each of the product's high slots mod P times its power x^(n+k) mod f,
        # added to the n low slots, which `reduce` then takes mod P
        prod = a * b
        high, acc = prod >> top, prod & low
        for power in powers:
            acc += (high & mask) % q * power
            high >>= w
        return reduce(acc)

    c = steps[0]
    packed = (1 - c) % q | c << w  # u_j packed, at the top bit: x for one prime
    for c in steps[1:]:
        if c == 1:  # "square, then times x"
            packed = mulmod(packed, packed << w)
        else:
            packed = mulmod(packed, packed)
            if c:
                packed = mulmod(packed, (1 - c) % q | c << w)
    rows = [1, packed]
    while len(rows) < n:
        k = len(rows) * q  # x^k mod f for k < 2n needs no product
        rows.append(1 << w * k if k < n else powers[k - n] if k < 2 * n else mulmod(rows[-1], packed))
    return w, reduce, rows


def _distinct_degree(f: list[int], p: int, state=None, roots=None) -> list[tuple[list[int], int]]:
    """Squarefree monic f as (product of irreducibles of degree d, d) pairs.

    h runs through x^(p^d) mod f, packed: x^p from `_frobenius` (or from
    `state`, what it returned for this f and p), then h(x^p) = h^p as one
    combination of its packed Frobenius rows x^(i p) mod f.  h stays reduced
    mod f, not mod the shrinking rest: rest divides f, so gcd(h - x, rest) is
    the same.  `roots`, when given, is f's number of roots mod p; at 0 the
    first gcd, which would be 1, is skipped.
    """
    n = len(f) - 1
    out = []
    x = [0, 1]
    d = 0
    rest = f
    while len(rest) - 1 >= 2 * (d + 1):  # first pass only when n >= 2
        d += 1
        if d == 1:
            w, reduce, rows = state or _frobenius(f, [p])
            packed = rows[1]
        else:
            packed = reduce(sum(c * row for c, row in zip(h, rows)))
        h = _unpack(packed, w, n)
        if d == 1 and roots == 0:
            continue
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


def factor_mod_p(f, p: int) -> list[tuple[int, ...]]:
    """Factor the integer polynomial f mod a good prime p into monic irreducibles.

    f is a coefficient sequence, lowest degree first.  As for
    `cycle_type_mod_p`, p must be good for f: raises BadPrime when p divides
    the leading coefficient or f is not squarefree mod p (p divides the
    discriminant).  Returns the monic irreducible factors as coefficient
    tuples, sorted canonically; the leading coefficient of f mod p is the
    implicit unit: f = lc * prod(factors) mod p.  Raises ValueError unless p
    is a prime at most FACTOR_LIMIT, and for the zero polynomial.
    """
    _require_proven_prime(p)
    lead = next((c for c in reversed(f) if c), 0)
    if not lead:
        raise ValueError("cannot factor the zero polynomial")
    if lead % p == 0:
        raise BadPrime(f"{p} divides the leading coefficient")
    a = mod_monic(mod_reduce(f, p), p)
    if mod_gcd(a, mod_reduce([i * c for i, c in enumerate(a)][1:], p), p) != [1]:
        raise BadPrime(f"{p} divides the discriminant")
    rng = random.Random(_poly_seed(a, p))
    factors = [
        tuple(irreducible)
        for block, d in _distinct_degree(a, p)
        for irreducible in _equal_degree_split(block, d, p, rng)
    ]
    return sorted(factors, key=lambda g: (len(g), g))


def cycle_type_mod_p(f: RationalPoly, p: int) -> tuple[int, ...]:
    """Sorted degrees of the irreducible factors of f mod p.

    Raises BadPrime when p divides the leading coefficient or the
    discriminant of f's primitive part (the factorization pattern mod such p
    does not reflect a Frobenius cycle type).  Otherwise f's monic model is
    squarefree mod p with the same factor degrees as f.  At p > n = deg f >= 2
    the trace of Frobenius (Berlekamp's Q matrix) counts the linear factors,
    the trace of its square the quadratic ones, and Stickelberger's theorem,
    (disc/p) = (-1)^(n - r), gives the parity of the factor count r; the
    module docstring says when these decide the pattern, which is always for
    n <= 7.  Otherwise distinct-degree splitting
    gives it, on the same Frobenius rows: a degree-k block of degree-d
    factors holds k/d of them.  Raises ValueError unless p is a prime at most
    FACTOR_LIMIT.
    """
    if f.degree < 1:
        raise ValueError("cycle type requires degree >= 1")
    _require_proven_prime(p)
    return _cycle_types(*_integer_model(f), [p])[0]


def _require_good(b: int, disc: int, p: int) -> None:
    """BadPrime when p divides the leading coefficient b or the discriminant
    of f's `_integer_model` (g, b, disc)."""
    if b % p == 0:
        raise BadPrime(f"{p} divides the leading coefficient")
    if disc % p == 0:
        raise BadPrime(f"{p} divides the discriminant")


def _cycle_types(g: list[int], b: int, disc: int, primes: list[int]) -> list[tuple[int, ...]]:
    """`cycle_type_mod_p` at each of `primes`, distinct primes in any order,
    for f's `_integer_model` (g, b, disc); BadPrime at a bad one.

    The primes above n = deg g >= 2 run in consecutive groups of
    CYCLE_TYPE_BATCH, one Frobenius chain over each group's product: the
    traces of Frobenius and, at the first prime that needs it, of its
    square, taken once over the product, decide every pattern for n <= 7.
    A prime at or below n, and a prime that they leave open (n >= 8 only),
    goes to distinct-degree splitting, which reuses the chain's root count,
    and the chain's rows when the group is that one prime."""
    n = len(g) - 1
    types = {}
    chained = []  # the primes where the traces count exactly
    for p in primes:
        _require_good(b, disc, p)
        if 1 < n < p:
            chained.append(p)
        else:
            types[p] = _split_degrees(g, p)
    for k in range(0, len(chained), CYCLE_TYPE_BATCH):
        group = chained[k : k + CYCLE_TYPE_BATCH]
        w, _, rows = state = _frobenius(g, group)
        mask = (1 << w) - 1
        trace = sum(row >> (w * i) & mask for i, row in enumerate(rows))
        squares: list[int] = []  # Tr(Q^2) over the product, taken at most once

        def square_trace() -> int:
            # the sum over i, j of Q[i][j] Q[j][i], Q[i][j] the slots of the rows
            if not squares:
                matrix = [_unpack(row, w, n) for row in rows]
                squares.append(sum(a * b for row, column in zip(matrix, zip(*matrix)) for a, b in zip(row, column)))
            return squares[0]

        for p in group:
            pattern = _trace_pattern(n, trace % p, square_trace, disc, p)
            types[p] = pattern or _split_degrees(g, p, state if len(group) == 1 else None, trace % p)
    return [types[p] for p in primes]


def _split_degrees(g: list[int], p: int, state=None, roots=None) -> tuple[int, ...]:
    """The cycle type of monic g at a good prime p by distinct-degree
    splitting, a degree-k block of degree-d factors holding k/d of them;
    `state` and `roots` as for `_distinct_degree`."""
    degrees: list[int] = []
    for block, d in _distinct_degree(mod_reduce(g, p), p, state, roots):
        degrees += [d] * ((len(block) - 1) // d)
    return tuple(sorted(degrees))


def _trace_pattern(n: int, roots: int, square_trace, disc: int, p: int) -> "tuple[int, ...] | None":
    """The cycle type at a good prime p > n that f's number of roots mod p,
    Stickelberger's parity and, when these two leave it open, the number of
    quadratic factors decide, or None when all three leave it open.
    `square_trace()` is congruent mod p to the trace of Frobenius squared."""
    left = n - roots  # the degree of the factors of degree >= 2
    if left < 4:
        return (1,) * roots + ((left,) if left else ())
    head, pairs, small = (1,) * roots, 0, 2
    if left >= 6:  # Tr(Q^2) = roots + 2 pairs, for pairs quadratic factors
        pairs = (square_trace() % p - roots) // 2
        head += (2,) * pairs
        left -= 2 * pairs  # now the degree of the factors of degree >= 3
        small = 3
        if left < 6:
            return head + ((left,) if left else ())
        if left >= 8:
            return None
    # one factor, of degree left, or two, of degrees small and left - small;
    # Stickelberger: (disc/p) = (-1)^(n - r) = (-1)^(pairs + left - k) for k such factors
    one = (pairs + left + (pow(disc, (p - 1) // 2, p) == p - 1)) % 2
    return head + ((left,) if one else (small, left - small))
