"""Complete irreducibility decision for rational polynomials.

Pipeline: take f's monic integer model and its primitive part's discriminant
(`poly._integer_model`), rule out repeated factors by the discriminant,
return True at n = 1 (no degree 0 < d < n is open), and otherwise read the
cycle types of f at the first _CANDIDATE_PRIMES good primes above
n = deg f (dividing neither leading coefficient nor discriminant), which
`modpoly._good_primes` walks to, in one `modpoly._cycle_types` call, the
routine that the Galois sampler calls on its primes too.  At n >= 2 the
five share one Frobenius chain, which reads the trace of Frobenius (the root
count), the discriminant's parity (Stickelberger) and, when these leave six
or more degrees open, the trace of Frobenius squared (the quadratic
factors); distinct-degree splitting runs on the chain's rows only when these
leave the pattern open, which never happens for n <= 7.  An irreducible
image or disjoint degree subset-sum sets (`_open_degrees`) decide at once;
otherwise the same model is factored mod the good prime with the fewest
factors (its image there is squarefree), Hensel-lifted past twice the
Landau-Mignotte coefficient bound, and subset recombinations of the lifted
factors are searched for a true integer divisor.

Recombination is exponential: it tries up to 2^(r-1) subsets of the r lifted
factors.  `_irreducible` is the decision on a model already built, which
the Galois experiment hands over when its own sample leaves it open.
"""

from __future__ import annotations

import math
from itertools import combinations

from .modpoly import (
    _cycle_types,
    _good_primes,
    factor_mod_p,
    mod_add,
    mod_divmod,
    mod_mul,
    mod_reduce,
    mod_sub,
    mod_xgcd,
)
from .poly import RationalPoly, _integer_model

_CANDIDATE_PRIMES = 5


def mignotte_bound(coeffs: list[int]) -> int:
    """Upper bound on |coefficients| of any monic divisor of the monic input."""
    n = len(coeffs) - 1
    norm = math.isqrt(sum(c * c for c in coeffs)) + 1
    return (1 << n) * norm


def _product(parts, q: int) -> list[int]:
    out = [1]
    for part in parts:
        out = mod_mul(out, part, q)
    return out


def _hensel_step(f, g, h, s, t, q):
    """One quadratic lifting step: factorization and Bezout data mod q -> mod q**2.

    Requires f = g h (mod q), s g + t h = 1 (mod q), g and h monic.
    """
    q2 = q * q
    e = mod_sub(f, mod_mul(g, h, q2), q2)
    qq, r = mod_divmod(mod_mul(s, e, q2), h, q2)
    g1 = mod_add(mod_add(g, mod_mul(t, e, q2), q2), mod_mul(qq, g, q2), q2)
    h1 = mod_add(h, r, q2)
    b = mod_sub(mod_add(mod_mul(s, g1, q2), mod_mul(t, h1, q2), q2), [1], q2)
    c, d = mod_divmod(mod_mul(s, b, q2), h1, q2)
    s1 = mod_sub(s, d, q2)
    t1 = mod_sub(mod_sub(t, mod_mul(t, b, q2), q2), mod_mul(c, g1, q2), q2)
    return g1, h1, s1, t1


def _lift_factors(f: list[int], factors: list[tuple[int, ...]], p: int, target: int) -> tuple[list[list[int]], int]:
    """Hensel-lift monic factors of monic f from mod p to mod p^(2^j) >= target.

    `factors` are monic mod p with product f mod p, pairwise coprime
    (guaranteed by f squarefree mod p).  Returns (lifted factors, modulus).
    """
    modulus = p
    while modulus < target:
        modulus *= modulus

    def lift(poly: list[int], parts: list[tuple[int, ...]]) -> list[list[int]]:
        if len(parts) == 1:
            return [mod_reduce(poly, modulus)]
        half = len(parts) // 2
        g, h = _product(parts[:half], p), _product(parts[half:], p)
        s, t, _ = mod_xgcd(g, h, p)  # gcd 1: the parts are distinct irreducibles
        q = p
        while q < modulus:
            g, h, s, t = _hensel_step(poly, g, h, s, t, q)
            q *= q
        return lift(g, parts[:half]) + lift(h, parts[half:])

    lifted = lift(f, factors)
    if _product(lifted, modulus) != mod_reduce(f, modulus):
        raise ArithmeticError("Hensel lifting lost the product identity")
    return lifted, modulus


def _symmetric(c: int, q: int) -> int:
    c %= q
    return c - q if c > q // 2 else c


def _divides_exactly(f: list[int], g: list[int]) -> bool:
    """Does the monic integer g divide f over Z?"""
    rem = list(f)
    dd = len(g) - 1
    if len(rem) <= dd:
        return False
    for i in range(len(rem) - dd - 1, -1, -1):
        c = rem[i + dd]
        if c:
            for j in range(dd + 1):
                rem[i + j] -= c * g[j]
    return all(c == 0 for c in rem)


def _subset_sums(degrees: list[int]) -> set[int]:
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums


def is_irreducible_over_rationals(f: RationalPoly) -> bool:
    """Complete decision of irreducibility in Q[x].  False at a repeated root,
    so it is also the separability decision: True means separable."""
    if f.degree < 1:
        raise ValueError("irreducibility is only defined for degree >= 1")
    return _irreducible(*_integer_model(f))


def _open_degrees(n: int, patterns) -> set[int]:
    """The degrees 0 < d < n that are a subset sum of every pattern.  A
    factor of degree d over Q has degree-d images at every good prime, so an
    empty set, as an irreducible image alone gives, witnesses irreducibility."""
    possible = set(range(1, n))
    for degrees in patterns:
        possible &= _subset_sums(degrees)
    return possible


def _irreducible(work: list[int], b: int, disc: int) -> bool:
    """`is_irreducible_over_rationals` on f's `_integer_model` (work, b, disc)."""
    if disc == 0:
        return False  # a repeated factor, so certainly reducible at degree >= 2

    n = len(work) - 1
    if n == 1:
        return True  # no degree 0 < d < 1 is open, so no prime need be read
    primes, _ = _good_primes(b, disc, n, _CANDIDATE_PRIMES)
    types = _cycle_types(work, disc, primes)
    possible = _open_degrees(n, types)
    if not possible:
        return True

    # at a good prime the monic model's image is squarefree, as lifting needs
    _, p = min(zip(map(len, types), primes))  # the fewest factors
    factors = factor_mod_p(work, p)
    lifted, modulus = _lift_factors(work, factors, p, 2 * mignotte_bound(work) + 1)

    r = len(lifted)
    for size in range(1, r // 2 + 1):
        for subset in combinations(range(r), size):
            if 2 * size == r and 0 not in subset:
                continue  # complement already covered
            degree = sum(len(lifted[i]) - 1 for i in subset)
            if degree not in possible:
                continue
            candidate = _product((lifted[i] for i in subset), modulus)
            candidate = [_symmetric(c, modulus) for c in candidate]
            if _divides_exactly(work, candidate):
                return False
    return True
