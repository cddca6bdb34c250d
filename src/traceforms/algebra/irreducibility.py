"""Complete irreducibility decision for rational polynomials.

Pipeline: take f's monic integer model and its primitive part's discriminant
(`poly._integer_model`), rule out repeated factors by the discriminant, and
read the cycle types of f at the first few good primes (dividing neither
leading coefficient nor discriminant) from distinct-degree splitting of the
model, as the Galois sampler does.  An irreducible image or disjoint degree
subset-sum sets decide at once; otherwise the same model is factored mod the
good prime with the fewest factors (its image there is squarefree),
Hensel-lifted past twice the Landau-Mignotte coefficient bound, and subset
recombinations of the lifted factors are searched for a true integer divisor.

Degrees in this package stay small, so the exponential recombination step is
a few dozen candidates at worst.
"""

from __future__ import annotations

import math
from itertools import combinations

from .intmath import primes_above
from .modpoly import (
    BadPrime,
    _cycle_type,
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
    work, b, disc = _integer_model(f)
    if disc == 0:
        return False  # a repeated factor, so certainly reducible at degree >= 2

    # a true factor's degree must be a subset sum of the cycle type at every
    # good prime; an empty intersection (an irreducible image among them, whose
    # sums are only 0 and n) certifies irreducibility
    possible = set(range(1, len(work) - 1))
    candidates: list[tuple[int, int]] = []
    for p in primes_above(1):
        try:
            degrees = _cycle_type(work, b, disc, p)
        except BadPrime:
            continue
        possible &= _subset_sums(degrees)
        if not possible:
            return True
        candidates.append((len(degrees), p))
        if len(candidates) == _CANDIDATE_PRIMES:
            break

    # at a good prime the monic model's image is squarefree, as lifting needs
    _, p = min(candidates)
    factors = [g for g, _ in factor_mod_p(work, p)]
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
