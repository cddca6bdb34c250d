"""Statistical evidence that specialized characteristic polynomials have the
full symmetric group as Galois group.

For a squarefree rational polynomial, the factorization pattern modulo a good
prime is the cycle type of a Frobenius element of its Galois group acting on
the roots.  Sampling many primes therefore samples conjugacy classes, and two
observed patterns suffice for a sound certificate: a transposition pattern
(1,...,1,2) plus a q-cycle for a prime q with n/2 < q < n generate S_n in any
transitive group (transitivity is supplied by irreducibility).  Failure to
observe the patterns yields "inconclusive", never a refutation.

The sample's primes are the first good ones above a floor, as
`modpoly._good_primes` walks to them, and one `modpoly._cycle_types` call
reads all their patterns.  `generic_experiment` samples first and decides
irreducibility after: a factor of degree d over Q has degree-d images at
every good prime, so d is a subset sum of every observed pattern, and when
no 0 < d < n survives the sample (`irreducibility._open_degrees`) the
sample itself witnesses irreducibility.  Only when some d survives, as it
does for every reducible f, does the complete decision of `irreducibility`
run, on the same integer model.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Matrix, RationalPoly, charpoly, is_prime
from .algebra.irreducibility import _irreducible, _open_degrees
from .algebra.modpoly import _cycle_types, _good_primes
from .algebra.poly import _integer_model, exact_rational

CERTIFIED = "certified"
INCONCLUSIVE = "inconclusive"

DEFAULT_PRIME_FLOOR = 100  # keeps accidental bad-prime clustering away


class NotSquarefree(ValueError):
    """Cycle types are only meaningful for squarefree polynomials."""


@dataclass(frozen=True)
class CycleTypeSample:
    """Observed factorization patterns of f modulo a batch of good primes."""

    f: RationalPoly
    counts: dict  # sorted degree tuple -> occurrences
    primes_used: int
    primes_skipped: int


@dataclass(frozen=True)
class SpecReport:
    """Outcome of one random specialization experiment."""

    n: int
    diag: tuple[Fraction, ...]
    seed: int
    A: Matrix
    f: RationalPoly
    separable: bool
    irreducible: bool
    sn_verdict: str
    cycle_stats: "CycleTypeSample | None"


def sample_cycle_types(
    f: RationalPoly,
    prime_budget: int,
    prime_floor: int = DEFAULT_PRIME_FLOOR,
) -> CycleTypeSample:
    """Collect cycle types of f at the first `prime_budget` good primes above
    `prime_floor`, counting skipped bad primes separately.

    The prime walk, `modpoly._good_primes`, is deterministic (consecutive
    primes ascending) and draws no prime once the budget is spent; past
    FACTOR_LIMIT `is_prime` raises ValueError.  f's `_integer_model` (monic
    model and discriminant) is built once, not per prime, and the walk
    reads it to skip bad primes; a zero discriminant raises NotSquarefree.
    The good primes go to one `_cycle_types` call, which shares Frobenius
    chains among those above n = deg f, and are tallied in prime order, so
    the counts are those of one prime at a time.
    """
    if f.degree < 1:
        raise ValueError("cycle types require degree >= 1")
    if prime_budget < 0:
        raise ValueError("prime budget must be non-negative")
    model = _integer_model(f)
    if model[2] == 0:
        raise NotSquarefree("polynomial has a repeated root")
    return _sample(f, model, prime_budget, prime_floor)


def _sample(f: RationalPoly, model, prime_budget: int, prime_floor: int) -> CycleTypeSample:
    """`sample_cycle_types` on f's squarefree `_integer_model` (g, b, disc)."""
    g, b, disc = model
    good, skipped = _good_primes(b, disc, prime_floor, prime_budget)
    counts = dict(Counter(_cycle_types(g, disc, good)))  # in order of first occurrence
    return CycleTypeSample(f=f, counts=counts, primes_used=len(good), primes_skipped=skipped)


def sn_certificate(sample: CycleTypeSample, n: int) -> str:
    """Sound S_n certificate from observed cycle types of an irreducible f.

    Certified requires a transposition pattern (1,...,1,2) together with a
    pattern containing a prime part q, n/2 < q < n; for n <= 3 the
    transposition alone suffices, and n = 1 is trivially certified.  The
    criterion never certifies a proper subgroup; a sparse sample simply comes
    back inconclusive.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return CERTIFIED
    types = set(sample.counts)
    transposition = tuple([1] * (n - 2) + [2])
    if transposition not in types:
        return INCONCLUSIVE
    if n <= 3:
        return CERTIFIED
    for t in types:
        for part in t:
            if n // 2 < part < n and is_prime(part):
                return CERTIFIED
    return INCONCLUSIVE


def generic_experiment(
    diag,
    coeff_bound: int,
    prime_budget: int,
    seed: int = 0,
) -> SpecReport:
    """One random specialization: sample symmetric integer A, |entries| <= coeff_bound,
    and decide whether f = charpoly(A diag(d)) is separable and irreducible,
    with cycle types at `prime_budget` good primes above DEFAULT_PRIME_FLOOR
    and the S_n verdict when it is.

    f's `_integer_model` is built once: its discriminant decides separability,
    and a separable f is sampled first.  The sample is its own irreducibility
    witness when no degree 0 < d < n is a subset sum of every observed
    pattern, since a factor of degree d over Q would make it one at every
    good prime; only when the sample leaves d open does the complete
    decision run, on the same model."""
    entries = tuple(exact_rational(e) for e in diag)
    if not entries:
        raise ValueError("diagonal must be non-empty")
    if any(e == 0 for e in entries):
        raise ValueError("diagonal entries must be nonzero")
    if coeff_bound < 1:
        raise ValueError("coefficient bound must be positive")
    if prime_budget < 0:
        raise ValueError("prime budget must be non-negative")
    n = len(entries)
    a = Matrix.random_symmetric(n, coeff_bound, random.Random(seed))
    f = charpoly(a * Matrix.diagonal(entries))
    model = _integer_model(f)
    separable = model[2] != 0  # f's discriminant is nonzero
    irreducible = False
    stats = None
    verdict = INCONCLUSIVE
    if separable:
        sample = _sample(f, model, prime_budget, DEFAULT_PRIME_FLOOR)
        irreducible = not _open_degrees(n, sample.counts) or _irreducible(*model)
        if irreducible:
            stats = sample
            verdict = sn_certificate(stats, n)
    return SpecReport(
        n=n,
        diag=entries,
        seed=seed,
        A=a,
        f=f,
        separable=separable,
        irreducible=irreducible,
        sn_verdict=verdict,
        cycle_stats=stats,
    )
