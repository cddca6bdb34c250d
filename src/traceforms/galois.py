"""Statistical evidence that specialized characteristic polynomials have the
full symmetric group as Galois group.

For a squarefree rational polynomial, the factorization pattern modulo a good
prime is the cycle type of a Frobenius element of its Galois group acting on
the roots.  Sampling many primes therefore samples conjugacy classes, and two
observed patterns suffice for a sound certificate: a transposition pattern
(1,...,1,2) plus a q-cycle for a prime q with n/2 < q < n generate S_n in any
transitive group (transitivity is supplied by irreducibility).  Failure to
observe the patterns yields "inconclusive", never a refutation.

The module also checks the exact block-triangular factorization identity that
appears when the first row and column of the symmetric specialization vanish
off the diagonal: charpoly(T D) = (x - d1 t11) * charpoly(T' D').
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    BadPrime,
    Matrix,
    RationalPoly,
    charpoly,
    is_irreducible_over_rationals,
    is_prime,
    is_separable,
    primes_above,
)
from .algebra.intmath import FACTOR_LIMIT
from .algebra.modpoly import _cycle_type
from .algebra.poly import _integer_model

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

    def frequency(self, cycle_type: tuple[int, ...]) -> Fraction:
        if self.primes_used == 0:
            return Fraction(0)
        return Fraction(self.counts.get(tuple(cycle_type), 0), self.primes_used)


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

    The prime walk is deterministic (consecutive primes ascending) and draws
    no prime once the budget is spent; past FACTOR_LIMIT `is_prime` raises
    ValueError.  f's `_integer_model` (monic model and discriminant) is built
    once, not per prime; a zero discriminant raises NotSquarefree.
    """
    if f.degree < 1:
        raise ValueError("cycle types require degree >= 1")
    g, b, disc = _integer_model(f)
    if disc == 0:
        raise NotSquarefree("polynomial has a repeated root")
    counts: dict[tuple[int, ...], int] = {}
    used = skipped = 0
    walk = primes_above(prime_floor)
    while used < prime_budget:
        p = next(walk)
        try:
            t = _cycle_type(g, b, disc, p)
        except BadPrime:
            skipped += 1
            continue
        counts[t] = counts.get(t, 0) + 1
        used += 1
    return CycleTypeSample(f=f, counts=counts, primes_used=used, primes_skipped=skipped)


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
    prime_floor: int = DEFAULT_PRIME_FLOOR,
) -> SpecReport:
    """One random specialization: sample symmetric integer A, decide whether
    charpoly(A diag(d)) is irreducible (hence separable; `is_separable` runs
    only when it is not), then sample cycle types and give the S_n verdict."""
    entries = tuple(Fraction(e) for e in diag)
    if not entries:
        raise ValueError("diagonal must be non-empty")
    if any(e == 0 for e in entries):
        raise ValueError("diagonal entries must be nonzero")
    if coeff_bound < 1:
        raise ValueError("coefficient bound must be positive")
    if prime_budget < 0:
        raise ValueError("prime budget must be non-negative")
    if prime_floor >= FACTOR_LIMIT:
        raise ValueError(f"prime floor must be below FACTOR_LIMIT = {FACTOR_LIMIT}")
    n = len(entries)
    a = Matrix.random_symmetric(n, coeff_bound, random.Random(seed))
    f = charpoly(a * Matrix.diagonal(entries))
    irreducible = is_irreducible_over_rationals(f)
    separable = irreducible or is_separable(f)
    stats = None
    verdict = INCONCLUSIVE
    if irreducible:
        stats = sample_cycle_types(f, prime_budget, prime_floor)
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


def block_split_check(diag, t: Matrix) -> bool:
    """Exact factorization identity for first-row/column-constrained T.

    When t_{1j} = t_{j1} = 0 for j >= 2, the product T D is block triangular
    and charpoly(T D) must equal (x - d1 t11) * charpoly(T' D') for the lower
    blocks.  Returns the outcome of that exact polynomial comparison."""
    entries = tuple(Fraction(e) for e in diag)
    n = len(entries)
    if not t.is_square or t.nrows != n:
        raise ValueError("shape mismatch")
    if not t.is_symmetric:
        raise ValueError("T must be symmetric")
    if any(t[0, j] != 0 for j in range(1, n)):
        raise ValueError("first row/column off-diagonal entries must vanish")
    full = charpoly(t * Matrix.diagonal(entries))
    linear = RationalPoly((-entries[0] * t[0, 0], 1))
    if n == 1:
        return full == linear
    lower_t = Matrix([[t[i, j] for j in range(1, n)] for i in range(1, n)])
    lower_d = Matrix.diagonal(entries[1:])
    return full == linear * charpoly(lower_t * lower_d)
