"""Classification of non-degenerate quadratic forms over Q.

A form is represented by its exact symmetric Gram matrix.  The complete
invariant set is (dimension, discriminant square class, signature, Hasse
invariants), which by Hasse-Minkowski decides equivalence; the Hasse
invariant convention fixed here is c(<a_1..a_n>) = prod_{i<j} (a_i, a_j)_v.

Places are odd primes, 2, and the real place, written as the string "inf".
Only places dividing 2 * disc * (cleared numerators) can carry a nontrivial
symbol, so invariants store just the finite set of places where the Hasse
invariant is -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Matrix, congruence_diagonalize, factorize, is_prime
from .algebra.intmath import FACTOR_LIMIT
from .algebra.poly import exact_rational

REAL_PLACE = "inf"


class DegenerateForm(ValueError):
    """The Gram matrix is singular."""


@dataclass(frozen=True)
class SymmetricForm:
    """Quadratic form given by a symmetric rational Gram matrix."""

    gram: Matrix

    def __post_init__(self):
        if not self.gram.is_symmetric:
            raise ValueError("Gram matrix must be symmetric")

    @classmethod
    def diagonal(cls, entries) -> "SymmetricForm":
        return cls(Matrix.diagonal(entries))

    @property
    def dim(self) -> int:
        return self.gram.nrows


@dataclass(frozen=True)
class WittInvariants:
    """Complete equivalence invariants of a non-degenerate form over Q."""

    dim: int
    disc: int  # signed squarefree square-class representative of det
    signature: tuple[int, int]  # (positive entries, negative entries)
    hasse_minus_at: frozenset  # places where the Hasse invariant is -1


def _split_units(r: Fraction, p: int) -> tuple[int, int]:
    """p-adic valuation and a p-free integer with the same square class as the unit part."""
    num, den = r.numerator, r.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num * den


def hilbert_symbol(a, b, place) -> int:
    """(a, b)_v: +1 iff z^2 = a x^2 + b y^2 has a nontrivial local solution."""
    a, b = exact_rational(a), exact_rational(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol requires nonzero arguments")
    if place != REAL_PLACE and (not isinstance(place, int) or not is_prime(place)):
        raise ValueError(f"place must be a prime or '{REAL_PLACE}', got {place}")
    return _hilbert_symbol(a, b, place)


def _hilbert_symbol(a, b, place) -> int:
    """(a, b)_v for nonzero rationals a, b (int or Fraction) at a place already
    proven: the real place, or a prime that `factorize` returned."""
    if place == REAL_PLACE:
        return -1 if a < 0 and b < 0 else 1
    if place == 2:
        alpha, u = _split_units(a, 2)
        beta, w = _split_units(b, 2)
        eps = ((u - 1) // 2) * ((w - 1) // 2)
        omega = alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if (eps + omega) % 2 else 1
    alpha, u = _split_units(a, place)
    beta, w = _split_units(b, place)
    half = (place - 1) // 2
    sign = -1 if alpha % 2 and beta % 2 and half % 2 else 1
    # place is a proven prime and u, w are units there, so by Euler's
    # criterion u^half is 1 mod place exactly when (u|place) = 1
    if beta % 2 and pow(u, half, place) != 1:
        sign = -sign
    if alpha % 2 and pow(w, half, place) != 1:
        sign = -sign
    return sign


def _diagonal_entries(form: SymmetricForm) -> tuple[Fraction, ...]:
    _, d = congruence_diagonalize(form.gram)
    if any(x == 0 for x in d):
        raise DegenerateForm("form is degenerate")
    return d


def _square_class_from_factors(sign: int, num: dict[int, int], den: dict[int, int]) -> int:
    # squarefree parts of |numerator| and denominator, coprime-combined by a gcd
    a = math.prod(p for p, e in num.items() if e % 2)
    b = math.prod(p for p, e in den.items() if e % 2)
    g = math.gcd(a, b)
    return sign * (a // g) * (b // g)


def _square_class_product(a: int, b: int) -> int:
    # both arguments squarefree; the product's square class drops gcd^2
    g = math.gcd(abs(a), abs(b))
    return (a // g) * (b // g)


def _classes_and_places(entries) -> tuple[list[int], list]:
    """Square class of each nonzero entry and the relevant places of all of
    them, factoring each numerator and denominator once.

    Every numerator and denominator is checked against FACTOR_LIMIT before
    any is factored, so an input outside the supported range fails at once."""
    for e in entries:
        if abs(e.numerator) > FACTOR_LIMIT or e.denominator > FACTOR_LIMIT:
            raise ValueError(
                f"diagonal entry {e} has a numerator or denominator above "
                f"FACTOR_LIMIT = {FACTOR_LIMIT}, beyond the proven factorization range"
            )
    classes = []
    primes = {2}
    for e in entries:
        num, den = factorize(e.numerator), factorize(e.denominator)
        primes.update(num)
        primes.update(den)
        classes.append(_square_class_from_factors(-1 if e < 0 else 1, num, den))
    return classes, sorted(primes) + [REAL_PLACE]


def _invariants_and_places(entries) -> tuple[WittInvariants, list]:
    """Witt invariants of <entries> (Fractions, all nonzero) and its relevant places."""
    classes, places = _classes_and_places(entries)
    n = len(entries)
    # (a, b)_v is bilinear and reads square classes: prod_(i<j) (a_i, a_j)_v = prod_i (c_i, c_(i+1)...c_n)_v,
    # so a reverse walk pairs each class with its later product (the first, (c_n, 1), is trivial)
    disc, pairs = 1, []
    for c in reversed(classes):
        pairs.append((c, disc))
        disc = _square_class_product(disc, c)
    pos = sum(1 for e in entries if e > 0)
    minus = [v for v in places if math.prod(_hilbert_symbol(a, b, v) for a, b in pairs[1:]) == -1]
    return WittInvariants(n, disc, (pos, n - pos), frozenset(minus)), places


def invariants(form: SymmetricForm) -> WittInvariants:
    """Witt invariants of a non-degenerate form (diagonalize, then read off)."""
    return _invariants_and_places(_diagonal_entries(form))[0]


def equivalent(f1: SymmetricForm, f2: SymmetricForm) -> bool:
    """Rational equivalence, decided by Hasse-Minkowski invariants."""
    return invariants(f1) == invariants(f2)


def _is_local_square(r: Fraction, place) -> bool:
    """Is the nonzero rational r a square in Q_v, at a place already proven
    (the real place, or a prime that `factorize` returned)?"""
    if place == REAL_PLACE:
        return r > 0
    if place == 2:
        v, u = _split_units(r, 2)
        return v % 2 == 0 and u % 8 in (1, -7)
    v, u = _split_units(r, place)
    # u is a unit at the proven prime place, so by Euler's criterion it is a
    # square mod place exactly when u^((place-1)/2) is 1 there
    return v % 2 == 0 and pow(u, (place - 1) // 2, place) == 1


def is_isotropic(form: SymmetricForm) -> bool:
    """Does the form have a nontrivial rational zero?

    Decided by the classical local criteria per dimension: never for n=1;
    indefinite iff isotropic for n>=5, read off the diagonal entries' signs
    before anything is factored (so no entry is checked against
    FACTOR_LIMIT); disc in the class of -1 for n=2; local Hasse conditions at
    the relevant places for n=3 and 4.
    """
    entries = _diagonal_entries(form)
    n = len(entries)
    if n == 1:
        return False
    if n >= 5:
        return min(entries) < 0 < max(entries)
    inv, places = _invariants_and_places(entries)
    disc = Fraction(inv.disc)
    if n == 2:
        return inv.disc == -1
    for place in places:
        hasse = -1 if place in inv.hasse_minus_at else 1
        if n == 3:
            # anisotropic over Q_v iff (-1, -disc)_v != hasse
            if _hilbert_symbol(-1, -disc, place) != hasse:
                return False
        else:
            # n = 4: anisotropic over Q_v iff disc is a local square and
            # hasse = -(-1, -1)_v
            if _is_local_square(disc, place) and hasse == -_hilbert_symbol(-1, -1, place):
                return False
    return True
