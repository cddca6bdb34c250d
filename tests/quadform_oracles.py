"""Reference square classes and Hilbert symbols.

`squarefree_part` and `square_class` are the bodies that `traceforms` once
exported; nothing in the package needed them, so they live here for the tests
that read square classes.  `hilbert_symbol` is the package's symbol as it was
when it read the odd-prime case through `legendre_symbol`, which proves the
place prime again on every call; the package now reads it by Euler's
criterion, and the tests compare the two.  `legendre_symbol` is the body the
package exported until its local squares read Euler's criterion too, and
`is_local_square` decides squares in Q_p by enumerating the squares mod p.
"""

import math
from fractions import Fraction

from traceforms.algebra import factorize, is_prime
from traceforms.quadform import REAL_PLACE


def squarefree_part(n: int) -> int:
    """The unique squarefree d with n = d * s**2; the sign of n is kept."""
    if n == 0:
        raise ValueError("0 has no squarefree part")
    d = 1
    for p, e in factorize(n).items():
        if e % 2:
            d *= p
    return -d if n < 0 else d


def square_class(r: Fraction) -> int:
    """Signed squarefree integer representing r modulo squares: the squarefree
    parts of numerator and denominator, coprime-combined by a gcd."""
    if r == 0:
        raise ValueError("0 has no square class")
    a = math.prod(p for p, e in factorize(r.numerator).items() if e % 2)
    b = math.prod(p for p, e in factorize(r.denominator).items() if e % 2)
    g = math.gcd(a, b)
    return (-1 if r < 0 else 1) * (a // g) * (b // g)


def _split_units(r: Fraction, p: int) -> tuple[int, int]:
    num, den = r.numerator, r.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num * den


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p: +1, -1, or 0 when p | a."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def is_local_square(r: Fraction, p: int) -> bool:
    """Is the nonzero rational r a square in Q_p, p an odd prime?  Exactly when
    its valuation is even and its unit part is among the squares mod p."""
    v, u = _split_units(Fraction(r), p)
    return v % 2 == 0 and u % p in {x * x % p for x in range(1, p)}


def hilbert_symbol(a, b, place) -> int:
    """(a, b)_v: +1 iff z^2 = a x^2 + b y^2 has a nontrivial local solution."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol requires nonzero arguments")
    if place == REAL_PLACE:
        return -1 if a < 0 and b < 0 else 1
    if not isinstance(place, int) or not is_prime(place):
        raise ValueError(f"place must be a prime or '{REAL_PLACE}', got {place}")
    if place == 2:
        alpha, u = _split_units(a, 2)
        beta, w = _split_units(b, 2)
        eps = ((u - 1) // 2) * ((w - 1) // 2)
        omega = alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if (eps + omega) % 2 else 1
    alpha, u = _split_units(a, place)
    beta, w = _split_units(b, place)
    sign = 1
    if alpha % 2 and beta % 2 and (place - 1) // 2 % 2:
        sign = -sign
    if beta % 2:
        sign *= legendre_symbol(u, place)
    if alpha % 2:
        sign *= legendre_symbol(w, place)
    return sign
