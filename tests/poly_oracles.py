"""Reference polynomial routines by the Euclidean algorithm over Q.

The resultant and the discriminant here run Euclid's remainder sequence with
`Fraction` long division; none of them reads power sums or the integer model
of `traceforms.algebra.poly`, so the tests compare against them.
"""

from fractions import Fraction

from traceforms.algebra import RationalPoly


def derivative(f: RationalPoly) -> RationalPoly:
    return RationalPoly(tuple(i * c for i, c in enumerate(f.coeffs) if i))


def resultant(f: RationalPoly, g: RationalPoly) -> Fraction:
    """Resultant of f and g via the classical Euclidean recursion."""
    if f.is_zero or g.is_zero:
        return Fraction(0)
    a, b = f, g
    res = Fraction(1)
    if a.degree < b.degree:
        if (a.degree * b.degree) % 2:
            res = -res
        a, b = b, a
    while b.degree > 0:
        r = a % b
        if r.is_zero:
            return Fraction(0) if a.degree > 0 and b.degree > 0 else res
        res *= b.leading ** (a.degree - r.degree)
        if (a.degree * b.degree) % 2:
            res = -res
        a, b = b, r
    return res * b.coeffs[0] ** a.degree


def discriminant(f: RationalPoly) -> Fraction:
    """disc(f) = (-1)^(n(n-1)/2) res(f, f') / lc(f)."""
    n = f.degree
    if n == 1:
        return Fraction(1)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, derivative(f)) / f.leading
