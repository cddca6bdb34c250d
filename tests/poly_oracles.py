"""Reference polynomial routines by the Euclidean algorithm over Q.

The resultant and the discriminant here run Euclid's remainder sequence with
`Fraction` long division, and the primitive part clears denominators by its
own lcm and gcd loops; none of them reads power sums or the integer model of
`traceforms.algebra.poly`, so the tests compare against them.

`distinct_degree` splits a squarefree polynomial mod p by `mod_pow` on
coefficient lists, the route the packed Frobenius kernel of
`traceforms.algebra.modpoly` replaces, and takes its gcds from `gcd` here, a
Euclid on `mod_divmod` remainders, not from the package's in-place `mod_gcd`.

`RationalPoly` computes nothing, so the tests build products, sums, values,
quotients, remainders and monic rescalings of polynomials here, on coefficient
lists; the Euclidean routines use this division, not any of the package's.

`exact_rational` is the package's exact-rational reader as it was before
canonical strings were read straight into integer pairs: every accepted
input goes through `Fraction`, and a string whose decimal exponent is past
the int-digit limit (Python's default limit when it is 0) is refused before
it does.
"""

import math
import re
import sys
from fractions import Fraction

from traceforms.algebra import RationalPoly
from traceforms.algebra.modpoly import mod_divmod, mod_monic, mod_pow, mod_sub


def exact_rational(x) -> Fraction:
    """x as a Fraction by `Fraction` itself: an int that is not a bool, a
    Fraction, or a string `Fraction` parses with an exponent of at most the
    int-digit limit, or of Python's default limit when the limit is 0;
    anything else raises ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", x) if isinstance(x, str) else None
        try:
            if not (exponent and abs(int(exponent[1])) > limit):
                return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"expected an exact rational (int, Fraction or string), got {x!r}")


def mul(*factors) -> RationalPoly:
    """The product of polynomials or coefficient sequences, by convolution."""
    out = [Fraction(1)]
    for factor in factors:
        cs = factor.coeffs if isinstance(factor, RationalPoly) else tuple(factor)
        prod = [Fraction(0)] * (len(out) + len(cs) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(cs):
                prod[i + j] += a * b
        out = prod
    return RationalPoly(out)


def add(f: RationalPoly, g: RationalPoly, c=1) -> RationalPoly:
    """f + c g."""
    n = max(len(f.coeffs), len(g.coeffs))
    a = f.coeffs + (0,) * (n - len(f.coeffs))
    b = g.coeffs + (0,) * (n - len(g.coeffs))
    return RationalPoly(x + c * y for x, y in zip(a, b))


def divide(f: RationalPoly, g: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
    """(q, r) with f = q g + r and deg r < deg g, by schoolbook long division."""
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f.coeffs)
    dg = g.degree
    quo = [Fraction(0)] * max(len(rem) - dg, 0)
    for i in range(len(quo) - 1, -1, -1):
        c = quo[i] = rem[i + dg] / g.leading
        for j, b in enumerate(g.coeffs):
            rem[i + j] -= c * b
    return RationalPoly(quo), RationalPoly(rem)


def remainder(f: RationalPoly, g: RationalPoly) -> RationalPoly:
    """f mod g."""
    return divide(f, g)[1]


def monic(f: RationalPoly) -> RationalPoly:
    """f / lc(f)."""
    return RationalPoly(c / f.leading for c in f.coeffs)


def evaluate(f: RationalPoly, x) -> Fraction:
    """f(x) by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


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
        r = remainder(a, b)
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


def primitive_part(f: RationalPoly) -> list[int]:
    """Integer coefficients of f's primitive part, positive leading, by its own
    lcm and gcd loops."""
    lcm = 1
    for c in f.coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in f.coeffs]
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def gcd(a, b, p):
    """Monic gcd mod p by Euclid's remainders from `mod_divmod` (empty when
    both are zero)."""
    while b:
        a, b = b, mod_divmod(a, b, p)[1]
    return mod_monic(a, p) if a else []


def distinct_degree(f, p):
    """Squarefree monic f as (product of irreducibles of degree d, d) pairs,
    by `mod_pow` and this module's `gcd`."""
    out = []
    x = h = [0, 1]  # only read when deg f >= 2, where x mod f = x
    d = 0
    rest = f
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = mod_pow(h, p, rest, p)
        g = gcd(mod_sub(h, x, p), rest, p)
        if len(g) > 1:
            out.append((g, d))
            rest = mod_divmod(rest, g, p)[0]
            h = mod_divmod(h, rest, p)[1]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out
