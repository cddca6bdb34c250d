"""Dense univariate polynomials over the rationals.

Coefficients are `fractions.Fraction` values stored lowest degree first;
the zero polynomial is the empty tuple and has degree -1.  Degrees in this
package stay small (<= 8 or so), so the dense representation and the
quadratic-time classical algorithms cost nothing.

Alongside the arithmetic this module provides the trace machinery for
quotient rings Q[x]/(f): power sums of the roots of f, as Newton sums in `int`
on f's monic integer model (`_monic_model`), and the trace moments Tr(g x^m),
Hankel products of g's coefficients with the power sums (the trace is linear
and Tr(x^k) is the k-th power sum), so no element is ever reduced mod f.

The same power sums give the discriminant: the Gram matrix of the trace form
of 1, x -> Tr(x^2), is the Hankel matrix (Tr(x^(i+j)))_(i,j<n), and its
determinant is disc(f) for monic f.  It is taken in integers, as the Bareiss
determinant of the model's power-sum Hankel (s_(i+j)).  Separability is
disc(f) != 0, so no Euclidean algorithm runs over Q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .intmath import _int_det_bareiss


class RationalPoly:
    """Immutable polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RationalPoly is immutable")

    @classmethod
    def zero(cls) -> "RationalPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RationalPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "RationalPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "RationalPoly":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, RationalPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == RationalPoly((other,)).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return RationalPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, RationalPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RationalPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RationalPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        result = RationalPoly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = other.degree
        lead = other.coeffs[-1]
        if len(rem) <= dd:
            return RationalPoly(()), self
        quo = [Fraction(0)] * (len(rem) - dd)
        for i in range(len(quo) - 1, -1, -1):
            c = rem[i + dd] / lead
            quo[i] = c
            if c:
                for j in range(dd + 1):
                    rem[i + j] -= c * other.coeffs[j]
        return RationalPoly(quo), RationalPoly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x):
        """Evaluate by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "RationalPoly":
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return RationalPoly(tuple(c / lead for c in self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "RationalPoly(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not terms:
                terms.append(f"-{body}" if c < 0 else body)
            else:
                terms.append(f"{'-' if c < 0 else '+'} {body}")
        return f"RationalPoly({' '.join(terms)})"


def _coerce(value):
    if isinstance(value, RationalPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return RationalPoly((value,))
    return NotImplemented


def _monic_model(f: RationalPoly) -> tuple[list[int], int]:
    """(g, b): f's monic integer model g(x) = b^n h(x/b), h = f / lc(f), b the
    lcm of h's denominators.  b h is f's primitive part, with leading b > 0."""
    h = f.monic().coeffs
    b = math.lcm(*(c.denominator for c in h))
    return [c.numerator * (b ** (f.degree - i) // c.denominator) for i, c in enumerate(h)], b


def _newton_sums(f: RationalPoly, m: int) -> tuple[list[int], int, list[int]]:
    """(g, b, s): f's monic model and the power sums s_k, k = 0..m, of g's roots,
    by Newton's identities in integers.  f's k-th power sum is s_k / b^k."""
    g, b = _monic_model(f)
    n = f.degree
    a = g[::-1]  # a_i = g_(n-i), the coefficients Newton's identities read
    s = [n]
    for k in range(1, m + 1):
        s.append(-k * (a[k] if k <= n else 0) - sum(map(mul, a[1:k], s[k - 1 : 0 : -1])))
    return g, b, s


def _integer_model(f: RationalPoly) -> tuple[list[int], int, int]:
    """(g, b, disc): f's monic model and the discriminant of its primitive part b h.

    The Hankel matrix S = (s_(i+j))_(i,j<n) of g's power sums has determinant
    disc(g) = b^(n(n-1)) disc(h), and disc(b h) = b^(2n-2) disc(h), so
    disc(b h) = det S / b^((n-1)(n-2)), an exact division in integers.
    """
    n = f.degree
    g, b, s = _newton_sums(f, 2 * n - 2)
    det = _int_det_bareiss([s[i : i + n] for i in range(n)])
    return g, b, det // b ** ((n - 1) * (n - 2))


def power_traces(f: RationalPoly, m: int) -> tuple[Fraction, ...]:
    """Traces of multiplication by x**k on Q[x]/(f), k = 0..m.

    Entry k is the k-th power sum of the roots of the monic f, read off the
    integer Newton sums of its monic model; entry 0 is deg f.
    """
    if not f.is_monic or f.degree < 1:
        raise ValueError("power traces require a monic polynomial of degree >= 1")
    _, b, s = _newton_sums(f, m)
    return tuple(Fraction(x, b**k) for k, x in enumerate(s))


def trace_moments(f: RationalPoly, g: RationalPoly, count: int) -> tuple[Fraction, ...]:
    """Traces Tr(g x^m) on Q[x]/(f) for m = 0..count-1.

    Moment m is sum_k g_k tr[k + m] with tr the power sums of f, so g need
    not be reduced mod f and no polynomial division takes place.  With g's
    denominators cleared (c) and f's power sums s_k / b^k, each moment is one
    integer Hankel product over c b^(deg g + m), one Fraction per moment.
    """
    if not f.is_monic or f.degree < 1:
        raise ValueError("trace requires a monic modulus of degree >= 1")
    _, b, sums = _newton_sums(f, g.degree + count - 1)
    d = max(g.degree, 0)
    c = math.lcm(*(x.denominator for x in g.coeffs))
    w = [x.numerator * (c // x.denominator) * b ** (d - k) for k, x in enumerate(g.coeffs)]
    return tuple(Fraction(sum(map(mul, w, sums[m:])), c * b ** (d + m)) for m in range(count))


def discriminant(f: RationalPoly) -> Fraction:
    """disc(f) = lc(f)^(2n-2) det(Tr(x^(i+j)))_(i,j<n) = (lc(f) / b)^(2n-2)
    disc(b h), b h being f's primitive part, whose disc `_integer_model` gives.

    The Hankel determinant is prod_(i<j) (r_i - r_j)^2 over the roots.
    """
    if f.degree < 1:
        raise ValueError("discriminant requires degree >= 1")
    _, b, disc = _integer_model(f)
    return (f.leading / b) ** (2 * f.degree - 2) * disc


def is_separable(f: RationalPoly) -> bool:
    """True iff f has no repeated roots, i.e. disc(f) != 0."""
    return discriminant(f) != 0


def primitive_integer_coeffs(f: RationalPoly) -> list[int]:
    """Integer coefficient list of the primitive part of f, positive leading:
    b h = (g_i / b^(n-1-i)) for f's monic model (g, b)."""
    g, b = _monic_model(f)
    return [c // b ** (f.degree - 1 - i) for i, c in enumerate(g[:-1])] + [b]
