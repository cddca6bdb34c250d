"""Dense univariate polynomials over the rationals.

Coefficients are `fractions.Fraction` values stored lowest degree first;
the zero polynomial is the empty tuple and has degree -1.  `RationalPoly` is a
value that computes nothing: it is built, compared, hashed and printed, and
arithmetic on polynomials runs as integer lists here and in `modpoly`.
`realize` reaches degree 48 (diagonal targets), and the work that grows with
the degree (power sums, discriminants) runs in integers on f's monic model.

Alongside the value this module provides the trace machinery for
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
import sys
from fractions import Fraction
from operator import mul

from .intmath import _int_det_bareiss


def _rational_pair(x) -> tuple[int, int]:
    """x as integers (p, q), q > 0 and p / q = x, not necessarily in lowest
    terms, under `exact_rational`'s rules and messages.

    An int and a canonical ASCII string "p", "-p" or "p/q" (digits only,
    q != 0) are read straight into integers; a Fraction gives its own pair.
    Anything else goes through `Fraction` as `exact_rational` describes, so
    " 3", "+3", "0.5", "1_0", non-ASCII digits and strings over the
    int-digit limit are accepted or refused exactly as `Fraction` decides,
    except that a decimal exponent past the int-digit limit ("1e99999999"),
    or past Python's default limit when the limit is 0, is refused up front:
    `Fraction` would spend minutes building 10**exponent.
    """
    if type(x) is int:
        return x, 1
    if type(x) is str and x.isascii():
        num, slash, den = x.partition("/")
        if (num[1:] if num[:1] == "-" else num).isdigit() and (den.isdigit() or not slash):
            try:
                p, q = int(num), int(den) if slash else 1
            except ValueError:  # past the int-digit limit: Fraction refuses it too
                pass
            else:
                if q:
                    return p, q
    if isinstance(x, Fraction):
        return x.as_integer_ratio()
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            if not (isinstance(x, str) and _exponent_past_limit(x)):
                return Fraction(x).as_integer_ratio()
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"expected an exact rational (int, Fraction or string), got {x!r}")


def _exponent_past_limit(s: str) -> bool:
    """Whether s ends in a decimal exponent, "e" then an integer, whose size
    exceeds the int-digit limit, or Python's default limit where the limit is
    lifted (0, as the CLI sets it for long certificate entries)."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    _, e, exp = s.lower().rpartition("e")
    try:
        return bool(e and abs(int(exp)) > limit)
    except ValueError:  # not an exponent, or one past the limit: Fraction refuses it
        return False


def exact_rational(x) -> Fraction:
    """x as a Fraction: an int that is not a bool, a Fraction, or a string
    `Fraction` parses ("-3", "2/7", "0.5") with a decimal exponent, if any,
    within the int-digit limit (Python's default one when the limit is 0).  A float, which may already have been
    rounded, a bool or anything else raises ValueError."""
    if isinstance(x, Fraction):
        return x
    return Fraction(*_rational_pair(x))


def sequence(items, what: str):
    """items, unless it is a str: a string is not the sequence of its characters."""
    if isinstance(items, str):
        raise ValueError(f"{what} must be a sequence, not the string {items!r}")
    return items


class RationalPoly:
    """Immutable polynomial with exact rational coefficients: a value that
    computes nothing, with no operators beyond comparison and hashing."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [exact_rational(c) for c in sequence(coeffs, "coefficients")]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RationalPoly is immutable")

    @classmethod
    def one(cls) -> "RationalPoly":
        return cls((1,))

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

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, RationalPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "RationalPoly(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
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


def _monic_model(f: RationalPoly) -> tuple[list[int], int]:
    """(g, b): f's monic integer model g(x) = b^n h(x/b), h = f / lc(f), b the
    lcm of h's denominators.  b h is f's primitive part, with leading b > 0."""
    lead = f.leading
    h = f.coeffs if lead == 1 else [c / lead for c in f.coeffs]  # charpolys are monic
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
    """Traces Tr(x^k) on Q[x]/(f), k = 0..m: the power sums of the roots of the
    monic f (entry 0 is deg f), as the trace moments of 1."""
    if m < 0:
        raise ValueError("power traces need m >= 0")
    return trace_moments(f, RationalPoly.one(), m + 1)


def trace_moments(f: RationalPoly, g: RationalPoly, count: int) -> tuple[Fraction, ...]:
    """Traces Tr(g x^m) on Q[x]/(f) for m = 0..count-1, one Fraction each;
    `_trace_products` has them as integers over one denominator."""
    products, den = _trace_products(f, g, count)
    return tuple(Fraction(t, den) for t in products)


def _trace_products(f: RationalPoly, g: RationalPoly, count: int) -> tuple[list[int], int]:
    """(t, den) with Tr(g x^m) = t[m] / den on Q[x]/(f), m = 0..count-1.

    Moment m is sum_k g_k tr[k + m] with tr the power sums of f, so g need
    not be reduced mod f and no polynomial division takes place.  With g's
    denominators cleared (c) and f's power sums s_k / b^k, moment m is one
    integer Hankel product over c b^(d + m), d = max(deg g, 0), and den =
    c b^(d + max(count - 1, 0)) is a multiple of each of these denominators.
    """
    if not f.is_monic or f.degree < 1:
        raise ValueError("trace requires a monic modulus of degree >= 1")
    if count < 0:
        raise ValueError("trace moments need count >= 0")
    _, b, sums = _newton_sums(f, g.degree + count - 1)
    d = max(g.degree, 0)
    c = math.lcm(*(x.denominator for x in g.coeffs))
    w = [x.numerator * (c // x.denominator) * b ** (d - k) for k, x in enumerate(g.coeffs)]
    top = max(count - 1, 0)
    return [sum(map(mul, w, sums[m:])) * b ** (top - m) for m in range(count)], c * b ** (d + top)


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
