import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceforms.algebra import (
    Matrix,
    RationalPoly,
    discriminant,
    is_separable,
    power_traces,
    primitive_integer_coeffs,
    trace_moments,
)
from traceforms.algebra.poly import _monic_model
from poly_oracles import derivative as _derivative
from poly_oracles import discriminant as _discriminant_oracle
from poly_oracles import resultant as _resultant_oracle

X = RationalPoly.x()


def _gcd_oracle(f: RationalPoly, g: RationalPoly) -> RationalPoly:
    """Monic gcd in Q[x] by Euclid (a nonzero constant gcd is returned as 1)."""
    a, b = f, g
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a.monic()


def _trace_of_element(f: RationalPoly, g: RationalPoly) -> Fraction:
    """Trace of (g mod f) acting by multiplication on Q[x]/(f)."""
    if not f.is_monic or f.degree < 1:
        raise ValueError("trace requires a monic modulus of degree >= 1")
    gbar = g % f
    if gbar.is_zero:
        return Fraction(0)
    tr = power_traces(f, gbar.degree)
    return sum((c * tr[k] for k, c in enumerate(gbar.coeffs)), Fraction(0))


def _random_poly(rng, max_degree=6, span=9):
    return RationalPoly(
        [
            Fraction(rng.randrange(-span, span + 1), rng.randrange(1, 5))
            for _ in range(rng.randrange(1, max_degree + 2))
        ]
    )


def test_arithmetic_round_trips():
    rng = random.Random(2)
    for _ in range(200):
        f, g = _random_poly(rng), _random_poly(rng)
        if g.is_zero:
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree
        assert (f + g) - g == f
        assert f * g == g * f


def test_canonical_rationals_on_random_chains():
    # every coefficient that comes out of an arithmetic chain is reduced with
    # a positive denominator
    rng = random.Random(3)
    for _ in range(100):
        f, g, h = (_random_poly(rng) for _ in range(3))
        result = f * g - h * f + g
        if not h.is_zero:
            result = result % h
        for c in result.coeffs:
            assert c.denominator >= 1
            assert math.gcd(abs(c.numerator), c.denominator) == 1


def test_separability_examples():
    assert not is_separable((X - 1) * (X - 1))
    assert is_separable(X * X - 2)
    assert is_separable(X * X - 1)
    assert not is_separable((X * 2 - Fraction(1, 3)) ** 2)
    assert is_separable(RationalPoly((Fraction(-1, 2), 0, 3)))
    with pytest.raises(ValueError):
        is_separable(RationalPoly.one())


def test_power_traces_examples():
    assert power_traces(RationalPoly((-5, 1)), 2) == (1, 5, 25)
    assert power_traces(X * X - 2, 2) == (2, 0, 4)
    assert power_traces(X * X - X, 2) == (2, 1, 1)


def _companion(f):
    n = f.degree
    cols = []
    for j in range(n):
        col = [Fraction(0)] * n
        if j + 1 < n:
            col[j + 1] = Fraction(1)
        cols.append(col)
    mat = [[cols[j][i] for j in range(n)] for i in range(n)]
    for i in range(n):
        mat[i][n - 1] = -f.coeffs[i]
    return Matrix(mat)


def test_newton_consistency_against_companion_matrix():
    # traces from Newton's identities equal traces of companion-matrix powers
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randrange(1, 7)
        f = RationalPoly([Fraction(rng.randrange(-9, 10)) for _ in range(n)] + [1])
        comp = _companion(f)
        traces = power_traces(f, 2 * n)
        power = Matrix.identity(n)
        for k in range(2 * n + 1):
            assert traces[k] == power.trace()
            power = power * comp


def _trace(f, g):
    (trace,) = trace_moments(f, g, 1)
    return trace


def test_trace_of_element_examples():
    f = X * X - 2
    assert _trace(f, RationalPoly.one()) == 2
    assert _trace(f, X) == 0
    assert _trace(f, RationalPoly((Fraction(1, 2), Fraction(1, 4)))) == 1
    assert _trace(f, X * 100 + 7) == 14  # linearity: 100*Tr(x) + 7*Tr(1)
    assert trace_moments(f, X * 100 + 7, 4) == (14, 400, 28, 800)
    assert trace_moments(f, f * (X + 3), 3) == (0, 0, 0)  # unreduced zero element
    assert trace_moments(f, RationalPoly.zero(), 2) == (0, 0)
    assert trace_moments(f, X, 0) == ()
    with pytest.raises(ValueError):
        trace_moments(X * 2 - 1, X, 1)


def test_trace_linearity_random():
    rng = random.Random(5)
    f = RationalPoly((3, 0, -1, 1))
    for _ in range(50):
        g, h = _random_poly(rng, 5), _random_poly(rng, 5)
        c = Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
        assert _trace(f, g + c * h) == _trace(f, g) + c * _trace(f, h)


RATIONALS = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_trace_moments_match_division_oracle(data):
    n = data.draw(st.integers(1, 8))
    f = RationalPoly(data.draw(st.lists(RATIONALS, min_size=n, max_size=n)) + [1])
    g = RationalPoly(data.draw(st.lists(RATIONALS, max_size=2 * n + 4)))
    count = data.draw(st.integers(1, 2 * n))
    moments = trace_moments(f, g, count)
    assert len(moments) == count
    for m, moment in enumerate(moments):
        assert moment == _trace_of_element(f, g * RationalPoly((0,) * m + (1,)))


def test_resultant_and_discriminant():
    assert discriminant(X * X - 2) == 8
    assert discriminant((X - 1) * (X + 1)) == 4
    assert discriminant((X - 1) * (X - 1)) == 0
    assert discriminant(RationalPoly((5, 1))) == 1
    assert discriminant(RationalPoly((-1, 0, 3))) == 12  # b^2 - 4ac, non-monic
    assert discriminant(RationalPoly((1, 3, 2))) == 1
    with pytest.raises(ValueError):
        discriminant(RationalPoly((7,)))
    # resultant vanishes iff common root
    assert _resultant_oracle((X - 2) * (X + 3), (X - 2) * (X + 5)) == 0
    assert _resultant_oracle(X - 2, X - 3) != 0


def test_resultant_product_of_root_differences():
    # res(f, g) = lc(f)^deg(g) * prod g(root of f) for split f
    rng = random.Random(6)
    for _ in range(50):
        roots = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 4))]
        f = RationalPoly.one()
        for r in roots:
            f = f * (X - r)
        g = _random_poly(rng, 4)
        if g.is_zero:
            continue
        expected = Fraction(1)
        for r in roots:
            expected *= g(Fraction(r))
        assert _resultant_oracle(f, g) == expected


INTEGERS = st.builds(Fraction, st.integers(-20, 20))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_discriminant_matches_euclid_oracles(data):
    # f = g * h^2: h of degree 0 leaves a (generically squarefree) g, h of
    # degree >= 1 forces a repeated root; total degree 1..9
    coeffs = data.draw(st.sampled_from([INTEGERS, RATIONALS]))
    monic = data.draw(st.booleans())

    def draw(degree):
        lead = Fraction(1) if monic else data.draw(coeffs.filter(bool))
        return RationalPoly(data.draw(st.lists(coeffs, min_size=degree, max_size=degree)) + [lead])

    r = data.draw(st.integers(0, 4))
    h = draw(r)
    f = draw(data.draw(st.integers(0 if r else 1, 9 - 2 * r))) * h * h
    disc = discriminant(f)
    assert disc == _discriminant_oracle(f)
    assert is_separable(f) == (_gcd_oracle(f, _derivative(f)).degree == 0) == (disc != 0)
    if r:
        assert disc == 0


def test_primitive_integer_coeffs():
    f = RationalPoly((Fraction(1, 2), Fraction(1, 4)))
    assert primitive_integer_coeffs(f) == [2, 1]
    assert primitive_integer_coeffs(RationalPoly((-4, -8))) == [1, 2]  # leading made positive
    assert primitive_integer_coeffs(RationalPoly((6, 4, 2))) == [3, 2, 1]


def test_gcd_properties():
    rng = random.Random(7)
    for _ in range(50):
        f, g, h = (_random_poly(rng, 3) for _ in range(3))
        if f.is_zero or g.is_zero or h.is_zero:
            continue
        d = _gcd_oracle(f * h, g * h)
        assert d == (_gcd_oracle(f, g) * h).monic()
        assert (f * h % d).is_zero and (g * h % d).is_zero


# The integer forms of f as they were built before `_monic_model`: Newton's
# identities and the Hankel products in Fractions, the primitive part by its
# own lcm and gcd loops, and the monic form rescaled from the primitive part.


def _power_traces_oracle(f: RationalPoly, m: int) -> tuple[Fraction, ...]:
    n = f.degree
    a = f.coeffs
    tr = [Fraction(n)]
    for k in range(1, m + 1):
        s = -k * a[n - k] if k <= n else Fraction(0)
        for i in range(1, min(k - 1, n) + 1):
            s -= a[n - i] * tr[k - i]
        tr.append(s)
    return tuple(tr)


def _trace_moments_oracle(f: RationalPoly, g: RationalPoly, count: int) -> tuple[Fraction, ...]:
    tr = _power_traces_oracle(f, g.degree + count - 1)
    return tuple(
        sum((c * tr[k + m] for k, c in enumerate(g.coeffs)), Fraction(0)) for m in range(count)
    )


def _primitive_oracle(f: RationalPoly) -> list[int]:
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


def _monicize_oracle(coeffs: list[int]) -> list[int]:
    """Monic integer polynomial b^(n-1) f(x/b) of an integer f with leading b."""
    b = coeffs[-1]
    if b == 1:
        return list(coeffs)
    n = len(coeffs) - 1
    return [c * b ** (n - 1 - i) for i, c in enumerate(coeffs[:-1])] + [1]


def _monic_polys(min_degree=1, max_degree=8):
    return st.lists(RATIONALS, min_size=min_degree, max_size=max_degree).map(
        lambda lower: RationalPoly(lower + [1])
    )


LEADING = st.sampled_from([1, -1, 3, -12, Fraction(1, 2), Fraction(-5, 6), Fraction(7, 4)])


@settings(max_examples=300, deadline=None)
@given(st.lists(RATIONALS, max_size=8), LEADING)
def test_monic_model_matches_monicized_primitive_part(lower, lead):
    f = RationalPoly(lower + [lead])
    primitive = _primitive_oracle(f)
    g, b = _monic_model(f)
    assert (g, b) == (_monicize_oracle(primitive), primitive[-1])
    assert primitive_integer_coeffs(f) == primitive
    # the definition: g_i = b^(n-i) h_i with h = f / lc(f)
    n = f.degree
    assert RationalPoly(g) == RationalPoly([c * b ** (n - i) for i, c in enumerate(f.monic().coeffs)])


@settings(max_examples=300, deadline=None)
@given(_monic_polys(), st.integers(-1, 20))
def test_power_traces_match_fraction_newton_oracle(f, m):
    assert power_traces(f, m) == _power_traces_oracle(f, m)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_trace_moments_match_fraction_oracle(data):
    # g zero, of degree below n, or of degree n or more; count 0 included
    f = data.draw(_monic_polys())
    n = f.degree
    g = RationalPoly(
        data.draw(
            st.one_of(
                st.just([]),
                st.lists(RATIONALS, min_size=1, max_size=n),
                st.lists(RATIONALS, min_size=n + 1, max_size=2 * n + 3),
            )
        )
    )
    count = data.draw(st.integers(0, 2 * n + 1))
    assert trace_moments(f, g, count) == _trace_moments_oracle(f, g, count)
