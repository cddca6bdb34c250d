import math
import random
import sys
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from traceforms.algebra import (
    RationalPoly,
    cycle_type_mod_p,
    discriminant,
    irreducibility,
    is_irreducible_over_rationals,
    mignotte_bound,
    poly,
    primes_above,
)
from traceforms.algebra.irreducibility import (
    _divides_exactly,
    _lift_factors,
    _product,
    _subset_sums,
    _symmetric,
)
from traceforms.algebra.modpoly import BadPrime, factor_mod_p, mod_mul
from traceforms.algebra.poly import _integer_model

X = RationalPoly.x()


def test_examples():
    assert not is_irreducible_over_rationals(X * X - 1)
    assert is_irreducible_over_rationals(X * X - 2)
    assert is_irreducible_over_rationals(RationalPoly((1, 0, 0, 0, 1)))  # x^4 + 1
    assert is_irreducible_over_rationals(RationalPoly((-5, 1)))
    assert not is_irreducible_over_rationals((X * X + 1) * (X * X + 1))
    with pytest.raises(ValueError):
        is_irreducible_over_rationals(RationalPoly.one())


def test_x4_plus_1_is_reducible_mod_every_good_prime():
    # the classical recombination stress case
    f = RationalPoly((1, 0, 0, 0, 1))
    checked = 0
    for p in primes_above(2):
        if checked >= 50:
            break
        try:
            t = cycle_type_mod_p(f, p)
        except BadPrime:
            continue
        assert len(t) >= 2
        checked += 1


def test_scalar_invariance():
    rng = random.Random(30)
    for _ in range(50):
        degree = rng.randrange(1, 6)
        f = RationalPoly([rng.randrange(-9, 10) for _ in range(degree)] + [1])
        c = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 9), rng.randrange(1, 9))
        assert is_irreducible_over_rationals(f) == is_irreducible_over_rationals(c * f)


def test_non_monic_cases():
    assert not is_irreducible_over_rationals(RationalPoly((-1, 0, 4)))  # (2x-1)(2x+1)
    assert is_irreducible_over_rationals(RationalPoly((-1, 0, 3)))  # 3x^2 - 1
    assert is_irreducible_over_rationals(RationalPoly((Fraction(-1, 3), 0, 1)))
    assert not is_irreducible_over_rationals(RationalPoly((Fraction(-1, 4), 0, 1)))
    # (3x^2 - 1)^2 (x/2 + 1): a repeated non-monic factor times a rational one
    f = RationalPoly((-1, 0, 3)) ** 2 * RationalPoly((1, Fraction(1, 2)))
    assert not is_irreducible_over_rationals(f)


def _mignotte_coeff_bound(ints, d, j):
    # |g_j| <= C(d-1, j) ||f||_2 + C(d-1, j-1) |lc| for monic divisors of degree d
    norm = math.isqrt(sum(c * c for c in ints)) + 1
    return math.comb(d - 1, j) * norm + (math.comb(d - 1, j - 1) if j >= 1 else 0)


def _oracle_irreducible_monic(ints):
    """Enumerate monic integer divisors within the Landau-Mignotte bound."""
    n = len(ints) - 1
    if n == 1:
        return True
    for d in range(1, n // 2 + 1):
        bounds = [_mignotte_coeff_bound(ints, d, j) for j in range(d)]

        def divides(g):
            rem = list(ints)
            for i in range(len(rem) - d - 1, -1, -1):
                c = rem[i + d]
                if c:
                    for j in range(d + 1):
                        rem[i + j] -= c * g[j]
            return all(c == 0 for c in rem)

        def search(prefix):
            j = len(prefix)
            if j == d:
                return divides(prefix + [1])
            return any(
                search(prefix + [v]) for v in range(-bounds[j], bounds[j] + 1)
            )

        if search([]):
            return False
    return True


def test_against_bounded_enumeration_oracle():
    # complete for monic inputs: monic rational factors of a monic integer
    # polynomial are integral (Gauss) with Mignotte-bounded coefficients
    rng = random.Random(31)
    for _ in range(200):
        degree = rng.randrange(2, 5)
        ints = [rng.randrange(-10, 11) for _ in range(degree)] + [1]
        f = RationalPoly(ints)
        assert is_irreducible_over_rationals(f) == _oracle_irreducible_monic(ints)


def test_hensel_lift_round_trip():
    rng = random.Random(32)
    for _ in range(40):
        degree = rng.randrange(2, 7)
        ints = [rng.randrange(-9, 10) for _ in range(degree)] + [1]
        f = RationalPoly(ints)
        work, _, disc = _integer_model(f)  # f is monic integer, so b = 1 and disc = disc(work)
        if disc == 0:
            continue
        p = next(q for q in primes_above(2) if disc % q)
        factors = [list(g) for g, _ in factor_mod_p(work, p)]
        target = 2 * mignotte_bound(work) + 1
        lifted, modulus = _lift_factors(work, factors, p, target)
        assert modulus >= target
        product = [1]
        for part in lifted:
            assert part[-1] == 1  # monic
            product = mod_mul(product, part, modulus)
        assert product == [c % modulus for c in work]
        for lifted_part, base_part in zip(lifted, factors):
            assert [c % p for c in lifted_part] == base_part


def test_known_irreducibles():
    # Eisenstein and cyclotomic standbys
    assert is_irreducible_over_rationals(RationalPoly((7, 0, 0, 0, 0, 0, 1)))
    assert is_irreducible_over_rationals(RationalPoly((1, 1, 1, 1, 1)))  # Phi_5
    assert is_irreducible_over_rationals(RationalPoly((1, 1, 1, 1, 1, 1, 1)))  # Phi_7
    assert not is_irreducible_over_rationals(RationalPoly((1, 1, 1)) * RationalPoly((1, 1)))


def _factor_every_prime_oracle(f: RationalPoly) -> bool:
    """The earlier decision: a full factorization mod each of the first five
    primes not dividing the discriminant of the monic model, then the same
    Hensel lifting and recombination."""
    if f.degree == 1:
        return True
    work, b, disc = _integer_model(f)
    n = len(work) - 1
    disc *= b ** ((n - 1) * (n - 2))  # disc(work) from the primitive part's: work's roots are b times f's
    if disc == 0:
        return False
    candidates = []
    for p in islice((p for p in primes_above(1) if disc % p), 5):
        factors = [g for g, _ in factor_mod_p(work, p)]
        if len(factors) == 1:
            return True
        candidates.append((p, factors))
    possible = set(range(1, n))
    for _, factors in candidates:
        possible &= _subset_sums([len(g) - 1 for g in factors])
    if not possible:
        return True
    p, factors = min(candidates, key=lambda c: (len(c[1]), c[0]))
    lifted, modulus = _lift_factors(work, factors, p, 2 * mignotte_bound(work) + 1)
    r = len(lifted)
    for size in range(1, r // 2 + 1):
        for subset in combinations(range(r), size):
            if 2 * size == r and 0 not in subset:
                continue
            if sum(len(lifted[i]) - 1 for i in subset) not in possible:
                continue
            candidate = _product((lifted[i] for i in subset), modulus)
            if _divides_exactly(work, [_symmetric(c, modulus) for c in candidate]):
                return False
    return True


RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=6)
LEADING = st.sampled_from([1, -1, 2, 3, 4, 6, 9, 12, -10, Fraction(1, 2), Fraction(2, 3), Fraction(-5, 4)])


def _rational_polys(min_degree, max_degree):
    return st.builds(
        lambda lower, lc: RationalPoly(lower + [lc]),
        st.lists(RATIONALS, min_size=min_degree, max_size=max_degree),
        LEADING,
    )


@st.composite
def _lc_meets_disc(draw):
    # p divides the leading and the next coefficient, so p divides the
    # discriminant as well: a prime the old and the new filter see differently
    p = draw(st.sampled_from([2, 3, 5]))
    lower = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=7))
    return RationalPoly(lower[:-1] + [p * lower[-1], p * draw(st.integers(1, 4))])


POLYS = st.one_of(
    _rational_polys(1, 8),
    st.builds(lambda g, h: g * h, _rational_polys(1, 4), _rational_polys(1, 4)),
    st.builds(lambda g: g * g, _rational_polys(1, 4)),
    _lc_meets_disc(),
)


@settings(max_examples=300, deadline=None)
@given(f=POLYS)
@example(f=RationalPoly((1, 0, 0, 0, 1)))  # x^4 + 1, reducible mod every prime
@example(f=RationalPoly((1, 0, -10, 0, 1)))  # minimal polynomial of sqrt2 + sqrt3
@example(f=RationalPoly((576, 0, -960, 0, 352, 0, -40, 0, 1)))  # of sqrt2 + sqrt3 + sqrt5
@example(f=RationalPoly((-1, 0, 4)) * RationalPoly((1, 0, 0, 2)))  # 2 divides lc and disc
@example(f=RationalPoly((0, 1, 1, 2)))  # x (2x^2 + x + 1): 2 divides lc, not disc = -7
def test_matches_factor_every_prime_oracle(f):
    assert is_irreducible_over_rationals(f) == _factor_every_prime_oracle(f)


def _decided_by_cycle_types(f: RationalPoly) -> bool:
    """An irreducible image or an empty degree-set intersection among the
    first five good primes, read from the public cycle types."""
    possible = set(range(1, f.degree))
    good = 0
    for p in primes_above(1):
        try:
            possible &= _subset_sums(cycle_type_mod_p(f, p))
        except BadPrime:
            continue
        good += 1
        if good == 5:
            return not possible


@settings(max_examples=150, deadline=None)
@given(f=POLYS)
@example(f=RationalPoly((1, 0, 0, 0, 1)))
@example(f=RationalPoly((576, 0, -960, 0, 352, 0, -40, 0, 1)))
def test_factor_mod_p_runs_at_most_once_per_decision(f):
    calls = []

    def spy(g, p):
        calls.append(p)
        return factor_mod_p(g, p)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(irreducibility, "factor_mod_p", spy)
        is_irreducible_over_rationals(f)
    if f.degree == 1 or discriminant(f) == 0 or _decided_by_cycle_types(f):
        assert calls == []
    else:
        assert len(calls) == 1


@pytest.mark.parametrize(
    "f",
    [
        RationalPoly((1, 1, 1, 1, 1, 1, 1)),  # Phi_7: an irreducible image decides
        RationalPoly((1, 0, 0, 0, 1)),  # x^4 + 1: reducible mod every prime, so Hensel lifting
        RationalPoly((576, 0, -960, 0, 352, 0, -40, 0, 1)),  # sqrt2 + sqrt3 + sqrt5, likewise
        RationalPoly((Fraction(-2, 3), Fraction(1, 7), 0, Fraction(1, 3))),  # (x^3 - 2)/3 + x/7
    ],
)
def test_one_monic_model_per_decision(f):
    # the discriminant, the cycle types and Hensel lifting all read the one
    # integer model, so f is rescaled once per decision
    calls = []
    original = poly._monic_model

    def spy(g):
        calls.append(g)
        return original(g)

    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.startswith("traceforms") and getattr(module, "_monic_model", None) is original:
                patch.setattr(module, "_monic_model", spy)
        is_irreducible_over_rationals(f)
    assert calls == [f]
