import math
import random
from fractions import Fraction

import pytest

from traceforms.algebra import (
    BadPrime,
    Matrix,
    RationalPoly,
    charpoly,
    cycle_type_mod_p,
    discriminant,
    is_irreducible_over_rationals,
    is_separable,
    primes_above,
    squarefree_part,
)
from traceforms.algebra.intmath import FACTOR_LIMIT
from traceforms.algebra.poly import _integer_model
from traceforms.galois import (
    CERTIFIED,
    INCONCLUSIVE,
    CycleTypeSample,
    NotSquarefree,
    block_split_check,
    generic_experiment,
    sample_cycle_types,
    sn_certificate,
)

X = RationalPoly.x()


def _sample(counts):
    return CycleTypeSample(f=X, counts=counts, primes_used=sum(counts.values()), primes_skipped=0)


def test_sample_examples():
    s = sample_cycle_types(RationalPoly((-1, 1)), 5, prime_floor=2)
    assert s.counts == {(1,): 5}

    s = sample_cycle_types(X * X - 2, 5, prime_floor=2)
    assert s.counts == {(2,): 4, (1, 1): 1}  # 2 is a QR mod 7 only among 3,5,7,11,13
    assert s.primes_used == 5 and s.primes_skipped == 0

    s = sample_cycle_types(X * X - 2, 5, prime_floor=1)
    assert s.primes_skipped == 1  # p = 2 divides disc = 8

    with pytest.raises(NotSquarefree):
        sample_cycle_types((X - 1) * (X - 1), 5)


def _tally_public(f, budget, floor):
    # the walk of sample_cycle_types, one public cycle_type_mod_p call per prime
    counts = {}
    used = 0
    bad = []
    for p in primes_above(floor):
        if used >= budget:
            break
        try:
            t = cycle_type_mod_p(f, p)
        except BadPrime:
            bad.append(p)
            continue
        counts[t] = counts.get(t, 0) + 1
        used += 1
    return counts, used, bad


def test_hoisted_walk_matches_public_cycle_types():
    # 3/2 x^3 - 5/7 x + 1/3 clears to 63 x^3 - 30 x + 14: lc 3^2 * 7, disc -2^2 3^5 7 2087
    f = RationalPoly((Fraction(1, 3), Fraction(-5, 7), 0, Fraction(3, 2)))
    _, b, disc = _integer_model(f)
    assert b == 63 and disc == -(2**2) * 3**5 * 7 * 2087
    for floor, bad in ((1, 3), (2080, 2087)):  # 3 divides lc, 2087 only the discriminant
        counts, used, bad_primes = _tally_public(f, 40, floor)
        assert bad in bad_primes
        s = sample_cycle_types(f, 40, floor)
        assert (s.counts, s.primes_used, s.primes_skipped) == (counts, used, len(bad_primes))


def test_prime_walk_stays_in_proven_range():
    with pytest.raises(ValueError, match="FACTOR_LIMIT"):
        sample_cycle_types(X**3 - X - 1, 5, prime_floor=FACTOR_LIMIT - 1)
    assert sample_cycle_types(X**3 - X - 1, 0, prime_floor=FACTOR_LIMIT - 1).primes_used == 0
    with pytest.raises(ValueError, match="FACTOR_LIMIT"):
        generic_experiment([1, 2, 3], 9, 5, prime_floor=FACTOR_LIMIT)


def test_sn_certificate_rules():
    assert sn_certificate(_sample({(2,): 3}), 2) == CERTIFIED
    assert sn_certificate(_sample({(1, 3): 2, (1, 1, 2): 1}), 4) == CERTIFIED
    assert sn_certificate(_sample({(4,): 30}), 4) == INCONCLUSIVE
    assert sn_certificate(_sample({(1,): 7}), 1) == CERTIFIED
    # transposition alone is enough only at n <= 3
    assert sn_certificate(_sample({(1, 2): 4}), 3) == CERTIFIED
    assert sn_certificate(_sample({(1, 1, 2): 4}), 4) == INCONCLUSIVE
    # a prime part above n/2 alone is not enough either
    assert sn_certificate(_sample({(1, 3): 4}), 4) == INCONCLUSIVE
    # n = 5: needs q in {3} plus transposition; (2, 3) carries the 3-cycle
    assert sn_certificate(_sample({(2, 3): 1, (1, 1, 1, 2): 1}), 5) == CERTIFIED
    # n = 6: 4 is not prime, 5 qualifies
    assert sn_certificate(_sample({(1, 1, 4): 9, (1, 1, 1, 1, 2): 9}), 6) == INCONCLUSIVE
    assert sn_certificate(_sample({(1, 5): 1, (1, 1, 1, 1, 2): 1}), 6) == CERTIFIED


def test_sn_certificate_soundness_regressions():
    # x^4 + 1: Galois group of order 4 (no 3-cycles, no transpositions)
    s = sample_cycle_types(RationalPoly((1, 0, 0, 0, 1)), 200, prime_floor=2)
    assert set(s.counts) <= {(1, 1, 1, 1), (2, 2)}
    assert sn_certificate(s, 4) == INCONCLUSIVE
    # x^4 + x^3 + x^2 + x + 1: cyclic of order 4
    s = sample_cycle_types(RationalPoly((1, 1, 1, 1, 1)), 200, prime_floor=2)
    assert set(s.counts) <= {(1, 1, 1, 1), (2, 2), (4,)}
    assert sn_certificate(s, 4) == INCONCLUSIVE


def test_generic_experiment_examples():
    r = generic_experiment([7], 9, 20, seed=5)
    assert r.irreducible and r.sn_verdict == CERTIFIED and r.f.degree == 1

    r = generic_experiment([1, 1, 1], 9, 200, seed=0)
    assert r.separable == is_separable(r.f)
    if r.irreducible:
        assert r.sn_verdict == CERTIFIED

    with pytest.raises(ValueError):
        generic_experiment([1, 0, 1], 9, 10, seed=1)


def test_generic_experiment_names_each_separability_outcome():
    # diag [1, 1], bound 1: seed 4 draws (x + 1)^2, seed 0 x^2 + x, seed 3 x^2 - 2;
    # irreducibility decides first and separability is only named after a "no"
    outcomes = {}
    for seed in (4, 0, 3):
        r = generic_experiment([1, 1], 1, 20, seed=seed)
        assert r.separable == is_separable(r.f)
        assert r.irreducible == is_irreducible_over_rationals(r.f)
        assert (r.cycle_stats is not None) == r.irreducible
        outcomes[seed] = (r.separable, r.irreducible)
    assert outcomes == {4: (False, False), 0: (True, False), 3: (True, True)}


def test_experiment_outputs_are_separable_when_irreducible():
    rng = random.Random(60)
    for trial in range(20):
        n = rng.randrange(1, 5)
        diag = [rng.randrange(-9, 10) or 1 for _ in range(n)]
        r = generic_experiment(diag, 9, 30, seed=trial)
        if r.irreducible:
            assert r.separable
        if r.sn_verdict == CERTIFIED:
            assert r.irreducible


def test_chebotarev_frequencies():
    # certified S_n polynomial: the n-cycle shows up with frequency ~ 1/n and
    # the transposition class with frequency ~ (n choose 2)/n!  * (n-2)!
    for f, n in ((X * X - 2, 2), (X**3 - X - 1, 3), (X**4 - X - 1, 4)):
        s = sample_cycle_types(f, 300, prime_floor=100)
        assert sn_certificate(s, n) == CERTIFIED
        ncycle = s.frequency((n,))
        assert abs(ncycle - Fraction(1, n)) < Fraction(1, 10)
        transposition = s.frequency(tuple([1] * (n - 2) + [2]))
        class_proportion = Fraction(math.comb(n, 2), math.factorial(n))
        assert abs(transposition - class_proportion) < Fraction(1, 10)


def test_block_split_identity():
    rng = random.Random(61)
    for n in range(2, 7):
        for _ in range(100):
            diag = [rng.choice([v for v in range(-9, 10) if v]) for _ in range(n)]
            rows = [[0] * n for _ in range(n)]
            rows[0][0] = rng.randrange(-9, 10)
            for i in range(1, n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = rng.randrange(-9, 10)
            assert block_split_check(diag, Matrix(rows))


def test_block_split_negative_control():
    # with a nonzero t_12 the would-be linear factor does not divide
    diag = [2, 3, 5]
    t = Matrix([[1, 1, 0], [1, 4, 2], [0, 2, -3]])
    f = charpoly(t * Matrix.diagonal([Fraction(v) for v in diag]))
    assert f(Fraction(diag[0] * t[0, 0])) != 0
    with pytest.raises(ValueError):
        block_split_check(diag, t)


def test_block_split_rejects_bad_shapes():
    with pytest.raises(ValueError):
        block_split_check([1, 2], Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(ValueError):
        block_split_check([1, 2], Matrix([[1, 0], [1, 1]]))


def test_discriminant_of_specializations_is_generically_nonsquare():
    # induction base seen through specializations: binary case discriminants
    # are almost never rational squares
    rng = random.Random(62)
    square_hits = 0
    trials = 200
    for _ in range(trials):
        d1 = rng.choice([v for v in range(-9, 10) if v])
        d2 = rng.choice([v for v in range(-9, 10) if v])
        t11, t22, t12 = (rng.randrange(-9, 10) for _ in range(3))
        m = Matrix([[t11 * d1, t12 * d2], [t12 * d1, t22 * d2]])
        f = charpoly(m)
        disc = discriminant(f)
        if disc == 0:
            continue
        if squarefree_part(disc.numerator * disc.denominator) == 1:
            square_hits += 1
    assert square_hits < trials // 10
