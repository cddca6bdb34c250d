import hashlib
import math
import random
from fractions import Fraction

import pytest
from poly_oracles import distinct_degree
from quadform_oracles import squarefree_part

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
)
from traceforms import galois
from traceforms.algebra import modpoly
from traceforms.algebra.intmath import FACTOR_LIMIT
from traceforms.algebra.irreducibility import _open_degrees
from traceforms.algebra.modpoly import CYCLE_TYPE_BATCH, mod_reduce
from traceforms.algebra.poly import _integer_model
from traceforms.galois import (
    CERTIFIED,
    INCONCLUSIVE,
    CycleTypeSample,
    NotSquarefree,
    generic_experiment,
    sample_cycle_types,
    sn_certificate,
)
from traceforms.serialize import canonical_dumps, matrix_to_json, poly_to_json, rational_to_str

X = RationalPoly((0, 1))
X2_MINUS_2 = RationalPoly((-2, 0, 1))
X3_MINUS_X_MINUS_1 = RationalPoly((-1, -1, 0, 1))


def _sample(counts):
    return CycleTypeSample(f=X, counts=counts, primes_used=sum(counts.values()), primes_skipped=0)


def test_sample_examples():
    s = sample_cycle_types(RationalPoly((-1, 1)), 5, prime_floor=2)
    assert s.counts == {(1,): 5}

    s = sample_cycle_types(X2_MINUS_2, 5, prime_floor=2)
    assert s.counts == {(2,): 4, (1, 1): 1}  # 2 is a QR mod 7 only among 3,5,7,11,13
    assert s.primes_used == 5 and s.primes_skipped == 0

    s = sample_cycle_types(X2_MINUS_2, 5, prime_floor=1)
    assert s.primes_skipped == 1  # p = 2 divides disc = 8

    with pytest.raises(NotSquarefree):
        sample_cycle_types(RationalPoly((1, -2, 1)), 5)  # (x - 1)^2


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


def test_packed_walk_matches_mod_pow_oracle():
    # f = charpoly(A diag) as the galois bench draws it (A symmetric, entries
    # bounded by 20), one quintic and one sextic; the sextic walk skips 2 primes
    for diag in ([3, -1, 4, -1, 5], [2, -7, 1, 8, -2, 8]):
        f = charpoly(Matrix.random_symmetric(len(diag), 20, random.Random(1)) * Matrix.diagonal(diag))
        g, b, disc = _integer_model(f)
        counts = {}
        used = skipped = 0
        for p in primes_above(100):
            if used == 300:
                break
            if b % p == 0 or disc % p == 0:
                skipped += 1
                continue
            blocks = distinct_degree(mod_reduce(g, p), p)
            t = tuple(sorted(d for block, d in blocks for _ in range((len(block) - 1) // d)))
            counts[t] = counts.get(t, 0) + 1
            used += 1
        s = sample_cycle_types(f, 300, 100)
        assert (s.counts, s.primes_skipped) == (counts, skipped)
    assert skipped == 2


def test_walk_runs_one_chain_per_batch(monkeypatch):
    # 300 good primes above 100 on a quintic: every prime exceeds n and the
    # trace and parity decide every pattern, so the walk runs one Frobenius
    # chain per batch of CYCLE_TYPE_BATCH primes, not one per prime
    chains = []
    real = modpoly._frobenius
    monkeypatch.setattr(modpoly, "_frobenius", lambda f, primes: chains.append(len(primes)) or real(f, primes))
    s = sample_cycle_types(RationalPoly((-1, -1, 0, 0, 0, 1)), 300, 100)
    assert s.primes_used == 300
    assert len(chains) == math.ceil(300 / CYCLE_TYPE_BATCH) == 19
    assert chains == [CYCLE_TYPE_BATCH] * 18 + [300 - 18 * CYCLE_TYPE_BATCH]


def test_walk_above_the_degree_runs_no_lone_chain_and_no_gcd(monkeypatch):
    # 300 good primes above 100 on x^n - x - 1: at n = 6, 7 the batch's
    # traces of Frobenius and its square, with the parity, decide every
    # pattern, the rootless ones included, so no prime runs a Frobenius
    # chain alone and no gcd runs; at n = 8..16 a prime that they leave open
    # (R >= 8) splits on its batch's rows, so still no prime runs a chain
    # alone, and every gcd runs mod one of the sampled primes, never mod
    # their product
    lone, gcds = [], []
    frobenius, gcd = modpoly._frobenius, modpoly.mod_gcd

    def counted_frobenius(f, primes):
        if len(primes) == 1:
            lone.append(primes[0])
        return frobenius(f, primes)

    monkeypatch.setattr(modpoly, "_frobenius", counted_frobenius)
    monkeypatch.setattr(modpoly, "mod_gcd", lambda a, b, q: gcds.append(q) or gcd(a, b, q))
    open_primes = 0
    for n in range(6, 17):
        f = RationalPoly((-1, -1) + (0,) * (n - 2) + (1,))
        gcds.clear()
        s = sample_cycle_types(f, 300, 100)
        assert s.primes_used == 300
        assert sum(c for t, c in s.counts.items() if n - t.count(1) >= 6) > 50, s.counts
        rests = [n - t.count(1) - 2 * t.count(2) for t in s.counts for _ in range(s.counts[t])]
        open_primes += sum(rest >= 8 for rest in rests)
        sampled = set(modpoly._good_primes(*_integer_model(f)[1:], 100, 300)[0])
        assert set(gcds) <= sampled and (gcds == []) == (n <= 7), n
    assert lone == [] and open_primes > 300


def test_decision_at_small_degree_runs_one_chain_and_no_gcd(monkeypatch):
    # the complete decision's five primes above n share one Frobenius chain,
    # and at n <= 7 their traces and parities decide every pattern, so when
    # the patterns alone decide irreducibility it runs that one chain and no
    # gcd
    chains, gcds = [], []
    frobenius, gcd = modpoly._frobenius, modpoly.mod_gcd
    monkeypatch.setattr(modpoly, "_frobenius", lambda f, primes: chains.append(len(primes)) or frobenius(f, primes))
    monkeypatch.setattr(modpoly, "mod_gcd", lambda a, b, q: gcds.append(q) or gcd(a, b, q))
    rng = random.Random(48)
    decided = 0
    for _ in range(60):
        n = rng.randint(2, 7)
        f = RationalPoly([rng.randint(-9, 9) for _ in range(n)] + [rng.choice([1, 2, 3])])
        _, b, disc = _integer_model(f)
        if disc == 0 or _open_degrees(n, [cycle_type_mod_p(f, p) for p in modpoly._good_primes(b, disc, n, 5)[0]]):
            continue
        chains.clear()
        gcds.clear()
        assert is_irreducible_over_rationals(f)
        assert chains == [5] and gcds == [], (f, chains, gcds)
        decided += 1
    assert decided > 30, decided


def test_frequency_reads_unsorted_patterns():
    s = sample_cycle_types(X3_MINUS_X_MINUS_1, 100)
    assert s.frequency((1, 2)) == s.frequency((2, 1)) == Fraction(1, 2)


def test_negative_prime_budget_is_refused():
    # refused as generic_experiment refuses it, not read as an empty sample
    for run in (
        lambda: sample_cycle_types(X3_MINUS_X_MINUS_1, -3),
        lambda: generic_experiment([1, 1, 1], 9, -3),
    ):
        with pytest.raises(ValueError, match="prime budget must be non-negative"):
            run()
    assert sample_cycle_types(X3_MINUS_X_MINUS_1, 0).counts == {}


def test_prime_walk_stays_in_proven_range():
    with pytest.raises(ValueError, match="FACTOR_LIMIT"):
        sample_cycle_types(X3_MINUS_X_MINUS_1, 5, prime_floor=FACTOR_LIMIT - 1)
    assert sample_cycle_types(X3_MINUS_X_MINUS_1, 0, prime_floor=FACTOR_LIMIT - 1).primes_used == 0


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
    # the model's discriminant names separability, and only a separable f is
    # sampled and, when the sample leaves it open, decided in full
    outcomes = {}
    for seed in (4, 0, 3):
        r = generic_experiment([1, 1], 1, 20, seed=seed)
        assert r.separable == is_separable(r.f)
        assert r.irreducible == is_irreducible_over_rationals(r.f)
        assert (r.cycle_stats is not None) == r.irreducible
        outcomes[seed] = (r.separable, r.irreducible)
    assert outcomes == {4: (False, False), 0: (True, False), 3: (True, True)}


def _experiment_oracle(diag, bound, budget, seed):
    """generic_experiment composed from the public routines: the complete
    irreducibility decision first, then the sample of an irreducible f."""
    a = Matrix.random_symmetric(len(diag), bound, random.Random(seed))
    f = charpoly(a * Matrix.diagonal(diag))
    irreducible = is_irreducible_over_rationals(f)
    separable = irreducible or is_separable(f)
    stats = sample_cycle_types(f, budget) if irreducible else None
    verdict = sn_certificate(stats, len(diag)) if irreducible else INCONCLUSIVE
    return f, separable, irreducible, verdict, stats


def test_sample_witness_matches_the_complete_decision(monkeypatch):
    # the sample's degree-set witness decides irreducibility, and the
    # complete decision runs only when the sample leaves a factor degree
    # open: every report equals the public decisions composed, over n = 2..8,
    # bounds 1..3, diagonals with repeated entries and budgets 0, 1, 5, 300
    fallbacks = []
    real = galois._irreducible
    monkeypatch.setattr(galois, "_irreducible", lambda *model: fallbacks.append(model) or real(*model))
    rng = random.Random(47)
    reducible = inseparable = 0
    for trial in range(640):
        n = rng.randint(2, 8)
        diag = [rng.choice([1, 1, -1, 2, 2, -3, 5]) for _ in range(n)]
        bound = rng.randint(1, 3)
        budget = rng.choice([0, 1, 5, 5, 300])
        r = generic_experiment(diag, bound, budget, seed=trial)
        f, separable, irreducible, verdict, stats = _experiment_oracle(diag, bound, budget, trial)
        assert r.f == f and (r.separable, r.irreducible) == (separable, irreducible), (diag, bound, trial)
        assert r.sn_verdict == verdict and r.cycle_stats == stats, (diag, bound, budget, trial)
        reducible += separable and not irreducible
        inseparable += not separable
    reached = (reducible, inseparable, len(fallbacks))
    assert reducible > 20 and inseparable > 5 and len(fallbacks) > 20, reached


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
    for f, n in ((X2_MINUS_2, 2), (X3_MINUS_X_MINUS_1, 3), (RationalPoly((-1, -1, 0, 0, 1)), 4)):
        s = sample_cycle_types(f, 300, prime_floor=100)
        assert sn_certificate(s, n) == CERTIFIED
        ncycle = s.frequency((n,))
        assert abs(ncycle - Fraction(1, n)) < Fraction(1, 10)
        transposition = s.frequency(tuple([1] * (n - 2) + [2]))
        class_proportion = Fraction(math.comb(n, 2), math.factorial(n))
        assert abs(transposition - class_proportion) < Fraction(1, 10)


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


def _report_json(r):
    # the fields of a SpecReport as `traceforms galois` prints them, with the
    # counts also listed in the order the walk first met each pattern
    stats = r.cycle_stats
    return {
        "n": r.n,
        "diag": [rational_to_str(e) for e in r.diag],
        "seed": r.seed,
        "A": matrix_to_json(r.A),
        "f": poly_to_json(r.f),
        "separable": r.separable,
        "irreducible": r.irreducible,
        "sn_verdict": r.sn_verdict,
        "cycle_stats": None if stats is None else _sample_json(stats),
    }


def _sample_json(s):
    return {
        "counts": [[list(t), c] for t, c in s.counts.items()],
        "primes_used": s.primes_used,
        "primes_skipped": s.primes_skipped,
    }


# generic_experiment(diag, 20, 300, seed) for n = 2..8, seeds 1..3, on the
# mixed-sign diagonals 1, -2, 3/2, -4, 5/2, ... of length n; then
# sample_cycle_types(f, 300, prime_floor=2) for the three polynomials below
GALOIS_SHA256 = "041d9577b44bfbfd748e5f3d47d112633bb0bb85a682209e3b4f4f4d16f82f4a"
FLOOR_2_POLYS = (
    RationalPoly((Fraction(1, 3), Fraction(-5, 7), 0, Fraction(3, 2))),  # bad at 3, 7 and 2087
    RationalPoly((-1, -1, 0, 0, 0, 1)),  # x^5 - x - 1, group S_5
    RationalPoly((3, -7, 0, 0, 0, 0, 0, 1)),  # x^7 - 7x + 3, group PSL(2, 7)
)


def test_galois_outputs_are_pinned():
    reports = []
    for n in range(2, 9):
        diag = [(-1) ** i * Fraction(i + 1, 1 + i % 2) for i in range(n)]
        reports += [_report_json(generic_experiment(diag, 20, 300, seed)) for seed in (1, 2, 3)]
    samples = [_sample_json(sample_cycle_types(f, 300, prime_floor=2)) for f in FLOOR_2_POLYS]
    blob = canonical_dumps({"experiments": reports, "floor_2": samples})
    assert hashlib.sha256(blob.encode()).hexdigest() == GALOIS_SHA256
