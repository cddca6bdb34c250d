"""The four benchmark workloads: seeded inputs, timed steps and known-answer checks.

Every workload turns (seed, op index) into one input, deterministically, and
runs it in two timed steps:

* `op` issues the result and renders it as canonical JSON;
* `verify` parses that JSON back and checks it through the library, the way
  a consumer of the output would (a certificate is checked, the premises of
  an S_n verdict are re-decided, an equivalence verdict or a group report that
  carries no certificate is recomputed).

`check` then compares the result with an answer the benchmark knows from how
it built the input, outside the timed region.  `corruptions` yields wrong
outputs that `check` must reject, so that no check is vacuous.

Inputs are stratified by op index (dimension and shape cycle with a fixed
period), and runs are whole periods, so every run sees the same mix and only
the seeded details differ.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction


class CheckFailed(Exception):
    """An output disagrees with the known answer."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ----------------------------------------------------------------------------
# Plain exact helpers on lists of Fractions; deliberately independent of the
# library's Matrix and RationalPoly, so the checks do not share its code.


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _det(rows) -> Fraction:
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            factor = a[r][c] / a[c][c]
            if factor:
                for k in range(c, n):
                    a[r][k] -= factor * a[c][k]
    return det


def _unit_upper(rng: random.Random, n: int, bound: int):
    """Integer unit upper triangular matrix with entries in [-bound, bound] above the diagonal."""
    return [[1 if i == j else (rng.randint(-bound, bound) if j > i else 0) for j in range(n)] for i in range(n)]


def _is_prime(k: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, exact below 3.3 * 10**24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if k < 2:
        return False
    for b in bases:
        if k % b == 0:
            return k == b
    d, r = k - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, k)
        if x in (1, k - 1):
            continue
        for _ in range(r - 1):
            x = x * x % k
            if x == k - 1:
                break
        else:
            return False
    return True


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        k = rng.randrange(lo, hi)
        if _is_prime(k):
            return k


def _congruent(q, d):
    return _matmul(_matmul(_transpose(q), d), q)


def _diag(entries):
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _primes_above(lo: int, count: int) -> list[int]:
    out, k = [], lo + 1
    while len(out) < count:
        if _is_prime(k):
            out.append(k)
        k += 1
    return out


def _root_count(ints: list[int], p: int) -> int:
    """Brute-force number of roots of the integer polynomial in GF(p)."""
    roots = 0
    for x in range(p):
        acc = 0
        for c in reversed(ints):
            acc = (acc * x + c) % p
        roots += acc == 0
    return roots


# ----------------------------------------------------------------------------


class Workload:
    name = ""
    period = 1  # ops in one balanced round of the input strata; runs are whole periods
    period_s = 1.0  # nominal-speed seconds one period's ops take at the seed commit (Python 3.11)
    traced_periods = 1  # periods the traced run covers

    def make_input(self, lib, seed: int, index: int, stream: str = "timed") -> dict:
        raise NotImplementedError

    def warmup_inputs(self, lib) -> list[dict]:
        """Two inputs from a separate stream that no seed's timed inputs share.

        They do not depend on the seed, so set-up costs the same for every seed.
        """
        return [self.make_input(lib, 0, i, "warmup") for i in range(2)]

    def op(self, lib, inp: dict) -> str:
        raise NotImplementedError

    def verify(self, lib, inp: dict, text: str):
        raise NotImplementedError

    def check(self, lib, inp: dict, text: str, verdict) -> None:
        raise NotImplementedError

    def positive(self, text: str, verdict) -> bool:
        """The op's verdict counted by certified_share."""
        raise NotImplementedError

    def corruptions(self, lib, inp: dict, text: str, verdict):
        """(label, callable) pairs; each callable must raise CheckFailed."""
        raise NotImplementedError


class Certify(Workload):
    """realize on non-degenerate forms of dimension 2-8, diagonal and dense."""

    name = "certify"
    # Dimensions 2-8 with alternating shapes.  The odd period length makes
    # each position alternate shapes across periods.  Eight ops below
    # dimension 6, three at 6 and eight above put the median in the middle of
    # the dimension-6 stratum, where the first candidate almost always
    # succeeds, so the median does not hinge on how many inputs needed a
    # second one; dimension 8 four times puts the tail percentile inside the
    # dense dimension-8 stratum.
    DIMS = (2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 6, 7, 7, 7, 7, 8, 8, 8, 8)
    period = len(DIMS)
    period_s = 1.65
    traced_periods = 2
    TAMPER_EVERY = 4
    EXPECTED_CLAUSE = {"f": "charpoly_mismatch", "gram": "gram_mismatch", "P": "congruence_mismatch"}

    def make_input(self, lib, seed, index, stream="timed"):
        rng = random.Random(f"certify:{stream}:{seed}:{index}")
        n = self.DIMS[index % self.period]
        if index % 2 == 0:
            gram = _diag([rng.choice([-1, 1]) * rng.randint(1, 12) for _ in range(n)])
        else:
            while True:
                gram = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        gram[i][j] = gram[j][i] = rng.randint(-4, 4)
                if _det(gram) != 0:
                    break
        tamper = None
        if index % self.TAMPER_EVERY == self.TAMPER_EVERY - 1:
            tamper = ("f", "gram", "P")[(index // self.TAMPER_EVERY) % 3]
        return {"index": index, "gram": gram, "policy_seed": rng.randrange(1 << 16), "tamper": tamper}

    def op(self, lib, inp):
        form = lib.tf.SymmetricForm(lib.tf.Matrix(inp["gram"]))
        cert = lib.tf.realize(form, lib.tf.SearchPolicy(seed=inp["policy_seed"]))
        return lib.serialize.canonical_dumps(lib.serialize.certificate_to_json(cert))

    def verify(self, lib, inp, text):
        cert = lib.serialize.certificate_from_json(json.loads(text))
        return lib.tf.verify_certificate(cert).ok

    def check(self, lib, inp, text, verdict):
        data = json.loads(text)
        n = len(inp["gram"])
        _require(verdict is True, "certificate did not verify")
        d = _fractions(data["D"]["gram"])
        _require(d == _fractions(inp["gram"]), "certificate is for another form")
        f = [Fraction(c) for c in data["f"]]
        _require(len(f) == n + 1 and f[-1] == 1, "f is not monic of degree n")
        p, gram = _fractions(data["P"]), _fractions(data["gram"])
        _require(_congruent(p, d) == gram, "P^T D P != gram")
        _require(_det(p) != 0, "P is singular")
        if inp["tamper"]:
            self.check_tamper(lib, data, inp["tamper"], self.EXPECTED_CLAUSE[inp["tamper"]])

    @staticmethod
    def check_tamper(lib, data, part, expected):
        """Alter one part of the certificate; verify must reject it with `expected`."""
        data = json.loads(json.dumps(data))
        if part == "f":
            data["f"][0] = str(Fraction(data["f"][0]) + 1)
        elif part == "gram":
            data["gram"][0][0] = str(Fraction(data["gram"][0][0]) + 1)
        else:  # doubling column 0 keeps P invertible and scales gram[0][0] = d_1 by 4
            for row in data["P"]:
                row[0] = str(2 * Fraction(row[0]))
        check = lib.tf.verify_certificate(lib.serialize.certificate_from_json(data))
        clause = "" if check.ok else check.failed_clause
        _require(clause == expected, f"tampered {part} gave {clause!r}, expected {expected!r}")

    def positive(self, text, verdict):
        return verdict is True

    def corruptions(self, lib, inp, text, verdict):
        data = json.loads(text)
        bad_p = json.loads(text)
        bad_p["P"][0][0] = str(Fraction(bad_p["P"][0][0]) + 1)
        other = json.loads(text)
        other["D"]["gram"][0][0] = str(Fraction(other["D"]["gram"][0][0]) * 2)
        return [
            ("corrupted P", lambda: self.check(lib, inp, json.dumps(bad_p), verdict)),
            ("form swapped", lambda: self.check(lib, inp, json.dumps(other), verdict)),
            ("verify said no", lambda: self.check(lib, inp, text, False)),
            ("tamper rejected for the wrong reason", lambda: self.check_tamper(lib, data, "f", "gram_mismatch")),
        ]


class Galois(Workload):
    """generic_experiment at n = 3-6, coefficient bound 20, 300 primes above 100."""

    name = "galois"
    N = (3, 4, 5, 6, 6)  # puts the median inside n = 5 and the tail inside n = 6
    period = len(N)
    period_s = 1.2
    traced_periods = 4
    BOUND = 20
    PRIMES = 300
    FLOOR = 100
    SAMPLED_PRIMES = 3

    def __init__(self):
        self._walk = _primes_above(self.FLOOR, self.PRIMES)

    def make_input(self, lib, seed, index, stream="timed"):
        rng = random.Random(f"galois:{stream}:{seed}:{index}")
        n = self.N[index % self.period]
        diag = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(n)]
        primes = rng.sample(self._walk, self.SAMPLED_PRIMES)
        return {"index": index, "diag": diag, "seed": rng.randrange(1 << 30), "primes": primes}

    def op(self, lib, inp):
        report = lib.tf.generic_experiment(inp["diag"], self.BOUND, self.PRIMES, seed=inp["seed"])
        stats = None
        if report.cycle_stats is not None:
            stats = {
                "counts": {",".join(map(str, t)): c for t, c in sorted(report.cycle_stats.counts.items())},
                "primes_used": report.cycle_stats.primes_used,
                "primes_skipped": report.cycle_stats.primes_skipped,
            }
        ser = lib.serialize
        return ser.canonical_dumps(
            {
                "n": report.n,
                "diag": [ser.rational_to_str(e) for e in report.diag],
                "seed": report.seed,
                "A": ser.matrix_to_json(report.A),
                "f": ser.poly_to_json(report.f),
                "separable": report.separable,
                "irreducible": report.irreducible,
                "sn_verdict": report.sn_verdict,
                "cycle_stats": stats,
            }
        )

    def verify(self, lib, inp, text):
        """Re-decide the verdict's premises: f = charpoly(A D), f irreducible, the patterns."""
        data = json.loads(text)
        ser = lib.serialize
        f = ser.poly_from_json(data["f"])
        a = ser.matrix_from_json(data["A"])
        d = lib.tf.Matrix.diagonal([ser.rational_from_str(x) for x in data["diag"]])
        if lib.tf.charpoly(a * d) != f:
            return "charpoly_mismatch"
        if not (lib.tf.is_separable(f) and lib.tf.is_irreducible_over_rationals(f)):
            return lib.tf.INCONCLUSIVE
        stats = data["cycle_stats"]
        counts = _parse_counts(stats["counts"])
        sample = lib.tf.CycleTypeSample(f, counts, stats["primes_used"], stats["primes_skipped"])
        return lib.tf.sn_certificate(sample, data["n"])

    def check(self, lib, inp, text, verdict):
        data = json.loads(text)
        n = len(inp["diag"])
        _require(data["n"] == n and data["sn_verdict"] == verdict, "verdict does not re-derive")
        a = _fractions(data["A"])
        _require(a == _transpose(a), "A is not symmetric")
        _require(all(abs(x) <= self.BOUND for row in a for x in row), "A exceeds the bound")
        f = [Fraction(c) for c in data["f"]]
        m = _matmul(a, _diag([Fraction(d) for d in inp["diag"]]))
        for x in range(n + 1):
            shifted = [[(x if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
            value = sum(c * x**k for k, c in enumerate(f))
            _require(value == _det(shifted), f"f != det(xI - A D) at x = {x}")
        if not data["irreducible"]:
            return
        stats = data["cycle_stats"]
        counts = _parse_counts(stats["counts"])
        _require(stats["primes_used"] == self.PRIMES, "wrong number of primes used")
        _require(sum(counts.values()) == self.PRIMES, "counts do not add up")
        for t in counts:
            _require(list(t) == sorted(t) and all(x >= 1 for x in t) and sum(t) == n, f"{t} is not a partition of {n}")
        ints = _integer_coeffs(f)
        poly = lib.serialize.poly_from_json(data["f"])
        for p in inp["primes"]:
            try:
                cycle_type = lib.tf.cycle_type_mod_p(poly, p)
            except lib.tf.BadPrime:
                continue  # p divides the discriminant; the walk skipped it too
            self.check_prime(ints, p, cycle_type, counts)

    @staticmethod
    def check_prime(ints, p, cycle_type, counts):
        """At a good prime, the 1-parts are the roots, and the pattern was seen."""
        _require(cycle_type.count(1) == _root_count(ints, p), f"cycle type {cycle_type} mod {p} miscounts roots")
        _require(cycle_type in counts, f"cycle type {cycle_type} mod {p} missing from the counts")

    def positive(self, text, verdict):
        return verdict == "certified"

    def corruptions(self, lib, inp, text, verdict):
        data = json.loads(text)
        flipped = "inconclusive" if verdict == "certified" else "certified"
        not_partition = json.loads(text)
        bad_counts = not_partition["cycle_stats"]["counts"]
        key = next(iter(bad_counts))
        bad_counts[key + ",1"] = bad_counts.pop(key)
        ints = _integer_coeffs([Fraction(c) for c in data["f"]])
        counts = _parse_counts(data["cycle_stats"]["counts"])
        p = inp["primes"][0]
        true_type = lib.tf.cycle_type_mod_p(lib.serialize.poly_from_json(data["f"]), p)
        moved = json.loads(text)
        moved_counts = moved["cycle_stats"]["counts"]
        moved_counts[_key(_swap_ones(true_type))] = moved_counts.pop(_key(true_type)) + moved_counts.get(
            _key(_swap_ones(true_type)), 0
        )
        return [
            ("flipped verdict", lambda: self.check(lib, inp, text, flipped)),
            ("count under a non-partition", lambda: self.check(lib, inp, json.dumps(not_partition), verdict)),
            ("swapped cycle type", lambda: self.check_prime(ints, p, _swap_ones(true_type), counts)),
            ("pattern moved in the counts", lambda: self.check(lib, dict(inp, primes=[p]), json.dumps(moved), verdict)),
        ]


def _key(cycle_type) -> str:
    return ",".join(map(str, cycle_type))


def _parse_counts(counts: dict) -> dict:
    return {tuple(int(x) for x in key.split(",")): c for key, c in counts.items()}


def _integer_coeffs(f: list[Fraction]) -> list[int]:
    lcm = 1
    for c in f:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    return [int(c * lcm) for c in f]


def _swap_ones(cycle_type: tuple) -> tuple:
    """Another partition of the same n with a different number of 1-parts."""
    parts = list(cycle_type)
    if parts.count(1) >= 2:
        parts.remove(1)
        parts.remove(1)
        parts.append(2)
    else:
        largest = parts.pop()
        parts += [1, largest - 1]
    return tuple(sorted(parts))


class Classify(Workload):
    """equivalent plus is_isotropic on dense forms of dimension 3-8.

    Each form is U^T diag(a) U for a dense unit upper triangular U, so
    symmetric elimination returns a itself and the seeded entries fix the
    factorization work of an op.  Every entry is a small cofactor times a
    prime in [PRIME_LO, PRIME_HI), which trial division runs up to the square
    root of.

    The second form of a pair is Q^T D Q for another unit upper triangular Q
    (equivalent), or the same construction with one entry multiplied by a
    small prime, which changes the discriminant's square class (not
    equivalent).  In the "hard" ops, four per period, that entry is instead a
    product of two primes above 10^6: trial division runs to its 10^6 bound
    and Pollard rho splits the rest.  The first form contains <x, -x>
    (isotropic) or has entries of one sign (definite, anisotropic).
    """

    name = "classify"
    # Dimension 5 three times, and the hard ops in the top two slots: of the
    # 28 cheap ops of a period, 8 lie below dimension 5, 12 at it and 8 above,
    # so the median falls inside the dimension-5 ops.
    DIMS = (3, 4, 5, 5, 5, 6, 7, 8)
    period = 4 * len(DIMS)  # each dimension slot with the four (equivalent, isotropic) kinds
    period_s = 2.3
    traced_periods = 1
    PRIME_LO, PRIME_HI = 4 * 10**7, 6 * 10**7
    HARD_LO, HARD_HI = 10**6, 2 * 10**6
    HARD_SLOTS = (6, 7)  # the inequivalent ops of these dimension slots are hard

    def make_input(self, lib, seed, index, stream="timed"):
        rng = random.Random(f"classify:{stream}:{seed}:{index}")
        slot = (index // 4) % len(self.DIMS)
        n = self.DIMS[slot]
        kind = index % 4
        equivalent = kind % 2 == 0
        isotropic = kind >= 2
        hard = not equivalent and slot in self.HARD_SLOTS

        def entry():
            return rng.randint(1, 30) * _random_prime(rng, self.PRIME_LO, self.PRIME_HI)

        a = [entry() for _ in range(n)]
        if isotropic:
            a[1] = -a[0]
            a[2:] = [rng.choice([-1, 1]) * x for x in a[2:]]
        elif rng.random() < 0.5:
            a = [-x for x in a]
        u = _unit_upper(rng, n, 2)
        q = _unit_upper(rng, n, 1)
        first = _congruent(u, _diag(a))
        if equivalent:
            second = _congruent(q, first)
        else:
            b = list(a)
            j = rng.randrange(n)
            if hard:
                b[j] = (1 if b[j] > 0 else -1) * _random_prime(rng, self.HARD_LO, self.HARD_HI) * _random_prime(
                    rng, self.HARD_LO, self.HARD_HI
                )
            else:
                b[j] *= rng.choice([2, 3, 5, 7, 11, 13])
            second = _congruent(_matmul(u, q), _diag(b))
        return {"index": index, "forms": [first, second], "equivalent": equivalent, "isotropic": isotropic}

    def op(self, lib, inp):
        first, second = (lib.tf.SymmetricForm(lib.tf.Matrix(g)) for g in inp["forms"])
        same = lib.tf.equivalent(first, second)
        isotropic = lib.tf.is_isotropic(first)
        ser = lib.serialize
        return ser.canonical_dumps(
            {"forms": [ser.form_to_json(first), ser.form_to_json(second)], "equivalent": same, "isotropic": isotropic}
        )

    def verify(self, lib, inp, text):
        """Forms carry no equivalence certificate, so checking means re-deciding."""
        first, second = (lib.serialize.form_from_json(f) for f in json.loads(text)["forms"])
        return lib.tf.equivalent(first, second)

    def check(self, lib, inp, text, verdict):
        data = json.loads(text)
        _require([_fractions(f["gram"]) for f in data["forms"]] == [_fractions(g) for g in inp["forms"]], "forms changed")
        _require(data["equivalent"] is inp["equivalent"], f"equivalent should be {inp['equivalent']}")
        _require(verdict is inp["equivalent"], f"re-decided equivalence should be {inp['equivalent']}")
        _require(data["isotropic"] is inp["isotropic"], f"isotropic should be {inp['isotropic']}")

    def positive(self, text, verdict):
        return verdict is True

    def corruptions(self, lib, inp, text, verdict):
        flipped_eq = json.loads(text)
        flipped_eq["equivalent"] = not flipped_eq["equivalent"]
        flipped_iso = json.loads(text)
        flipped_iso["isotropic"] = not flipped_iso["isotropic"]
        return [
            ("flipped equivalence", lambda: self.check(lib, inp, json.dumps(flipped_eq), verdict)),
            ("flipped re-decision", lambda: self.check(lib, inp, text, not verdict)),
            ("flipped isotropy", lambda: self.check(lib, inp, json.dumps(flipped_iso), verdict)),
        ]


class Groups(Workload):
    """construct_group plus verify_group over sweep_parameters(500), seeded order.

    A period is the whole sweep, so every run measures whole sweeps.
    """

    name = "groups"
    MAX_ORDER = 500
    SWEEP_SIZE = 278  # parameter sets sweep_parameters(500) accepts at the seed commit
    period = SWEEP_SIZE
    period_s = 8.4
    traced_periods = 1

    def __init__(self):
        self._params = {}

    def _sweep(self, lib, seed):
        if seed not in self._params:
            params = lib.groups.sweep_parameters(self.MAX_ORDER)
            _require(len(params) == self.SWEEP_SIZE, f"the sweep has {len(params)} parameter sets, not {self.SWEEP_SIZE}")
            random.Random(f"groups:{seed}").shuffle(params)
            self._params[seed] = params
        return self._params[seed]

    def make_input(self, lib, seed, index, stream="timed"):
        p, k, m = self._sweep(lib, seed)[index % self.SWEEP_SIZE]
        return {"index": index, "p": p, "k": k, "m": m}

    def warmup_inputs(self, lib):
        # p = 7 lies outside the swept primes (2, 3, 5), so these are disjoint
        # from the timed inputs; order 203 takes the exhaustive path, 301 not
        return [{"index": -1, "p": 7, "k": 1, "m": 29}, {"index": -2, "p": 7, "k": 1, "m": 43}]

    def op(self, lib, inp):
        group = lib.groups.construct_group(inp["p"], inp["k"], inp["m"])
        return lib.serialize.canonical_dumps(lib.groups.verify_group(group))

    def verify(self, lib, inp, text):
        """Re-check the report's three claims directly, without the exhaustive cross-check."""
        report = json.loads(text)
        params = report["params"]
        group = lib.groups.construct_group(params["p"], params["k"], params["m"])
        lemma_a = lib.groups.p_generated_subgroup(group) == frozenset(group.elements())
        derived = lib.groups.quotient_check_derived(group)
        indices = []
        for entry in report["lemma_c"]:
            h0, h1 = lib.groups.index_subgroups(group, entry["n"])
            indices.append([group.order // len(h0), group.order // len(h1)])
        return (
            lemma_a == report["lemma_a"]
            and derived == report["lemma_b"]["derived"]
            and indices == [[e["index_H0"], e["index_H1"]] for e in report["lemma_c"]]
        )

    def check(self, lib, inp, text, verdict):
        data = json.loads(text)
        p, k, m = inp["p"], inp["k"], inp["m"]
        _require(verdict is True, "re-checked claims differ from the report")
        _require([data["params"][x] for x in "pkm"] == [p, k, m], "report is for other parameters")
        _require(data["order"] == m * p**k, "wrong group order")
        _require(data["all_pass"] is True, f"a property failed for {(p, k, m)}")
        _require([e["n"] for e in data["lemma_c"]] == [d for d in range(1, m + 1) if m % d == 0], "index divisors missing")

    def positive(self, text, verdict):
        return json.loads(text)["all_pass"] is True

    def corruptions(self, lib, inp, text, verdict):
        failed = json.loads(text)
        failed["all_pass"] = False
        other = json.loads(text)
        other["order"] += 1
        return [
            ("property failed", lambda: self.check(lib, inp, json.dumps(failed), verdict)),
            ("wrong order", lambda: self.check(lib, inp, json.dumps(other), verdict)),
            ("re-check disagrees", lambda: self.check(lib, inp, text, False)),
        ]


WORKLOADS = {w.name: w for w in (Certify, Galois, Classify, Groups)}
