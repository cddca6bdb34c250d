"""Finite semidirect products Z/m x| Z/p^k and their structural properties.

A group element is a plain pair (a, x), a mod m and x mod p^k, multiplied by
(a, x)(b, y) = (a + alpha^x b, x + y) for a unit alpha of multiplicative
order p.  Three structural properties are machine-verified over parameter
sweeps: (a) the group is generated by its p-Sylow subgroups, (b) its only
quotient of order prime to p is trivial, and (c) for every n | m there are
subgroups of indices p^k n and n: H0 = <(n, 0)> and H1 = <(n, 0), (0, 1)>.

verify_group decides each property by a check of a few power and multiply
calls, a certifying check in the sense of McConnell, Mehlhorn, Näher and
Schweitzer, "Certifying algorithms", Computer Science Review 5 (2011):
  (a) with (1, x)^(p^k) = (s_x, 0) and step_x = m / gcd(s_x, m), the
      p-elements over x are the (a, x) with step_x | a, and they generate
      exactly {(a, x) : d | a}, d = gcd(step_0, ..., step_(p-1)): that set is
      a subgroup (dZ/m is alpha-stable), it holds every p-element, and it
      lies in their closure, as (0,1) and (step_x, x) (0,1)^(-x) = (step_x, 0)
      are in it.  s_x depends on x mod p alone, step_0 = m, and every x != 0
      (mod p) has step_x = step_1 (_p_steps gives the proof), so d = step_1
      and (a) holds exactly when (1, 1)^(p^k) = e.
  (b) derived from (a): a quotient of order prime to p kills every
      p-element, so it is trivial exactly when they generate the group.
  (c) (n,0)^(m/n) = e and (n,0)^(m/(n q)) != e for each prime q | m/n give
      |H0| = m/n; (0,1) has order p^k, prime to m, and conjugates (n,0) to an
      element (a, 0) with n | a, so it normalizes H0 and |H1| = (m/n) p^k.
      This witness holds on every group SemidirectGroup admits; should it
      fail, verify_group raises ArithmeticError naming n.
The closures stay public as the independent cross-check: p_generated_subgroup,
whose closure is the derived quotient check quotient_check_derived
(conjugation preserves element order, so the p-elements are
conjugation-stable and their closure is already normal), and index_subgroups.

The derived half of (b) is cross-checked against an exhaustive enumeration of
the normal subgroups for orders up to EXHAUSTIVE_MAX_ORDER, or when forced.
Every normal subgroup is the join of the normal closures of the conjugacy
classes it contains, so the enumeration takes one class closure per class of
cyclic subgroups (generators of one cyclic subgroup have the same closure)
and then every join of those closures, each built as the union of the cosets
N y (y in K) that make up N K.

Every closure runs Dimino's algorithm (Butler, Fundamental Algorithms for
Permutation Groups, LNCS 559, 1991): the first generator's cyclic group is a
walk of its powers, and each later generator outside the closure H so far
extends it by whole right cosets H t, so a product is taken about once per
element rather than once per element and generator.  The coset and the power
walk are the two helpers that build elements in bulk, for the joins and the
marking of cyclic generators too.

Validity of parameters: SemidirectGroup refuses anything but p prime, k and
m positive, p not dividing m, and alpha^p = 1 (mod m), and any order m p^k
above MAX_GROUP_ORDER; every proof here assumes the first four, and without
alpha^p = 1 the multiplication is not associative
(SemidirectGroup(2, 1, 15, alpha=2) would be no group).  Besides those and
p | phi(m), construct_group requires every prime factor q of m to satisfy
q = 1 (mod p).  That is exactly the condition under which a unit alpha of order p with
alpha - 1 invertible mod m exists, and the unit condition is what makes
(1,1) a p-element (its p^k-th power is (a (1-alpha^(p^k))/(1-alpha), 0),
a quotient that only collapses when 1-alpha is a unit).  Without it the
generation property (a) genuinely fails, e.g. m=15, p=2, alpha=4 fixes the
residues mod 3 and the p-elements generate a subgroup of order 10, not 30.
Both conditions read the one factorization of m: as p does not divide m, p
divides phi(m) = prod q^(e-1) (q - 1) exactly when some q = 1 (mod p).

Powers take the closed form (a (1 + beta + ... + beta^(n-1)), n x) with
beta = alpha^x; _p_steps reads it at n = p^k, and the tests compare it with
iterated multiplication.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator

from .algebra import divisors, factorize, is_prime

# groups up to this order also run the exhaustive normal-subgroup enumeration
EXHAUSTIVE_MAX_ORDER = 300
# SemidirectGroup (so construct_group too) refuses larger orders.  The cap is
# there for the enumeration, the one path of verify_group that walks every
# element: at order <= 300, or when --exhaustive forces it (group-verify --p 2
# --k 1 --m 99999 --exhaustive, order 199,998: about 3.9 s of CPU and 147 MiB
# peak, Python 3.11); the checks take O(1) products for (a) and O(1) per
# divisor of m for (c) (without --exhaustive, under 1 ms in verify_group).
# Checked before anything is built, it also bounds the p^k-entry table of
# alpha^x that every group holds
MAX_GROUP_ORDER = 200_000
# the primes p that sweep_parameters walks
SWEEP_PRIMES = (2, 3, 5)


class InvalidParams(ValueError):
    """Parameters do not admit the semidirect construction."""


class NonDivisor(ValueError):
    """The requested index parameter is not a positive divisor of m."""


IDENTITY = (0, 0)


class SemidirectGroup:
    """Z/m x| Z/p^k with a fixed twisting unit alpha of order p mod m."""

    def __init__(self, p: int, k: int, m: int, alpha: int):
        _require_shape(p, k, m)
        if pow(alpha, p, m) != 1 % m:
            raise InvalidParams(f"alpha = {alpha} does not satisfy alpha^{p} = 1 (mod {m})")
        self.p = p
        self.k = k
        self.m = m
        self.alpha = alpha % m
        self.pk = p**k
        self.order = m * self.pk
        # alpha^x for x mod p^k; the exponent only matters mod p
        cycle = [1]
        for _ in range(p - 1):
            cycle.append(cycle[-1] * alpha % m)
        self._alpha_pow = [cycle[x % p] for x in range(self.pk)]

    def __repr__(self):
        return f"SemidirectGroup(p={self.p}, k={self.k}, m={self.m}, alpha={self.alpha})"

    def elements(self):
        return product(range(self.m), range(self.pk))

    def multiply(self, g: tuple, h: tuple) -> tuple:
        # _coset and _powers inline the same product for their runs of products
        return (g[0] + self._alpha_pow[g[1]] * h[0]) % self.m, (g[1] + h[1]) % self.pk

    def _coset(self, base, t: tuple) -> list[tuple]:
        """The right coset base t = [h t for h in base], one product per element."""
        m, pk, alpha_pow = self.m, self.pk, self._alpha_pow
        b, y = t
        return [((a + alpha_pow[x] * b) % m, (x + y) % pk) for a, x in base]

    def _powers(self, g: tuple) -> list[tuple]:
        """g, g^2, ..., g^n = e, where n is the order of g."""
        m, pk, alpha_pow = self.m, self.pk, self._alpha_pow
        a, x = b, y = g
        out = [g]
        while a or x:
            a, x = (a + alpha_pow[x] * b) % m, (x + y) % pk
            out.append((a, x))
        return out

    def _geometric_sum(self, beta: int, n: int) -> int:
        # 1 + beta + ... + beta^(n-1) = (beta^n - 1) / (beta - 1) mod m; beta^n
        # is taken mod m (beta - 1), so the division stays exact
        if beta == 1:
            return n % self.m
        return (pow(beta, n, self.m * (beta - 1)) - 1) // (beta - 1) % self.m

    def power(self, g: tuple, n: int) -> tuple:
        """g**n for n >= 0 by the closed form (a (1 + beta + ... + beta^(n-1)), n x),
        beta = alpha^x."""
        if n < 0:
            raise ValueError("negative exponents are not needed here")
        return g[0] * self._geometric_sum(self._alpha_pow[g[1]], n) % self.m, n * g[1] % self.pk

    def subgroup_closure(self, gens) -> frozenset:
        """Subgroup generated by `gens`, by Dimino's algorithm (Butler,
        Fundamental Algorithms for Permutation Groups, LNCS 559, 1991).

        The first generator gives its cyclic group by a walk of powers.  Each
        later generator g not yet in the closure H extends it coset by coset:
        over the representatives r (from e on) and the generators s so far,
        each t = r s outside the closure adds the whole right coset H t, which
        is H r s since H is a subgroup.  When the representatives run out,
        the closure is a union of right cosets of H that right multiplication
        by every generator keeps, so it is <H, g>.  That costs about
        |<gens>| + (cosets) |gens| products.
        """
        closure = {IDENTITY}
        effective: list[tuple] = []
        for g in gens:
            if g in closure:
                continue
            effective.append(g)
            if len(effective) == 1:
                closure.update(self._powers(g))
                continue
            subgroup = list(closure)
            reps = [IDENTITY]
            for r in reps:
                for s in effective:
                    t = self.multiply(r, s)
                    if t not in closure:
                        # t goes in first, so reps and the set share one object
                        closure.add(t)
                        closure.update(self._coset(subgroup, t))
                        reps.append(t)
        return frozenset(closure)

    def conjugacy_classes(self) -> list[frozenset]:
        """Conjugation acts by (b, y)(a, x)(b, y)^-1 = (alpha^y a + (1 - alpha^x) b, x),
        so the class of (a, x) is the alpha-orbit of a shifted by the subgroup
        gcd(1 - alpha^x, m) Z/m."""
        m = self.m
        classes = []
        seen: set[tuple] = set()
        for x in range(self.pk):
            step = math.gcd(1 - self._alpha_pow[x], m)
            for a in range(m):
                if (a, x) in seen:
                    continue
                cls = frozenset(
                    ((self._alpha_pow[y] * a + t) % m, x) for y in range(self.p) for t in range(0, m, step)
                )
                seen |= cls
                classes.append(cls)
        return classes


def _require_shape(p: int, k: int, m: int) -> None:
    """InvalidParams unless p is prime, k and m are positive, p does not
    divide m, and m p^k is at most MAX_GROUP_ORDER, checked in that sequence."""
    if not is_prime(p):
        raise InvalidParams(f"p = {p} is not prime")
    if k < 1 or m < 1:
        raise InvalidParams("k and m must be positive")
    if m % p == 0:
        raise InvalidParams(f"p = {p} divides m = {m}")
    # p >= 2, so a k past the constant's bit length is too large without computing p^k
    if k > MAX_GROUP_ORDER.bit_length() or m * p**k > MAX_GROUP_ORDER:
        raise InvalidParams(f"order {m} * {p}^{k} exceeds MAX_GROUP_ORDER = {MAX_GROUP_ORDER}")


def qualifying_alphas(p: int, m: int) -> Iterator[int]:
    """Units of order exactly p with alpha - 1 also a unit mod m, ascending."""
    # alpha^p = 1 makes alpha a unit, and alpha != 1 gives it order exactly p
    return (a for a in range(2, m) if pow(a, p, m) == 1 and math.gcd(a - 1, m) == 1)


def construct_group(p: int, k: int, m: int) -> SemidirectGroup:
    """Validated construction with the smallest qualifying alpha.

    Rejects what SemidirectGroup's shape check refuses (p | m, then orders
    above MAX_GROUP_ORDER, before m is factored), then p not dividing phi(m);
    additionally rejects m with a prime factor q != 1 (mod p), because then
    no unit of order p with alpha - 1 invertible exists and the Sylow
    generation property fails.
    """
    _require_shape(p, k, m)
    # p does not divide m, so p | phi(m) exactly when some prime q | m is 1 mod p
    primes = list(factorize(m))
    bad = [q for q in primes if q % p != 1]
    if len(bad) == len(primes):
        raise InvalidParams(f"p = {p} does not divide phi({m})")
    if bad:
        raise InvalidParams(
            f"prime factors {bad} of m are not 1 mod p; no twisting unit of "
            f"order {p} with alpha - 1 invertible exists"
        )
    alpha = next(qualifying_alphas(p, m))
    return SemidirectGroup(p, k, m, alpha)


def _p_steps(group: SemidirectGroup) -> int:
    """step_1, the one step of every x != 0 (mod p), where step_x =
    m / gcd(s_x, m) and (1, x)^(p^k) = (s_x, 0), from one power; step_0 = m.

    By the power formula (a, x)^(p^k) = (a s_x, 0), so (a, x) is a p-element
    exactly when step_x divides a, and s_x = 1 + beta + ... + beta^(p^k - 1)
    with beta = alpha^x depends on x mod p alone.  s_0 = p^k is prime to m,
    so step_0 = m.  For x != 0 (mod p), beta generates <alpha>, of order
    o = 1 or p (alpha^p = 1), since x is a unit mod p; its powers run through
    <alpha> p^k / o times each, so s_x = (p^k / o) sum(<alpha>) is the same
    for every such x, and step_x = step_1.  Hence d = gcd(steps) = step_1,
    and lemma (a) holds exactly when (1, 1)^(p^k) = e."""
    return group.m // math.gcd(group.power((1, 1), group.pk)[0], group.m)


def p_elements(group: SemidirectGroup) -> list[tuple]:
    """All elements of p-power order (the union of the Sylow p-subgroups).

    |G| = m p^k with p prime to m, so g has p-power order exactly when
    g^(p^k) = e: the (a, x) with a a multiple of step_x, which is m at
    x = 0 (mod p) and _p_steps' step elsewhere.
    """
    step = _p_steps(group)
    out = []
    for x in range(group.pk):
        out += ((a, x) for a in range(0, group.m, group.m if x % group.p == 0 else step))
    return out


def p_generated_subgroup(group: SemidirectGroup) -> frozenset:
    """Closure of all p-power-order elements; compare against the full group."""
    return group.subgroup_closure(p_elements(group))


def quotient_check_derived(group: SemidirectGroup) -> bool:
    """Any quotient of order prime to p kills every p-element, so the normal
    subgroup they generate must be everything for such quotients to be
    trivial.  Conjugation preserves element order, so the p-elements are
    closed under conjugation and their plain closure is already normal."""
    return len(p_generated_subgroup(group)) == group.order


def _normal_subgroups(group: SemidirectGroup) -> list[frozenset]:
    # every normal subgroup is the join of the normal closures <C_g> of the
    # classes it contains, so the lattice is every join of those closures
    # (Holt, Eick & O'Brien, Handbook of Computational Group Theory, 3.3).
    # <C_g> = <C_h> when g and h generate the same cyclic subgroup, since each
    # is a power of the other; so one closure is taken per class of cyclic
    # subgroups, and the generators of <g> are marked to skip the rest.  Only
    # the generators: a lower power of g can have a smaller closure.
    closures: set[frozenset] = set()
    marked: set[tuple] = set()
    for cls in group.conjugacy_classes():
        if not marked.isdisjoint(cls):
            continue
        closures.add(group.subgroup_closure(cls))
        # g, g^2, ..., g^n = e: the walk's length is the order n of g
        powers = group._powers(next(iter(cls)))
        n = len(powers)
        marked.update(h for j, h in enumerate(powers, 1) if math.gcd(j, n) == 1)
    # for normal N and K the join is N K, the union of the cosets N y (y in K);
    # it is the one subgroup of order |N| |K| / |N & K| containing both, so a
    # join already found is recognised by set operations, without products
    found = {frozenset({IDENTITY})}
    for closure in closures:
        for base in list(found):
            size = len(base) * len(closure) // len(base & closure)
            if any(len(s) == size and base <= s and closure <= s for s in found):
                continue
            join = set(base)
            for y in closure:
                if y not in join:
                    join.update(group._coset(base, y))
            found.add(frozenset(join))
    return sorted(found, key=len)


def quotient_check_exhaustive(group: SemidirectGroup) -> bool:
    """Enumerate every normal subgroup and test the indices directly.

    The enumeration is independent of the derived path: it takes the normal
    closure of one conjugacy class per class of cyclic subgroups, then every
    join of those closures, each built as a union of cosets N y."""
    for normal in _normal_subgroups(group):
        index = group.order // len(normal)
        if index > 1 and index % group.p != 0:
            return False
    return True


def _require_divisor(group: SemidirectGroup, n: int) -> None:
    if n < 1 or group.m % n != 0:
        raise NonDivisor(f"{n} is not a positive divisor of m = {group.m}")


def index_subgroups(group: SemidirectGroup, n: int) -> tuple[frozenset, frozenset]:
    """(H0, H1) for a divisor n of m: H0 = <(n, 0)>, the kernel of Z/m -> Z/n
    inside the group, and H1 = <(n, 0), (0, 1)>, its extension by the full
    Z/p^k factor.  Each is a subgroup as the closure of its generators; their
    indices must be p^k n and n, the sizes part (c) of verify_group reads off
    its witness."""
    _require_divisor(group, n)
    step = (n % group.m, 0)
    return group.subgroup_closure([step]), group.subgroup_closure([step, (0, 1)])


def _index_sizes(group: SemidirectGroup, n: int, primes) -> "tuple[int, int] | None":
    """(|H0|, |H1|) = (m/n, (m/n) p^k) from their witness, or None when it fails.

    (n,0) has order exactly d = m/n: its d-th power is e and no d/q-th power
    is, for a prime q | d.  Conjugation by (0,1) maps it to an (a, 0) with
    n | a, a power of (n,0), so H1 = H0 <(0,1)>.  The caller has checked that
    (0,1) has order p^k, prime to m, so the two factors meet in e."""
    e, d, g = IDENTITY, group.m // n, (n % group.m, 0)
    if group.power(g, d) != e or any(group.power(g, d // q) == e for q in primes if d % q == 0):
        return None
    t = (0, 1)
    a, x = group.multiply(group.multiply(t, g), group.power(t, group.pk - 1))
    if x != 0 or a % n != 0:
        return None
    return d, d * group.pk


def verify_group(
    group: SemidirectGroup,
    index_divisors: "list[int] | None" = None,
    exhaustive: bool = False,
) -> dict:
    """Check all three structural properties; returns a JSON-ready report.

    Each property is read off its check (module docstring); the closures
    are not taken, and the enumeration cross-checks (a) where it runs."""
    if index_divisors is not None:
        # refused before any work
        for n in index_divisors:
            _require_divisor(group, n)
    primes = factorize(group.m)
    # (0,1) has order p^k, prime to m: every (c) witness rests on it
    t = (0, 1)
    t_has_order_pk = (
        group.power(t, group.pk) == IDENTITY and group.power(t, group.pk // group.p) != IDENTITY
    )
    part_c = []
    for n in index_divisors if index_divisors is not None else divisors(group.m, primes):
        sizes = _index_sizes(group, n, primes) if t_has_order_pk else None
        if sizes is None:
            raise ArithmeticError(f"the index witness fails for n = {n} on {group}")
        index_h0, index_h1 = (group.order // size for size in sizes)
        part_c.append(
            {
                "n": n,
                "index_H0": index_h0,
                "index_H1": index_h1,
                "ok": index_h0 == group.pk * n and index_h1 == n,
            }
        )
    # (a) and the derived half of (b) are one fact; the exhaustive half runs
    # on small groups, or when forced, and must agree with it
    lemma_a = group.power((1, 1), group.pk) == IDENTITY
    enumerated = None
    if exhaustive or group.order <= EXHAUSTIVE_MAX_ORDER:
        enumerated = quotient_check_exhaustive(group)
        if enumerated != lemma_a:
            raise ArithmeticError(
                f"quotient check paths disagree on {group}: "
                f"derived={lemma_a} exhaustive={enumerated}"
            )
    return {
        "params": {"p": group.p, "k": group.k, "m": group.m, "alpha": group.alpha},
        "order": group.order,
        "lemma_a": lemma_a,
        "lemma_b": {"derived": lemma_a, "exhaustive": enumerated},
        "lemma_c": part_c,
        "all_pass": lemma_a and all(entry["ok"] for entry in part_c),
    }


def sweep_parameters(max_order: int) -> list[tuple[int, int, int]]:
    """All (p, k, m) with p in SWEEP_PRIMES accepted by construct_group with
    m * p^k <= max_order."""
    out = []
    for p in SWEEP_PRIMES:
        k = 1
        while p**k * 2 <= max_order:
            for m in range(2, max_order // p**k + 1):
                try:
                    construct_group(p, k, m)
                except InvalidParams:
                    continue
                out.append((p, k, m))
            k += 1
    return out
