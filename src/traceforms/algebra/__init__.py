"""Exact arithmetic substrate: integers, rational polynomials, Z/qZ
polynomial lists, matrices, and rational irreducibility."""

from .intmath import (
    divisors,
    factorize,
    is_prime,
    next_prime,
    primes_above,
)
from .irreducibility import is_irreducible_over_rationals, mignotte_bound
from .matrix import Matrix, charpoly, congruence_diagonalize
from .modpoly import BadPrime, cycle_type_mod_p, factor_mod_p, mod_gcd
from .poly import (
    RationalPoly,
    discriminant,
    is_separable,
    power_traces,
    trace_moments,
)

__all__ = [
    "BadPrime",
    "Matrix",
    "RationalPoly",
    "charpoly",
    "congruence_diagonalize",
    "cycle_type_mod_p",
    "discriminant",
    "divisors",
    "factor_mod_p",
    "factorize",
    "is_irreducible_over_rationals",
    "is_prime",
    "is_separable",
    "mignotte_bound",
    "mod_gcd",
    "next_prime",
    "power_traces",
    "primes_above",
    "trace_moments",
]
