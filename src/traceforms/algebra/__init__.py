"""Exact arithmetic substrate: integers, rational polynomials, Z/qZ
polynomial lists, matrices, and rational irreducibility."""

from .intmath import (
    divisors,
    euler_phi,
    factorize,
    is_prime,
    legendre_symbol,
    next_prime,
    primes_above,
    squarefree_part,
)
from .irreducibility import is_irreducible_over_rationals, mignotte_bound
from .matrix import Matrix, charpoly, congruence_diagonalize
from .modpoly import BadPrime, cycle_type_mod_p, factor_mod_p, mod_gcd
from .poly import (
    RationalPoly,
    discriminant,
    is_separable,
    power_traces,
    primitive_integer_coeffs,
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
    "euler_phi",
    "factor_mod_p",
    "factorize",
    "is_irreducible_over_rationals",
    "is_prime",
    "is_separable",
    "legendre_symbol",
    "mignotte_bound",
    "mod_gcd",
    "next_prime",
    "power_traces",
    "primes_above",
    "primitive_integer_coeffs",
    "squarefree_part",
    "trace_moments",
]
