"""traceforms: exact realization of rational quadratic forms as scaled trace forms.

The central fact this package makes executable: a non-degenerate quadratic
form D over Q is isomorphic to the form x -> Tr_{F/Q}(alpha x^2) of some
number field F = Q[x]/(f) and scaling element alpha, and a witness for the
isomorphism can be found by randomized search and then checked exactly.
Supporting modules classify forms by their complete invariants, gather
Frobenius cycle-type evidence that the specialized characteristic polynomials
have full symmetric Galois group, and exhaustively verify the structural
properties of the semidirect groups Z/m x| Z/p^k.
"""

from .algebra import (
    BadPrime,
    Matrix,
    RationalPoly,
    charpoly,
    congruence_diagonalize,
    cycle_type_mod_p,
    discriminant,
    factor_mod_p,
    factorize,
    is_irreducible_over_rationals,
    is_prime,
    is_separable,
    legendre_symbol,
    power_traces,
    squarefree_part,
    trace_moments,
)
from .galois import (
    CERTIFIED,
    INCONCLUSIVE,
    CycleTypeSample,
    NotSquarefree,
    SpecReport,
    block_split_check,
    generic_experiment,
    sample_cycle_types,
    sn_certificate,
)
from .groups import (
    Element,
    InvalidParams,
    NonDivisor,
    SemidirectGroup,
    construct_group,
    index_subgroups,
    p_generated_subgroup,
    prime_to_p_quotient_check,
    verify_group,
)
from .quadform import (
    DegenerateForm,
    REAL_PLACE,
    SymmetricForm,
    WittInvariants,
    equivalent,
    hilbert_symbol,
    invariants,
    is_isotropic,
)
from .traceform import (
    Certificate,
    CertificateCheck,
    InconsistentHankel,
    SearchExhausted,
    SearchPolicy,
    realize,
    scaled_trace_gram,
    solve_alpha,
    verify_certificate,
)

__version__ = "0.1.0"
