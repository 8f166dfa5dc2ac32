"""Exact Specht module homomorphisms for Hecke algebras of symmetric groups."""

from . import hecke, homs, qfield, tableaux

from .carter_payne import (
    CPInstance,
    CPVerification,
    OutsideProvenScope,
    adjacent_map,
    cp_eligible,
    one_node_map,
    predicted_hom_dim,
    trivial_hom_exists,
    verify_cp,
)
from .hecke import (
    HeckeElement,
    ModuleVector,
    SpechtModule,
    act_gen,
    act_word,
    basis_vector,
    specht_generator,
    spin_specht,
)
from .homs import (
    HomSpec,
    compose_psi_theta,
    hom_space_dim,
    one_node_conditions_check,
    psi_dt,
    restriction_into_specht,
    restriction_is_zero,
    specht_membership,
)
from .partitions import (
    conjugate,
    dominates,
    hook_length,
    is_2regular,
    nu_composition,
    partitions_of,
)
from .qfield import (
    Cyclotomic,
    FieldSpec,
    PrimeExtension,
    PrimeField,
    QuantumProfile,
    Scalar,
    bstar,
    ell_p,
    nu_ep,
    parse_field,
    prime_extension_auto,
    qbinom,
    qbinom_sum_oracle,
    qfact,
    qint,
    quantum_char,
    spec_for_profile,
    vanish_run,
    vanish_run_direct,
)
from .reducibility import (
    ReducibilityReport,
    classify_range,
    hook_divisibility_witness,
    is_ep_reducible,
)
from .tableaux import (
    Tableau,
    coset_reps,
    enumerate_row_standard,
    enumerate_semistandard,
    enumerate_standard,
    perm_of_tableau,
    row_equiv_class,
    standard_count,
    t_col,
    t_row,
    w_lambda,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo of the library: each is a bounded lru_cache."""
    for module in (hecke, homs, qfield, tableaux):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
