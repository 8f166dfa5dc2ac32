"""Exact Specht module homomorphisms for Hecke algebras of symmetric groups."""

import sys

from .carter_payne import (
    CPVerification,
    adjacent_map,
    one_node_map,
    predicted_hom_dim,
    verify_cp,
)
from .criteria import (
    CPInstance,
    OutsideProvenScope,
    cp_eligible,
    cp_pair_data,
    trivial_hom_exists,
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
    coset_rep,
    coset_reps,
    enumerate_row_standard,
    enumerate_semistandard,
    enumerate_standard,
    row_equiv_class,
    standard_count,
    t_col,
    t_row,
    w_lambda,
)

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every memo of the library: each is bounded and has a
    cache_clear, found in every loaded module of the package (one not yet
    imported holds none).  The command line's parser is kept: it is built
    once per process and memoises no result."""
    for name, module in list(sys.modules.items()):
        if not name.startswith(f"{__name__}.") or module is None:
            continue
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and (name, attr) != (f"{__name__}.cli", "_parser"):
                obj.cache_clear()
