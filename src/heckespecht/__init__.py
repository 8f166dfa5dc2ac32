"""Exact Specht module homomorphisms for Hecke algebras of symmetric groups.

The names below are loaded from their modules on first use (PEP 562):
``import heckespecht`` loads no library module, and reading a name
imports only the module that defines it (and what that module imports).
Submodules resolve the same way, so ``heckespecht.homs`` works after a
bare ``import heckespecht``."""

import importlib
import sys

_EXPORTS = {
    name: module
    for module, names in {
        "carter_payne": "adjacent_map one_node_map",
        "criteria": "CPInstance OutsideProvenScope cp_eligible cp_pair_data predicted_hom_dim "
                    "trivial_hom_exists",
        "hecke": "HeckeElement ModuleVector SpechtModule act_gen act_word basis_vector "
                 "specht_generator spin_specht",
        "homs": "CPVerification HomSpec compose_psi_theta hom_space_dim one_node_conditions_check "
                "psi_dt restriction_into_specht restriction_is_zero specht_membership verify_cp",
        "partitions": "conjugate dominates hook_length is_2regular nu_composition partitions_of",
        "qfield": "Cyclotomic FieldSpec PrimeExtension PrimeField QuantumProfile Scalar bstar "
                  "ell_p nu_ep parse_field prime_extension_auto qbinom qbinom_sum_oracle qfact "
                  "qint spec_for_profile vanish_run vanish_run_direct",
        "reducibility": "ReducibilityReport classify_range hook_divisibility_witness "
                        "is_ep_reducible",
        "tableaux": "Tableau coset_rep coset_reps enumerate_row_standard enumerate_semistandard "
                    "enumerate_standard row_equiv_class standard_count t_col t_row w_lambda",
    }.items()
    for name in names.split()
}
_SUBMODULES = frozenset({*_EXPORTS.values(), "cli", "memo"})

__all__ = [*_EXPORTS, "clear_caches"]
__version__ = "0.1.0"


def __getattr__(name: str):
    """The exported name or submodule, imported on its first read and then
    stored here, so that a second read is a plain attribute."""
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})


def clear_caches() -> None:
    """Empty every memo of the library: each is bounded and has a
    cache_clear, found in every loaded module of the package (a module not
    yet imported holds none, and is not imported here).  The command
    line's parser is kept: it is built once per process and memoises no
    result."""
    for name, module in list(sys.modules.items()):
        if not name.startswith(f"{__name__}.") or module is None:
            continue
        for attr, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and (name, attr) != (f"{__name__}.cli", "_parser"):
                obj.cache_clear()
