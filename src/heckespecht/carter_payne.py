"""Eligibility predicates and explicit constructors for the node-moving
homomorphisms between Specht modules.

Two families are constructible: moving gamma nodes between adjacent rows
(a single-tableau map), and moving one node between arbitrary rows (an
explicit signed Gaussian-binomial combination of semistandard basis
homomorphisms).  The divisibility criteria, defined in ``criteria`` and
bound here, decide when the constructed map lands in the Specht
submodule; the general several-rows, several-nodes case is reported as
outside the proven scope.
"""

from __future__ import annotations

# defined in ``criteria``, where ``homs`` reads them too
from .criteria import (  # noqa: F401
    CPInstance,
    OutsideProvenScope,
    cp_eligible,
    cp_pair_data,
    trivial_hom_exists,
)
from .homs import HomSpec, restriction_verdicts, semistandard_scope
from .qfield import FieldSpec, QuantumProfile, qint
from .tableaux import Tableau, enumerate_semistandard


def one_node_map(field: FieldSpec, xi, a: int, b: int) -> HomSpec:
    """The explicit one-node homomorphism from the Specht module of eta
    (xi with one node raised from row b to row a) into the permutation
    module of xi, as a signed combination of semistandard basis maps."""
    inst = CPInstance(xi, a, b, 1)
    eta = inst.lam
    eta_padded = eta + (0,) * (b - len(eta))
    coeffs = {}
    for tab in enumerate_semistandard(eta, inst.mu):
        rep = field.one_rep
        for i in range(a + 1, b):
            rep = field.mul(rep, _one_node_factor(field, tab, eta_padded, b, i))
        coeffs[tab] = rep
    hom = HomSpec(field, eta, inst.mu, coeffs)
    if hom.is_zero_spec():
        raise AssertionError("one-node map has no semistandard support")
    return hom


def _one_node_factor(field, tab: Tableau, eta, b: int, i: int):
    last = tab.entry(i, eta[i - 1])
    if last != i:
        return field.one_rep
    eta_next = eta[i] if i < len(eta) else 0
    if eta[i - 1] == eta_next:
        return field.neg(field.q_power(-1))
    span = eta[i - 1] - eta[b - 1] + b - i - 1
    return field.neg(field.mul(field.q_power(-span), qint(field, span).rep))


def adjacent_map(field: FieldSpec, mu, a: int, gamma: int) -> HomSpec:
    """The single-tableau homomorphism for moving gamma nodes from row
    a+1 up to row a."""
    inst = CPInstance(mu, a, a + 1, gamma)
    lam = inst.lam
    rows = []
    for i, part in enumerate(lam, start=1):
        if i == a:
            rows.append((a,) * mu[a - 1] + (a + 1,) * gamma)
        else:
            rows.append((i,) * part)
    tab = Tableau(rows)
    if not tab.is_semistandard():
        raise ValueError(f"no semistandard tableau for {inst!r}")
    return HomSpec(field, lam, inst.mu, {tab: field.one_rep})


class CPVerification:
    __slots__ = ("nonzero", "lands_in_specht")

    def __init__(self, nonzero: bool, lands_in_specht: bool):
        self.nonzero = nonzero
        self.lands_in_specht = lands_in_specht

    def __eq__(self, other):
        return (
            isinstance(other, CPVerification)
            and (self.nonzero, self.lands_in_specht)
            == (other.nonzero, other.lands_in_specht)
        )

    def __repr__(self):
        return f"CPVerification(nonzero={self.nonzero}, lands_in_specht={self.lands_in_specht})"

    def to_json(self):
        return {"nonzero": self.nonzero, "lands_in_specht": self.lands_in_specht}


def verify_cp(hom: HomSpec) -> CPVerification:
    """Brute-force verdict on a constructed map: is its restriction
    nonzero, and does the restriction land in the Specht submodule."""
    is_zero, lands = restriction_verdicts(hom)
    return CPVerification(nonzero=not is_zero, lands_in_specht=lands)


def predicted_hom_dim(lam, mu, profile: QuantumProfile):
    """Predicted dimension of the hom space between the Specht modules of
    a node-moving pair: 0, 1, ">=1" or "unknown".  Where it says 0 or 1
    and e != 2, ``hom_space_dim`` answers from the same ``cp_eligible``
    with nothing solved."""
    a, b, gamma = cp_pair_data(lam, mu)
    inst = CPInstance(mu, a, b, gamma)
    regular_ok = semistandard_scope(profile, lam)
    if gamma == 1:
        eligible = cp_eligible(inst, profile)
        if not eligible:
            return 0
        return 1 if regular_ok else ">=1"
    if b == a + 1:
        eligible = cp_eligible(inst, profile)
        if regular_ok:
            return 1 if eligible else 0
        return ">=1" if eligible else "unknown"
    return "unknown"
