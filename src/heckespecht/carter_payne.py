"""Eligibility predicates and explicit constructors for the node-moving
homomorphisms between Specht modules.

Two families are constructible: moving gamma nodes between adjacent rows
(a single-tableau map), and moving one node between arbitrary rows (an
explicit signed Gaussian-binomial combination of semistandard basis
homomorphisms).  Each map's coefficients have one field-free source,
its memoised terms (T.rows, (sign, k, pairs)), sign q^k times Gaussian
binomials.  ``_field_terms`` reads them in a field as (T.rows, c), the
terms every map has in ``homs``: the constructors build a ``HomSpec``
of them, and ``verify_terms`` decides them by ``homs.map_verdicts``
with no map built.  The divisibility criteria and the predicted hom
dimension, defined in ``criteria`` and bound here, decide when the
constructed map lands in the Specht submodule; the general several-rows,
several-nodes case is reported as outside the proven scope.
"""

from __future__ import annotations

from collections import namedtuple

# defined in ``criteria``, where ``homs`` reads them too
from .criteria import (  # noqa: F401
    CPInstance,
    OutsideProvenScope,
    cp_eligible,
    cp_pair_data,
    predicted_hom_dim,
    semistandard_scope,
    trivial_hom_exists,
)
from .homs import HomSpec, _coefficient, map_verdicts, restriction_verdicts
from .memo import sized_cache
from .partitions import check_partition
from .qfield import FieldSpec
from .tableaux import Tableau, enumerate_semistandard


def one_node_map(field: FieldSpec, xi, a: int, b: int) -> HomSpec:
    """The explicit one-node homomorphism from the Specht module of eta
    (xi with one node raised from row b to row a) into the permutation
    module of xi, as a signed combination of semistandard basis maps."""
    return _from_terms(field, CPInstance(xi, a, b, 1), one_node_terms(check_partition(xi), a, b))


def adjacent_map(field: FieldSpec, mu, a: int, gamma: int) -> HomSpec:
    """The single-tableau homomorphism for moving gamma nodes from row
    a+1 up to row a."""
    inst = CPInstance(mu, a, a + 1, gamma)
    return _from_terms(field, inst, adjacent_terms(inst.mu, a, gamma))


def _from_terms(field: FieldSpec, inst: CPInstance, terms) -> HomSpec:
    return HomSpec(field, inst.lam, inst.mu,
                   {Tableau(rows): c for rows, c in _field_terms(field, terms)})


def _field_terms(field: FieldSpec, terms) -> tuple:
    """The terms (T.rows, (sign, k, pairs)) read in the field as (T.rows,
    c), c = sign q^k times the binomials, the terms whose c is zero left out."""
    read = ((rows, sign, _coefficient(field, k, pairs)) for rows, (sign, k, pairs) in terms)
    return tuple((rows, c if sign > 0 else field.neg(c)) for rows, sign, c in read
                 if not field.is_zero(c))


# a map's terms serve every field: at most 2^12 per map, 2^16 in all
@sized_cache(maxsize=4096, maxterms=1 << 16, maxentry=1 << 12)
def one_node_terms(xi, a: int, b: int) -> tuple:
    """The terms (T.rows, (sign, k, pairs)) of ``one_node_map``, T
    semistandard of shape eta and type xi: sign q^k times the Gaussian
    binomials [a, b] of the pairs.  Each row i strictly between a and b
    that ends in i gives a factor -q^-1 when row i+1 is as long, else
    -q^-s [s]_q, [s]_q = [s, 1], so k may be negative."""
    inst = CPInstance(xi, a, b, 1)
    eta = inst.lam + (0,) * (b - len(inst.lam))
    terms = []
    for tab in enumerate_semistandard(inst.lam, inst.mu):
        sign, k, pairs = 1, 0, []
        for i in range(a + 1, b):
            if tab.rows[i - 1][-1] == i:
                span = 1 if eta[i - 1] == eta[i] else eta[i - 1] - eta[b - 1] + b - i - 1
                sign, k = -sign, k - span
                if span > 1:
                    pairs.append((span, 1))
        terms.append((tab.rows, (sign, k, tuple(pairs))))
    return tuple(terms)


@sized_cache(maxsize=4096, maxterms=1 << 16, maxentry=1 << 12)
def adjacent_terms(mu, a: int, gamma: int) -> tuple:
    """The one term (T.rows, (1, 0, ())) of ``adjacent_map``."""
    inst = CPInstance(mu, a, a + 1, gamma)
    tab = Tableau((a,) * inst.mu[a - 1] + (a + 1,) * gamma if i == a else (i,) * part
                  for i, part in enumerate(inst.lam, start=1))
    if not tab.is_semistandard():
        raise ValueError(f"no semistandard tableau for {inst!r}")
    return ((tab.rows, (1, 0, ())),)


class CPVerification(namedtuple("CPVerification", "nonzero lands_in_specht")):
    """Is a constructed map's restriction nonzero, and does it land in the
    Specht submodule of its target."""

    __slots__ = ()

    def to_json(self):
        return self._asdict()


def verify_cp(hom: HomSpec) -> CPVerification:
    """Brute-force verdict on a constructed map: is its restriction
    nonzero, and does the restriction land in the Specht submodule."""
    is_zero, lands = restriction_verdicts(hom)
    return CPVerification(nonzero=not is_zero, lands_in_specht=lands)


def verify_terms(field: FieldSpec, terms_of, mu, *args) -> CPVerification:
    """``verify_cp`` over field of the map into M^mu whose terms are
    terms_of(mu, *args), ``one_node_terms`` or ``adjacent_terms``, read in
    the field once and decided with no map built (``homs.map_verdicts``)."""
    mu = check_partition(mu)
    is_zero, lands = map_verdicts(field, mu, _field_terms(field, terms_of(mu, *args)))
    return CPVerification(nonzero=not is_zero, lands_in_specht=lands)

