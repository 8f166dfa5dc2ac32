"""Eligibility predicates and explicit constructors for the node-moving
homomorphisms between Specht modules.

Two families are constructible: moving gamma nodes between adjacent rows
(a single-tableau map), and moving one node between arbitrary rows (an
explicit signed Gaussian-binomial combination of semistandard basis
homomorphisms).  Each map's coefficients have one field-free source,
its memoised terms (T.rows, (sign, k, pairs)), the one factored form of
``homs``, read in a field by ``homs._field_terms`` alone: the
constructors build a ``HomSpec`` of what it reads, and ``verify_terms``
gives its ``CPVerification`` (``homs.map_verdicts``) with no map built.
The verdict and ``verify_cp`` are defined in ``homs``, the divisibility
criteria and the predicted hom dimension in ``criteria``; all are bound
here.  The general several-rows, several-nodes case is reported as
outside the proven scope.
"""

from __future__ import annotations

# defined in ``criteria`` and ``homs``, where the library reads them too
from .criteria import (  # noqa: F401
    CPInstance,
    OutsideProvenScope,
    cp_eligible,
    cp_pair_data,
    predicted_hom_dim,
    semistandard_scope,
    trivial_hom_exists,
)
from .homs import CPVerification, HomSpec, _field_terms, map_verdicts, verify_cp  # noqa: F401
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


def verify_terms(field: FieldSpec, terms_of, mu, *args) -> CPVerification:
    """``verify_cp`` over field of the map into M^mu whose terms are
    terms_of(mu, *args), ``one_node_terms`` or ``adjacent_terms``, read in
    the field once and decided with no map built (``homs.map_verdicts``)."""
    mu = check_partition(mu)
    return map_verdicts(field, mu, _field_terms(field, terms_of(mu, *args)))
