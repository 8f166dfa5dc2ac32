"""Eligibility predicates and explicit constructors for the node-moving
homomorphisms between Specht modules.

Two families are constructible: moving gamma nodes between adjacent rows
(a single-tableau map), and moving one node between arbitrary rows (an
explicit signed Gaussian-binomial combination of semistandard basis
homomorphisms).  The divisibility criteria decide when the constructed
map lands in the Specht submodule; the general several-rows,
several-nodes case is reported as outside the proven scope.
"""

from __future__ import annotations

from .homs import HomSpec, restriction_verdicts, semistandard_scope
from .partitions import check_partition, drop_trailing_zeros
from .qfield import FieldSpec, QuantumProfile, qint, vanish_run
from .tableaux import Tableau, enumerate_semistandard


class OutsideProvenScope(ValueError):
    """Raised for eligibility questions the criteria do not decide."""


class CPInstance:
    """A pair of partitions differing by moving gamma nodes from row b up
    to row a."""

    __slots__ = ("mu", "a", "b", "gamma", "lam")

    def __init__(self, mu, a: int, b: int, gamma: int = 1):
        mu = check_partition(mu)
        if gamma < 1:
            raise ValueError("gamma must be positive")
        if not 1 <= a < b <= len(mu):
            raise ValueError(f"need 1 <= a < b <= {len(mu)}")
        lam = list(mu)
        lam[a - 1] += gamma
        lam[b - 1] -= gamma
        if lam[b - 1] < 0:
            raise ValueError("row b is too short to give up gamma nodes")
        lam = drop_trailing_zeros(lam)
        self.mu = mu
        self.a = a
        self.b = b
        self.gamma = gamma
        self.lam = check_partition(lam)

    def __repr__(self):
        return f"CPInstance(mu={self.mu}, a={self.a}, b={self.b}, gamma={self.gamma})"


def cp_pair_data(lam, mu):
    """Recover (a, b, gamma) from a pair with lam obtained from mu by one
    raising move, or raise ValueError."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("partitions must have equal size")
    width = max(len(lam), len(mu))
    la = lam + (0,) * (width - len(lam))
    m = mu + (0,) * (width - len(mu))
    diffs = [(i + 1, la[i] - m[i]) for i in range(width) if la[i] != m[i]]
    if len(diffs) != 2:
        raise ValueError("pair does not differ in exactly two rows")
    (a, da), (b, db) = diffs
    if da <= 0 or da + db != 0:
        raise ValueError("pair is not a raising move")
    return a, b, da


def cp_eligible(inst: CPInstance, profile: QuantumProfile) -> bool:
    """The divisibility criterion for a nonzero map between the Specht
    modules of the instance.  Raises OutsideProvenScope for gamma > 1
    across non-adjacent rows."""
    if not profile.finite:
        return False
    mu, a, b, gamma = inst.mu, inst.a, inst.b, inst.gamma
    if b == a + 1:
        return vanish_run(profile, mu[a - 1] - mu[b - 1] + gamma, gamma)
    if gamma == 1:
        return (mu[a - 1] - mu[b - 1] + b - a + 1) % profile.e == 0
    raise OutsideProvenScope(
        f"gamma={gamma} across rows {a}<{b} is outside the proven scope"
    )


def trivial_hom_exists(mu, profile: QuantumProfile) -> bool:
    """Whether the Specht module of mu contains the trivial one-row
    module: every consecutive row pair must carry a full vanishing run of
    Gaussian binomials."""
    mu = check_partition(mu)
    if not profile.finite:
        return len(mu) <= 1
    return all(
        vanish_run(profile, mu[d - 1], mu[d]) for d in range(1, len(mu))
    )


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
    a node-moving pair: 0, 1, ">=1" or "unknown"."""
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
