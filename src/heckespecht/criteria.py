"""The paper's closed-form criteria: the trivial submodule of a Specht
module, the divisibility criteria of the node-moving pairs, and the hom
dimension they predict for such a pair.

Each criterion has this one definition.  ``homs.hom_space_dim`` answers
from them before it solves anything, and ``carter_payne`` re-exports
them for its constructors.
"""

from __future__ import annotations

from .partitions import check_partition, drop_trailing_zeros, is_2regular
from .qfield import QuantumProfile, vanish_run


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
    across non-adjacent rows.  When e != 2 (q != -1) the paper proves the
    hom space one-dimensional exactly when this holds, zero otherwise."""
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
    Gaussian binomials.  At every q this is whether Hom(S^(n), S^mu) is
    nonzero, and then it is one-dimensional."""
    mu = check_partition(mu)
    if not profile.finite:
        return len(mu) <= 1
    return all(
        vanish_run(profile, mu[d - 1], mu[d]) for d in range(1, len(mu))
    )


def semistandard_scope(profile: QuantumProfile, lam) -> bool:
    """Whether the semistandard homomorphism theorem (Dipper-James) holds
    for maps out of the Specht module of lam: q != -1, that is e != 2, or
    lam 2-regular.  Then the restricted basis maps of the semistandard
    tableaux of shape lam and type mu form a basis of the maps into the
    permutation module of mu, for every mu."""
    return profile.e != 2 or is_2regular(lam)


def predicted_hom_dim(lam, mu, profile: QuantumProfile):
    """Predicted dimension of the hom space between the Specht modules of
    a node-moving pair: 0, 1, ">=1" or "unknown".  Where it says 0 or 1
    and e != 2, ``homs.hom_space_dim`` answers with it, nothing solved."""
    a, b, gamma = cp_pair_data(lam, mu)
    if gamma > 1 and b > a + 1:
        return "unknown"
    eligible = cp_eligible(CPInstance(mu, a, b, gamma), profile)
    if semistandard_scope(profile, lam):
        return int(eligible)
    return ">=1" if eligible else 0 if gamma == 1 else "unknown"
