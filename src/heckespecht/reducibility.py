"""The hook-length reducibility classifier.

A partition is flagged reducible when some row-and-column node triple
(a,i), (a,j), (b,i) has a positive hook valuation at (a,i) that differs
from the valuations at both partners.  The criterion characterises the
partitions with reducible Specht module away from quantum characteristic
two; inputs at e = 2 are classified by the same search but carry a
caveat.
"""

from __future__ import annotations

from .partitions import check_partition, conjugate, partitions_of
from .qfield import QuantumProfile, nu_ep

E2_CAVEAT = "criterion proven only for e != 2"


class ReducibilityReport:
    __slots__ = ("partition", "e", "p", "reducible", "witness", "caveat")

    def __init__(self, partition, e, p, reducible, witness, caveat=None):
        self.partition = partition
        self.e = e
        self.p = p
        self.reducible = reducible
        self.witness = witness
        self.caveat = caveat

    @property
    def verdict(self) -> str:
        return "reducible" if self.reducible else "irreducible"

    def __eq__(self, other):
        return isinstance(other, ReducibilityReport) and self.to_json() == other.to_json()

    def __repr__(self):
        w = f", witness={self.witness}" if self.witness else ""
        return f"ReducibilityReport({self.partition}, e={self.e}, p={self.p}: {self.verdict}{w})"

    def to_json(self) -> dict:
        return {
            "partition": list(self.partition),
            "e": self.e,
            "p": self.p,
            "verdict": self.verdict,
            "witness": [list(node) for node in self.witness] if self.witness else None,
            "caveat": self.caveat,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ReducibilityReport":
        witness = data.get("witness")
        return cls(
            tuple(data["partition"]),
            data["e"],
            data["p"],
            data["verdict"] == "reducible",
            tuple(tuple(n) for n in witness) if witness else None,
            data.get("caveat"),
        )


def _hook_witness(lam, mark):
    """First node triple ((a,i), (a,j), (b,i)) whose hook mark at (a,i)
    is positive and differs from the marks at both partners, in row-major
    order of the hooked node, then of the row and column partners; None
    if there is none.  Every hook comes from one conjugate of lam."""
    conj = conjugate(lam)
    marks = [
        [mark(part - a + conj[i] - i - 1) for i in range(part)]
        for a, part in enumerate(lam)
    ]
    for a, row in enumerate(marks):
        for i, v in enumerate(row):
            if v <= 0:
                continue
            for j, other in enumerate(row):
                if j == i or other == v:
                    continue
                for b in range(conj[i]):
                    if b == a or marks[b][i] == v:
                        continue
                    return ((a + 1, i + 1), (a + 1, j + 1), (b + 1, i + 1))
    return None


def is_ep_reducible(lam, profile: QuantumProfile) -> ReducibilityReport:
    """Exhaustive search over node triples with the hook valuations
    nu_ep as marks; the witness is the first triple found."""
    lam = check_partition(lam)
    if not profile.finite:
        raise ValueError("the criterion needs a finite quantum characteristic")
    caveat = E2_CAVEAT if profile.e == 2 else None
    witness = _hook_witness(lam, lambda h: nu_ep(profile, h))
    return ReducibilityReport(lam, profile.e, profile.p, witness is not None, witness, caveat)


def hook_divisibility_witness(lam, profile: QuantumProfile):
    """A triple with e dividing the hook at (a,i) but neither partner
    hook, if one exists; a sufficient reducibility certificate away from
    e = 2."""
    lam = check_partition(lam)
    if not profile.finite:
        return None
    e = profile.e
    return _hook_witness(lam, lambda h: h % e == 0)


def classify_range(n: int, profile: QuantumProfile):
    """One report per partition of n, in descending lexicographic order."""
    if n < 1:
        raise ValueError("n must be positive")
    return [is_ep_reducible(lam, profile) for lam in partitions_of(n)]
