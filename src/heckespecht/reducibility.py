"""The hook-length reducibility classifier.

A partition is flagged reducible when some row-and-column node triple
(a,i), (a,j), (b,i) has a positive hook valuation at (a,i) that differs
from the valuations at both partners.  The criterion characterises the
partitions with reducible Specht module away from quantum characteristic
two; inputs at e = 2 are classified by the same search but carry a
caveat.
"""

from __future__ import annotations

from functools import lru_cache

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


@lru_cache(maxsize=256)
def _valuation_table(profile: QuantumProfile, n: int) -> tuple[int, ...]:
    """nu_ep(profile, h) at index h for h = 1..n (index 0 unused): every
    hook of a partition of n is at most n."""
    return (0, *(nu_ep(profile, h) for h in range(1, n + 1)))


def _hook_witness(lam, marks):
    """First node triple ((a,i), (a,j), (b,i)) whose hook mark at (a,i)
    is positive and differs from the marks at both partners, in row-major
    order of the hooked node, then of the row and column partners; None
    if there is none.  marks[h] is the mark of a hook of length h; every
    hook comes from one conjugate of lam.

    The first row partner is node 1 of the row if its mark is not v, else
    the row's first change of mark; the first column partner likewise,
    with each column's first change found at most once.  Marks are read
    row by row, and down a column only when it is searched, so an early
    witness leaves the rest of the diagram unread."""
    if not lam:
        return None
    conj = conjugate(lam)
    col_change = [None] * lam[0]  # first b whose mark differs from row 1's, or conj[i]
    for a, part in enumerate(lam):
        row = [marks[part - a + c - i - 1] for i, c in enumerate(conj[:part])]
        if not a:
            top = row
        first = row[0]
        row_change = next((j for j, v in enumerate(row) if v != first), None)
        if row_change is None:
            continue  # one mark along the row: no row partner
        for i, v in enumerate(row):
            if v <= 0:
                continue
            if top[i] != v:
                b = 0
            else:
                b = col_change[i]
                if b is None:
                    k = conj[i] - i - 1
                    b = col_change[i] = next(
                        (b for b in range(1, conj[i]) if marks[lam[b] - b + k] != v), conj[i])
                if b == conj[i]:
                    continue
            j = 0 if first != v else row_change
            return ((a + 1, i + 1), (a + 1, j + 1), (b + 1, i + 1))
    return None


def is_ep_reducible(lam, profile: QuantumProfile) -> ReducibilityReport:
    """Exhaustive search over node triples with the hook valuations
    nu_ep as marks; the witness is the first triple found."""
    lam = check_partition(lam)
    if not profile.finite:
        raise ValueError("the criterion needs a finite quantum characteristic")
    caveat = E2_CAVEAT if profile.e == 2 else None
    witness = _hook_witness(lam, _valuation_table(profile, sum(lam)))
    return ReducibilityReport(lam, profile.e, profile.p, witness is not None, witness, caveat)


def hook_divisibility_witness(lam, profile: QuantumProfile):
    """A triple with e dividing the hook at (a,i) but neither partner
    hook, if one exists; a sufficient reducibility certificate away from
    e = 2."""
    lam = check_partition(lam)
    if not profile.finite:
        return None
    e = profile.e
    return _hook_witness(lam, [h % e == 0 for h in range(sum(lam) + 1)])


def classify_range(n: int, profile: QuantumProfile):
    """One report per partition of n, in descending lexicographic order, made lazily."""
    if n < 1:
        raise ValueError("n must be positive")
    return (is_ep_reducible(lam, profile) for lam in partitions_of(n))
