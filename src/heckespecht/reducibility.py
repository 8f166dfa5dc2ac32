"""The hook-length reducibility classifier.

A partition is flagged reducible when some row-and-column node triple
(a,i), (a,j), (b,i) has a positive hook valuation at (a,i) that differs
from the valuations at both partners.  The criterion characterises the
partitions with reducible Specht module away from quantum characteristic
two; inputs at e = 2 are classified by the same search but carry a
caveat.
"""

from __future__ import annotations

from .partitions import check_partition, partitions_of
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


def _valuation_table(profile: QuantumProfile, n: int) -> tuple[int, ...]:
    """nu_ep(profile, h) at index h for h = 1..n (index 0 unused): every
    hook of a partition of n is at most n."""
    return (0, *(nu_ep(profile, h) for h in range(1, n + 1)))


def _hook_witness(lam, marks):
    """First node triple ((a,i), (a,j), (b,i)) whose hook mark v at (a,i)
    is positive and differs from the marks at both partners, in row-major
    order of the hooked node, then of the row and column partners; None
    if there is none.  marks[h] is the mark of a hook of length h.

    The row partner is node 1 of the row if its mark is not v, else the
    row's first change of mark; the column partner likewise.  Marks are
    read one node at a time up to the witness: a column's height when row
    1 first reaches it, a row's first change only when a node's mark
    equals the row's first mark, and each column's first change once."""
    if not lam:
        return None
    heights = [len(lam)]  # per column reached
    col_change = {}  # per column searched: first b whose mark differs from row 1's, or its height
    top = lam[0] - 1  # the hook at (1,i) is top + heights[i] - i
    for a, part in enumerate(lam):
        base = part - a - 1  # the hook at (a,i) is base + heights[i] - i
        first, row_change = marks[base + heights[0]], None
        for i in range(part):
            if i < len(heights):
                h = heights[i]
            else:  # row 1 reaches the columns in order
                h = heights[-1]
                while lam[h - 1] <= i:
                    h -= 1
                heights.append(h)
            v = marks[base + h - i]
            if v <= 0:
                continue
            if v == first and row_change is None:
                for row_change in range(1, part):  # the row's first change of mark
                    if row_change == len(heights):
                        k = heights[-1]
                        while lam[k - 1] <= row_change:
                            k -= 1
                        heights.append(k)
                    if marks[base + heights[row_change] - row_change] != first:
                        break
                else:
                    break  # one mark along the row: no row partner
            if marks[top + h - i] != v:
                b = 0
            else:
                b = col_change.get(i)
                if b is None:
                    for b in range(1, h):
                        if marks[lam[b] - b + h - i - 1] != v:
                            break
                    else:
                        b = h
                    col_change[i] = b
                if b == h:
                    continue
            j = 0 if v != first else row_change
            return ((a + 1, i + 1), (a + 1, j + 1), (b + 1, i + 1))
    return None


def _caveat(profile: QuantumProfile):
    """The report's caveat, None away from e = 2; an infinite e is refused."""
    if not profile.finite:
        raise ValueError("the criterion needs a finite quantum characteristic")
    return E2_CAVEAT if profile.e == 2 else None


def is_ep_reducible(lam, profile: QuantumProfile) -> ReducibilityReport:
    """Exhaustive search over node triples with the hook valuations
    nu_ep as marks; the witness is the first triple found."""
    lam = check_partition(lam)
    caveat = _caveat(profile)
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
    """One report per partition of n, in descending lexicographic order,
    made lazily.  The checks, the caveat and the mark table depend only
    on (profile, n): they are settled when it is called, so a bad profile
    raises here, and the partitions of n are not validated again."""
    if n < 1:
        raise ValueError("n must be positive")
    caveat, marks = _caveat(profile), _valuation_table(profile, n)
    return (ReducibilityReport(lam, profile.e, profile.p, witness is not None, witness, caveat)
            for lam in partitions_of(n) for witness in [_hook_witness(lam, marks)])
