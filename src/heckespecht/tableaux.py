"""Tableaux of a given shape and type, and the permutation combinatorics
attached to them.

Permutations are tuples in one-line notation with 1-based values:
``w[i-1]`` is the image of i under the right action.  Tableaux are stored
as immutable row tuples.  Everything enumerates in a fixed deterministic
order (lexicographic on reading words), which also realises the total
order used to triangularise one-node coefficient systems.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial, prod

from .partitions import check_composition, check_partition, drop_trailing_zeros


# ---------------------------------------------------------------------------
# permutations

def perm_identity(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1))


def perm_length(w) -> int:
    """Coxeter length as the inversion count of the one-line word."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def perm_times_s(w, i: int):
    """w s_i: swap the values i and i+1 in the one-line word."""
    pi = w.index(i)
    pj = w.index(i + 1)
    out = list(w)
    out[pi], out[pj] = i + 1, i
    return tuple(out)


@lru_cache(maxsize=262144)
def reduced_word(w) -> tuple[int, ...]:
    """A reduced word for w, letters applied left to right."""
    word = []
    cur = w
    pos = [0] * (len(w) + 1)
    while True:
        for i, x in enumerate(cur):
            pos[x] = i
        for i in range(1, len(w)):
            if pos[i + 1] < pos[i]:
                break
        else:
            break
        word.append(i)
        cur = perm_times_s(cur, i)
    word.reverse()
    return tuple(word)


# ---------------------------------------------------------------------------
# tableaux

class Tableau:
    """Immutable filling of a composition shape by positive integers."""

    __slots__ = ("rows", "_hash")

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        self._hash = hash(self.rows)

    @classmethod
    def from_json(cls, data) -> "Tableau":
        """The tableau of a JSON list of rows of positive integers (not booleans)."""
        if not isinstance(data, list) or not all(
                isinstance(row, list) and all(type(v) is int and v > 0 for v in row) for row in data):
            raise ValueError(f"a tableau is a list of rows of positive integers, not {data!r}")
        return cls(data)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    def content(self) -> tuple[int, ...]:
        """The type: entry v occurs content()[v-1] times."""
        counts: dict[int, int] = {}
        top = 0
        for row in self.rows:
            for v in row:
                counts[v] = counts.get(v, 0) + 1
                top = max(top, v)
        return tuple(counts.get(v, 0) for v in range(1, top + 1))

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def is_row_standard(self) -> bool:
        return all(row[k] <= row[k + 1] for row in self.rows for k in range(len(row) - 1))

    def is_semistandard(self) -> bool:
        if not self.is_row_standard():
            return False
        for i in range(len(self.rows) - 1):
            upper, lower = self.rows[i], self.rows[i + 1]
            if len(lower) > len(upper):
                return False
            for j in range(len(lower)):
                if lower[j] <= upper[j]:
                    return False
        return True

    def reading_word(self) -> tuple[int, ...]:
        return tuple(v for row in self.rows for v in row)

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Tableau(%s)" % (self.to_lists(),)

    def __str__(self):
        return "[" + ",".join("[" + ",".join(map(str, r)) + "]" for r in self.rows) + "]"

    def to_lists(self):
        return [list(r) for r in self.rows]


def t_row(shape) -> Tableau:
    """1..n along the rows."""
    shape = check_composition(shape)
    rows, k = [], 1
    for part in shape:
        rows.append(tuple(range(k, k + part)))
        k += part
    return Tableau(rows)


def t_col(shape) -> Tableau:
    """1..n down the columns."""
    shape = check_partition(shape)
    grid = [[0] * part for part in shape]
    conj_width = shape[0] if shape else 0
    k = 1
    for j in range(conj_width):
        for i in range(len(shape)):
            if shape[i] > j:
                grid[i][j] = k
                k += 1
    return Tableau(grid)


def w_lambda(shape) -> tuple[int, ...]:
    """The permutation sending the row filling to the column filling."""
    a = t_row(shape).reading_word()
    b = t_col(shape).reading_word()
    out = [0] * len(a)
    for x, y in zip(a, b):
        out[x - 1] = y
    return tuple(out)


def shape_row_of_position(shape) -> tuple[int, ...]:
    """Row index of each position of the row filling, 1-based positions."""
    out = []
    for r, part in enumerate(shape, start=1):
        out.extend([r] * part)
    return tuple(out)


def _fillings(shape, mu, columns: bool) -> list[tuple[int, ...]]:
    """Reading words of the fillings of the shape by the multiset of type
    mu with weakly increasing rows and, when columns is set, strictly
    increasing columns.  The cells are filled in reading order with the
    values tried in increasing order, so the words come out sorted."""
    shape = check_composition(shape)
    mu = check_composition(mu)
    if sum(shape) != sum(mu):
        raise ValueError("shape and type must have equal sizes")
    if columns and any(shape[i] > shape[i - 1] for i in range(1, len(shape))):
        return []  # as in Tableau.is_semistandard: no row outgrows the one above
    first, above = [], []
    for i, part in enumerate(shape):
        for j in range(part):
            first.append(j == 0)
            above.append(len(above) - shape[i - 1] if columns and i else -1)
    out: list[tuple[int, ...]] = []
    _fill([0] * len(first), 0, [0, *mu], first, above, out)
    return out


def _fill(word, k, remaining, first, above, out):
    """Fill word[k:], with remaining[v] copies of each value v left."""
    if k == len(word):
        out.append(tuple(word))
        return
    lo = 1 if first[k] else word[k - 1]
    if above[k] >= 0 and word[above[k]] >= lo:
        lo = word[above[k]] + 1
    for v in range(lo, len(remaining)):
        if remaining[v]:
            remaining[v] -= 1
            word[k] = v
            _fill(word, k + 1, remaining, first, above, out)
            remaining[v] += 1


def _tableaux(shape, mu, columns: bool) -> list[Tableau]:
    words = _fillings(shape, mu, columns)
    ends = list(itertools.accumulate(shape))
    cuts = list(zip([0] + ends, ends))
    return [Tableau([word[a:b] for a, b in cuts]) for word in words]


def enumerate_row_standard(shape, mu) -> list[Tableau]:
    """All row-standard tableaux of the given shape and type, in reading
    word order."""
    return _tableaux(shape, mu, columns=False)


def enumerate_semistandard(shape, mu) -> list[Tableau]:
    """All semistandard tableaux of the given shape and type, reading word
    order."""
    return _tableaux(shape, mu, columns=True)


def enumerate_standard(shape) -> list[Tableau]:
    shape = check_partition(shape)
    return enumerate_semistandard(shape, (1,) * sum(shape))


@lru_cache(maxsize=4096)
def standard_count(shape) -> int:
    return len(enumerate_standard(shape))


def permutation_dim(shape) -> int:
    """dim M^shape, the number of coset representatives, without listing them."""
    return factorial(sum(shape)) // prod(map(factorial, shape))


def row_equiv_class(tab: Tableau) -> list[Tableau]:
    """All tableaux row-equivalent to tab (all orderings within rows),
    deterministic order."""
    return [Tableau(rows) for rows in itertools.product(*map(_orderings, tab.rows))]


def _orderings(row) -> list[tuple[int, ...]]:
    """The distinct orderings of a row of positive integers, sorted: the
    fill in which every cell starts a row and no column links cells."""
    remaining = [0] * (max(row, default=0) + 1)
    for v in row:
        remaining[v] += 1
    out: list[tuple[int, ...]] = []
    _fill([0] * len(row), 0, remaining, [True] * len(row), [-1] * len(row), out)
    return out


def perm_of_tableau(tab: Tableau) -> tuple[int, ...]:
    """The minimal coset representative attached to a tableau of type mu:
    the reading word of the row-sorted preimage tableau."""
    mu_rows: list[list[int]] = [[] for _ in range(max((v for r in tab.rows for v in r), default=0))]
    k = 1
    for row in tab.rows:
        for v in row:
            if v < 1 or v > len(mu_rows):
                raise ValueError("malformed tableau entry")
            mu_rows[v - 1].append(k)
            k += 1
    out = []
    for row in mu_rows:
        out.extend(sorted(row))
    return tuple(out)


@lru_cache(maxsize=4096)
def coset_reps(shape) -> tuple[tuple[int, ...], ...]:
    """Minimal coset representatives for the row stabiliser of the given
    shape: reading words of row-standard fillings by 1..n, sorted."""
    return tuple(_fillings(shape, (1,) * sum(check_composition(shape)), columns=False))


# ---------------------------------------------------------------------------
# one-node codes

class OneNodeCode:
    """Compact code for semistandard tableaux arising from one-node moves.

    The base is a partition mu = (mu_1, ..., mu_s, 1) and the shape is
    lam = (mu_1 + 1, mu_2, ..., mu_s).  Row a of the tableau is constant
    equal to a except for its last entry, recorded as entries[a-1]."""

    __slots__ = ("base", "entries")

    def __init__(self, base, entries):
        base = check_partition(base)
        if not base or base[-1] != 1:
            raise ValueError("base must end in a part equal to 1")
        s = len(base) - 1
        entries = tuple(entries)
        if len(entries) != s:
            raise ValueError(f"expected {s} entries, got {len(entries)}")
        if sorted(entries) != list(range(2, s + 2)):
            raise ValueError("entries must be a permutation of 2..s+1")
        for a, v in enumerate(entries, start=1):
            if v < a:
                raise ValueError(f"entry {v} in slot {a} is too small")
        self.base = base
        self.entries = entries

    @property
    def shape(self) -> tuple[int, ...]:
        mu = self.base
        return drop_trailing_zeros((mu[0] + 1,) + mu[1:-1])

    def is_semistandard(self) -> bool:
        lam = self.shape
        for a in range(len(lam) - 1):
            if lam[a] == lam[a + 1] and self.entries[a] >= self.entries[a + 1]:
                return False
        return True

    def to_tableau(self) -> Tableau:
        lam = self.shape
        rows = []
        for a, part in enumerate(lam, start=1):
            row = [a] * (part - 1) + [self.entries[a - 1]]
            rows.append(row)
        return Tableau(rows)

    @classmethod
    def from_tableau(cls, base, tab: Tableau) -> "OneNodeCode":
        entries = []
        for a, row in enumerate(tab.rows, start=1):
            for j, v in enumerate(row[:-1], start=1):
                if v != a:
                    raise ValueError("tableau is not in one-node form")
            entries.append(row[-1])
        return cls(base, entries)

    def __eq__(self, other):
        return (
            isinstance(other, OneNodeCode)
            and self.base == other.base
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.base, self.entries))

    def __str__(self):
        ent = ",".join(str(v) for v in self.entries)
        base = ",".join(str(v) for v in self.base)
        return f"mu:{ent}|base={base}"

    __repr__ = __str__

    @classmethod
    def parse(cls, text: str) -> "OneNodeCode":
        if not text.startswith("mu:") or "|base=" not in text:
            raise ValueError(f"cannot parse one-node code {text!r}")
        ent_text, base_text = text[3:].split("|base=", 1)
        entries = [int(v) for v in ent_text.split(",") if v]
        base = [int(v) for v in base_text.split(",") if v]
        return cls(base, entries)


def one_node_codes(base) -> list[OneNodeCode]:
    """All semistandard one-node codes over the given base, in the
    lexicographic order of their entry sequences.  These are the
    semistandard tableaux of the code shape and type base, read off at
    the row ends: each of them is in one-node form."""
    least = OneNodeCode(base, range(2, len(base) + 1))
    if len(least.base) == 1:
        return [least]  # the base (1,): one empty code, no tableau
    ends = list(itertools.accumulate(least.shape))
    return [
        OneNodeCode(least.base, [word[e - 1] for e in ends])
        for word in _fillings(least.shape, least.base, columns=True)
    ]
