"""Tableaux of a given shape and type, and the permutation combinatorics
attached to them.

Permutations are tuples in one-line notation with 1-based values:
``w[i-1]`` is the image of i under the right action.  Tableaux are stored
as immutable row tuples.  Everything enumerates in a fixed deterministic
order (lexicographic on reading words).  A row word of a composition nu,
letter k the row of nu that holds k, is the reading word of a tableau of
type nu; ``coset_rep`` gives the minimal coset representative it names.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial, prod

from .memo import sized_cache
from .partitions import check_composition, check_partition, conjugate


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
    _fill([0] * len(first), [0, *mu], first, above, out)
    return out


def _fill(word, remaining, first, above, out):
    """Fill word cell by cell, with remaining[v] copies of each value v,
    the values at each cell tried in increasing order, with no recursion:
    a cell that has run out of values hands back to the one before it."""
    n, top = len(word), len(remaining)
    k, v = 0, 0  # the cell being filled and the next value to try there, 0 on entry
    while k >= 0:
        if k == n:
            out.append(tuple(word))
        else:
            if v == 0:  # the cell is entered: start at the smallest value allowed
                v = 1 if first[k] else word[k - 1]
                if above[k] >= 0 and word[above[k]] >= v:
                    v = word[above[k]] + 1
            while v < top and not remaining[v]:
                v += 1
            if v < top:
                remaining[v] -= 1
                word[k] = v
                k, v = k + 1, 0
                continue
        k -= 1  # back to the cell before: put its value back, try the next
        if k >= 0:
            remaining[word[k]] += 1
            v = word[k] + 1


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
    """All semistandard tableaux of the given shape and type, in reading
    word order."""
    return _tableaux(shape, mu, columns=True)


def enumerate_standard(shape) -> list[Tableau]:
    shape = check_partition(shape)
    return enumerate_semistandard(shape, (1,) * sum(shape))


def standard_count(shape) -> int:
    """dim S^shape by the hook length formula: n! over the product of the
    hook lengths.  Column c (0-based) of height conj[c] holds the cells
    (a, c), a < conj[c], with hook shape[a] - c + conj[c] - a - 1."""
    shape = check_partition(shape)
    hooks = prod(
        part - c + height - a - 1
        for c, height in enumerate(conjugate(shape))
        for a, part in enumerate(shape[:height])
    )
    return factorial(sum(shape)) // hooks


def permutation_dim(shape) -> int:
    """dim M^shape, the number of coset representatives, without listing them."""
    return factorial(sum(shape)) // prod(map(factorial, shape))


def row_equiv_class(tab: Tableau) -> list[Tableau]:
    """All tableaux row-equivalent to tab (all orderings within rows),
    deterministic order."""
    return [Tableau(rows) for rows in itertools.product(*map(_orderings, tab.rows))]


# at most 8! orderings of one row are kept, 2^17 in all: a row of nine
# distinct letters has 362,880 (about 40 MiB) and is built per call
@sized_cache(maxsize=4096, maxterms=1 << 17, maxentry=40320)
def _orderings(row) -> tuple[tuple[int, ...], ...]:
    """The distinct orderings of a row tuple of positive integers, sorted:
    the fill in which every cell starts a row and no column links cells."""
    remaining = [0] * (max(row, default=0) + 1)
    for v in row:
        remaining[v] += 1
    out: list[tuple[int, ...]] = []
    _fill([0] * len(row), remaining, [True] * len(row), [-1] * len(row), out)
    return tuple(out)


def coset_rep(word) -> tuple[int, ...]:
    """The minimal coset representative d of the row word of x T_d (letter
    k the row that holds k): 1..n stably sorted by row, the reading word of
    the row-standard tableau that holds k in row word[k-1]."""
    return tuple(sorted(range(1, len(word) + 1), key=lambda k: word[k - 1]))


@lru_cache(maxsize=4096)
def coset_reps(shape) -> tuple[tuple[int, ...], ...]:
    """Minimal coset representatives for the row stabiliser of the given
    shape: reading words of row-standard fillings by 1..n, sorted."""
    return tuple(_fillings(shape, (1,) * sum(check_composition(shape)), columns=False))
