"""Partitions, compositions, dominance, hooks and row-merge compositions.

Partitions are weakly decreasing tuples of positive integers; compositions
are tuples of nonnegative integers (they may carry zero parts, which the
row-merge construction produces).  Dropping trailing zeros is always
explicit, never implicit, and inputs are validated rather than silently
sorted.  Nodes are 1-based (row, column) pairs.
"""

from __future__ import annotations

import itertools


def check_partition(parts) -> tuple[int, ...]:
    parts = tuple(parts)
    for i, x in enumerate(parts):
        if not isinstance(x, int) or x <= 0:
            raise ValueError(f"partition parts must be positive integers: {parts}")
        if i and parts[i - 1] < x:
            raise ValueError(f"parts must be weakly decreasing: {parts}")
    return parts


def check_composition(parts) -> tuple[int, ...]:
    parts = tuple(parts)
    for x in parts:
        if not isinstance(x, int) or x < 0:
            raise ValueError(f"composition parts must be nonnegative integers: {parts}")
    return parts


def parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return check_partition(int(p) for p in text.split(","))


def format_parts(parts) -> str:
    return ",".join(str(p) for p in parts)


def drop_trailing_zeros(parts) -> tuple[int, ...]:
    parts = tuple(parts)
    n = len(parts)
    while n and parts[n - 1] == 0:
        n -= 1
    return parts[:n]


def partitions_of(n: int, max_part: int | None = None):
    """All partitions of n in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def conjugate(shape) -> tuple[int, ...]:
    shape = drop_trailing_zeros(shape)
    if not shape:
        return ()
    width = max(shape)
    return tuple(sum(1 for part in shape if part >= j) for j in range(1, width + 1))


def dominates(lam, nu) -> bool:
    """Partial-sum comparison of two compositions of the same number."""
    if sum(lam) != sum(nu):
        raise ValueError("dominance needs equal sums")
    total_l = total_n = 0
    for a, b in itertools.zip_longest(lam, nu, fillvalue=0):
        total_l += a
        total_n += b
        if total_l < total_n:
            return False
    return True


def hook_length(shape, node) -> int:
    i, j = node
    shape = check_partition(shape)
    if i < 1 or j < 1 or i > len(shape) or j > shape[i - 1]:
        raise ValueError(f"node {node} outside the diagram of {shape}")
    conj = conjugate(shape)
    return shape[i - 1] - i + conj[j - 1] - j + 1


def nu_composition(mu, d: int, t: int) -> tuple[int, ...]:
    """Merge all but t entries of row d+1 into row d."""
    mu = check_composition(mu)
    if d < 1 or d + 1 > len(mu):
        raise ValueError(f"row {d + 1} outside {mu}")
    if not 0 <= t < mu[d]:
        raise ValueError(f"need 0 <= t < {mu[d]}, got t={t}")
    out = list(mu)
    out[d - 1] = mu[d - 1] + mu[d] - t
    out[d] = t
    return tuple(out)


def trim_first_row(lam, mu):
    lam = check_partition(lam)
    mu = check_partition(mu)
    if not lam or not mu or lam[0] != mu[0]:
        raise ValueError("first rows must be equal")
    return lam[1:], mu[1:]


def trim_first_column(lam, mu):
    lam = check_partition(lam)
    mu = check_partition(mu)
    if len(lam) != len(mu):
        raise ValueError("first columns must be equal")
    if not lam:
        raise ValueError("nothing to trim")
    return (
        drop_trailing_zeros(x - 1 for x in lam),
        drop_trailing_zeros(x - 1 for x in mu),
    )


def is_2regular(lam) -> bool:
    lam = check_partition(lam)
    return len(set(lam)) == len(lam)
