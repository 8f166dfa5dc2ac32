"""Partitions, compositions, dominance, hooks and row-merge compositions.

Partitions are weakly decreasing tuples of positive integers; compositions
are tuples of nonnegative integers (they may carry zero parts, which the
row-merge construction produces).  Dropping trailing zeros is always
explicit, never implicit, and inputs are validated rather than silently
sorted.  Nodes are 1-based (row, column) pairs.
"""

from __future__ import annotations

import collections
import itertools


def check_partition(parts) -> tuple[int, ...]:
    parts = tuple(parts)
    for i, x in enumerate(parts):
        if type(x) is not int or x <= 0:
            raise ValueError(f"partition parts must be positive integers: {parts}")
        if i and parts[i - 1] < x:
            raise ValueError(f"parts must be weakly decreasing: {parts}")
    return parts


def check_composition(parts) -> tuple[int, ...]:
    parts = tuple(parts)
    for x in parts:
        if type(x) is not int or x < 0:
            raise ValueError(f"composition parts must be nonnegative integers: {parts}")
    return parts


def parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return check_partition(int(p) for p in text.split(","))


def drop_trailing_zeros(parts) -> tuple[int, ...]:
    parts = tuple(parts)
    n = len(parts)
    while n and parts[n - 1] == 0:
        n -= 1
    return parts[:n]


def partitions_of(n: int, max_part: int | None = None):
    """All partitions of n with parts at most max_part, in descending
    lexicographic order.  Each is the successor of the one before: the
    last part above 1 drops by one, and it and the 1s after it are
    refilled greedily with parts no larger than the new value."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    if max_part < 1:
        return
    parts = []
    rest, size = n, max_part
    while True:
        parts += [size] * (rest // size)
        if rest % size:
            parts.append(rest % size)
        yield tuple(parts)
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        size = parts.pop() - 1
        rest = size + 1 + ones


def conjugate(shape) -> tuple[int, ...]:
    """Column lengths of a partition (trailing zeros allowed), in one
    pass from the last row up: columns lam_{r+1}+1 .. lam_r have r rows."""
    shape = drop_trailing_zeros(shape)
    out = []
    prev = 0
    for r in range(len(shape), 0, -1):
        part = shape[r - 1]
        if part < prev:
            raise ValueError(f"not a partition: {shape}")
        out += [r] * (part - prev)
        prev = part
    return tuple(out)


def e_core(shape, e) -> tuple[int, ...]:
    """The partition left once no rim e-hook remains to remove, read off an
    abacus of e runners: the beta numbers lam_i + r - i of the r parts
    slide up their runners (beta mod e), and the slid beads are the beta
    numbers of the core.  With e None (no rim hooks) it is the partition.
    Only the occupied runners are kept, so the work is in the parts, not
    in e (e = p can be large when q = 1)."""
    shape = check_partition(shape)
    if e is None:
        return shape
    r = len(shape)
    beads = collections.Counter((part + r - 1 - i) % e for i, part in enumerate(shape))
    betas = sorted((b + e * k for b, count in beads.items() for k in range(count)), reverse=True)
    return drop_trailing_zeros(beta - (r - 1 - i) for i, beta in enumerate(betas))


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


def is_2regular(lam) -> bool:
    lam = check_partition(lam)
    return len(set(lam)) == len(lam)
