import pytest

from heckespecht.partitions import (
    check_partition,
    conjugate,
    dominates,
    drop_trailing_zeros,
    e_core,
    hook_length,
    is_2regular,
    nu_composition,
    parse_partition,
    partitions_of,
)


def test_conjugate_examples():
    assert conjugate((3, 2)) == (2, 2, 1)
    assert conjugate((5,)) == (1, 1, 1, 1, 1)
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)


def test_conjugate_involution():
    for n in range(11):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_dominance_examples():
    assert dominates((3, 1), (3, 1))
    assert dominates((3, 1), (2, 2))
    assert not dominates((2, 2), (3, 1))
    assert not dominates((2, 2, 1), (3, 2))
    with pytest.raises(ValueError):
        dominates((2, 1), (2, 2))


def test_dominance_conjugate_reversal():
    for n in range(9):
        parts = list(partitions_of(n))
        for lam in parts:
            for nu in parts:
                assert dominates(lam, nu) == dominates(conjugate(nu), conjugate(lam))


def test_hook_lengths():
    assert hook_length((2, 1), (1, 1)) == 3
    assert hook_length((6,), (1, 6)) == 1
    assert hook_length((2, 2), (1, 2)) == 2
    with pytest.raises(ValueError):
        hook_length((2, 2), (3, 1))


def test_hook_multiset_conjugation_symmetry():
    for n in range(1, 9):
        for lam in partitions_of(n):
            conj = conjugate(lam)
            hooks = sorted(
                hook_length(lam, (i, j))
                for i in range(1, len(lam) + 1)
                for j in range(1, lam[i - 1] + 1)
            )
            hooks_conj = sorted(
                hook_length(conj, (i, j))
                for i in range(1, len(conj) + 1)
                for j in range(1, conj[i - 1] + 1)
            )
            assert hooks == hooks_conj
            assert len(hooks) == n


def test_nu_composition():
    assert nu_composition((3, 2, 2), 1, 1) == (4, 1, 2)
    assert nu_composition((2, 1), 1, 0) == (3, 0)
    with pytest.raises(ValueError):
        nu_composition((3, 2), 1, 2)
    with pytest.raises(ValueError):
        nu_composition((3, 2), 2, 0)


def test_is_2regular():
    assert is_2regular((3, 2, 1))
    assert not is_2regular((2, 2))
    assert not is_2regular((1, 1))


def test_partition_validation_and_parsing():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))
    assert parse_partition("3,2,1") == (3, 2, 1)
    assert parse_partition("") == ()
    with pytest.raises(ValueError):
        parse_partition("2,3")
    assert drop_trailing_zeros((3, 2, 0, 0)) == (3, 2)


def test_partition_enumeration_order():
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    counts = [len(list(partitions_of(n))) for n in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def _partitions_reference(n, top):
    if n == 0:
        yield ()
        return
    for first in range(min(n, top), 0, -1):
        for rest in _partitions_reference(n - first, first):
            yield (first,) + rest


def test_partitions_of_matches_recursive_reference():
    for n in range(21):
        assert list(partitions_of(n)) == list(_partitions_reference(n, n)), n
        for max_part in range(n + 2):
            expect = list(_partitions_reference(n, max_part))
            assert list(partitions_of(n, max_part)) == expect, (n, max_part)


def test_conjugate_counts_parts_at_least_j():
    for n in range(15):
        for lam in partitions_of(n):
            expect = tuple(sum(1 for part in lam if part >= j) for j in range(1, n + 1))
            expect = drop_trailing_zeros(expect)
            assert conjugate(lam) == expect, lam
            assert conjugate(lam + (0, 0)) == expect, lam
    for bad in ((1, 2), (2, 0, 1), (-1,), (3, -1)):
        with pytest.raises(ValueError):
            conjugate(bad)


def _residue_counts(lam, e):
    """How many nodes of lam have each residue (c - r) mod e."""
    counts = [0] * e
    for r, part in enumerate(lam, start=1):
        for c in range(1, part + 1):
            counts[(c - r) % e] += 1
    return counts


def test_e_core_against_rim_hook_facts():
    for e in range(2, 7):
        for n in range(11):
            blocks: dict = {}
            for lam in partitions_of(n):
                core = e_core(lam, e)
                check_partition(core)
                # no hook of the core has length divisible by e
                assert all(hook_length(core, (i, j)) % e
                           for i in range(1, len(core) + 1)
                           for j in range(1, core[i - 1] + 1)), (lam, e, core)
                removed, rest = divmod(n - sum(core), e)
                assert rest == 0, (lam, e, core)
                # each rim e-hook removed takes one node of every residue
                assert [a - b for a, b in zip(_residue_counts(lam, e), _residue_counts(core, e))] \
                    == [removed] * e, (lam, e, core)
                assert e_core(core, e) == core
                blocks.setdefault(tuple(_residue_counts(lam, e)), set()).add(core)
            # same core exactly when the same residue multiset
            assert all(len(cores) == 1 for cores in blocks.values()), (n, e)
            assert len({core for cores in blocks.values() for core in cores}) == len(blocks)
            if n:
                assert e_core((n,), e) == ((n % e,) if n % e else ())


def test_e_core_examples():
    assert e_core((7, 2), 3) == (4, 2)
    assert e_core((2, 2, 1, 1, 1, 1, 1), 3) == (2, 2, 1, 1)
    assert e_core((3, 2, 1), 2) == (3, 2, 1)
    assert e_core((4, 4, 1), 2) == (1,)
    assert e_core((), 3) == ()
    # e beyond n leaves every partition its own core, however large e is
    assert e_core((2, 1), 10**9 + 7) == (2, 1)
    assert e_core((5, 3, 3, 1), 999999999989) == (5, 3, 3, 1)
    for n in range(8):
        for lam in partitions_of(n):
            assert e_core(lam, None) == lam
    with pytest.raises(ValueError):
        e_core((1, 2), 3)
