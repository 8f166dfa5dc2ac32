import pytest

from heckespecht.partitions import (
    check_partition,
    conjugate,
    dominates,
    drop_trailing_zeros,
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
