import itertools
from math import factorial

from heckespecht.partitions import check_composition, partitions_of
from heckespecht.tableaux import (
    Tableau,
    coset_rep,
    coset_reps,
    enumerate_row_standard,
    enumerate_semistandard,
    enumerate_standard,
    perm_identity,
    perm_length,
    perm_times_s,
    reduced_word,
    row_equiv_class,
    standard_count,
    t_col,
    t_row,
    w_lambda,
)


def test_distinguished_tableaux():
    assert t_row((3, 2)).rows == ((1, 2, 3), (4, 5))
    assert t_col((3, 2)).rows == ((1, 3, 5), (2, 4))
    assert w_lambda((3, 2)) == (1, 3, 5, 2, 4)  # the cycle (2 3 5 4)
    assert w_lambda((4,)) == perm_identity(4)
    assert w_lambda((2, 1)) == (1, 3, 2)


def test_permutation_basics():
    w = (2, 3, 1)
    assert perm_length(w) == 2
    assert perm_times_s(perm_identity(3), 2) == (1, 3, 2)


def test_reduced_words_match_inversion_length():
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            word = reduced_word(w)
            assert len(word) == perm_length(w)
            cur = perm_identity(n)
            for i in word:
                cur = perm_times_s(cur, i)
            assert cur == w


def test_semistandard_counts():
    assert len(enumerate_semistandard((3,), (2, 1))) == 1
    assert len(enumerate_semistandard((2, 1), (2, 1))) == 1
    tabs = enumerate_semistandard((3, 1), (2, 1, 1))
    assert [t.rows for t in tabs] == [((1, 1, 2), (3,)), ((1, 1, 3), (2,))]


def test_semistandard_subset_of_row_standard():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                rs = set(enumerate_row_standard(lam, mu))
                ss = enumerate_semistandard(lam, mu)
                assert set(ss) <= rs
                for t in ss:
                    assert t.is_semistandard()


def enumerate_tableaux(shape, mu) -> list[Tableau]:
    """Every filling of the shape with the given type (desk scale only)."""
    shape = check_composition(shape)
    mu = check_composition(mu)
    if sum(shape) != sum(mu):
        raise ValueError("shape and type must have equal sizes")
    entries = [v for v, count in enumerate(mu, start=1) for _ in range(count)]
    words = sorted(set(itertools.permutations(entries)))
    out = []
    for word in words:
        rows, k = [], 0
        for part in shape:
            rows.append(word[k:k + part])
            k += part
        out.append(Tableau(rows))
    return out


def test_coset_bijection():
    for n in range(1, 7):
        for mu in partitions_of(n):
            reps = set(coset_reps(mu))
            assert len(reps) == factorial(n) // _stab_order(mu)
            for lam in partitions_of(n):
                perms = [coset_rep(t.reading_word()) for t in enumerate_tableaux(lam, mu)]
                assert len(set(perms)) == len(perms)
                assert set(perms) == reps


def _stab_order(mu):
    out = 1
    for part in mu:
        out *= factorial(part)
    return out


def test_coset_reps_special_shapes():
    assert coset_reps((4,)) == (perm_identity(4),)
    assert len(coset_reps((2, 1))) == 3
    assert len(coset_reps((1, 1, 1))) == 6


def coset_decompose(shape, w):
    """Write w = v d with v in the row stabiliser of the shape and d the
    minimal coset representative; returns (length of v, d)."""
    start = 0
    d = []
    lv = 0
    for part in shape:
        block = w[start:start + part]
        order = sorted(block)
        pattern = tuple(order.index(x) + 1 for x in block)
        lv += perm_length(pattern)
        d.extend(order)
        start += part
    return lv, tuple(d)


def test_coset_decomposition_is_length_additive():
    for mu in [(2, 1), (2, 2), (3, 1), (2, 1, 1)]:
        n = sum(mu)
        reps = set(coset_reps(mu))
        for w in itertools.permutations(range(1, n + 1)):
            lv, d = coset_decompose(mu, w)
            assert d in reps
            assert perm_length(w) == lv + perm_length(d)


def test_perm_of_tableau_examples():
    assert coset_rep(Tableau([[1, 1], [2]]).reading_word()) == perm_identity(3)
    assert coset_rep(Tableau([[1, 1, 2]]).reading_word()) == perm_identity(3)
    t = Tableau([[1, 2, 1]])
    assert coset_rep(t.reading_word()) == (1, 3, 2)


def test_row_equiv_class_sizes():
    assert len(row_equiv_class(Tableau([[1, 2, 3], [4, 5]]))) == 12
    assert len(row_equiv_class(Tableau([[1, 1, 2]]))) == 3
    assert len(row_equiv_class(Tableau([[1], [2], [3]]))) == 1
    # a long row with one repeated value: its 10 orderings, not 10! permutations
    long_row = row_equiv_class(Tableau([[1] * 9 + [2]]))
    assert [t.rows[0].index(2) for t in long_row] == list(range(9, -1, -1))
    # against the brute force over every permutation of every row
    checked = 0
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for tab in enumerate_row_standard(lam, mu):
                    brute = itertools.product(
                        *(sorted(set(itertools.permutations(row))) for row in tab.rows)
                    )
                    assert row_equiv_class(tab) == [Tableau(rows) for rows in brute], tab
                    checked += 1
    assert checked > 1000


def test_standard_counts_match_enumeration():
    assert standard_count((2, 1)) == 2
    assert standard_count((2, 2)) == 2
    assert standard_count((3, 2, 1)) == 16
    for lam, expect in [((4,), 1), ((3, 1), 3), ((2, 1, 1), 3), ((2, 2), 2)]:
        assert len(enumerate_standard(lam)) == expect
    # the hook length formula against the enumeration, every partition of n <= 8
    for n in range(9):
        for lam in partitions_of(n):
            assert standard_count(lam) == len(enumerate_standard(lam)), lam


def test_enumeration_is_sorted_by_reading_word():
    for lam, mu in [((3, 1), (2, 1, 1)), ((2, 2), (1, 1, 1, 1)), ((2, 0, 2), (1, 2, 1))]:
        for tabs in (enumerate_semistandard(lam, mu), enumerate_row_standard(lam, mu)):
            words = [t.reading_word() for t in tabs]
            assert words == sorted(words)
        assert list(coset_reps(lam)) == sorted(coset_reps(lam))


def _compositions(n, max_parts):
    """The compositions of n with at most max_parts parts, zero parts
    included."""
    for k in range(max_parts + 1):
        for parts in itertools.product(range(n + 1), repeat=k):
            if sum(parts) == n:
                yield parts


def test_fillings_match_filtered_permutations():
    for n in range(6):
        comps = list(_compositions(n, 4))
        for mu in comps:
            for shape in comps:
                every = enumerate_tableaux(shape, mu)
                rs = [t for t in every if t.is_row_standard()]
                ss = [t for t in every if t.is_semistandard()]
                assert enumerate_row_standard(shape, mu) == rs, (shape, mu)
                assert enumerate_semistandard(shape, mu) == ss, (shape, mu)


def test_coset_reps_are_the_minimal_length_representatives():
    for n in range(7):
        shapes = set(_compositions(n, 3)) | {c for c in _compositions(n, n) if 0 not in c}
        for shape in shapes:
            ends = list(itertools.accumulate(shape))
            cuts = list(zip([0] + ends, ends))
            least: dict = {}
            for w in itertools.permutations(range(1, n + 1)):
                coset = tuple(frozenset(w[a:b]) for a, b in cuts)
                if coset not in least or perm_length(w) < perm_length(least[coset]):
                    least[coset] = w
            assert coset_reps(shape) == tuple(sorted(least.values())), shape


def test_one_node_tableaux_are_read_by_row_ends():
    # the semistandard tableaux of shape (mu_1 + 1, mu_2, ..., mu_s) and
    # type mu = (mu_1, ..., mu_s, 1) hold a in row a except at its end,
    # and their row ends are the permutations of 2..s+1 with entry a in
    # slot a at least a, increasing along rows of equal length
    for n in range(2, 10):
        for mu in partitions_of(n):
            if mu[-1] != 1 or len(mu) < 2:
                continue
            lam = (mu[0] + 1,) + mu[1:-1]
            tabs = enumerate_semistandard(lam, mu)
            for tab in tabs:
                assert all(set(row[:-1]) <= {a} for a, row in enumerate(tab.rows, start=1)), tab
            s = len(lam)
            expect = [
                perm for perm in itertools.permutations(range(2, s + 2))
                if all(v >= a for a, v in enumerate(perm, start=1))
                and all(lam[a] > lam[a + 1] or perm[a] < perm[a + 1] for a in range(s - 1))
            ]
            assert [tuple(row[-1] for row in tab.rows) for tab in tabs] == expect, mu
