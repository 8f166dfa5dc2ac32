"""Action soundness, Specht generators and spinning.

The independent oracle here is multiplication in the full group algebra:
x-shape elements expanded over the n! basis, multiplied by the defining
relation, and compared term by term against the coset-basis action.
"""

import pytest

from heckespecht.hecke import (
    HeckeElement,
    ModuleVector,
    SparseEchelon,
    _acc,
    act_gen,
    act_word,
    apply_signed_stabilizer_sum,
    basis_vector,
    push_through,
    run_sum_identity_holds,
    specht_generator,
    spin_specht,
    x_element,
    y_element,
)
from heckespecht.partitions import conjugate, dominates, partitions_of
from heckespecht.qfield import Cyclotomic, PrimeField, spec_for_profile
from heckespecht.tableaux import (
    coset_reps,
    perm_identity,
    perm_times_s,
    standard_count,
    t_col,
    w_lambda,
)


def expand_over_group_algebra(v: ModuleVector) -> HeckeElement:
    """Independent expansion of a coset-basis vector over the n! basis."""
    x = x_element(v.field, v.shape)
    out = HeckeElement(v.field, sum(v.shape), {})
    for d, c in v.coeffs.items():
        out = out.add(x.times_word(d).scale(c))
    return out


def test_act_gen_three_cases(cyclo3):
    v = basis_vector(cyclo3, (2, 1))
    assert act_gen(v, 1) == v.scale(cyclo3.q)
    moved = act_gen(v, 2)
    assert moved.coeffs == {(1, 3, 2): cyclo3.one_rep}
    back = act_gen(moved, 2)
    q = cyclo3.q_rep
    assert back.coeffs == {
        (1, 2, 3): q,
        (1, 3, 2): cyclo3.sub(q, cyclo3.one_rep),
    }


def test_act_word_identity_and_coset_moves(f7q2):
    v = basis_vector(f7q2, (2, 2))
    assert act_word(v, perm_identity(4)) == v
    for d in coset_reps((2, 2)):
        moved = act_word(v, d)
        assert moved.coeffs == {d: f7q2.one_rep}


def test_push_through_kills_same_row_pair(cyclo3):
    # I - q^{-1} T_1 annihilates any vector whose keys keep 1, 2 in one row
    h = HeckeElement.from_perm(cyclo3, perm_identity(4)).add(
        HeckeElement.from_perm(cyclo3, perm_times_s(perm_identity(4), 1)).scale(
            cyclo3.neg(cyclo3.q_power(-1))
        )
    )
    v = basis_vector(cyclo3, (2, 2))
    assert push_through(v, h).is_zero()


def test_vectors_of_different_modules_do_not_mix(cyclo3, f7q2):
    v = basis_vector(cyclo3, (2, 1))
    with pytest.raises(ValueError, match="different fields"):
        push_through(v, basis_vector(f7q2, (2, 1)))
    for other in (basis_vector(f7q2, (2, 1)), basis_vector(cyclo3, (1, 2))):
        with pytest.raises(ValueError, match="vectors live in different modules"):
            v.add(other)


@pytest.mark.parametrize("field_name", ["cyclo3", "f7q2"])
def test_action_matches_group_algebra_oracle(field_name, request):
    field = request.getfixturevalue(field_name)
    for n in range(2, 5):
        for lam in partitions_of(n):
            x = x_element(field, lam)
            for d in coset_reps(lam):
                xd = x.times_word(d)
                for i in range(1, n):
                    direct = xd.times_gen(i)
                    via_action = expand_over_group_algebra(
                        act_gen(basis_vector(field, lam, d), i)
                    )
                    assert direct == via_action, (lam, d, i)


def test_quadratic_and_braid_relations(cyclo4):
    q = cyclo4.q
    for n in range(2, 7):
        for lam in partitions_of(n):
            for d in coset_reps(lam):
                v = basis_vector(cyclo4, lam, d)
                for i in range(1, n):
                    twice = act_gen(act_gen(v, i), i)
                    assert twice == act_gen(v, i).scale(q - 1).add(v.scale(q))
                for i in range(1, n - 1):
                    aba = act_gen(act_gen(act_gen(v, i), i + 1), i)
                    bab = act_gen(act_gen(act_gen(v, i + 1), i), i + 1)
                    assert aba == bab
                for i in range(1, n - 2):
                    ac = act_gen(act_gen(v, i), i + 2)
                    ca = act_gen(act_gen(v, i + 2), i)
                    assert ac == ca


def test_x_and_y_eigenvalue_relations(f7q2):
    x = x_element(f7q2, (2, 2))
    y = y_element(f7q2, (2, 2))
    # multiplying by a stabiliser generator scales x by q and y by -1
    assert x.times_gen(1) == x.scale(f7q2.q)
    assert y.times_gen(1) == y.scale(f7q2.neg(f7q2.one_rep))


def test_specht_generator_examples(cyclo3):
    g = specht_generator(cyclo3, (3,))
    assert g.coeffs == {perm_identity(3): cyclo3.one_rep}
    minus_qinv = cyclo3.neg(cyclo3.q_power(-1))
    g = specht_generator(cyclo3, (2, 1))
    assert g.coeffs == {(1, 3, 2): cyclo3.one_rep, (2, 3, 1): minus_qinv}
    g = specht_generator(cyclo3, (1, 1))
    assert g.coeffs == {(1, 2): cyclo3.one_rep, (2, 1): minus_qinv}


def test_signed_stabilizer_sum_matches_element(f7q2, cyclo3):
    for field in (f7q2, cyclo3):
        for lam in partitions_of(4):
            h = y_element(field, conjugate(lam))
            for d in coset_reps(lam)[:6]:
                v = basis_vector(field, lam, d)
                assert apply_signed_stabilizer_sum(v, conjugate(lam)) == push_through(v, h)


@pytest.mark.parametrize("field_name", ["f7q2", "cyclo3", "ext23"])
def test_specht_generator_matches_per_key_oracle(field_name, request):
    # the generator is x-vector . T_{w_lambda} . y_{lambda'}; the library
    # factors y into run sums, the oracle acts one word per key
    field = request.getfixturevalue(field_name)
    for n in range(1, 7):
        for lam in partitions_of(n):
            v = act_word(basis_vector(field, lam), w_lambda(lam))
            expect = push_through(v, y_element(field, conjugate(lam)))
            assert specht_generator(field, lam) == expect, (field.name, lam)


def test_dominance_kill(f7q2):
    # a signed column sum annihilates every coset vector of a shape it
    # does not dominate
    for n in range(2, 6):
        for lam in partitions_of(n):
            for nu in partitions_of(n):
                if dominates(lam, nu):
                    continue
                for w in coset_reps(nu):
                    v = basis_vector(f7q2, nu, w)
                    assert apply_signed_stabilizer_sum(v, conjugate(lam)).is_zero()


def test_same_column_pair_kill(f7q2):
    # two entries of one column of the column filling sharing a row force
    # the signed sum to vanish
    for n in range(2, 6):
        for nu in partitions_of(n):
            for lam in partitions_of(n):
                cols = {}
                for i, row in enumerate(t_col(lam).rows):
                    for j, val in enumerate(row):
                        cols.setdefault(j, set()).add(val)
                columns = list(cols.values())
                for w in coset_reps(nu):
                    start, clash = 0, False
                    for part in nu:
                        row = set(w[start:start + part])
                        start += part
                        if any(len(row & col) >= 2 for col in columns):
                            clash = True
                            break
                    if not clash:
                        continue
                    v = basis_vector(f7q2, nu, w)
                    assert apply_signed_stabilizer_sum(v, conjugate(lam)).is_zero()


def test_spin_dimensions(cyclo3, f7q2):
    for field in (cyclo3, f7q2):
        for n in range(1, 6):
            for lam in partitions_of(n):
                module = spin_specht(field, lam)
                assert module.dimension == standard_count(lam)


def test_spin_dimensions_at_e2():
    c2 = Cyclotomic(2)
    for lam in partitions_of(5):
        assert spin_specht(c2, lam).dimension == standard_count(lam)


def test_generator_matrices_satisfy_relations(cyclo3):
    module = spin_specht(cyclo3, (2, 2, 1))
    n = 5
    q = cyclo3.q_rep
    dim = module.dimension

    def matmul(a, b):
        return [
            [
                _dot(cyclo3, [a[r][k] for k in range(dim)], [b[k][c] for k in range(dim)])
                for c in range(dim)
            ]
            for r in range(dim)
        ]

    for i in range(1, n):
        m = module.matrix(i)
        square = matmul(m, m)
        for r in range(dim):
            for c in range(dim):
                expect = cyclo3.mul(cyclo3.sub(q, cyclo3.one_rep), m[r][c])
                if r == c:
                    expect = cyclo3.add(expect, q)
                assert square[r][c] == expect
    for i in range(1, n - 1):
        a, b = module.matrix(i), module.matrix(i + 1)
        assert matmul(matmul(a, b), a) == matmul(matmul(b, a), b)


def _dot(field, xs, ys):
    out = field.zero_rep
    for x, y in zip(xs, ys):
        out = field.add(out, field.mul(x, y))
    return out


def test_spin_dimension_field_independent():
    specs = [spec_for_profile(e, p) for e, p in [(2, 0), (3, 0), (2, 3), (3, 2)]]
    for lam in partitions_of(5):
        dims = {spin_specht(spec, lam).dimension for spec in specs}
        assert dims == {standard_count(lam)}


def test_cyclic_closure_dimensions(cyclo3):
    from heckespecht.hecke import cyclic_closure_dimension

    for lam in partitions_of(5):
        gen = specht_generator(cyclo3, lam)
        assert cyclic_closure_dimension(gen) == standard_count(lam)
    zero = ModuleVector(cyclo3, (3, 2), {})
    assert cyclic_closure_dimension(zero) == 0


def test_spin_acts_on_each_row_once(cyclo3, monkeypatch):
    from heckespecht.hecke import cyclic_closure_dimension

    inserts = [0]
    insert = SparseEchelon.insert

    def counted(self, coeffs):
        inserts[0] += 1
        return insert(self, coeffs)

    monkeypatch.setattr(SparseEchelon, "insert", counted)
    for lam, expected in [((3, 2, 1), 81), ((4, 2, 1), 211), ((3, 3, 1), 127)]:
        inserts[0] = 0
        dim = cyclic_closure_dimension(specht_generator(cyclo3, lam))
        assert dim == standard_count(lam)
        # the generator, then n - 1 images of each row
        assert inserts[0] == expected == 1 + dim * (sum(lam) - 1), lam


@pytest.mark.parametrize("field_name", ["cyclo3", "f7q2", "ext23"])
def test_sparse_echelon_kernel(field_name, request):
    field = request.getfixturevalue(field_name)

    def vec(*entries):
        reps = {k: field.int_rep(c) for k, c in enumerate(entries)}
        return {k: rep for k, rep in reps.items() if not field.is_zero(rep)}

    # rank 4 in characteristic 0, 2 and 7: rows 1, 2, 3 and 5 are
    # triangular with pivot entries 1, 1, 1, 3; row 4 is row 3 + row 2
    matrix = [(0, 0, 1, 1), (0, 1, 1, 0), (1, 2, 0, 1), (1, 3, 1, 1), (0, 0, 0, 3)]
    echelon = SparseEchelon(field)
    assert [echelon.insert(vec(*row)) for row in matrix] == [True, True, True, False, True]
    assert not echelon.insert({})
    assert not echelon.insert(vec(5, 1, 1, 1))
    assert len(echelon) == 4
    assert [pivot for pivot, _ in echelon.rows] == [0, 1, 2, 3]
    for pivot, row in echelon.rows:
        assert min(row) == pivot and row[pivot] == field.one_rep

    target = vec(*matrix[3])
    rebuilt: dict = {}
    for c, (_, row) in zip(echelon.coordinates(target), echelon.rows):
        for k, rep in row.items():
            _acc(field, rebuilt, k, field.mul(c, rep))
    assert rebuilt == target
    partial = SparseEchelon(field)
    for row in matrix[:3]:
        partial.insert(vec(*row))
    with pytest.raises(ValueError):
        partial.coordinates(vec(0, 0, 0, 1))


def test_module_vector_json(cyclo3):
    v = specht_generator(cyclo3, (2, 1))
    data = v.to_json()
    assert data["shape"] == [2, 1]
    assert data["coefficients"][0]["tableau"] == [[1, 3], [2]]
    assert {item["scalar"] for item in data["coefficients"]} == {"1", "z + 1"}


def test_run_sum_identity_small():
    f7 = PrimeField(7, 2)
    assert run_sum_identity_holds(f7, (2, 2, 1), 1, 5)
    assert run_sum_identity_holds(f7, (2, 1, 1, 1), 1, 5)
    assert run_sum_identity_holds(f7, (2, 1, 1, 1), 2, 5)
    # merged row of length 1 collapses both run sums to the identity
    assert run_sum_identity_holds(f7, (2, 1, 1), 1, 4)
    with pytest.raises(ValueError):
        run_sum_identity_holds(f7, (2, 2), 1, 4)
    with pytest.raises(ValueError):
        run_sum_identity_holds(f7, (2, 2, 1), 1, 2)
