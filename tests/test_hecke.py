"""Action soundness, Specht generators and spinning.

The independent oracle here is multiplication in the full group algebra:
x-shape elements expanded over the n! basis, multiplied by the defining
relation, and compared term by term against the coset-basis action.
"""

import json

import pytest

from conftest import ROADMAP_FIELDS
from heckespecht.hecke import (
    HeckeElement,
    ModuleVector,
    SparseEchelon,
    _acc,
    _act_dict,
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
from heckespecht.homs import psi_dt, theta_image_of_x
from heckespecht.partitions import conjugate, dominates, partitions_of
from heckespecht.qfield import Cyclotomic, PrimeField, parse_field, spec_for_profile
from heckespecht.tableaux import (
    Tableau,
    coset_rep,
    coset_reps,
    perm_identity,
    perm_times_s,
    standard_count,
    t_col,
    w_lambda,
)


def expand_over_group_algebra(v: ModuleVector) -> HeckeElement:
    """Independent expansion of a module vector over the n! basis: each
    row word w names the basis vector x T_d, d = coset_rep(w)."""
    x = x_element(v.field, v.shape)
    out = HeckeElement(v.field, sum(v.shape), {})
    for w, c in v.coeffs.items():
        out = out.add(x.times_word(coset_rep(w)).scale(c))
    return out


def test_act_gen_three_cases(cyclo3):
    v = basis_vector(cyclo3, (2, 1))
    assert act_gen(v, 1) == v.scale(cyclo3.q)
    assert v.coeffs == {(1, 1, 2): cyclo3.one_rep}
    moved = act_gen(v, 2)
    assert moved.coeffs == {(1, 2, 1): cyclo3.one_rep}
    back = act_gen(moved, 2)
    q = cyclo3.q_rep
    assert back.coeffs == {
        (1, 1, 2): q,
        (1, 2, 1): cyclo3.sub(q, cyclo3.one_rep),
    }


def test_act_word_identity_and_coset_moves(f7q2):
    v = basis_vector(f7q2, (2, 2))
    assert act_word(v, perm_identity(4)) == v
    for d in coset_reps((2, 2)):
        # x T_d is one basis vector, keyed by a row word of (2, 2) naming d
        [(w, c)] = act_word(v, d).coeffs.items()
        assert c == f7q2.one_rep
        assert sorted(w) == [1, 1, 2, 2] and coset_rep(w) == d


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
                v = basis_vector(field, lam, d)
                assert expand_over_group_algebra(v) == xd, (lam, d)
                for i in range(1, n):
                    direct = xd.times_gen(i)
                    via_action = expand_over_group_algebra(act_gen(v, i))
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
    assert g.coeffs == {(1, 1, 1): cyclo3.one_rep}
    minus_qinv = cyclo3.neg(cyclo3.q_power(-1))
    g = specht_generator(cyclo3, (2, 1))
    # the row-standard tableaux [[1, 3], [2]] and [[2, 3], [1]]
    assert g.coeffs == {(1, 2, 1): cyclo3.one_rep, (2, 1, 1): minus_qinv}
    g = specht_generator(cyclo3, (1, 1))
    assert g.coeffs == {(1, 2): cyclo3.one_rep, (2, 1): minus_qinv}


def test_signed_stabilizer_sum_matches_element(f7q2, cyclo3):
    for field in (f7q2, cyclo3):
        for lam in partitions_of(4):
            h = y_element(field, conjugate(lam))
            for d in coset_reps(lam)[:6]:
                v = basis_vector(field, lam, d)
                assert apply_signed_stabilizer_sum(v, conjugate(lam)) == push_through(v, h)


@pytest.mark.parametrize("spec", ROADMAP_FIELDS + ("p=7,q=2",))
def test_specht_generator_matches_per_key_oracle(spec):
    # the generator is x-vector . T_{w_lambda} . y_{lambda'}; the library
    # takes y as run sums, the oracle acts one word per key with the whole
    # signed sum y_element over the column stabiliser
    field = parse_field(spec)
    for n in range(1, 7):
        for lam in partitions_of(n):
            got = specht_generator(field, lam)
            v = act_word(basis_vector(field, lam), w_lambda(lam))
            expect = push_through(v, y_element(field, conjugate(lam)))
            assert got == expect, (spec, lam)


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
    # the quadratic and braid relations, on sparse rows: two rows with no
    # zero stored are equal exactly when their dense forms are
    f = cyclo3
    module = spin_specht(f, (2, 2, 1))
    n = 5
    q = f.q_rep
    dim = module.dimension

    def matmul(a, b):
        out = []
        for line in a:
            row: dict = {}
            for k, x in line.items():
                for c, y in b[k].items():
                    _acc(f, row, c, f.mul(x, y))
            out.append(row)
        return out

    for i in range(1, n):
        m = module.matrices[i - 1]
        square = matmul(m, m)
        assert len(square) == dim
        for r in range(dim):
            expect: dict = {}
            for c, x in m[r].items():
                _acc(f, expect, c, f.mul(f.sub(q, f.one_rep), x))
            _acc(f, expect, r, q)
            assert square[r] == expect
    for i in range(1, n - 1):
        a, b = module.matrices[i - 1], module.matrices[i]
        assert matmul(matmul(a, b), a) == matmul(matmul(b, a), b)


def test_spin_dimension_field_independent():
    specs = [spec_for_profile(e, p) for e, p in [(2, 0), (3, 0), (2, 3), (3, 2)]]
    for lam in partitions_of(5):
        dims = {spin_specht(spec, lam).dimension for spec in specs}
        assert dims == {standard_count(lam)}


def test_cyclic_closure_dimensions(cyclo3):
    from heckespecht.hecke import _spin

    for lam in partitions_of(5):
        gen = specht_generator(cyclo3, lam)
        assert _spin(gen).dimension == standard_count(lam)
    zero = ModuleVector(cyclo3, (3, 2), {})
    assert _spin(zero).dimension == 0


def test_spin_acts_on_each_row_once(cyclo3, monkeypatch):
    from heckespecht import hecke

    actions = [0]

    def counted(field, coeffs, i):
        actions[0] += 1
        return _act_dict(field, coeffs, i)

    shapes = [((3, 2, 1), 80), ((4, 2, 1), 210), ((3, 3, 1), 126)]
    gens = [specht_generator(cyclo3, lam) for lam, _ in shapes]
    monkeypatch.setattr(hecke, "_act_dict", counted)
    for (lam, expected), gen in zip(shapes, gens):
        actions[0] = 0
        dim = hecke._spin(gen).dimension
        assert dim == standard_count(lam)
        # n - 1 images of each row, and no other action
        assert actions[0] == expected == dim * (sum(lam) - 1), lam


@pytest.mark.parametrize("spec", ROADMAP_FIELDS)
def test_spun_matrices_rebuild_the_action(spec):
    # row_j . T_i = sum_k M_i[j][k] row_k for every generator and every
    # row, the rows in the order kept
    from heckespecht.hecke import _spin

    field = parse_field(spec)
    for n in range(1, 7):
        for lam in partitions_of(n):
            module = spin_specht(field, lam)
            rows = module.rows
            assert len(module.matrices) == n - 1
            for i in range(1, n):
                matrix = module.matrices[i - 1]
                assert len(matrix) == len(rows)
                for j, row in enumerate(rows):
                    assert set(matrix[j]) <= set(range(len(rows))), (spec, lam, i, j)
                    rebuilt: dict = {}
                    for m, c in matrix[j].items():
                        for k, rep in rows[m].items():
                            _acc(field, rebuilt, k, field.mul(c, rep))
                    assert rebuilt == _act_dict(field, row, i), (spec, lam, i, j)
    assert _spin(ModuleVector(field, (3, 2), {})).dimension == 0


@pytest.mark.parametrize("spec", ROADMAP_FIELDS)
def test_spin_keeps_rows_in_order(spec, monkeypatch):
    # row 0 is the normalised Specht generator; the rows are acted on in
    # index order, each by T_1 .. T_{n-1}; row r . T_i names only the count
    # rows kept so far and, when it keeps one, row count, where
    # lead . row_count = row_r . T_i - sum_{j < count} line[j] . row_j;
    # no stored entry is zero
    from heckespecht import hecke

    acted = []

    def recorded(field, coeffs, i):
        acted.append((id(coeffs), i))
        return _act_dict(field, coeffs, i)

    field = parse_field(spec)
    monkeypatch.setattr(hecke, "_act_dict", recorded)
    for n in range(1, 7):
        for lam in partitions_of(n):
            v = specht_generator(field, lam)
            acted.clear()
            module = hecke._spin(v)
            rows, gen = module.rows, v.coeffs
            inv = field.inv(gen[min(gen)])
            assert rows[0] == {k: field.mul(inv, c) for k, c in gen.items()}, lam
            assert acted == [(id(row), i) for row in rows for i in range(1, n)], lam
            count = 1
            for r, row in enumerate(rows):
                for i in range(1, n):
                    line = module.matrices[i - 1][r]
                    assert not any(field.is_zero(c) for c in line.values()), (lam, r, i)
                    assert set(line) <= set(range(count + 1)), (lam, r, i, count)
                    rest = _act_dict(field, row, i)
                    for j in set(line) - {count}:
                        for k, rep in rows[j].items():
                            _acc(field, rest, k, field.neg(field.mul(line[j], rep)))
                    if count not in line:
                        assert rest == {}, (lam, r, i)
                        continue
                    lead = line[count]
                    assert rest == {k: field.mul(lead, rep) for k, rep in rows[count].items()}, lam
                    count += 1
            assert count == len(rows) == standard_count(lam), lam


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


def test_module_vector_scale_refuses_a_scalar_of_another_field(cyclo3, f7q2):
    v = specht_generator(f7q2, (2, 1))
    with pytest.raises(ValueError, match="different fields"):
        v.scale(cyclo3.of(3))
    assert v.scale(f7q2.of(3)) == v.scale(3)


def test_hecke_element_scale_refuses_a_scalar_of_another_field(cyclo3, f7q2):
    h = HeckeElement.from_perm(f7q2, perm_identity(3))
    with pytest.raises(ValueError, match="different fields"):
        h.scale(cyclo3.of(3))
    assert h.scale(f7q2.of(3)) == h.scale(3)


def test_hecke_element_from_perm_refuses_a_scalar_of_another_field(cyclo3, f7q2):
    with pytest.raises(ValueError, match="different fields"):
        HeckeElement.from_perm(f7q2, perm_identity(3), cyclo3.of(3))
    assert HeckeElement.from_perm(f7q2, perm_identity(3), f7q2.of(3)).coeffs == {(1, 2, 3): 3}


def test_hecke_element_add_refuses_another_algebra(cyclo3, f7q2):
    # as ModuleVector.add refuses vectors of different modules: another
    # field, or another n, is refused, and equality compares n too
    h = HeckeElement.from_perm(f7q2, (1, 2, 3))
    for other in (HeckeElement.from_perm(cyclo3, (2, 1, 3)), HeckeElement.from_perm(f7q2, (2, 1))):
        with pytest.raises(ValueError, match="different Hecke algebras"):
            h.add(other)
    assert HeckeElement(f7q2, 2, {}) != HeckeElement(f7q2, 3, {})
    assert h.add(HeckeElement.from_perm(f7q2, (2, 1, 3))).coeffs == {(1, 2, 3): 1, (2, 1, 3): 1}


def test_module_vector_json(cyclo3):
    v = specht_generator(cyclo3, (2, 1))
    data = v.to_json()
    assert data["shape"] == [2, 1]
    assert data["coefficients"][0]["tableau"] == [[1, 3], [2]]
    assert {item["scalar"] for item in data["coefficients"]} == {"1", "z + 1"}


def test_module_vector_json_is_pinned(cyclo3, f7q2):
    # the rendering of row-word keys as tableaux, in the order of their
    # coset representatives; the last vector's row words sort the other way
    vectors = [
        specht_generator(f7q2, (2, 1, 1)),
        psi_dt(basis_vector(cyclo3, (1, 1), (2, 1)), 1, 0),
        theta_image_of_x(cyclo3, Tableau([[1, 3], [2, 2]]), (1, 2, 1)),
        act_gen(act_gen(basis_vector(cyclo3, (2, 0, 1)), 2), 1),
        act_gen(act_gen(basis_vector(cyclo3, (1, 1, 1), (3, 2, 1)), 1), 2),
    ]
    expected = [
        '{"shape":[2,1,1],"coefficients":[{"tableau":[[1,4],[2],[3]],"scalar":"1"},'
        '{"tableau":[[1,4],[3],[2]],"scalar":"3"},{"tableau":[[2,4],[1],[3]],"scalar":"3"},'
        '{"tableau":[[2,4],[3],[1]],"scalar":"2"},{"tableau":[[3,4],[1],[2]],"scalar":"2"},'
        '{"tableau":[[3,4],[2],[1]],"scalar":"6"}]}',
        '{"shape":[2,0],"coefficients":[{"tableau":[[1,2],[]],"scalar":"z"}]}',
        '{"shape":[1,2,1],"coefficients":[{"tableau":[[1],[3,4],[2]],"scalar":"1"},'
        '{"tableau":[[2],[3,4],[1]],"scalar":"1"}]}',
        '{"shape":[2,0,1],"coefficients":[{"tableau":[[2,3],[],[1]],"scalar":"1"}]}',
        '{"shape":[1,1,1],"coefficients":[{"tableau":[[2],[1],[3]],"scalar":"-z - 1"},'
        '{"tableau":[[2],[3],[1]],"scalar":"-2*z - 1"},{"tableau":[[3],[1],[2]],"scalar":"-2*z - 1"},'
        '{"tableau":[[3],[2],[1]],"scalar":"-3*z"}]}',
    ]
    assert [json.dumps(v.to_json(), separators=(",", ":")) for v in vectors] == expected


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
