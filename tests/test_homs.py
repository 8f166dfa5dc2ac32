import functools
import itertools
import json
import random

import pytest

from conftest import ROADMAP_FIELDS
from heckespecht.carter_payne import CPInstance, cp_pair_data, one_node_map
from heckespecht import hecke, homs, tableaux
from heckespecht.hecke import (
    ModuleVector,
    act_word,
    apply_signed_stabilizer_sum,
    at_generator,
    basis_vector,
    generator_keys,
    spin_specht,
    specht_generator,
    y_element,
)
from heckespecht.homs import (
    HomSpec,
    _cyclic_dimension,
    _intertwiner_dimension,
    _landing_solve,
    _compose_terms,
    _semistandard_dimension,
    compose_psi_theta,
    evaluate_on_generator,
    hom_space_dim,
    one_node_conditions_check,
    psi_dt,
    push_through,
    restriction_into_specht,
    restriction_is_zero,
    same_block,
    semistandard_scope,
    specht_membership,
    theta_image_of_x,
)
from heckespecht.partitions import (
    check_partition,
    conjugate,
    dominates,
    partitions_of,
)
from heckespecht.qfield import Cyclotomic, FieldSpec, QuantumProfile, parse_field, qbinom, qint
from heckespecht.tableaux import (
    Tableau,
    coset_rep,
    enumerate_row_standard,
    enumerate_semistandard,
    row_equiv_class,
    w_lambda,
)


def _row_words(shape) -> list:
    """The keys of the basis of M^shape, in the order of their coset
    representatives."""
    x = tuple(r for r, part in enumerate(shape, start=1) for _ in range(part))
    return sorted(set(itertools.permutations(x)), key=coset_rep)


def test_theta_image_examples(cyclo3):
    # a single row mapping onto a two-row type hits every coset vector once
    img = theta_image_of_x(cyclo3, Tableau([[1, 1, 2]]))
    assert sorted(img.coeffs) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert all(rep == cyclo3.one_rep for rep in img.coeffs.values())

    img = theta_image_of_x(cyclo3, Tableau([[1, 2], [3]]))
    assert sorted(img.coeffs) == [(1, 2, 3), (2, 1, 3)]


def test_theta_identity_embedding(cyclo3):
    tab = Tableau([[1, 1], [2]])
    img = theta_image_of_x(cyclo3, tab)
    assert img.coeffs == {(1, 1, 2): cyclo3.one_rep}
    value = evaluate_on_generator(HomSpec(cyclo3, (2, 1), (2, 1), {tab: cyclo3.one_rep}))
    assert value == specht_generator(cyclo3, (2, 1))


def test_psi_on_smallest_module(cyclo3):
    # frozen against the group-algebra expansion: the image of the basis
    # vector of the (1,1) module under the full merge is the basis vector
    # itself, coefficient 1
    v = basis_vector(cyclo3, (1, 1))
    out = psi_dt(v, 1, 0)
    assert out.shape == (2, 0)
    assert out.coeffs == {(1, 1): cyclo3.one_rep}
    # the swapped coset vector picks up a factor q
    out = psi_dt(basis_vector(cyclo3, (1, 1), (2, 1)), 1, 0)
    assert out.coeffs == {(1, 1): cyclo3.q_rep}


def test_psi_linear_and_zero(cyclo3):
    zero = ModuleVector(cyclo3, (2, 1), {})
    assert psi_dt(zero, 1, 0).is_zero()


def test_specht_generator_in_kernel_of_all_merges(cyclo3, f7q2):
    for field in (cyclo3, f7q2):
        for n in range(2, 6):
            for mu in partitions_of(n):
                gen = specht_generator(field, mu)
                assert specht_membership(gen), (field.name, mu)


def test_membership_rejects_plain_basis_vector(cyclo3):
    assert not specht_membership(basis_vector(cyclo3, (2, 1)))
    assert specht_membership(ModuleVector(cyclo3, (2, 1), {}))


def _graded_vector(field, shape) -> ModuleVector:
    """Every coset basis vector of the shape, the k-th with coefficient
    q^(k^2); outside the Specht submodule for every shape with two or more
    rows and n <= 5 over the three test fields."""
    reps = _row_words(shape)
    return ModuleVector(field, shape, {w: field.q_power(k * k) for k, w in enumerate(reps)})


@pytest.mark.parametrize("field_name", ["f97q3", "cyclo3", "ext23"])
def test_graded_vectors_lie_outside_specht(field_name, request):
    field = request.getfixturevalue(field_name)
    for n in range(1, 6):
        for mu in partitions_of(n):
            if len(mu) > 1:
                assert not specht_membership(_graded_vector(field, mu)), (field.name, mu)


@pytest.mark.parametrize("field_name", ["f7q2", "cyclo3", "ext23"])
def test_factored_values_match_per_key_oracle(field_name, request):
    # v_T = theta_T(x) . T_{w_lam} . y_{lam'}, with y as a product of run
    # sums, against pushing y_element through one act_word per key
    field = request.getfixturevalue(field_name)
    for n in range(1, 6):
        for lam in partitions_of(n):
            y = y_element(field, conjugate(lam))
            for mu in partitions_of(n):
                for tab in enumerate_row_standard(lam, mu):
                    x = theta_image_of_x(field, tab, mu)
                    v = act_word(x, w_lambda(lam))
                    expect = push_through(v, y)
                    assert apply_signed_stabilizer_sum(v, conjugate(lam)) == expect, tab
                    assert at_generator(x, lam) == expect, tab


def test_compose_single_row_example(f97q3):
    hom = compose_psi_theta(f97q3, Tableau([[1, 1, 2]]), 1, 0)
    expect = Tableau([[1, 1, 1]])
    assert set(hom.coeffs) == {expect}
    assert hom.coefficient(expect) == qint(f97q3, 3)
    assert hom.target == (3, 0)


def test_compose_empty_when_coefficient_vanishes(cyclo3):
    hom = compose_psi_theta(cyclo3, Tableau([[1, 1, 2]]), 1, 0)
    assert hom.is_zero_spec()  # the quantum integer [3] vanishes here


def test_compose_matches_brute_force(f97q3, cyclo3):
    for field, nmax in ((f97q3, 5), (cyclo3, 4)):
        for n in range(2, nmax + 1):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    for tab in enumerate_row_standard(lam, mu):
                        base = theta_image_of_x(field, tab, mu)
                        for d in range(1, len(mu)):
                            for t in range(mu[d]):
                                brute = psi_dt(base, d, t)
                                sym = compose_psi_theta(field, tab, d, t)
                                acc = ModuleVector(field, brute.shape, {})
                                for s_tab, c in sym.coeffs.items():
                                    acc = acc.add(
                                        theta_image_of_x(field, s_tab, sym.target).scale(c)
                                    )
                                assert acc == brute, (lam, mu, tab, d, t)


def _read_terms(field, tab, d, t):
    """The factored terms of psi_{d,t} o theta_T read in the field, with
    the zeros dropped."""
    return list(homs._field_terms(field, _compose_terms(tab.rows, d, t)))


def _rule_in_field(field, tab, d, t):
    """The composition rule computed in the field, term by term: every
    tuple beta_i <= (row i's count of d+1) of sum mu_{d+1} - t, largest
    first; row i has its leftmost beta_i copies of d+1 turned into d and
    contributes q^(beta_i times the d's below row i) [d's in it now, beta_i]."""
    counts = [row.count(d + 1) for row in tab.rows]
    out = []
    for combo in itertools.product(*(range(c, -1, -1) for c in counts)):
        if sum(combo) != sum(counts) - t:
            continue
        rows, coeff = [], field.one
        for i, (row, beta) in enumerate(zip(tab.rows, combo)):
            if beta:
                first = row.index(d + 1)
                row = row[:first] + (d,) * beta + row[first + beta:]
                below = sum(later.count(d) for later in tab.rows[i + 1:])
                coeff = coeff * field.q ** (below * beta) * qbinom(field, row.count(d), beta)
            rows.append(row)
        if not coeff.is_zero():
            out.append((tuple(rows), coeff.rep))
    return out


def test_compose_keeps_its_checks(f97q3, cyclo3):
    # the landing solves take the unchecked terms; the public composition
    # still refuses a tableau that is not row standard and a t or d out of
    # range, and lists exactly those terms
    with pytest.raises(ValueError, match="^tableau must be row standard$"):
        compose_psi_theta(f97q3, Tableau([[2, 1]]), 1, 0)
    with pytest.raises(ValueError, match=r"^need 0 <= t < 1, got t=1$"):
        compose_psi_theta(f97q3, Tableau([[1, 1, 2]]), 1, 1)
    with pytest.raises(ValueError, match=r"^row 3 outside \(2, 1\)$"):
        compose_psi_theta(f97q3, Tableau([[1, 1, 2]]), 2, 0)
    with pytest.raises(ValueError, match=r"^need d >= 1, got d=0$"):
        compose_psi_theta(f97q3, Tableau([[1, 1, 2]]), 0, 0)
    for field in (f97q3, cyclo3):
        for n in range(1, 6):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    for tab in enumerate_row_standard(lam, mu):
                        for d in range(1, len(mu)):
                            for t in range(mu[d]):
                                hom = compose_psi_theta(field, tab, d, t)
                                assert {S.rows: c for S, c in hom.coeffs.items()} == \
                                    dict(_read_terms(field, tab, d, t)), (tab, d, t)


def identity_hom(field: FieldSpec, lam) -> HomSpec:
    lam = check_partition(lam)
    rows = [(i,) * part for i, part in enumerate(lam, start=1)]
    return HomSpec(field, lam, lam, {Tableau(rows): field.one_rep})


def test_restriction_identity_and_dominance(cyclo3):
    assert restriction_into_specht(identity_hom(cyclo3, (2, 1)))
    assert not restriction_is_zero(identity_hom(cyclo3, (3, 1)))
    # a map into a type the source does not dominate restricts to zero
    for n in range(2, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if dominates(lam, mu):
                    continue
                for tab in enumerate_row_standard(lam, mu)[:4]:
                    hom = HomSpec(cyclo3, lam, mu, {tab: cyclo3.one_rep})
                    assert restriction_is_zero(hom), (lam, mu, tab)


def test_restriction_membership_depends_on_field(cyclo3, cyclo4):
    tab = Tableau([[1, 1, 2]])
    hom3 = HomSpec(cyclo3, (3,), (2, 1), {tab: cyclo3.one_rep})
    hom4 = HomSpec(cyclo4, (3,), (2, 1), {tab: cyclo4.one_rep})
    assert restriction_into_specht(hom3)
    assert not restriction_into_specht(hom4)


def test_hom_space_dim_examples(cyclo3, cyclo4):
    assert hom_space_dim(cyclo3, (3,), (2, 1)) == 1
    assert hom_space_dim(cyclo4, (3,), (2, 1)) == 0
    assert hom_space_dim(cyclo3, (2, 1), (2, 1)) == 1
    assert hom_space_dim(cyclo3, (2, 2), (2, 2)) >= 1


@functools.cache
def _intertwiner_oracle(field, lam, mu) -> int:
    # cached, so that the cyclic-route test below reuses the values the
    # loops before it compute
    return _intertwiner_dimension(
        field, spin_specht(field, lam).matrices, spin_specht(field, mu).matrices
    )


def test_trivial_source_fast_path_matches_intertwiner(cyclo3, cyclo4):
    for field in (cyclo3, cyclo4):
        for n in range(2, 7):
            for mu in partitions_of(n):
                fast = hom_space_dim(field, (n,), mu)
                assert fast == _intertwiner_oracle(field, (n,), mu), (field.name, mu)


@pytest.mark.parametrize("spec, max_n", [
    ("p=97,q=3", 5), ("cyclotomic:e=3", 6), ("cyclotomic:e=4", 5),
    ("ext:p=2,e=3", 5), ("p=2,q=1", 6), ("p=3,q=2", 5), ("cyclotomic:e=2", 6),
])
def test_semistandard_dimension_matches_intertwiner(spec, max_n):
    field = parse_field(spec)
    checked = 0
    for n in range(2, max_n + 1):
        for lam in partitions_of(n):
            if not semistandard_scope(field.profile(), lam):
                continue
            for mu in partitions_of(n):
                want = _intertwiner_oracle(field, lam, mu)
                assert _semistandard_dimension(field, lam, mu) == want, (lam, mu)
                checked += 1
    assert checked


def test_semistandard_count_wrong_outside_scope():
    # q = -1 and lam not 2-regular: the semistandard maps no longer span,
    # so hom_space_dim must take the intertwiner route
    field = parse_field("cyclotomic:e=2")
    assert not semistandard_scope(field.profile(), (1, 1))
    assert semistandard_scope(field.profile(), (3, 1))
    assert semistandard_scope(QuantumProfile(3, 0), (1, 1))
    assert _semistandard_dimension(field, (1, 1), (2,)) == 0
    assert hom_space_dim(field, (1, 1), (2,)) == 1
    pairs = differ = 0
    for n in range(2, 6):
        for lam in partitions_of(n):
            if semistandard_scope(field.profile(), lam):
                continue
            for mu in partitions_of(n):
                want = _intertwiner_oracle(field, lam, mu)
                assert hom_space_dim(field, lam, mu) == want, (lam, mu)
                pairs += 1
                differ += _semistandard_dimension(field, lam, mu) != want
    assert (pairs, differ) == (48, 14)


@pytest.mark.parametrize("spec", ROADMAP_FIELDS)
def test_cyclic_dimension_matches_intertwiner(spec):
    # the cyclic route, solved for the value at the generator, against the
    # full intertwiner system on every same-block pair with n <= 6 (S^(1)
    # has no generator matrices, and its only map is the identity); across
    # blocks, where hom_space_dim solves nothing, it must cut every
    # candidate (there the oracle's zeros would double its time at n = 6)
    field = parse_field(spec)
    profile = field.profile()
    one = spin_specht(field, (1,))
    assert _cyclic_dimension(field, one, one) == 1
    for n in range(2, 7):
        for lam in partitions_of(n):
            sa = spin_specht(field, lam)
            for mu in partitions_of(n):
                got = _cyclic_dimension(field, sa, spin_specht(field, mu))
                if same_block(profile, lam, mu):
                    assert got == _intertwiner_oracle(field, lam, mu), (lam, mu)
                else:
                    assert got == 0, (lam, mu)


def test_in_scope_hom_space_dim_spins_nothing(cyclo3, monkeypatch):
    calls = [0]
    spin = homs.spin_specht

    def counted(*args):
        calls[0] += 1
        return spin(*args)

    monkeypatch.setattr(homs, "spin_specht", counted)
    for lam, mu in [((2, 1), (2, 1)), ((3, 2, 1), (2, 2, 2)), ((4, 2), (3, 2, 1))]:
        hom_space_dim(cyclo3, lam, mu)
    assert calls[0] == 0
    # (2,1,1) is not 2-regular, but its dual pair (3,1) -> (3,1) is in scope
    hom_space_dim(Cyclotomic(2), (2, 1, 1), (2, 1, 1))
    assert calls[0] == 0
    # neither (2,1,1) nor the dual source (2,2) is 2-regular: both sides spin
    hom_space_dim(Cyclotomic(2), (2, 1, 1), (2, 2))
    assert calls[0] == 2


DUALITY_RUNS = {
    "cyclotomic:e=2": 6, "cyclotomic:e=3": 5, "cyclotomic:e=4": 5,
    "p=2,q=1": 6, "p=3,q=2": 6, "ext:p=2,e=3": 5, "p=97,q=3": 5,
}


def _check_duality_and_blocks(field, n):
    # Hom(S^lam, S^mu) and Hom(S^mu', S^lam') have the same dimension, each
    # solved as given; across blocks it is 0, and hom_space_dim agrees
    shapes = list(partitions_of(n))
    direct = {
        (lam, mu): homs._direct_dimension(field, lam, mu)
        for lam in shapes for mu in shapes
    }
    for (lam, mu), dim in direct.items():
        assert direct[conjugate(mu), conjugate(lam)] == dim, (lam, mu)
        if not same_block(field.profile(), lam, mu):
            assert dim == 0, (lam, mu)
        assert hom_space_dim(field, lam, mu) == dim, (lam, mu)


@pytest.mark.parametrize("spec, max_n", DUALITY_RUNS.items())
def test_conjugate_duality(spec, max_n):
    field = parse_field(spec)
    for n in range(1, max_n + 1):
        _check_duality_and_blocks(field, n)


@pytest.mark.parametrize("spec", [spec for spec, max_n in DUALITY_RUNS.items() if max_n < 6])
def test_duality_and_blocks_at_six(spec):
    # the same checks at n = 6 where the run above stops at 5, so that every
    # pair with n <= 6 over the seven ROADMAP_FIELDS is checked once
    _check_duality_and_blocks(parse_field(spec), 6)


def test_duality_routing(monkeypatch):
    field = parse_field("cyclotomic:e=3")
    solved, calls = [], [0]
    direct = homs._direct_dimension

    def recorded(field, lam, mu):
        solved.append((lam, mu))
        return direct(field, lam, mu)

    def counted(fn):
        def wrapper(*args):
            calls[0] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(homs, "_direct_dimension", recorded)
    monkeypatch.setattr(homs, "spin_specht", counted(homs.spin_specht))
    # a map into S^(1^n) is the dual of one out of S^(n): closed form
    assert hom_space_dim(field, (2, 1, 1, 1, 1), (1,) * 6) == 1
    # and so is every map out of S^(6), in its block or not
    for mu in partitions_of(6):
        hom_space_dim(field, (6,), mu)
    assert solved == []
    # the oracle solves the long-column pair on the semistandard route of
    # its dual, and a one-row source as given: n! >= dim M^mu
    assert homs._solved_dimension(field, (2, 1, 1, 1, 1), (1,) * 6) == 1
    assert solved == [((6,), (5, 1))]
    assert homs._solved_dimension(field, (6,), (2, 2, 2)) == 1
    assert solved[-1] == ((6,), (2, 2, 2))
    assert calls[0] == 0
    # at e = 2 a node-moving pair off the semistandard scope still solves,
    # on the cyclic route: (4,1,1) and its dual source (3,1,1,1) are not
    # 2-regular, and the hom space has dimension 2
    c2 = parse_field("cyclotomic:e=2")
    assert hom_space_dim(c2, (4, 1, 1), (3, 1, 1, 1)) == 2
    assert len(solved) == 3 and calls[0] == 2


def _node_moving_pairs(n):
    """Every node-moving pair (lam, mu) of size n, each with its dual
    (mu', lam')."""
    for mu in partitions_of(n):
        for a, b in itertools.combinations(range(1, len(mu) + 1), 2):
            for gamma in range(1, mu[b - 1] + 1):
                try:
                    inst = CPInstance(mu, a, b, gamma)
                except ValueError:
                    continue
                yield inst.lam, inst.mu
                yield conjugate(inst.mu), conjugate(inst.lam)


def _closed_form_pairs(n):
    """The pairs of size n the closed forms are meant for: (n) -> mu and
    its dual lam -> (1^n), and the node-moving pairs."""
    for shape in partitions_of(n):
        yield (n,), shape
        yield shape, (1,) * n
    yield from _node_moving_pairs(n)


def _has_closed_form(profile, lam, mu) -> bool:
    """Whether the paper gives the dimension of (lam, mu): a one-row pair
    at every q, and when e != 2 a node-moving pair with gamma = 1 or
    across adjacent rows, as given or as its dual."""
    if len(lam) == 1 or mu[0] == 1:
        return True
    if profile.e == 2:
        return False
    for source, target in ((lam, mu), (conjugate(mu), conjugate(lam))):
        try:
            a, b, gamma = cp_pair_data(source, target)
        except ValueError:
            continue
        if gamma == 1 or b == a + 1:
            return True
    return False


@pytest.mark.parametrize("spec", ROADMAP_FIELDS)
def test_closed_forms_match_the_solve(spec, monkeypatch):
    # the paper's closed forms against the solve they replace, on every
    # pair they are meant for with n <= 8, across blocks too, where the
    # closed form must give the block test's 0; at e = 2 only the one-row
    # pairs are answered so.  Then, with the solve refused, hom_space_dim
    # still answers every one of them
    field = parse_field(spec)
    profile = field.profile()
    wanted = {}
    for n in range(1, 9):
        for lam, mu in _closed_form_pairs(n):
            dim = homs._closed_form_dimension(profile, lam, mu)
            if not _has_closed_form(profile, lam, mu):
                assert dim is None, (lam, mu)
                continue
            wanted[lam, mu] = homs._solved_dimension(field, lam, mu)
            assert dim == wanted[lam, mu], (lam, mu)

    def refuse(*args):
        raise AssertionError(f"solved {args[1:]}")

    monkeypatch.setattr(homs, "_direct_dimension", refuse)
    monkeypatch.setattr(homs, "spin_specht", refuse)
    for (lam, mu), dim in wanted.items():
        assert hom_space_dim(field, lam, mu) == dim, (lam, mu)


def test_cross_block_pairs_solve_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"solved {args[1:]}")

    monkeypatch.setattr(homs, "_direct_dimension", refuse)
    monkeypatch.setattr(homs, "spin_specht", refuse)
    assert hom_space_dim(parse_field("p=7,q=2"), (7, 2), (2, 2, 1, 1, 1, 1, 1)) == 0
    for spec in ("cyclotomic:e=2", "cyclotomic:e=3", "p=3,q=2", "p=97,q=3"):
        field = parse_field(spec)
        for n in range(1, 9):
            shapes = list(partitions_of(n))
            for lam in shapes:
                for mu in shapes:
                    if not same_block(field.profile(), lam, mu):
                        assert hom_space_dim(field, lam, mu) == 0


def test_semistandard_solve_builds_no_psi_base(cyclo3, monkeypatch):
    # the in-scope solve composes the merge maps symbolically: it pushes
    # no vector of M^mu through a psi_{d,t} base
    built = []
    monkeypatch.setattr(homs, "_psi_base", lambda *args: built.append(args))
    assert _semistandard_dimension(cyclo3, (2, 1, 1, 1, 1), (1,) * 6) == 1
    assert _semistandard_dimension(cyclo3, (3, 2, 1), (2, 2, 1, 1)) == 0
    assert built == []


@pytest.mark.parametrize("spec", ROADMAP_FIELDS)
def test_generator_keys_match_the_full_value(spec):
    # every theta_U(x), n <= 5, and seeded random vectors of M^mu and of the
    # reversed composition; at every q the keys are the full value's
    # coefficients at its column-canonical keys, none exactly when it is 0,
    # and the keys times y_{lam'} give back the full value
    field = parse_field(spec)
    rng = random.Random(spec)
    seen = set()
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                vectors = [theta_image_of_x(field, tab, mu) for tab in enumerate_row_standard(lam, mu)]
                for shape in (mu, mu[::-1]):
                    reps = _row_words(shape)
                    vectors.append(ModuleVector(field, shape, {
                        w: field.q_power(rng.randrange(4))
                        for w in rng.sample(reps, min(3, len(reps)))}))
                for v in vectors:
                    full = at_generator(v, lam).coeffs
                    keys = generator_keys(v, lam)
                    seen.add(bool(full))
                    _assert_keys_give_the_full_value(field, v, lam, keys, full)
    assert seen == {False, True}


def _assert_keys_give_the_full_value(field, v, lam, keys, full):
    assert bool(keys) == bool(full), (lam, v)
    assert all(full.get(k) == c for k, c in keys.items()), (lam, v)
    y = y_element(field, conjugate(lam))
    assert push_through(ModuleVector(field, v.shape, keys), y).coeffs == full, (lam, v)


@pytest.mark.parametrize("spec", ROADMAP_FIELDS)
def test_generator_walk_matches_the_full_value(spec, monkeypatch):
    # seeded vectors over every lam with n <= 6, in M^mu and M^(mu reversed):
    # the keys that walk w_lam with no strict descent are folded at once,
    # the others are acted on by the word (_act_dict's first input), and
    # both kinds occur; the answer is the full value's, by the rule above
    field = parse_field(spec)
    rng = random.Random(spec)
    firsts = []
    act = hecke._act_dict

    def counted(f, coeffs, i):
        firsts.append(len(coeffs))
        return act(f, coeffs, i)

    walked = acted = 0
    seen = set()
    for n in range(1, 7):
        shapes = list(partitions_of(n))
        for lam in shapes:
            for mu in rng.sample(shapes, min(3, len(shapes))):
                for shape in (mu, mu[::-1]):
                    reps = _row_words(shape)
                    v = ModuleVector(field, shape, {
                        w: field.q_power(rng.randrange(5))
                        for w in rng.sample(reps, min(6, len(reps)))})
                    full = at_generator(v, lam).coeffs
                    seen.add(bool(full))
                    firsts.clear()
                    monkeypatch.setattr(hecke, "_act_dict", counted)
                    keys = generator_keys(v, lam)
                    monkeypatch.setattr(hecke, "_act_dict", act)
                    descents = firsts[0] if firsts else 0
                    acted += descents
                    walked += len(v.coeffs) - descents
                    _assert_keys_give_the_full_value(field, v, lam, keys, full)
    assert seen == {False, True}
    assert walked > 0 and acted > 0, (walked, acted)


def test_row_class_words_are_the_class_reading_words(f97q3):
    # the row words of _row_class_sum, in order, are the reading words of
    # row_equiv_class, the tableau-building oracle
    tabs = [Tableau([[1] * 9 + [2]])]
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                tabs += enumerate_row_standard(lam, mu)
    for tab in tabs:
        got = homs._row_class_sum(f97q3, {tab: f97q3.one_rep}, tab.content())
        assert list(got.coeffs) == [t.reading_word() for t in row_equiv_class(tab)], tab
        assert set(got.coeffs.values()) == {f97q3.one_rep}
    for row in ((1, 1, 2, 3), (2,), ()):
        orderings = tableaux._orderings(row)
        assert isinstance(orderings, tuple) and all(isinstance(o, tuple) for o in orderings)
    assert len(tableaux._orderings((1,) * 9 + (2,))) == 10


def _random_values(field, mu, rng) -> list:
    """One to four vectors of the permutation module of mu: random
    combinations of spun Specht rows, about half of them with a stray
    coset basis vector added."""
    rows = spin_specht(field, mu).rows
    out = []
    for _ in range(rng.randint(1, 4)):
        coeffs: dict = {}
        for row in rng.sample(rows, rng.randint(1, min(3, len(rows)))):
            c = field.q_power(rng.randrange(6))
            for k, rep in row.items():
                hecke._acc(field, coeffs, k, field.mul(c, rep))
        if rng.random() < 0.5:
            hecke._acc(field, coeffs, rng.choice(_row_words(mu)), field.one_rep)
        out.append(ModuleVector(field, mu, coeffs))
    return out


@pytest.mark.parametrize("spec", ROADMAP_FIELDS)
def test_landing_dimension_matches_spun_module(spec):
    # the combinations landing in S^mu number K - (dim(S^mu + span) - dim S^mu)
    field = parse_field(spec)
    rng = random.Random(spec)
    checks = partial = 0
    for n in range(1, 6):
        for mu in partitions_of(n):
            for _ in range(3):
                values = _random_values(field, mu, rng)
                span = hecke.SparseEchelon(field)
                for row in spin_specht(field, mu).rows:
                    span.insert(dict(row))
                outside = sum(span.insert(dict(v.coeffs)) for v in values)
                got = _landing_solve(field, mu, len(values), lambda d, t: [
                    psi_dt(v, d, t).coeffs for v in values])
                assert got == len(values) - outside, (mu, values)
                checks += 1
                partial += 0 < got < len(values)
    assert checks == 54 and partial >= 10, partial


def test_semistandard_values_linearly_independent(cyclo3):
    for n in range(2, 7):
        for lam in partitions_of(n):
            gen = specht_generator(cyclo3, lam)
            for mu in partitions_of(n):
                tabs = enumerate_semistandard(lam, mu)
                if not tabs:
                    continue
                vectors = [
                    push_through(theta_image_of_x(cyclo3, tab, mu), gen) for tab in tabs
                ]
                assert _rank(cyclo3, [v.coeffs for v in vectors]) == len(tabs), (lam, mu)


def test_membership_reduces_to_top_merges_for_one_node_maps(cyclo3, cyclo4):
    # for a one-node coefficient system only the top merge of each row pair
    # can obstruct membership; lower merges vanish by dominance
    for field in (cyclo3, cyclo4):
        for n in range(3, 8):
            for mu in partitions_of(n):
                if mu[-1] != 1 or len(mu) < 2:
                    continue
                hom = one_node_map(field, mu, 1, len(mu))
                value = evaluate_on_generator(hom)
                s = len(mu) - 1
                for d in range(1, len(mu)):
                    for t in range(mu[d] - 1):
                        assert psi_dt(value, d, t).is_zero(), (field.name, mu, d, t)
                top_only = all(
                    psi_dt(value, d, mu[d] - 1).is_zero() for d in range(1, s + 1)
                )
                assert top_only == specht_membership(value), (field.name, mu)


def _rank(field, rows):
    """Rank of the dict rows by plain elimination, independent of
    SparseEchelon."""
    pivots = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            piv = min(row)
            if piv not in pivots:
                inv = field.inv(row[piv])
                pivots[piv] = {k: field.mul(inv, c) for k, c in row.items()}
                rank += 1
                break
            c = field.neg(row[piv])
            for k, rep in pivots[piv].items():
                old = row.get(k)
                new = field.mul(c, rep) if old is None else field.add(old, field.mul(c, rep))
                if field.is_zero(new):
                    row.pop(k, None)
                else:
                    row[k] = new
    return rank


def test_one_node_conditions_match_membership(cyclo3, cyclo4):
    rng = random.Random(5)
    for field in (cyclo3, cyclo4):
        for n in range(2, 7):
            for mu in partitions_of(n):
                if mu[-1] != 1 or len(mu) < 2:
                    continue
                lam = (mu[0] + 1,) + mu[1:-1]
                tabs = enumerate_semistandard(lam, mu)
                if not tabs:
                    continue
                built = one_node_map(field, mu, 1, len(mu))
                assert one_node_conditions_check(built) == restriction_into_specht(built)
                for _ in range(3):
                    hom = HomSpec(field, lam, mu, {tab: field.int_rep(rng.randrange(5)) for tab in tabs})
                    assert one_node_conditions_check(hom) == restriction_into_specht(hom)


def test_one_node_condition_system_solution_dimension(cyclo3, cyclo4):
    # rank computation over the coefficient variables: the space of
    # solutions is a line exactly when the divisibility condition holds
    from heckespecht.homs import _merge_rewrite

    for field in (cyclo3, cyclo4):
        e = field.profile().e
        for n in range(2, 8):
            for mu in partitions_of(n):
                if mu[-1] != 1 or len(mu) < 2:
                    continue
                tabs = enumerate_semistandard((mu[0] + 1,) + mu[1:-1], mu)
                ends = [tuple(row[-1] for row in tab.rows) for tab in tabs]
                if not ends:
                    continue
                s = len(mu) - 1
                rows = []
                for d in range(1, s + 1):
                    groups: dict = {}
                    for idx, entries in enumerate(ends):
                        rewritten = _merge_rewrite(field, mu, entries, d)
                        if rewritten is None:
                            continue
                        coeff, target = rewritten
                        if field.is_zero(coeff):
                            continue
                        cell = groups.setdefault(target, {})
                        old = cell.get(idx)
                        new = coeff if old is None else field.add(old, coeff)
                        if field.is_zero(new):
                            cell.pop(idx, None)
                        else:
                            cell[idx] = new
                    rows.extend(r for r in groups.values() if r)
                rank = _rank(field, rows)
                eligible = (mu[0] + s) % e == 0
                assert len(ends) - rank == (1 if eligible else 0), (e, mu)


def test_one_node_conditions_trivial_cases(cyclo3):
    lam, mu = (3, 1), (2, 1, 1)
    assert one_node_conditions_check(HomSpec(cyclo3, lam, mu, {}))
    zeros = {tab: cyclo3.zero_rep for tab in enumerate_semistandard(lam, mu)}
    assert one_node_conditions_check(HomSpec(cyclo3, lam, mu, zeros))
    one = cyclo3.one_rep
    for hom in [
        HomSpec(cyclo3, (3,), (2, 2), {}),  # target must end in 1
        HomSpec(cyclo3, (1, 1, 1), (1, 1, 1), {Tableau([[1], [2], [3]]): one}),  # source must be (2, 1)
        HomSpec(cyclo3, (2, 1, 1), (1, 1, 1, 1), {Tableau([[1, 3], [4], [2]]): one}),  # not semistandard
    ]:
        with pytest.raises(ValueError):
            one_node_conditions_check(hom)


def test_one_node_conditions_on_constructed_map(cyclo3, cyclo4):
    # the explicit coefficient system passes exactly when the divisibility
    # condition holds: here mu_1 + s = 4
    mu = (2, 1, 1)
    for field, expect in ((cyclo3, False), (cyclo4, True)):
        assert one_node_conditions_check(one_node_map(field, mu, 1, 3)) is expect


def test_row_transfer_membership_preserved_at_e2():
    # at e = 2 the one-node map and its first-row enlargement both land
    c2 = Cyclotomic(2)
    hom = one_node_map(c2, (1, 1), 1, 2)
    lifted = one_node_map(c2, (2, 1, 1), 2, 3)
    assert (lifted.source, lifted.target) == ((2, 2), (2, 1, 1))
    assert restriction_into_specht(hom)
    assert restriction_into_specht(lifted)


def test_hom_spec_json_round_trip(cyclo4):
    hom = one_node_map(cyclo4, (2, 1, 1), 1, 3)
    data = hom.to_json()
    text = json.dumps(data)
    assert HomSpec.from_json(json.loads(text)) == hom
    scalars = {item["scalar"] for item in data["coefficients"]}
    assert scalars == {"1", "z"}


def test_hom_spec_refuses_a_scalar_of_another_field(cyclo3, f7q2):
    # a cyclotomic scalar in a prime-field map is refused when the map is
    # built, not met later as an unrelated TypeError; its own field's
    # scalars and plain reps are kept
    tab = Tableau([[1, 1], [2]])
    with pytest.raises(ValueError, match="different fields"):
        HomSpec(f7q2, (2, 1), (2, 1), {tab: cyclo3.of(3)})
    assert HomSpec(f7q2, (2, 1), (2, 1), {tab: f7q2.of(3)}).coeffs == {tab: 3}
    assert HomSpec(f7q2, (2, 1), (2, 1), {tab: 3}).coeffs == {tab: 3}


def test_hom_spec_json_round_trip_extension_field(ext23):
    hom = one_node_map(ext23, (2, 2, 1), 1, 3)
    data = json.loads(json.dumps(hom.to_json()))
    assert data["fieldSpec"] == "ext:p=2,e=3"
    assert HomSpec.from_json(data) == hom


def test_hom_spec_validation(cyclo3):
    with pytest.raises(ValueError):
        HomSpec(cyclo3, (2, 1), (2, 1), {Tableau([[1, 1, 2]]): cyclo3.one_rep})
    with pytest.raises(ValueError):
        HomSpec(cyclo3, (2, 1), (3,), {Tableau([[1, 1], [2]]): cyclo3.one_rep})
    with pytest.raises(ValueError):
        HomSpec(cyclo3, (2, 1), (2, 1), {Tableau([[2, 1], [1]]): cyclo3.one_rep})
    payload = HomSpec(cyclo3, (2, 1), (2, 1), {Tableau([[1, 1], [2]]): cyclo3.one_rep}).to_json()
    del payload["fieldSpec"]
    for bad in (payload, dict(payload, fieldSpec=3)):
        with pytest.raises(ValueError):
            HomSpec.from_json(bad)


def _types(n):
    """The partitions of n and their reversals, as tableau types."""
    return list(dict.fromkeys(t for mu in partitions_of(n) for t in (mu, mu[::-1])))


@pytest.mark.parametrize("spec", ROADMAP_FIELDS + ("p=7,q=2",))
def test_values_over_zq_read_at_q_match_the_field_route(spec):
    # for every row-standard S of every lam with n <= 6, of each partition
    # type and its reversal: the memoised value of theta_S over Z[q], read
    # at q, is the field's generator_keys of S's row class, and for n <= 5
    # the whole value's coefficients at its keys; the stored polynomials
    # are trimmed and nonzero
    field = parse_field(spec)
    checked = 0
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in _types(n):
                for tab in enumerate_row_standard(lam, mu):
                    got = homs._map_value(field, ((tab.rows, field.one_rep),), 0, 0)
                    v = theta_image_of_x(field, tab, mu)
                    assert got == generator_keys(v, lam), (lam, tab)
                    if n <= 5:
                        full = at_generator(v, lam).coeffs
                        assert bool(got) == bool(full), (lam, tab)
                        assert all(full.get(k) == c for k, c in got.items()), (lam, tab)
                    assert all(poly and poly[-1] for poly in homs._z_value(lam, tab.rows).values())
                    checked += 1
    assert checked > 1000


def test_factored_composition_read_at_q_matches_the_field_rule():
    # for every row-standard T with n <= 6 of a partition shape and type,
    # as the landing solves take them, every valid (d, t) and each of the
    # ROADMAP_FIELDS and p=7,q=2: the memoised factored terms of
    # psi_{d,t} o theta_T, read at q with the zeros dropped, are the terms
    # of the rule computed in the field, in the same order
    fields = [parse_field(spec) for spec in ROADMAP_FIELDS + ("p=7,q=2",)]
    checked = 0
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for tab in enumerate_row_standard(lam, mu):
                    for d in range(1, len(mu)):
                        for t in range(mu[d]):
                            for field in fields:
                                assert _read_terms(field, tab, d, t) == \
                                    _rule_in_field(field, tab, d, t), (field, tab, d, t)
                            checked += 1
    assert checked > 10000


def test_generator_walk_starts_each_key_at_its_first_descent(f7q2, monkeypatch):
    # one key at a time over every lam with n <= 5 and every key of M^mu
    # and M^(mu reversed): the word is acted on from the key's first strict
    # descent along w_lam, found here by swapping the letters step by step,
    # and not at all when it has none; no action gets an empty dict
    act = hecke._act_dict
    inputs = []

    def counted(f, coeffs, i):
        inputs.append(len(coeffs))
        return act(f, coeffs, i)

    monkeypatch.setattr(hecke, "_act_dict", counted)
    steps = set()
    for n in range(1, 6):
        for lam in partitions_of(n):
            word = tableaux.reduced_word(w_lambda(lam))
            for shape in _types(n):
                for w in _row_words(shape):
                    key, first = list(w), len(word)
                    for j, i in enumerate(word):
                        if key[i - 1] > key[i]:
                            first = j
                            break
                        key[i - 1], key[i] = key[i], key[i - 1]
                    inputs.clear()
                    generator_keys(ModuleVector(f7q2, shape, {w: f7q2.one_rep}), lam)
                    assert len(inputs) == len(word) - first, (lam, w)
                    assert all(inputs), (lam, w)
                    steps.add("none" if first == len(word) else "first" if first == 0 else "later")
    assert steps == {"none", "first", "later"}
