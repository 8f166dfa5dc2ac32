import re

import pytest
from conftest import ROADMAP_FIELDS

from heckespecht import clear_caches
from heckespecht.carter_payne import (
    CPInstance,
    CPVerification,
    OutsideProvenScope,
    adjacent_map,
    adjacent_terms,
    cp_eligible,
    cp_pair_data,
    one_node_map,
    one_node_terms,
    predicted_hom_dim,
    trivial_hom_exists,
    verify_cp,
    verify_terms,
)
from heckespecht.homs import (
    HomSpec,
    _solved_dimension,
    evaluate_on_generator,
    hom_space_dim,
    restriction_into_specht,
    restriction_is_zero,
    same_block,
    specht_membership,
)
from heckespecht.partitions import partitions_of
from heckespecht.qfield import Cyclotomic, QuantumProfile, parse_field, spec_for_profile


def one_node_instances(n):
    for xi in partitions_of(n):
        for a in range(1, len(xi) + 1):
            for b in range(a + 1, len(xi) + 1):
                try:
                    yield CPInstance(xi, a, b, 1)
                except ValueError:
                    continue


def test_instance_validation():
    inst = CPInstance((2, 1, 1), 1, 3, 1)
    assert inst.lam == (3, 1)
    assert CPInstance((3, 3), 1, 2, 1).lam == (4, 2)
    with pytest.raises(ValueError):
        CPInstance((2, 2), 2, 1, 1)
    with pytest.raises(ValueError):
        CPInstance((2, 1), 1, 2, 2)  # row 2 cannot give up two nodes
    with pytest.raises(ValueError):
        CPInstance((3, 2), 1, 3, 1)  # no third row


def test_pair_recovery():
    assert cp_pair_data((3, 1), (2, 1, 1)) == (1, 3, 1)
    assert cp_pair_data((4, 2), (3, 3)) == (1, 2, 1)
    with pytest.raises(ValueError):
        cp_pair_data((3, 1), (3, 1))
    with pytest.raises(ValueError):
        cp_pair_data((2, 2), (3, 1))  # lowering, not raising


def test_eligibility_examples():
    assert cp_eligible(CPInstance((2, 2), 1, 2, 1), QuantumProfile(2, 0))
    assert not cp_eligible(CPInstance((2, 2), 1, 2, 1), QuantumProfile(3, 0))
    assert cp_eligible(CPInstance((2, 1, 1), 1, 3, 1), QuantumProfile(4, 0))
    assert not cp_eligible(CPInstance((2, 1, 1), 1, 3, 1), QuantumProfile(3, 0))


def test_eligibility_char_p_run():
    # in characteristic p the modulus widens by the p-adic bound on gamma:
    # here gamma = 3 at (e, p) = (2, 2) needs the difference to be -1 mod 4
    prof = QuantumProfile(2, 2)
    assert not cp_eligible(CPInstance((4, 3), 1, 2, 3), prof)
    assert cp_eligible(CPInstance((4, 4), 1, 2, 3), prof)


def test_outside_scope():
    with pytest.raises(OutsideProvenScope):
        cp_eligible(CPInstance((3, 2, 2), 1, 3, 2), QuantumProfile(3, 0))
    assert predicted_hom_dim((5, 2), (3, 2, 2), QuantumProfile(3, 0)) == "unknown"


def test_trivial_hom_examples():
    prof3 = QuantumProfile(3, 0)
    assert trivial_hom_exists((6,), prof3)
    assert trivial_hom_exists((2, 2, 1), prof3)
    assert not trivial_hom_exists((3, 1), prof3)
    assert not trivial_hom_exists((5, 3), prof3)  # second row reaches the bad binomial
    assert trivial_hom_exists((2, 2, 2), QuantumProfile(3, 2))


def test_trivial_hom_matches_membership(cyclo3, cyclo4):
    for field in (cyclo3, cyclo4):
        prof = field.profile()
        for n in range(1, 7):
            for mu in partitions_of(n):
                assert trivial_hom_exists(mu, prof) == (
                    _solved_dimension(field, (n,), mu) == 1
                ), (field.name, mu)


def _by_row_ends(hom):
    """The map's coefficients keyed by the row ends of their tableaux."""
    return {tuple(row[-1] for row in tab.rows): rep for tab, rep in hom.coeffs.items()}


def test_one_node_map_coefficients(cyclo4):
    hom = one_node_map(cyclo4, (2, 1, 1), 1, 3)
    by_ends = _by_row_ends(hom)
    assert by_ends[(2, 3)] == cyclo4.one_rep
    assert by_ends[(3, 2)] == cyclo4.neg(cyclo4.q_power(-1))


def test_one_node_map_third_branch(cyclo4):
    # a repeated middle part exercises the bracketed coefficient
    hom = one_node_map(cyclo4, (2, 2, 1), 1, 3)
    by_ends = _by_row_ends(hom)
    span = 2  # row 2 length 2, target row empty, distance 0
    expect = cyclo4.neg(cyclo4.mul(cyclo4.q_power(-span), cyclo4.add(cyclo4.one_rep, cyclo4.q_rep)))
    assert by_ends[(3, 2)] == expect
    assert by_ends[(2, 3)] == cyclo4.one_rep


def test_one_node_leading_coefficient_is_one(cyclo3):
    for mu in [(2, 1, 1), (3, 2, 1), (2, 2, 1)]:
        hom = one_node_map(cyclo3, mu, 1, len(mu))
        ends = _by_row_ends(hom)
        s = len(mu) - 1
        assert ends[tuple(range(2, s + 2))] == cyclo3.one_rep


def test_adjacent_map_examples(f7q2):
    hom = adjacent_map(f7q2, (2, 2), 1, 1)
    assert [t.rows for t in hom.coeffs] == [((1, 1, 2), (2,))]
    hom = adjacent_map(f7q2, (2, 2), 1, 2)
    assert [t.rows for t in hom.coeffs] == [((1, 1, 2, 2),)]
    hom = adjacent_map(f7q2, (3, 2, 1), 2, 1)
    assert [t.rows for t in hom.coeffs] == [((1, 1, 1), (2, 2, 3)), ]


def test_verify_examples(cyclo3, cyclo4):
    assert verify_cp(one_node_map(cyclo3, (2, 1), 1, 2)) == CPVerification(True, True)
    assert verify_cp(one_node_map(cyclo4, (2, 1), 1, 2)) == CPVerification(True, False)
    c2 = Cyclotomic(2)
    assert verify_cp(adjacent_map(c2, (2, 2), 1, 1)) == CPVerification(True, True)


def test_verify_evaluates_generator_once(cyclo4, monkeypatch):
    from heckespecht import homs

    # one zero test of the value at the generator; the landing tests
    # then come from the merge maps, not from that value
    calls = []
    original = homs._map_value

    def counting(field, terms, d, t):
        calls.append((d, t))
        return original(field, terms, d, t)

    monkeypatch.setattr(homs, "_map_value", counting)
    assert verify_cp(one_node_map(cyclo4, (2, 1, 1), 1, 3)) == CPVerification(True, True)
    assert calls.count((0, 0)) == 1


def test_a_single_map_verdict_inverts_no_scalar(cyclo4, monkeypatch):
    # a single map lands when every merge map kills its value, so neither
    # verdict nor the membership oracle eliminates anything: with
    # Cyclotomic.inv refused, all three answer, every memo emptied first
    def refused(self, a):
        raise AssertionError("a single map's verdict inverted a scalar")

    monkeypatch.setattr(Cyclotomic, "inv", refused)
    clear_caches()
    hom = one_node_map(cyclo4, (2, 1), 1, 2)
    assert verify_cp(hom) == CPVerification(True, False)
    assert verify_terms(cyclo4, one_node_terms, (2, 1), 1, 2) == CPVerification(True, False)
    assert not specht_membership(evaluate_on_generator(hom))
    clear_caches()


def _built_maps(field, max_n):
    """Every one-node and adjacent-rows map that builds, 2 <= n <= max_n,
    with the function that lists its terms and that function's arguments."""
    for n in range(2, max_n + 1):
        for mu in partitions_of(n):
            for a in range(1, len(mu)):
                builds = [(one_node_map, one_node_terms, mu, a, b)
                          for b in range(a + 1, len(mu) + 1)]
                builds += [(adjacent_map, adjacent_terms, mu, a, g) for g in range(1, mu[a] + 1)]
                for build, terms_of, *args in builds:
                    try:
                        hom = build(field, *args)
                    except ValueError:
                        continue
                    yield hom, terms_of, args


@pytest.mark.parametrize("spec", ROADMAP_FIELDS + ("p=7,q=2",))
def test_symbolic_landing_matches_membership_of_the_value(spec):
    # every entry point gives one CPVerification: verify_cp of the built
    # map and of the map read back from its JSON, verify_terms of its terms
    # with no map built, and the two restriction predicates; the oracle
    # pushes the value at the generator through every merge map, sharing
    # no code with any of them
    field = parse_field(spec)
    seen = set()
    for hom, terms_of, args in _built_maps(field, 6):
        value = evaluate_on_generator(hom)
        want = CPVerification(not value.is_zero(), specht_membership(value))
        for got in (verify_cp(hom), verify_cp(HomSpec.from_json(hom.to_json(), field)),
                    verify_terms(field, terms_of, *args)):
            assert type(got) is CPVerification and got == want, hom
        assert (not restriction_is_zero(hom), restriction_into_specht(hom)) == want, hom
        seen.add(want)
    # no map with n <= 6 lands at e = 48 (p=97,q=3)
    assert CPVerification(True, False) in seen
    assert (CPVerification(True, True) in seen) == (field.profile().e < 8)


@pytest.mark.parametrize("spec", ROADMAP_FIELDS + ("p=7,q=2",))
def test_factored_verdict_matches_the_built_map(spec):
    # the verdict read off a map's field-free terms, read in the field
    # once, is verify_cp of the map built over the field, on
    # every one-node and adjacent-rows map with n <= 7; a construction the
    # builder refuses is refused with the same message
    field = parse_field(spec)
    seen = set()
    for n in range(2, 8):
        for mu in partitions_of(n):
            for a in range(1, len(mu)):
                builds = [(one_node_map, one_node_terms, b) for b in range(a + 1, len(mu) + 1)]
                builds += [(adjacent_map, adjacent_terms, g) for g in range(1, mu[a] + 1)]
                for make, terms_of, last in builds:
                    try:
                        want = verify_cp(make(field, mu, a, last))
                    except ValueError as exc:
                        with pytest.raises(ValueError, match=re.escape(str(exc))):
                            verify_terms(field, terms_of, mu, a, last)
                        continue
                    assert verify_terms(field, terms_of, mu, a, last) == want, (mu, a, last)
                    seen.add(want)
    # no map with n <= 7 lands at e = 48 (p=97,q=3)
    assert CPVerification(True, False) in seen
    assert (CPVerification(True, True) in seen) == (field.profile().e < 8)


def test_predicted_dims(cyclo3, cyclo4):
    prof3, prof4 = cyclo3.profile(), cyclo4.profile()
    assert predicted_hom_dim((3,), (2, 1), prof3) == 1
    assert predicted_hom_dim((3,), (2, 1), prof4) == 0
    prof2 = QuantumProfile(2, 0)
    # eligible one-node pair with a non-2-regular source at e = 2
    assert predicted_hom_dim((2, 2), (2, 1, 1), prof2) == ">=1"
    assert predicted_hom_dim((3, 3), (3, 2, 1), QuantumProfile(3, 0)) in (0, 1)


def test_predicted_matches_solver_one_node(cyclo3, cyclo4):
    for field in (cyclo3, cyclo4):
        prof = field.profile()
        for n in range(3, 6):
            for inst in one_node_instances(n):
                want = predicted_hom_dim(inst.lam, inst.mu, prof)
                got = _solved_dimension(field, inst.lam, inst.mu)
                assert got == want, (field.name, inst)


@pytest.mark.parametrize("spec", ["cyclotomic:e=3", "p=7,q=2"])
@pytest.mark.parametrize("lam, mu", [((5, 3, 2, 1), (4, 3, 2, 2)), ((5, 4, 3, 1), (4, 4, 3, 2))])
def test_predicted_matches_solver_past_n6(spec, lam, mu):
    # node-moving pairs with n = 11 and n = 13, each a single landing solve
    field = parse_field(spec)
    assert _solved_dimension(field, lam, mu) == predicted_hom_dim(lam, mu, field.profile()) == 1


def test_predicted_matches_solver_one_node_char_p():
    # the dimension statement persists in positive characteristic,
    # including over a proper extension field
    for e, p in [(3, 2), (4, 3)]:
        spec = spec_for_profile(e, p)
        prof = spec.profile()
        for n in range(3, 6):
            for inst in one_node_instances(n):
                dim = _solved_dimension(spec, inst.lam, inst.mu)
                want = 1 if cp_eligible(inst, prof) else 0
                assert dim == want, (spec.name, inst)


def test_predicted_matches_solver_adjacent_char_p():
    spec = spec_for_profile(3, 2)
    prof = spec.profile()
    for n in range(3, 6):
        for mu in partitions_of(n):
            for a in range(1, len(mu)):
                for gamma in range(1, mu[a] + 1):
                    try:
                        inst = CPInstance(mu, a, a + 1, gamma)
                    except ValueError:
                        continue
                    want = cp_eligible(inst, prof)
                    got = _solved_dimension(spec, inst.lam, inst.mu)
                    assert (got >= 1) == want, (mu, a, gamma)


def node_moving_instances(n):
    for mu in partitions_of(n):
        for a in range(1, len(mu) + 1):
            for b in range(a + 1, len(mu) + 1):
                for gamma in range(1, mu[b - 1] + 1):
                    try:
                        yield CPInstance(mu, a, b, gamma)
                    except ValueError:
                        continue


BLOCK_PROFILES = [QuantumProfile(e, 0) for e in range(2, 7)] + [
    QuantumProfile(e, p) for e, p in [(2, 2), (3, 3), (5, 5), (3, 2), (4, 3), (2, 3)]]


def test_predictions_respect_blocks():
    # a nonzero map needs lam and mu in one block: the paper's criteria
    # never predict one across e-cores, and the trivial module sits in
    # S^mu only for mu in the block of (n)
    verdicts = {}
    for prof in BLOCK_PROFILES:
        for n in range(2, 11):
            for inst in node_moving_instances(n):
                if same_block(prof, inst.lam, inst.mu):
                    continue
                want = predicted_hom_dim(inst.lam, inst.mu, prof)
                assert want not in (1, ">=1"), (prof, inst)
                verdicts[want] = verdicts.get(want, 0) + 1
        for n in range(1, 13):
            for mu in partitions_of(n):
                if trivial_hom_exists(mu, prof):
                    assert same_block(prof, (n,), mu), (prof, mu)
    # "unknown": 3 pairs with gamma = 1 or adjacent rows, and every
    # gamma > 1 move across non-adjacent rows
    assert verdicts == {0: 2464, "unknown": 115}


def test_one_node_dimension_spot_check_n7(cyclo4):
    # beyond the exhaustive sweep: a pair of seven-node partitions
    prof = cyclo4.profile()
    inst = CPInstance((3, 2, 2), 1, 3, 1)
    assert cp_eligible(inst, prof)
    assert _solved_dimension(cyclo4, inst.lam, inst.mu) == 1
    inst = CPInstance((3, 3, 1), 1, 3, 1)
    assert not cp_eligible(inst, prof)
    assert _solved_dimension(cyclo4, inst.lam, inst.mu) == 0


def test_one_node_at_e2_gives_lower_bound_only():
    # with a non-2-regular source the eligible dimension can exceed one;
    # this instance has a two-dimensional hom space
    c2 = Cyclotomic(2)
    prof = c2.profile()
    inst = CPInstance((3, 1, 1, 1), 1, 4, 1)
    assert inst.lam == (4, 1, 1)
    assert cp_eligible(inst, prof)
    assert predicted_hom_dim(inst.lam, inst.mu, prof) == ">=1"
    assert hom_space_dim(c2, inst.lam, inst.mu) == 2
    # ineligible pairs still vanish at e = 2
    for n in range(2, 7):
        for inst in one_node_instances(n):
            if not cp_eligible(inst, prof):
                assert hom_space_dim(c2, inst.lam, inst.mu) == 0, inst


def test_row_transfer_consistency_sample(cyclo3):
    # prepending a first row to a landing one-node map keeps it landing
    hom = one_node_map(cyclo3, (2, 1), 1, 2)
    assert restriction_into_specht(hom)
    for width in (3, 4):
        lifted = one_node_map(cyclo3, (width, 2, 1), 2, 3)
        assert (lifted.source, lifted.target) == ((width, 3), (width, 2, 1))
        assert restriction_into_specht(lifted)


def test_row_transfer_preserves_membership_both_ways(cyclo3, cyclo4):
    # sampled one-node instances up to n = 7 after prepending a first row
    for field in (cyclo3, cyclo4):
        for xi, a, b in [((2, 1), 1, 2), ((2, 1, 1), 1, 3), ((2, 2, 1), 1, 3), ((3, 1), 1, 2)]:
            hom = one_node_map(field, xi, a, b)
            before = restriction_into_specht(hom)
            width = max(hom.source[0], xi[0]) + 1
            if sum(xi) + width > 7:
                width = max(hom.source[0], xi[0])
            lifted = one_node_map(field, (width,) + xi, a + 1, b + 1)
            assert (lifted.source, lifted.target) == ((width,) + hom.source, (width,) + xi)
            assert restriction_into_specht(lifted) == before, (field.name, xi, a, b)


def test_row_and_column_removal_preserve_landing():
    # the one-node map on a shape with a first row of width w prepended, or
    # with a first column of height k prepended, lands exactly when the map
    # on the trimmed shape does; the enlarged sizes are kept to n <= 8
    checks = landing = 0
    for name in ("cyclotomic:e=2", "cyclotomic:e=3", "cyclotomic:e=4", "p=2,q=1"):
        field = parse_field(name)
        for n in range(2, 6):
            for inst in one_node_instances(n):
                xi, a, b = inst.mu, inst.a, inst.b
                lands = restriction_into_specht(one_node_map(field, xi, a, b))
                lifts = [
                    one_node_map(field, (w,) + xi, a + 1, b + 1)
                    for w in (inst.lam[0], inst.lam[0] + 1) if n + w <= 8
                ] + [
                    one_node_map(field, tuple(x + 1 for x in xi) + (1,) * (k - len(xi)), a, b)
                    for k in (len(xi), len(xi) + 1) if n + k <= 8
                ]
                for hom in lifts:
                    assert restriction_into_specht(hom) == lands, (name, xi, a, b, hom.source)
                checks += len(lifts)
                landing += lands * len(lifts)
    assert checks == 184 and 0 < landing < checks
