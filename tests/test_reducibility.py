import json
import random

import pytest

from heckespecht import clear_caches, reducibility
from heckespecht.carter_payne import trivial_hom_exists
from heckespecht.partitions import conjugate, hook_length, partitions_of
from heckespecht.qfield import QuantumProfile, nu_ep
from heckespecht.reducibility import (
    E2_CAVEAT,
    ReducibilityReport,
    classify_range,
    hook_divisibility_witness,
    is_ep_reducible,
)
from heckespecht.tableaux import standard_count


def reference_reducible(parts, e, p):
    """Independent re-implementation: computes its own hooks and scans
    triples its own way; shares nothing with the library."""
    rows = len(parts)
    width = parts[0] if rows else 0
    col_heights = [sum(1 for r in parts if r > c) for c in range(width)]

    def hook(i, j):
        return parts[i] - (i + 1) + col_heights[j] - (j + 1) + 1

    def valuation(h):
        if h % e:
            return 0
        k = h // e
        if p == 0:
            return 1
        v = 0
        while k % p == 0:
            k //= p
            v += 1
        return v + 1

    for ai in range(rows):
        for ci in range(parts[ai]):
            v0 = valuation(hook(ai, ci))
            if v0 <= 0:
                continue
            row_partner = any(
                valuation(hook(ai, cj)) != v0 for cj in range(parts[ai]) if cj != ci
            )
            col_partner = any(
                valuation(hook(bi, ci)) != v0 for bi in range(col_heights[ci]) if bi != ai
            )
            if row_partner and col_partner:
                return True
    return False


def test_examples():
    prof3 = QuantumProfile(3, 0)
    report = is_ep_reducible((2, 1), prof3)
    assert report.reducible
    assert report.witness == ((1, 1), (1, 2), (2, 1))
    assert not is_ep_reducible((1, 1, 1), prof3).reducible
    assert not is_ep_reducible((6,), prof3).reducible


def test_witness_satisfies_criterion():
    from heckespecht.partitions import hook_length
    from heckespecht.qfield import nu_ep

    profiles = [QuantumProfile(3, 0), QuantumProfile(2, 3), QuantumProfile(4, 0)]
    for prof in profiles:
        for n in range(1, 9):
            for lam in partitions_of(n):
                report = is_ep_reducible(lam, prof)
                if not report.reducible:
                    continue
                (a, i), (a2, j), (b, i2) = report.witness
                assert a == a2 and i == i2 and j != i and b != a
                v0 = nu_ep(prof, hook_length(lam, (a, i)))
                assert v0 > 0
                assert nu_ep(prof, hook_length(lam, (a, j))) != v0
                assert nu_ep(prof, hook_length(lam, (b, i))) != v0


def test_matches_independent_implementation():
    profiles = [(2, 0), (3, 0), (4, 0), (3, 2), (2, 3)]
    for e, p in profiles:
        prof = QuantumProfile(e, p)
        for n in range(1, 9):
            for lam in partitions_of(n):
                assert is_ep_reducible(lam, prof).reducible == reference_reducible(lam, e, p)


def test_conjugation_symmetry():
    prof = QuantumProfile(3, 0)
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert (
                is_ep_reducible(lam, prof).reducible
                == is_ep_reducible(conjugate(lam), prof).reducible
            )


def test_divisibility_witness():
    prof3 = QuantumProfile(3, 0)
    assert hook_divisibility_witness((2, 1), prof3) == ((1, 1), (1, 2), (2, 1))
    assert hook_divisibility_witness((2, 2), prof3) == ((1, 1), (1, 2), (2, 1))
    assert hook_divisibility_witness((1,), prof3) is None


def test_divisibility_witness_implies_reducible():
    for prof in (QuantumProfile(3, 0), QuantumProfile(4, 0), QuantumProfile(5, 0)):
        for n in range(1, 9):
            for lam in partitions_of(n):
                if hook_divisibility_witness(lam, prof) is not None:
                    assert is_ep_reducible(lam, prof).reducible


def test_proper_image_consistency():
    # an eligible one-node map with a proper nonzero image certifies
    # reducibility of the target (away from e = 2)
    from heckespecht.carter_payne import CPInstance, cp_eligible, one_node_map
    from heckespecht.hecke import _spin
    from heckespecht.homs import evaluate_on_generator
    from heckespecht.qfield import Cyclotomic

    for e in (3, 4):
        spec = Cyclotomic(e)
        prof = spec.profile()
        for n in range(2, 7):
            for xi in partitions_of(n):
                for a in range(1, len(xi) + 1):
                    for b in range(a + 1, len(xi) + 1):
                        try:
                            inst = CPInstance(xi, a, b, 1)
                        except ValueError:
                            continue
                        if not cp_eligible(inst, prof):
                            continue
                        if standard_count(xi) <= 1:
                            continue
                        value = evaluate_on_generator(one_node_map(spec, xi, a, b))
                        image_dim = _spin(value).dimension
                        if 0 < image_dim < standard_count(xi):
                            assert is_ep_reducible(xi, prof).reducible, (e, inst)


def test_trivial_submodule_consistency():
    # a trivial submodule in a bigger module forces reducibility (e != 2)
    for e in (3, 4, 5):
        prof = QuantumProfile(e, 0)
        for n in range(1, 9):
            for mu in partitions_of(n):
                if mu == (n,) or not trivial_hom_exists(mu, prof):
                    continue
                if standard_count(mu) > 1:
                    assert is_ep_reducible(mu, prof).reducible, (e, mu)


def test_e2_caveat_flag():
    prof2 = QuantumProfile(2, 0)
    report = is_ep_reducible((2, 1), prof2)
    assert report.caveat == E2_CAVEAT
    assert is_ep_reducible((2, 1), QuantumProfile(3, 0)).caveat is None


def test_classify_range_order_and_json():
    prof3 = QuantumProfile(3, 0)
    reports = list(classify_range(3, prof3))
    assert [r.partition for r in reports] == [(3,), (2, 1), (1, 1, 1)]
    assert [r.verdict for r in reports] == ["irreducible", "reducible", "irreducible"]
    for report in reports:
        round_tripped = ReducibilityReport.from_json(json.loads(json.dumps(report.to_json())))
        assert round_tripped == report


def test_infinite_profile_rejected():
    with pytest.raises(ValueError):
        is_ep_reducible((2, 1), QuantumProfile(None, 0))


def _first_triple_scan(lam, mark):
    """The first witness triple, every hook from partitions.hook_length."""
    conj = conjugate(lam)
    for a in range(1, len(lam) + 1):
        for i in range(1, lam[a - 1] + 1):
            v = mark(hook_length(lam, (a, i)))
            if v <= 0:
                continue
            for j in range(1, lam[a - 1] + 1):
                if j == i or mark(hook_length(lam, (a, j))) == v:
                    continue
                for b in range(1, conj[i - 1] + 1):
                    if b == a or mark(hook_length(lam, (b, i))) == v:
                        continue
                    return ((a, i), (a, j), (b, i))
    return None


SCAN_PROFILES = ((2, 0), (3, 0), (4, 0), (2, 3), (3, 2), (5, 5), (2, 2))


def test_witnesses_match_first_triple_scan():
    # through classify_range, the path the CLI takes: one valuation table
    # per n, shared by every report
    for e, p in SCAN_PROFILES:
        prof = QuantumProfile(e, p)
        for n in range(1, 13):
            reports = list(classify_range(n, prof))
            assert [r.partition for r in reports] == list(partitions_of(n))
            for report in reports:
                lam = report.partition
                expect = _first_triple_scan(lam, lambda h: nu_ep(prof, h))
                assert report.witness == expect, (e, p, lam)
                assert report.reducible == (expect is not None)
                expect = _first_triple_scan(lam, lambda h: int(h % e == 0))
                assert hook_divisibility_witness(lam, prof) == expect, (e, p, lam)


def test_classify_range_reads_one_valuation_per_hook_length(monkeypatch):
    calls = []

    def counted(profile, h):
        calls.append(h)
        return nu_ep(profile, h)

    monkeypatch.setattr(reducibility, "nu_ep", counted)
    for e, p in SCAN_PROFILES:
        clear_caches()
        calls.clear()
        list(classify_range(20, QuantumProfile(e, p)))
        assert len(calls) <= 20, (e, p)


def test_witnesses_match_first_triple_scan_on_random_marks():
    # marks that no (e, p) gives: each hook length draws its own, so rows
    # and columns mix marks in patterns that the SCAN_PROFILES never make.
    # Integers 0-2 stand for valuations, booleans for divisibility
    rng = random.Random(0)
    cases = witnesses = 0
    for n in range(1, 10):
        shapes = list(partitions_of(n))
        for _ in range(150):
            for marks in ([rng.randint(0, 2) for _ in range(n + 1)],
                          [rng.random() < 0.5 for _ in range(n + 1)]):
                for lam in shapes:
                    expect = _first_triple_scan(lam, marks.__getitem__)
                    assert reducibility._hook_witness(lam, marks) == expect, (lam, marks)
                    cases += 1
                    witnesses += expect is not None
    assert cases == 300 * 96 and 0 < witnesses < cases


def test_classify_range_refuses_an_infinite_profile_when_called():
    # the CLI consumes the reports while it prints them, outside the error
    # handler around the command, so a refusal must come before the first
    with pytest.raises(ValueError):
        classify_range(3, QuantumProfile(None, 0))
