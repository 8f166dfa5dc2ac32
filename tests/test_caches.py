"""Every memo of the library is bounded and keyed by its arguments, and
``clear_caches`` empties all of them."""

import contextlib
import importlib
import io
import pkgutil

import pytest

import heckespecht
from heckespecht import (
    Cyclotomic,
    PrimeField,
    clear_caches,
    cli,
    homs,
    parse_field,
    partitions_of,
    qbinom,
    qbinom_sum_oracle,
    specht_generator,
    spin_specht,
)
from heckespecht.carter_payne import (
    adjacent_terms,
    one_node_map,
    one_node_terms,
    verify_cp,
    verify_terms,
)
from heckespecht.hecke import _generator_plan, _spin_specht, generator_keys
from heckespecht.homs import (
    _compose_terms,
    _map_value,
    _read,
    _z_value,
    compose_psi_theta,
    theta_image_of_x,
)
from heckespecht.memo import sized_cache
from heckespecht.partitions import _e_core
from heckespecht.qfield import ZQ, FieldSpec
from heckespecht.tableaux import Tableau, _orderings, enumerate_semistandard


def package_caches():
    """Every object with cache_info() in the package's modules."""
    found = {}
    for info in pkgutil.iter_modules(heckespecht.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"heckespecht.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_info"):
                found[id(obj)] = (f"{obj.__module__.split('.')[-1]}.{obj.__name__}", obj)
    return list(found.values())


def test_every_cache_is_bounded():
    caches = package_caches()
    assert {name for name, _ in caches} >= {
        "hecke._spin_specht", "hecke._generator_plan", "homs._psi_base",
        "qfield.cyclotomic_polynomial", "qfield.qbinom", "tableaux.reduced_word",
        "tableaux.coset_reps", "tableaux._orderings", "homs._z_value", "homs._read",
        "homs._compose_terms", "qfield.parse_field",
        "partitions._e_core", "carter_payne.one_node_terms", "carter_payne.adjacent_terms"}
    for name, cache in caches:
        assert cache.cache_info().maxsize is not None, name
    for cache in (_z_value, _orderings, _compose_terms, one_node_terms, adjacent_terms):
        info = cache.cache_info()
        assert info.terms <= info.maxterms


def test_each_spec_text_is_built_once():
    # one field object per text; another text of the same field is another
    # entry, equal to the first, and a field rebuilt after the memo is
    # emptied equals the old one
    clear_caches()
    field = parse_field("p=7,q=2")
    assert parse_field("p=7,q=2") is field
    other = parse_field("p=7,q=9")
    assert other is not field and other == field and hash(other) == hash(field)
    assert parse_field("p=7,q=3") != field
    assert parse_field.cache_info().currsize == 3
    clear_caches()
    assert parse_field.cache_info().currsize == 0
    again = parse_field("p=7,q=2")
    assert again is not field and again == field


@pytest.mark.parametrize("spec", [
    "p=6,q=2", "nonsense", "cyclotomic:e=1001", "ext:p=2,mod=1;0;1", "ext:p=3,e=23",
])
def test_a_refused_spec_raises_every_time_and_is_not_stored(spec):
    clear_caches()
    for calls in (1, 2, 3):
        with pytest.raises(ValueError):
            parse_field(spec)
        info = parse_field.cache_info()
        assert (info.currsize, info.hits, info.misses) == (0, 0, calls)


def test_queries_over_one_spec_share_its_q_powers(monkeypatch):
    # the second query reads the field the first built: no power of q and
    # no order of q is computed again
    calls = {"power": 0, "_q_order": 0}
    for attr in calls:
        method = getattr(FieldSpec, attr)

        def counted(self, *args, attr=attr, method=method):
            calls[attr] += 1
            return method(self, *args)

        monkeypatch.setattr(FieldSpec, attr, counted)
    clear_caches()
    assert _answer("p=97,q=3", ("qbinom", "--alpha", "6", "--beta", "3"))[0] == 0
    assert calls["power"] and calls["_q_order"] == 1
    powers = parse_field("p=97,q=3")._qpow
    assert len(powers) == 6
    calls.update(power=0, _q_order=0)
    code, out = _answer("p=97,q=3", ("qbinom", "--alpha", "6", "--beta", "2"))
    assert code == 0 and calls == {"power": 0, "_q_order": 0}
    assert parse_field("p=97,q=3")._qpow is powers
    clear_caches()
    assert _answer("p=97,q=3", ("qbinom", "--alpha", "6", "--beta", "2")) == (code, out)


def test_e_cores_are_memoised_by_partition_and_e():
    clear_caches()
    assert [homs.e_core([7, 2], e) for e in (2, 3, 2)] == [(1,), (4, 2), (1,)]
    info = _e_core.cache_info()
    assert (info.maxsize, info.currsize, info.hits, info.misses) == (4096, 2, 1, 2)
    clear_caches()
    assert _e_core.cache_info().currsize == 0


def _sweep(fields):
    return {
        (field.name, lam): (spin_specht(field, lam).matrices, specht_generator(field, lam))
        for field in fields
        for n in range(1, 6)
        for lam in partitions_of(n)
    }


def test_sweep_past_the_smallest_bound():
    fields = [Cyclotomic(e) for e in range(2, 7)] + [
        PrimeField(7, 2), PrimeField(97, 3), PrimeField(5, 1), parse_field("ext:p=2,e=3")]
    clear_caches()
    first = _sweep(fields)
    spun = _spin_specht.cache_info()
    assert spun.misses == len(first) > spun.maxsize
    for name, cache in package_caches():
        info = cache.cache_info()
        assert info.currsize <= info.maxsize, name
    clear_caches()
    assert _sweep(fields) == first
    clear_caches()
    for name, cache in package_caches():
        # the CLI's parser is built once per process and memoises no result
        if cache is not cli._parser:
            assert cache.cache_info().currsize == 0, name


def test_fields_differing_only_in_q_keep_their_own_entries():
    plain = parse_field("ext:p=2,mod=1;1;1")
    shifted = parse_field("ext:p=2,mod=1;1;1,q=1;1")
    clear_caches()
    assert qbinom(plain, 2, 1) != qbinom(shifted, 2, 1)
    for field in (plain, shifted):
        assert qbinom(field, 2, 1) == qbinom_sum_oracle(field, 2, 1)
        assert specht_generator(field, (2, 1)).field == field
        assert spin_specht(field, (2, 1)).field == field
    assert qbinom.cache_info().currsize == 2
    assert _spin_specht.cache_info().currsize == 2


def test_walk_memos_are_keyed_by_shape_and_row_only():
    # the plan of w_lam and the orderings of a row serve every field, and
    # clear_caches empties both
    clear_caches()
    tab = Tableau([[1, 1, 2], [2, 3]])
    for spec in ("cyclotomic:e=3", "p=97,q=3", "ext:p=2,e=3"):
        field = parse_field(spec)
        generator_keys(theta_image_of_x(field, tab), (3, 2))
    assert _generator_plan.cache_info().currsize == 1
    assert _orderings.cache_info().currsize == 2
    clear_caches()
    assert _generator_plan.cache_info().currsize == 0
    assert _orderings.cache_info().currsize == 0


def test_one_value_over_zq_serves_every_field():
    # the value of theta_S at z_lam is stored once, over Z[q], keyed by
    # (lam, S.rows): three fields read the one entry, and clear_caches
    # empties it
    clear_caches()
    tab = Tableau([[1, 1, 2], [2, 3]])
    fields = map(parse_field, ("cyclotomic:e=3", "p=97,q=3", "ext:p=2,e=3"))
    values = [_map_value(field, ((tab.rows, field.one_rep),), 0, 0) for field in fields]
    assert all(values)
    info = _z_value.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 2)
    assert info.terms == len(values[0])
    clear_caches()
    info = _z_value.cache_info()
    assert (info.currsize, info.terms, info.hits, info.misses) == (0, 0, 0, 0)


def test_a_constructed_map_is_decided_once_for_every_field():
    # a constructed map's terms and their compositions are field-free, and
    # so is each theta_S's value at z over Z[q]: a second field asking the
    # map adds no _z_value and no _compose_terms miss.  At q = -1 the terms
    # whose binomials hold [2] vanish, and their values wait for a field
    # that reads them as nonzero
    clear_caches()
    args = ((3, 2, 2, 1), 1, 4)  # one term has the binomial [2, 1]
    e2, e3, f7 = map(parse_field, ("cyclotomic:e=2", "cyclotomic:e=3", "p=7,q=2"))
    assert verify_terms(e2, one_node_terms, *args) == (True, True)
    at_e2 = _z_value.cache_info().misses
    assert verify_terms(e3, one_node_terms, *args) == (True, True)
    assert _z_value.cache_info().misses > at_e2 > 0
    misses = [cache.cache_info().misses for cache in (_z_value, _compose_terms)]
    assert verify_terms(f7, one_node_terms, *args) == (True, True)
    assert [cache.cache_info().misses for cache in (_z_value, _compose_terms)] == misses
    assert _compose_terms.cache_info().hits
    for field in (e2, e3, f7):
        assert verify_terms(field, one_node_terms, *args) == verify_cp(one_node_map(field, *args))
    clear_caches()
    for cache in (_z_value, _compose_terms, one_node_terms):
        info = cache.cache_info()
        assert (info.currsize, info.terms, info.hits, info.misses) == (0, 0, 0, 0)


LANDING_QUERIES = (
    ("cp-verify", "--xi", "3,2,1", "--a", "1", "--b", "3"),
    ("cp-verify", "--mu", "3,3", "--a", "1", "--gamma", "2"),
    ("cp-verify", "--mu", "4,2,1", "--a", "2", "--gamma", "1"),
    ("hom-dim", "--lambda", "4,2", "--mu", "3,2,1"),
    ("hom-dim", "--lambda", "5,1", "--mu", "3,3"),
)
LANDING_FIELDS = ("cyclotomic:e=3", "p=7,q=2", "ext:p=2,e=3", "p=5,q=1")


def _answer(spec, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--format", "json", *argv, "--field", spec])
    return code, out.getvalue()


def test_interleaved_fields_answer_as_if_cold():
    # the field-free memos (the composition terms of each map and the
    # values of theta_S at z over Z[q]) and the per-field reads, shared by
    # four fields asked in two interleaved orders in one process, give each
    # query the answer it has with every memo emptied first
    cold = {}
    for spec in LANDING_FIELDS:
        for argv in LANDING_QUERIES:
            clear_caches()
            cold[spec, argv] = _answer(spec, argv)
    assert len(set(cold.values())) > 2
    clear_caches()
    for order in (
        [(spec, argv) for argv in LANDING_QUERIES for spec in LANDING_FIELDS],
        [(spec, argv) for spec in reversed(LANDING_FIELDS) for argv in reversed(LANDING_QUERIES)],
    ):
        for spec, argv in order:
            assert _answer(spec, argv) == cold[spec, argv], (spec, argv)
    assert _read.cache_info().hits and _z_value.cache_info().hits
    clear_caches()


def test_one_polynomial_read_is_kept_per_field(monkeypatch):
    # 1 + q read twice over each of two fields that differ only in q: one
    # ZQ.at per field, each with its own value
    calls = []
    at = ZQ.at

    def counted(field, poly):
        calls.append(field.name)
        return at(field, poly)

    monkeypatch.setattr(ZQ, "at", counted)
    plain = parse_field("ext:p=2,mod=1;1;1")
    shifted = parse_field("ext:p=2,mod=1;1;1,q=1;1")
    clear_caches()
    values = [_read(field, (1, 1)) for field in (plain, shifted, plain, shifted)]
    assert calls == [plain.name, shifted.name]
    assert values[:2] == values[2:] == [at(plain, (1, 1)), at(shifted, (1, 1))]
    assert values[0] != values[1]
    clear_caches()
    assert _read.cache_info().currsize == 0


def test_semistandard_tableaux_are_listed_once_per_shape_and_type():
    # every caller gets a fresh list: clearing one leaves the next whole
    first = enumerate_semistandard((3, 2), (2, 2, 1))
    first.clear()
    again = enumerate_semistandard([3, 2], [2, 2, 1])
    assert [tab.rows for tab in again] == [((1, 1, 2), (2, 3)), ((1, 1, 3), (2, 2))]


def test_compose_stays_in_its_field(monkeypatch):
    # the composition terms keep q^k and the Gaussian binomials [a, b]
    # factored, so each field reads them with its own qbinom and none is
    # asked over Z[q]; a 120-cell row is one term with one binomial, which
    # over Z[q] would have degree 3600
    asked = []

    def counted(field, alpha, beta):
        asked.append(field)
        return qbinom(field, alpha, beta)

    monkeypatch.setattr(homs, "qbinom", counted)
    clear_caches()
    row, merged = Tableau([[1] * 60 + [2] * 60]), Tableau([[1] * 120])
    assert _compose_terms(row.rows, 1, 0) == ((merged.rows, (1, 0, ((120, 60),))),)
    field = parse_field("cyclotomic:e=5")
    assert compose_psi_theta(field, row, 1, 0).coeffs == {merged: qbinom(field, 120, 60).rep}
    for spec in LANDING_FIELDS:
        for argv in LANDING_QUERIES:
            assert _answer(spec, argv)[0] == 0
    assert asked and ZQ not in asked
    clear_caches()


def test_an_oversized_value_is_computed_but_not_stored():
    # theta_S(z) for the one row 1..8 of lam = (8) has 8! keys, above the
    # per-entry cap: it is built on every call, and the stored terms stay
    # within their bound
    field = parse_field("p=7,q=2")
    clear_caches()
    small = Tableau([[1, 1, 2]])
    _map_value(field, ((small.rows, field.one_rep),), 0, 0)
    big = Tableau([list(range(1, 9))])
    for calls in (1, 2):
        assert len(_map_value(field, ((big.rows, field.one_rep),), 0, 0)) == 40320
        info = _z_value.cache_info()
        assert (info.currsize, info.misses, info.terms) == (1, 1 + calls, 3)
    clear_caches()


def test_a_long_row_leaves_no_orderings_stored():
    clear_caches()
    _orderings((1, 1, 2))
    assert len(_orderings(tuple(range(1, 10)))) == 362880
    info = _orderings.cache_info()
    assert (info.currsize, info.terms) == (1, 3)
    clear_caches()


def test_sized_cache_evicts_the_least_recent_by_count_and_by_terms():
    calls = []

    @sized_cache(maxsize=3, maxterms=10, maxentry=6)
    def block(n):
        calls.append(n)
        return tuple(range(n))

    for n in (1, 2, 3):
        block(n)
    block(1)  # now the most recent
    block(4)  # a fourth entry: 2 goes
    assert block.cache_info()[2:] == (3, 3, 10, 8)
    block(5)  # 8 + 5 terms: 3 goes
    assert block.cache_info()[3:] == (3, 10, 10)
    block(6)  # 10 + 6 terms: 1, 4 and 5 go
    assert block.cache_info()[3:] == (1, 10, 6)
    block(7)  # above the per-entry cap: not stored
    assert block.cache_info()[3:] == (1, 10, 6)
    calls.clear()
    for n in (6, 7, 4):
        block(n)
    assert calls == [7, 4]
    block.cache_clear()
    assert block.cache_info() == (0, 0, 3, 0, 10, 0)
