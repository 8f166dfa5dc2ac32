"""Every memo of the library is bounded and keyed by its arguments, and
``clear_caches`` empties all of them."""

import importlib
import pkgutil

import heckespecht
from heckespecht import (
    Cyclotomic,
    PrimeField,
    clear_caches,
    cli,
    parse_field,
    partitions_of,
    qbinom,
    qbinom_sum_oracle,
    specht_generator,
    spin_specht,
)
from heckespecht.hecke import _generator_plan, _spin_specht, generator_keys
from heckespecht.homs import _value_at_z, _z_value, theta_image_of_x
from heckespecht.memo import sized_cache
from heckespecht.tableaux import Tableau, _orderings
from heckespecht.reducibility import _valuation_table, classify_range


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
        "tableaux.coset_reps", "tableaux.standard_count", "tableaux._orderings",
        "reducibility._valuation_table", "homs._z_value"}
    for name, cache in caches:
        assert cache.cache_info().maxsize is not None, name
    for cache in (_z_value, _orderings):
        info = cache.cache_info()
        assert info.terms <= info.maxterms


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
    list(classify_range(6, fields[0].profile()))
    assert _valuation_table.cache_info().currsize == 1
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
    values = [_value_at_z(parse_field(spec), {tab: parse_field(spec).one_rep}, (3, 2))
              for spec in ("cyclotomic:e=3", "p=97,q=3", "ext:p=2,e=3")]
    assert all(values)
    info = _z_value.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 2)
    assert info.terms == len(values[0])
    clear_caches()
    info = _z_value.cache_info()
    assert (info.currsize, info.terms, info.hits, info.misses) == (0, 0, 0, 0)


def test_an_oversized_value_is_computed_but_not_stored():
    # theta_S(z) for the one row 1..8 of lam = (8) has 8! keys, above the
    # per-entry cap: it is built on every call, and the stored terms stay
    # within their bound
    field = parse_field("p=7,q=2")
    clear_caches()
    small = Tableau([[1, 1, 2]])
    _value_at_z(field, {small: field.one_rep}, (3,))
    big = Tableau([list(range(1, 9))])
    for calls in (1, 2):
        assert len(_value_at_z(field, {big: field.one_rep}, (8,))) == 40320
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
