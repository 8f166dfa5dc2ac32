"""Every memo of the library is a bounded lru_cache keyed by its arguments,
and ``clear_caches`` empties all of them."""

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
from heckespecht.hecke import _spin_specht


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
        "hecke._spin_specht", "homs._psi_base",
        "qfield.cyclotomic_polynomial", "qfield.qbinom", "tableaux.reduced_word",
        "tableaux.coset_reps", "tableaux.standard_count"}
    for name, cache in caches:
        assert cache.cache_info().maxsize is not None, name


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
