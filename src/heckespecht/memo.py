"""A least-recently-used memo bounded by the total size of its entries as
well as by their number, for values whose size varies by orders of
magnitude (the orderings of a row, a value at the Specht generator)."""

from __future__ import annotations

from collections import OrderedDict
from functools import update_wrapper
from operator import itemgetter


class SizedCacheInfo(tuple):
    """(hits, misses, maxsize, currsize, maxterms, terms) of a memo."""

    __slots__ = ()
    hits, misses, maxsize, currsize, maxterms, terms = map(property, map(itemgetter, range(6)))


def sized_cache(maxsize: int, maxterms: int, maxentry: int):
    """Decorator like ``functools.lru_cache(maxsize)`` on positional
    arguments, whose stored values also hold at most maxterms terms in
    all, len(value) each.  A value of more than maxentry terms is
    computed on every call and never stored; the least recently used
    entries go first when either bound is passed."""

    def decorate(fn):
        store: OrderedDict = OrderedDict()
        counts = [0, 0, 0]  # hits, misses, stored terms

        def wrapper(*args):
            value = store.get(args)
            if value is not None:
                store.move_to_end(args)
                counts[0] += 1
                return value
            counts[1] += 1
            value = fn(*args)
            terms = len(value)
            if terms <= maxentry:
                store[args] = value
                counts[2] += terms
                while len(store) > maxsize or counts[2] > maxterms:
                    counts[2] -= len(store.popitem(last=False)[1])
            return value

        def cache_info() -> SizedCacheInfo:
            return SizedCacheInfo((counts[0], counts[1], maxsize, len(store), maxterms, counts[2]))

        def cache_clear() -> None:
            store.clear()
            counts[:] = [0, 0, 0]

        wrapper.cache_info = cache_info
        wrapper.cache_clear = cache_clear
        return update_wrapper(wrapper, fn)

    return decorate
