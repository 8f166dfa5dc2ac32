"""Query pools for the benchmark workloads, and their seeded order.

A workload is a fixed list of *structures* (a subcommand with its shape
parameters and a field family) and, per family, a list of field
*variants*.  A run issues the structures in passes: every pass holds each
structure exactly once, with one variant of its family, in an order
shuffled by the seed.  Pass k gives a structure the variant
``(offset + k) mod V``, the offset drawn from the seed, so the seed
changes which fields meet which shapes and in which order.  V passes
make a round, which issues every (structure, variant) query once, so
runs of whole rounds issue the same mix of queries for every seed; a
query repeats only in a later round.

Every query is a plain argv for ``heckespecht.cli.main``; the benchmark
keeps the parsed parameters beside it for the answer checks.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from math import factorial, prod

from heckespecht.carter_payne import (
    CPInstance,
    adjacent_map,
    one_node_map,
    predicted_hom_dim,
)
from heckespecht.partitions import partitions_of
from heckespecht.qfield import parse_field
from heckespecht.tableaux import enumerate_row_standard, standard_count

WORKLOADS = ("verify", "homdim", "closed-form")

# Field variants per family, the same number V for every family of a
# workload.  A run issues whole rounds of V passes, so it issues every
# (structure, variant) pair equally often: the seed changes the order of
# the queries and which variant meets a structure in which pass, never
# the mix.  The variants mix values of e, so that some maps are eligible
# and some are not.
VARIANTS = {
    "verify": {
        "cyclotomic": ["cyclotomic:e=3", "cyclotomic:e=4"],
        "prime": ["p=5,q=1", "p=7,q=2"],
        "ext": ["ext:p=2,e=3", "ext:p=3,e=4"],
    },
    "homdim": {
        "cyclotomic": ["cyclotomic:e=3", "cyclotomic:e=4", "cyclotomic:e=6"],
        "prime": ["p=5,q=1", "p=7,q=2", "p=2,q=1"],
        "ext": ["ext:p=2,e=3", "ext:p=3,e=4", "ext:p=5,e=6"],
    },
    "closed-form": {
        "cyclotomic": ["cyclotomic:e=3", "cyclotomic:e=4", "cyclotomic:e=2"],
        "prime": ["p=5,q=1", "p=7,q=2", "p=3,q=1"],
        "ext": ["ext:p=2,e=3", "ext:p=3,e=4", "ext:p=5,e=6"],
    },
}
FAMILIES = ("cyclotomic", "prime", "ext")

# Size caps that keep every brute-force query well under a second, so no
# single query dominates a run (see README.md for the measured costs).
VERIFY_N = (6, 7, 8)
VERIFY_MAX_COSETS = 1680          # dim M^xi, the permutation module pushed through
HOMDIM_N = (5, 6, 7)
HOMDIM_N7_MAX_UNKNOWNS = 225      # dim S^lam * dim S^mu of the intertwiner solve
HOMDIM_N7_MAX_COSETS = 1000
CLASSIFY_N = tuple(range(18, 27))
SMALL_N = (3, 4, 5, 6)            # cp-eligible and compose, checked by brute force


def cosets(shape) -> int:
    """dim M^shape = n! / prod(shape_i!)."""
    return factorial(sum(shape)) // prod(factorial(p) for p in shape)


def _parts(shape) -> str:
    return ",".join(str(p) for p in shape)


class Query:
    """One CLI call: its argv (without ``--format``) and the parameters
    the answer checks need."""

    __slots__ = ("kind", "field", "params", "argv")

    def __init__(self, kind: str, field: str, params: dict, argv: list):
        self.kind = kind
        self.field = field
        self.params = params
        self.argv = argv


# ---------------------------------------------------------------------------
# structures: (kind, family, params) with the field left open

def _verify_structures():
    out = []
    for family in FAMILIES:
        for n in VERIFY_N:
            for xi in partitions_of(n):
                if cosets(xi) > VERIFY_MAX_COSETS:
                    continue
                for a in range(1, len(xi) + 1):
                    for b in range(a + 1, len(xi) + 1):
                        if _builds(one_node_map, xi, a, b):
                            out.append(("cp-verify-one", family, {"xi": xi, "a": a, "b": b}))
                for a in range(1, len(xi)):
                    for gamma in range(1, xi[a] + 1):
                        if _builds(adjacent_map, xi, a, gamma):
                            out.append(("cp-verify-adj", family,
                                        {"mu": xi, "a": a, "gamma": gamma}))
                if len(xi) > 1:
                    out.append(("hom-dim-row", family, {"lam": (n,), "mu": xi}))
    return out


@lru_cache(maxsize=None)
def _probe_field():
    """A field for checking that a map can be built at all (the shape
    conditions do not depend on the field)."""
    return parse_field("p=3,q=1")


def _builds(constructor, *args) -> bool:
    """Whether the map can be constructed at all (a valid node move with
    semistandard support)."""
    try:
        constructor(_probe_field(), *args)
    except (ValueError, AssertionError):
        return False
    return True


def _eligibility_question(mu, a, b, gamma) -> bool:
    """A valid node move whose map the checks can build; gamma > 1 across
    distant rows is kept, and the CLI must call it outside the proven
    scope."""
    if gamma == 1:
        return _builds(one_node_map, mu, a, b)
    if b == a + 1:
        return _builds(adjacent_map, mu, a, gamma)
    try:
        CPInstance(mu, a, b, gamma)
    except ValueError:
        return False
    return True


def node_moving_pairs(n: int):
    """(lam, mu) with lam from mu by one raising move: one node between
    any two rows, or gamma nodes between adjacent rows; lam != (n)."""
    pairs = []
    for mu in partitions_of(n):
        seen = set()
        for a in range(1, len(mu) + 1):
            for b in range(a + 1, len(mu) + 1):
                for gamma in range(1, mu[b - 1] + 1):
                    if gamma > 1 and b != a + 1:
                        continue
                    try:
                        lam = CPInstance(mu, a, b, gamma).lam
                    except ValueError:
                        continue
                    if lam != (n,) and lam not in seen:
                        seen.add(lam)
                        pairs.append((lam, mu))
    return pairs


def _homdim_structures():
    out = []
    for family in FAMILIES:
        for n in HOMDIM_N:
            for lam, mu in node_moving_pairs(n):
                if n == 7 and (
                    standard_count(lam) * standard_count(mu) > HOMDIM_N7_MAX_UNKNOWNS
                    or max(cosets(lam), cosets(mu)) > HOMDIM_N7_MAX_COSETS
                ):
                    continue
                out.append(("hom-dim", family, {"lam": lam, "mu": mu}))
    return out


def _closed_form_structures():
    out = []
    families = list(FAMILIES)
    for i, n in enumerate(CLASSIFY_N):
        out.append(("classify", families[i % 3], {"n": n}))
    for family in FAMILIES:
        for n in SMALL_N:
            for xi in partitions_of(n):
                for a in range(1, len(xi) + 1):
                    for b in range(a + 1, len(xi) + 1):
                        gammas = range(1, xi[b - 1] + 1) if b == a + 1 else (1, 2)
                        for gamma in gammas:
                            if gamma > xi[b - 1]:
                                continue
                            if not _eligibility_question(xi, a, b, gamma):
                                continue
                            out.append(("cp-eligible", family,
                                        {"mu": xi, "a": a, "b": b, "gamma": gamma}))
        for alpha in range(0, 48, 3):
            for beta in (1, 3):
                out.append(("vanish-run", family, {"alpha": alpha, "beta": beta}))
        for alpha in range(2, 15, 2):
            for beta in range(0, alpha + 1, 3):
                out.append(("qbinom", family, {"alpha": alpha, "beta": beta}))
        for top in (6, 9, 12):
            out.append(("tables", family, {"max": top}))
        # one row-standard tableau per (lam, mu) pair, with a merge (d, t)
        # that walks over the rows and kept entries as the pairs go by
        index = 0
        for n in SMALL_N[1:]:
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    if len(mu) < 2:
                        continue
                    index += 1
                    if n == SMALL_N[-1] and index % 3:
                        continue
                    tab = enumerate_row_standard(lam, mu)[0]
                    d = 1 + index % (len(mu) - 1)
                    out.append(("compose", family,
                                {"tableau": [list(r) for r in tab.rows],
                                 "d": d, "t": index % mu[d]}))
    return out


_STRUCTURES = {
    "verify": _verify_structures,
    "homdim": _homdim_structures,
    "closed-form": _closed_form_structures,
}


def make_query(kind: str, field: str, params: dict) -> Query:
    f = ["--field", field]
    if kind == "cp-verify-one":
        argv = ["cp-verify", *f, "--xi", _parts(params["xi"]),
                "--a", str(params["a"]), "--b", str(params["b"])]
    elif kind == "cp-verify-adj":
        argv = ["cp-verify", *f, "--mu", _parts(params["mu"]),
                "--a", str(params["a"]), "--gamma", str(params["gamma"])]
    elif kind in ("hom-dim", "hom-dim-row"):
        argv = ["hom-dim", *f, "--lambda", _parts(params["lam"]), "--mu", _parts(params["mu"])]
    elif kind == "classify":
        argv = ["classify", *f, "--n", str(params["n"])]
    elif kind == "cp-eligible":
        argv = ["cp-eligible", *f, "--mu", _parts(params["mu"]), "--a", str(params["a"]),
                "--b", str(params["b"]), "--gamma", str(params["gamma"])]
    elif kind in ("vanish-run", "qbinom"):
        argv = [kind, *f, "--alpha", str(params["alpha"]), "--beta", str(params["beta"])]
    elif kind == "tables":
        argv = ["tables", *f, "--max", str(params["max"])]
    elif kind == "compose":
        argv = ["compose", *f, "--tableau", json.dumps(params["tableau"], separators=(",", ":")),
                "--d", str(params["d"]), "--t", str(params["t"])]
    else:
        raise ValueError(f"unknown query kind {kind}")
    return Query(kind, field, params, argv)


class Plan:
    """The structures of one workload, each with the V field variants of
    its family.  A hom-dim pair whose dimension is not predicted for one
    of its variants is left out with all its variants, and counted."""

    def __init__(self, workload: str):
        if workload not in _STRUCTURES:
            raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
        self.workload = workload
        variants = VARIANTS[workload]
        profiles = {spec: parse_field(spec).profile()
                    for specs in variants.values() for spec in specs}
        self.fields = sorted(profiles)
        self.variant_count = len(next(iter(variants.values())))
        self.skipped_unknown = 0
        self.entries = []  # (kind, params, [field specs])
        for kind, family, params in _STRUCTURES[workload]():
            specs = variants[family]
            if kind == "hom-dim":
                unknown = sum(
                    predicted_hom_dim(params["lam"], params["mu"], profiles[spec]) == "unknown"
                    for spec in specs)
                if unknown:
                    self.skipped_unknown += unknown
                    continue
            self.entries.append((kind, params, specs))

    @property
    def round_length(self) -> int:
        """Queries in V passes: every (structure, variant) pair once."""
        return self.variant_count * len(self.entries)

    def passes(self, seed: int):
        """Yield the passes of the run for this seed, forever."""
        rng = random.Random(f"{self.workload}:{seed}")
        offsets = [rng.randrange(len(specs)) for _, _, specs in self.entries]
        k = 0
        while True:
            order = list(range(len(self.entries)))
            rng.shuffle(order)
            batch = []
            for i in order:
                kind, params, specs = self.entries[i]
                batch.append(make_query(kind, specs[(offsets[i] + k) % len(specs)], params))
            yield batch
            k += 1

    def first_queries(self, seed: int, count: int):
        out = []
        for batch in self.passes(seed):
            out.extend(batch)
            if len(out) >= count:
                return out[:count]

