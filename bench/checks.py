"""Independent answer checks, run in the benchmark's own process after
the workload process has exited, so they sit outside the timed loop and
outside every span and counter.

Each check takes a workloads.Query and the compact answer the workload
process parsed from the CLI's JSON output, and returns None when the
answer is right or a short reason when it is wrong.
"""

from __future__ import annotations

from functools import lru_cache

from heckespecht.carter_payne import (
    CPInstance,
    adjacent_map,
    cp_eligible,
    one_node_map,
    predicted_hom_dim,
    trivial_hom_exists,
    verify_cp,
)
from heckespecht.hecke import ModuleVector
from heckespecht.homs import HomSpec, psi_dt, theta_image_of_x
from heckespecht.qfield import parse_field, qbinom_sum_oracle, vanish_run_direct
from heckespecht.tableaux import Tableau

OUTSIDE_SCOPE = "outside proven scope"


@lru_cache(maxsize=None)
def field_of(spec: str):
    return parse_field(spec)


def _profile(query):
    return field_of(query.field).profile()


def check(query, answer):
    return _CHECKS[query.kind](query, answer)


def _hom_dim(query, answer):
    p = query.params
    predicted = predicted_hom_dim(p["lam"], p["mu"], _profile(query))
    dim = answer["dimension"]
    if predicted == ">=1":
        return None if dim >= 1 else f"dimension {dim}, predicted >= 1"
    return None if dim == predicted else f"dimension {dim}, predicted {predicted}"


def _hom_dim_row(query, answer):
    expected = 1 if trivial_hom_exists(query.params["mu"], _profile(query)) else 0
    dim = answer["dimension"]
    return None if dim == expected else f"dimension {dim}, trivial submodule says {expected}"


def _instance(query):
    p = query.params
    if query.kind == "cp-verify-one":
        return CPInstance(p["xi"], p["a"], p["b"], 1)
    return CPInstance(p["mu"], p["a"], p["a"] + 1, p["gamma"])


def _cp_verify(query, answer):
    if not isinstance(answer.get("nonzero"), bool) or not isinstance(
            answer.get("lands_in_specht"), bool):
        return f"malformed verdict {answer!r}"
    if cp_eligible(_instance(query), _profile(query)) and not (
            answer["nonzero"] and answer["lands_in_specht"]):
        return f"eligible map gave {answer!r}"
    return None


def _cp_eligible(query, answer):
    """Brute force at small n: the constructed map is nonzero and lands in
    the Specht module exactly when the criterion says it is eligible."""
    p = query.params
    a, b, gamma = p["a"], p["b"], p["gamma"]
    if gamma > 1 and b > a + 1:
        return None if answer == OUTSIDE_SCOPE else f"expected {OUTSIDE_SCOPE!r}, got {answer!r}"
    field = field_of(query.field)
    if gamma == 1:
        hom = one_node_map(field, p["mu"], a, b)
    else:
        hom = adjacent_map(field, p["mu"], a, gamma)
    verdict = verify_cp(hom)
    lands = verdict.nonzero and verdict.lands_in_specht
    return None if answer["eligible"] == lands else (
        f"eligible={answer['eligible']} but the map {'lands' if lands else 'does not land'}")


def _vanish_run(query, answer):
    p = query.params
    direct = vanish_run_direct(field_of(query.field), p["alpha"], p["beta"])
    return None if answer["vanishes"] == direct else f"vanishes={answer['vanishes']}, direct {direct}"


@lru_cache(maxsize=None)
def _oracle(spec: str, alpha: int, beta: int) -> str:
    return str(qbinom_sum_oracle(field_of(spec), alpha, beta))


def _qbinom(query, answer):
    p = query.params
    expected = _oracle(query.field, p["alpha"], p["beta"])
    return None if answer["value"] == expected else f"{answer['value']} != oracle {expected}"


def _tables(query, answer):
    table = answer["qbinom"]
    if len(table) != query.params["max"] + 1:
        return f"{len(table)} rows"
    for alpha, row in enumerate(table):
        if len(row) != alpha + 1:
            return f"row {alpha} has {len(row)} entries"
        for beta, value in enumerate(row):
            expected = _oracle(query.field, alpha, beta)
            if value != expected:
                return f"[{alpha},{beta}] = {value} != oracle {expected}"
    return None


def _compose(query, answer):
    """psi_{d,t} applied to the basis map's image, by brute force, against
    the symbolic combination the CLI returned."""
    p = query.params
    field = field_of(query.field)
    tab = Tableau(p["tableau"])
    brute = psi_dt(theta_image_of_x(field, tab, tab.content()), p["d"], p["t"])
    hom = HomSpec.from_json(answer, field)
    acc = ModuleVector(field, brute.shape, {})
    for s_tab, c in hom.coeffs.items():
        acc = acc.add(theta_image_of_x(field, s_tab, hom.target).scale(c))
    return None if acc == brute else "symbolic composition differs from brute force"


# ---------------------------------------------------------------------------
# classify: a hook-valuation scan of its own

def _partitions_desc(n: int, top: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, top), 0, -1):
        for rest in _partitions_desc(n - first, first):
            yield (first,) + rest


def _valuation(h: int, e: int, p: int) -> int:
    if h % e:
        return 0
    k, v = h // e, 1
    while p and k % p == 0:
        k //= p
        v += 1
    return v


def _valuations(lam, e, p):
    """vals[a][i] for 0-based nodes: hook length arm + leg + 1."""
    cols = [sum(1 for part in lam if part > j) for j in range(lam[0])]
    return [[_valuation((lam[a] - i - 1) + (cols[i] - a - 1) + 1, e, p)
             for i in range(lam[a])] for a in range(len(lam))]


def _reducible(vals) -> bool:
    """Some node with positive valuation v has a node of another valuation
    both in its row and in its column."""
    row_sets = [set(row) for row in vals]
    col_sets = [set(vals[a][i] for a in range(len(vals)) if i < len(vals[a]))
                for i in range(len(vals[0]))]
    for a, row in enumerate(vals):
        for i, v in enumerate(row):
            if v > 0 and (row_sets[a] - {v}) and (col_sets[i] - {v}):
                return True
    return False


def _witness_ok(vals, witness) -> bool:
    (a, i), (a2, j), (b, i2) = witness
    if a2 != a or i2 != i or j == i or b == a:
        return False
    try:
        v = vals[a - 1][i - 1]
        return v > 0 and vals[a - 1][j - 1] != v and vals[b - 1][i - 1] != v
    except IndexError:
        return False


def _classify(query, answer):
    prof = _profile(query)
    e, p = prof.e, prof.p
    n = query.params["n"]
    expected = list(_partitions_desc(n, n))
    if [tuple(r[0]) for r in answer] != expected:
        return "partition list differs"
    for (part, reducible, witness, caveat) in answer:
        vals = _valuations(part, e, p)
        if reducible != _reducible(vals):
            return f"{part}: reducible={reducible}"
        if reducible and not _witness_ok(vals, witness):
            return f"{part}: bad witness {witness}"
        if (caveat is not None) != (e == 2):
            return f"{part}: caveat {caveat!r} at e={e}"
    return None


_CHECKS = {
    "hom-dim": _hom_dim,
    "hom-dim-row": _hom_dim_row,
    "cp-verify-one": _cp_verify,
    "cp-verify-adj": _cp_verify,
    "cp-eligible": _cp_eligible,
    "vanish-run": _vanish_run,
    "qbinom": _qbinom,
    "tables": _tables,
    "compose": _compose,
    "classify": _classify,
}
