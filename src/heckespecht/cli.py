"""Command-line front end.

Every invocation resolves the coefficient field first and echoes the
derived pair (e, p) alongside the result, in the selected output format
(text, json or csv).  Each subcommand computes only its JSON result;
text and CSV are rendered from it by one rule (``_rows``), so the three
formats show the same fields.  Inputs are validated strictly; malformed
partitions, out-of-range indices and unknown flags exit with status 2,
unexpected internal failures with status 1.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import sys

from .carter_payne import (
    CPInstance,
    OutsideProvenScope,
    adjacent_map,
    cp_eligible,
    one_node_map,
    trivial_hom_exists,
    verify_cp,
)
from .homs import HomSpec, compose_psi_theta, compose_term_count, hom_space_dim, same_block
from .partitions import nu_composition, parse_partition
from .qfield import parse_field, qbinom, qbinom_rows, vanish_run
from .reducibility import classify_range
from .tableaux import Tableau

BRUTE_FORCE_LIMIT = 9
# classify --n on a 2-vCPU VM, the reports made one at a time and rendered
# a chunk at a time, so the limit bounds time, not memory: n = 40 takes
# 0.5-0.75 s and 17-21 MB peak RSS, n = 45 takes 1.1-1.4 s and 17-21 MB
# (JSON the upper memory figures)
CLASSIFY_LIMIT = 45
JSON_CHUNK = 1000  # classify reports encoded per json.dumps call
TABLES_LIMIT = 1000  # tables --max (time and memory quadratic in max), and n under --force
CELLS_LIMIT = TABLES_LIMIT * (TABLES_LIMIT + 1) // 2  # cells of tables --max TABLES_LIMIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckespecht",
        description="Exact Specht module homomorphisms for Hecke algebras",
    )
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field(p):
        p.add_argument("--field", required=True,
                       help='coefficient field, e.g. "p=7,q=2", "cyclotomic:e=3", "ext:p=2,e=3"')

    p = sub.add_parser("qbinom", help="Gaussian binomial")
    add_field(p)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)

    p = sub.add_parser("vanish-run", help="does a full run of Gaussian binomials vanish")
    add_field(p)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)

    p = sub.add_parser("trivial-sub", help="does the Specht module contain the trivial module")
    add_field(p)
    p.add_argument("--mu", required=True)

    p = sub.add_parser("cp-eligible", help="node-moving eligibility criterion")
    add_field(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--gamma", type=int, default=1)

    p = sub.add_parser("cp-map", help="construct an explicit node-moving homomorphism")
    add_field(p)
    p.add_argument("--xi", help="target partition for a one-node map")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, help="source row for the one-node map")
    p.add_argument("--mu", help="target partition for an adjacent-rows map")
    p.add_argument("--gamma", type=int, help="node count for the adjacent-rows map")

    p = sub.add_parser("cp-verify", help="verify a homomorphism lands in the Specht module")
    add_field(p)
    p.add_argument("--xi")
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--mu")
    p.add_argument("--gamma", type=int)
    p.add_argument("--hom-json", help="path to a homomorphism JSON file (- for stdin)")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("hom-dim", help="dimension of the hom space between Specht modules")
    add_field(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("compose", help="merge map composed with a basis homomorphism, symbolically")
    add_field(p)
    p.add_argument("--tableau", required=True, help='row-standard tableau as JSON, e.g. "[[1,1,2],[3]]"')
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = sub.add_parser("classify", help="reducibility reports for all partitions of n")
    add_field(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("tables", help="table of Gaussian binomials")
    add_field(p)
    p.add_argument("--max", type=int, default=8)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing does not change it, and
    building it costs more than most queries."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        field = parse_field(args.field)
        profile = field.profile()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = _dispatch(args, field)
    except OutsideProvenScope as exc:
        return _emit(args, profile, "outside proven scope", note=str(exc))
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1
    return _emit(args, profile, result)


def _dispatch(args, field):
    """The JSON result; text and CSV are rendered from it by _rows."""
    cmd = args.command
    if cmd == "qbinom":
        if args.alpha * max(args.beta, 1) > CELLS_LIMIT:  # alpha rows, even at beta 0
            raise ValueError(f"--alpha times --beta exceeds the size limit {CELLS_LIMIT}")
        return {"alpha": args.alpha, "beta": args.beta,
                "value": str(qbinom(field, args.alpha, args.beta))}
    if cmd == "vanish-run":
        verdict = vanish_run(field.profile(), args.alpha, args.beta)
        return {"alpha": args.alpha, "beta": args.beta, "vanishes": verdict}
    if cmd == "trivial-sub":
        mu = parse_partition(args.mu)
        return {"mu": list(mu), "trivial_submodule": trivial_hom_exists(mu, field.profile())}
    if cmd == "cp-eligible":
        inst = CPInstance(parse_partition(args.mu), args.a, args.b, args.gamma)
        verdict = cp_eligible(inst, field.profile())
        return {"mu": list(inst.mu), "lambda": list(inst.lam), "a": args.a, "b": args.b,
                "gamma": args.gamma, "eligible": verdict}
    if cmd == "cp-map":
        return _build_map(args, field).to_json()
    if cmd == "cp-verify":
        return verify_cp(_load_or_build_map(args, field)).to_json()
    if cmd == "hom-dim":
        lam = parse_partition(args.lam)
        mu = parse_partition(args.mu)
        if sum(lam) != sum(mu):
            raise ValueError("partitions must have equal size")
        if not same_block(field.profile(), lam, mu):
            dim = 0  # across blocks nothing is solved, so the n guard does not apply
        else:
            _guard(sum(lam), args.force)
            dim = hom_space_dim(field, lam, mu)
        return {"lambda": list(lam), "mu": list(mu), "dimension": dim}
    if cmd == "compose":
        tab = Tableau.from_json(json.loads(args.tableau))
        terms = compose_term_count(tab.rows, args.d, args.t)
        if terms > CELLS_LIMIT:
            raise ValueError(f"the term count {terms} exceeds the size limit {CELLS_LIMIT}")
        top = max(tab.reading_word(), default=0)
        if top > CELLS_LIMIT:  # the type, content(), has a part for every value up to top
            raise ValueError(f"the tableau entry {top} exceeds the size limit {CELLS_LIMIT}")
        nu_composition(tab.content(), args.d, args.t)
        return compose_psi_theta(field, tab, args.d, args.t).to_json()
    if cmd == "classify":
        if args.n > CLASSIFY_LIMIT:
            raise ValueError(f"--n {args.n} exceeds the size limit {CLASSIFY_LIMIT}")
        # a generator: one report's dict at a time; only JSON lists them all
        return (r.to_json() for r in classify_range(args.n, field.profile()))
    if cmd == "tables":
        if args.max < 0:
            raise ValueError("--max must be nonnegative")
        if args.max > TABLES_LIMIT:
            raise ValueError(f"--max {args.max} exceeds the size limit {TABLES_LIMIT}")
        table = [
            [field.format_rep(rep) for rep in row]
            for row in qbinom_rows(field, args.max, args.max)
        ]
        return {"max": args.max, "qbinom": table}
    raise ValueError(f"unknown command {cmd}")


_MAP_FORMS = "--xi/--a/--b for a one-node map or --mu/--a/--gamma for adjacent rows"


def _build_map(args, field, guard=lambda n: None) -> HomSpec:
    """The map the construction flags name; guard(n) sees its size n
    before anything is built."""
    if (args.xi, args.b) != (None, None) and (args.mu, args.gamma) != (None, None):
        raise ValueError(f"give {_MAP_FORMS}, not both")
    if args.xi is not None:
        if args.b is None:
            raise ValueError("--xi needs --b")
        xi = parse_partition(args.xi)
        guard(sum(xi))
        return one_node_map(field, xi, args.a, args.b)
    if args.mu is not None and args.gamma is not None:
        mu = parse_partition(args.mu)
        guard(sum(mu))
        return adjacent_map(field, mu, args.a, args.gamma)
    raise ValueError(f"give {_MAP_FORMS}")


def _load_or_build_map(args, field) -> HomSpec:
    """cp-verify's map, read or built, its size n guarded first."""
    guard = functools.partial(_guard, force=args.force)
    if args.hom_json:
        if (args.xi, args.a, args.b, args.mu, args.gamma) != (None,) * 5:
            raise ValueError(f"give --hom-json or {_MAP_FORMS}, not both")
        if args.hom_json == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.hom_json, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        source = data.get("source") if isinstance(data, dict) else None
        if isinstance(source, list) and all(type(part) is int for part in source):
            guard(sum(source))  # a malformed source is from_json's to refuse
        return HomSpec.from_json(data, field)
    if args.a is None:
        raise ValueError("give --hom-json or map construction flags")
    return _build_map(args, field, guard)


def _guard(n: int, force: bool):
    if n > BRUTE_FORCE_LIMIT and not force:
        raise ValueError(
            f"n={n} exceeds the brute-force guard ({BRUTE_FORCE_LIMIT}); pass --force to override"
        )
    if n > TABLES_LIMIT:  # even forced: (1000,1) -> (999,2), n = 1001, takes 10 s
        raise ValueError(f"n={n} exceeds the size limit {TABLES_LIMIT}")


def _emit(args, profile, result, note=None) -> int:
    field_name, e, p = args.field, profile.e, profile.p
    if args.format == "json":
        payload = {"field": field_name, "e": e, "p": p, "command": args.command,
                   "result": result}
        if note:
            payload["note"] = note
        if args.command != "classify" or note:
            print(json.dumps(payload))
            return 0
        # classify's reports, in chunks between the payload's head and tail:
        # the same bytes as one json.dumps, without the whole list held
        head = json.dumps({**payload, "result": []})
        sys.stdout.write(head[:-2])  # up to the list's "["
        reports, sep = iter(result), ""
        for chunk in iter(lambda: list(itertools.islice(reports, JSON_CHUNK)), []):
            sys.stdout.write(sep + json.dumps(chunk)[1:-1])
            sep = ", "
        sys.stdout.write(head[-2:] + "\n")
        return 0
    rows = _rows(args.command, result)
    if args.format == "csv":
        print(f"# field={field_name},e={e},p={p}")
        if note:
            print(f"# note={note}")
        _emit_csv(args.command, rows)
    else:
        print(f"field {field_name} (e={e}, p={p})")
        if note:
            print(note)
        _emit_text(args.command, rows)
    return 0


def _rows(command, result):
    """The text and CSV rows of a JSON result: (key, cell) pairs of a flat
    dict, classify's report rows, (tableau, scalar) pairs of a map, or the
    tables triangle."""
    if isinstance(result, str):  # the out-of-scope verdict
        return [("verdict", result)]
    if command == "classify":
        return (
            (",".join(map(str, r["partition"])), r["e"], r["p"], r["verdict"],
             ";".join(f"{i},{j}" for i, j in r["witness"] or ()), r["caveat"] or "")
            for r in result
        )
    if command == "tables":
        return result["qbinom"]
    if command in ("cp-map", "compose"):
        return [(json.dumps(c["tableau"], separators=(",", ":")), c["scalar"])
                for c in result["coefficients"]]
    return [(key, _cell(value)) for key, value in result.items()]


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


_CSV_HEADERS = {"classify": ("partition", "e", "p", "verdict", "witness", "note"),
                "cp-map": ("tableau", "scalar"), "compose": ("tableau", "scalar")}


def _emit_csv(command, rows):
    out = csv.writer(sys.stdout, lineterminator="\n")
    if command == "tables":
        out.writerow(["alpha\\beta", *range(len(rows))])
        out.writerows([a, *row] for a, row in enumerate(rows))
    elif command in _CSV_HEADERS:
        out.writerow(_CSV_HEADERS[command])
        out.writerows(rows)
    else:
        out.writerow([k for k, _ in rows])
        out.writerow([v for _, v in rows])


def _emit_text(command, rows):
    if command == "classify":
        for partition, _e, _p, verdict, witness, caveat in rows:
            tail = f"  witness {witness}" if witness else ""
            note = f"  [{caveat}]" if caveat else ""
            print(f"{partition}: {verdict}{tail}{note}")
    elif command == "tables":
        for a, row in enumerate(rows):
            print(f"[{a}] " + "  ".join(row))
    elif command in ("cp-map", "compose"):
        for tab, scalar in rows:
            print(f"{tab} -> {scalar}")
    else:
        for key, value in rows:
            print(f"{key}: {value}")


if __name__ == "__main__":
    sys.exit(main())
