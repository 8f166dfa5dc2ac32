"""Command-line front end.

Every invocation resolves the coefficient field first and echoes the
derived pair (e, p) alongside the result, in the selected output format
(text, json or csv).  Each subcommand computes only its JSON result;
text and CSV are rendered from it by one rule (``_rows``), so the three
formats show the same fields.  Inputs are validated strictly; malformed
partitions, out-of-range indices and unknown flags exit with status 2,
unexpected internal failures with status 1.  The common argv form is
read off the flag table ``COMMANDS`` in one pass; argparse, built from
the same table on first need, reads every other form, so help, messages
and exit codes are its own.
"""

from __future__ import annotations

import argparse
import collections
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


FORMATS = ("text", "json", "csv")
_REQUIRED = object()  # the default of a flag that must be given
# a subcommand's flag: type int or str takes a value, bool is store_true
_Flag = collections.namedtuple("_Flag", "flag dest type default help", defaults=(None, None))
_FIELD = _Flag("--field", "field", str, _REQUIRED,
               'coefficient field, e.g. "p=7,q=2", "cyclotomic:e=3", "ext:p=2,e=3"')
_FORCE = _Flag("--force", "force", bool, False)
_ALPHA_BETA = (_FIELD, _Flag("--alpha", "alpha", int, _REQUIRED),
               _Flag("--beta", "beta", int, _REQUIRED))

# each subcommand's help and flags, in help order: build_parser makes the
# argparse parser of them and _parse reads the common argv form off them
COMMANDS = {
    "qbinom": ("Gaussian binomial", _ALPHA_BETA),
    "vanish-run": ("does a full run of Gaussian binomials vanish", _ALPHA_BETA),
    "trivial-sub": ("does the Specht module contain the trivial module", (
        _FIELD, _Flag("--mu", "mu", str, _REQUIRED))),
    "cp-eligible": ("node-moving eligibility criterion", (
        _FIELD, _Flag("--mu", "mu", str, _REQUIRED), _Flag("--a", "a", int, _REQUIRED),
        _Flag("--b", "b", int, _REQUIRED), _Flag("--gamma", "gamma", int, 1))),
    "cp-map": ("construct an explicit node-moving homomorphism", (
        _FIELD, _Flag("--xi", "xi", str, help="target partition for a one-node map"),
        _Flag("--a", "a", int, _REQUIRED),
        _Flag("--b", "b", int, help="source row for the one-node map"),
        _Flag("--mu", "mu", str, help="target partition for an adjacent-rows map"),
        _Flag("--gamma", "gamma", int, help="node count for the adjacent-rows map"))),
    "cp-verify": ("verify a homomorphism lands in the Specht module", (
        _FIELD, _Flag("--xi", "xi", str), _Flag("--a", "a", int), _Flag("--b", "b", int),
        _Flag("--mu", "mu", str), _Flag("--gamma", "gamma", int),
        _Flag("--hom-json", "hom_json", str,
              help="path to a homomorphism JSON file (- for stdin)"), _FORCE)),
    "hom-dim": ("dimension of the hom space between Specht modules", (
        _FIELD, _Flag("--lambda", "lam", str, _REQUIRED), _Flag("--mu", "mu", str, _REQUIRED),
        _FORCE)),
    "compose": ("merge map composed with a basis homomorphism, symbolically", (
        _FIELD, _Flag("--tableau", "tableau", str, _REQUIRED,
                      'row-standard tableau as JSON, e.g. "[[1,1,2],[3]]"'),
        _Flag("--d", "d", int, _REQUIRED), _Flag("--t", "t", int, _REQUIRED))),
    "classify": ("reducibility reports for all partitions of n", (
        _FIELD, _Flag("--n", "n", int, _REQUIRED))),
    "tables": ("table of Gaussian binomials", (_FIELD, _Flag("--max", "max", int, 8))),
}
_FLAGS = {name: {f.flag: f for f in flags} for name, (_, flags) in COMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckespecht",
        description="Exact Specht module homomorphisms for Hecke algebras",
    )
    parser.add_argument("--format", choices=FORMATS, default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for f in flags:
            kind = {"action": "store_true"} if f.type is bool else {"type": f.type}
            required = f.default is _REQUIRED
            p.add_argument(f.flag, dest=f.dest, required=required,
                           default=None if required else f.default, help=f.help, **kind)
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first need and kept: parsing does not change
    it, and building it costs more than most queries."""
    return build_parser()


def _parse(argv) -> argparse.Namespace:
    """The Namespace argparse gives for argv.  The common form,
    [--format text|json|csv] CMD then CMD's exact flags, each at most once
    and each but --force followed by a value that does not start with "-",
    with every required flag, is read off COMMANDS; any other argv goes to
    argparse, for its help, its messages and its exit codes."""
    argv = sys.argv[1:] if argv is None else list(argv)
    fmt, i = (argv[1], 2) if argv[:1] == ["--format"] and len(argv) > 1 else ("text", 0)
    flags = _FLAGS.get(argv[i]) if fmt in FORMATS and i < len(argv) else None
    if flags is not None:
        values = {"format": fmt, "command": argv[i]}
        tokens = iter(argv[i + 1:])
        for token in tokens:
            f = flags.get(token)
            if f is None or f.dest in values:
                break
            if f.type is bool:
                values[f.dest] = True
                continue
            value = next(tokens, "-")
            if value.startswith("-"):
                break
            try:
                values[f.dest] = f.type(value)
            except ValueError:
                break
        else:
            if all(f.dest in values for f in flags.values() if f.default is _REQUIRED):
                for f in flags.values():
                    values.setdefault(f.dest, f.default)
                return argparse.Namespace(**values)
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
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
        if isinstance(data, dict) and data.get("command") == "cp-map":
            data = data.get("result")  # cp-map's whole JSON output: the map is its result
        source =data.get("source") if isinstance(data, dict) else None
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
