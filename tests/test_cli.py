import argparse
import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from heckespecht import cli
from heckespecht.cli import main
from heckespecht.homs import HomSpec, _bounded_compositions
from heckespecht.partitions import nu_composition, partitions_of
from heckespecht.qfield import parse_field, qbinom
from heckespecht.reducibility import ReducibilityReport, classify_range
from heckespecht.tableaux import Tableau, enumerate_row_standard


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qbinom_text(capsys):
    code, out, _ = run_cli(capsys, "qbinom", "--field", "cyclotomic:e=2", "--alpha", "4", "--beta", "2")
    assert code == 0
    assert "field cyclotomic:e=2 (e=2, p=0)" in out
    assert "value: 2" in out


def test_qbinom_domain_error(capsys):
    code, _, err = run_cli(capsys, "qbinom", "--field", "cyclotomic:e=2", "--alpha", "2", "--beta", "5")
    assert code == 2
    assert "error" in err


def test_bad_field_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "qbinom", "--field", "p=6,q=1", "--alpha", "1", "--beta", "1")
    assert code == 2


@pytest.mark.parametrize("spec", [
    "ext:p=13,e=23",  # Phi_23 has degree-11 factors over F_13: 13^11 trial divisors
    "ext:p=2,e=1",  # e < 2: the order of p mod e is never reached
    "ext:p=5,e=-3",
    "p=1000000000039,q=2",  # past SEARCH_LIMIT^2: primality is not trial-divided
    "p=1000000000000000003,q=2",  # trial division to sqrt(p) would run for minutes
    "ext:p=1000000000000000003,mod=1;0;1",
    "ext:p=4,e=6",  # 4 has no order mod 6
    "ext:p=0,e=3",
])
def test_oversized_extension_search_is_domain_error(capsys, spec):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "vanish-run", "--field", spec, "--alpha", "3", "--beta", "1")
    assert time.perf_counter() - start < 2
    assert code == 2
    assert not out
    assert err.startswith("error:")


def test_bad_partition_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "trivial-sub", "--field", "cyclotomic:e=3", "--mu", "1,3")
    assert code == 2
    assert "error" in err


def test_vanish_run(capsys):
    code, out, _ = run_cli(
        capsys, "vanish-run", "--field", "p=7,q=2", "--alpha", "20", "--beta", "3"
    )
    assert code == 0
    assert "vanishes: true" in out


def test_trivial_sub(capsys):
    code, out, _ = run_cli(capsys, "trivial-sub", "--field", "cyclotomic:e=3", "--mu", "2,2,1")
    assert code == 0
    assert "trivial_submodule: true" in out


def test_cp_map_matches_expected_coefficients(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "cp-map", "--field", "cyclotomic:e=4",
        "--xi", "2,1,1", "--a", "1", "--b", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["e"] == 4 and payload["p"] == 0
    hom = HomSpec.from_json(payload["result"])
    coeffs = {tuple(map(tuple, t.rows)): str(hom.coefficient(t)) for t in hom.coeffs}
    assert coeffs == {((1, 1, 2), (3,)): "1", ((1, 1, 3), (2,)): "z"}


def test_cp_verify_roundtrip_through_file(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "--format", "json", "cp-map", "--field", "cyclotomic:e=3",
        "--xi", "2,1", "--a", "1", "--b", "2",
    )
    payload = json.loads(out)["result"]
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(
        capsys, "--format", "json", "cp-verify", "--field", "cyclotomic:e=3",
        "--hom-json", str(path),
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"nonzero": True, "lands_in_specht": True}


def test_cp_verify_reads_cp_map_json_output(capsys, tmp_path):
    # the whole payload that cp-map --format json prints: the map is its result
    code, out, _ = run_cli(
        capsys, "--format", "json", "cp-map", "--field", "cyclotomic:e=4",
        "--xi", "2,1,1", "--a", "1", "--b", "3",
    )
    path = tmp_path / "map.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "--format", "json", "cp-verify", "--field", "cyclotomic:e=4",
                           "--hom-json", str(path))
    assert code == 0
    assert json.loads(out)["result"] == {"nonzero": True, "lands_in_specht": True}
    # another command's payload holds no map
    _, out, _ = run_cli(capsys, "--format", "json", "hom-dim", "--field", "cyclotomic:e=4",
                        "--lambda", "3,1", "--mu", "2,1,1")
    path.write_text(out)
    code, out, err = run_cli(capsys, "cp-verify", "--field", "cyclotomic:e=4",
                             "--hom-json", str(path))
    assert (code, out) == (2, "")
    assert "needs source, target and coefficients lists" in err


def test_cp_verify_rejects_field_mismatch(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "--format", "json", "cp-map", "--field", "cyclotomic:e=3",
        "--xi", "2,1", "--a", "1", "--b", "2",
    )
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(json.loads(out)["result"]))
    code, _, err = run_cli(
        capsys, "cp-verify", "--field", "cyclotomic:e=4", "--hom-json", str(path)
    )
    assert code == 2
    assert "cyclotomic:e=3" in err


HOM_JSON = {"source": [3], "target": [2, 1], "fieldSpec": "cyclotomic:e=3",
            "coefficients": [{"tableau": [[1, 1, 2]], "scalar": "1"}]}


@pytest.mark.parametrize("argv, payload", [
    *((("compose", "--tableau", text, "--d", "1", "--t", "0"), None)
      for text in ("5", "null", '{"a":1}', '[[1,"a"]]', "[[1,2],[1.5]]", "[[true,2]]")),
    *((("cp-verify", "--hom-json", "-"), payload) for payload in (
        {**HOM_JSON, "coefficients": {"tableau": [[1, 1, 2]], "scalar": "1"}},
        {**HOM_JSON, "coefficients": [{"tableau": 5, "scalar": "1"}]},
        {**HOM_JSON, "coefficients": [{"tableau": [[1, 1, 2]], "scalar": 1}]},
        [],
        {**HOM_JSON, "coefficients": [{"tableau": [[1, 1, 2]], "scalar": "1/0"}]},
    )),
])
def test_malformed_json_is_domain_error(capsys, monkeypatch, argv, payload):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, err = run_cli(capsys, argv[0], "--field", "cyclotomic:e=3", *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("spec, scalar", [("ext:p=2,e=3", "1/2"), ("ext:p=3,e=4", "1/2*z")])
def test_hom_json_fraction_over_prime_extension_exits_2(capsys, monkeypatch, spec, scalar):
    payload = {**HOM_JSON, "fieldSpec": spec,
               "coefficients": [{"tableau": [[1, 1, 2]], "scalar": scalar}]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, err = run_cli(capsys, "--format", "json", "cp-verify", "--field", spec,
                             "--hom-json", "-")
    # a fraction was truncated to an integer, so the map changed silently
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and scalar in err


@pytest.mark.parametrize("command", ["cp-map", "cp-verify"])
@pytest.mark.parametrize("flags", [
    ("--xi", "2,1", "--a", "1", "--b", "2", "--mu", "2,2", "--gamma", "1"),
    ("--xi", "2,1", "--a", "1", "--b", "2", "--gamma", "1"),
    ("--mu", "2,2", "--a", "1", "--gamma", "1", "--b", "3"),
    ("--mu", "2,2", "--a", "1", "--gamma", "1", "--xi", "2,1"),
])
def test_mixed_map_flags_exit_2(capsys, command, flags):
    code, out, err = run_cli(capsys, command, "--field", "cyclotomic:e=3", *flags)
    assert (code, out) == (2, "")
    assert "--xi/--a/--b" in err and "--mu/--a/--gamma" in err


@pytest.mark.parametrize("flags", [
    ("--xi", "2,1", "--a", "1", "--b", "2"),
    ("--mu", "2,2", "--a", "1", "--gamma", "1"),
    ("--a", "1",),
    ("--gamma", "1",),
])
def test_cp_verify_rejects_hom_json_with_map_flags(capsys, tmp_path, flags):
    code, out, _ = run_cli(
        capsys, "--format", "json", "cp-map", "--field", "cyclotomic:e=3",
        "--xi", "2,1", "--a", "1", "--b", "2",
    )
    path = tmp_path / "hom.json"
    path.write_text(json.dumps(json.loads(out)["result"]))
    code, out, err = run_cli(
        capsys, "cp-verify", "--field", "cyclotomic:e=3", "--hom-json", str(path), *flags
    )
    assert (code, out) == (2, "")
    assert "--hom-json" in err and "--xi/--a/--b" in err and "--mu/--a/--gamma" in err


def test_cp_eligible_outside_scope(capsys):
    code, out, _ = run_cli(
        capsys, "cp-eligible", "--field", "cyclotomic:e=3",
        "--mu", "3,2,2", "--a", "1", "--b", "3", "--gamma", "2",
    )
    assert code == 0
    assert "outside proven scope" in out


def test_hom_dim(capsys):
    code, out, _ = run_cli(
        capsys, "hom-dim", "--field", "cyclotomic:e=3", "--lambda", "3", "--mu", "2,1"
    )
    assert code == 0
    assert "dimension: 1" in out
    code, out, _ = run_cli(
        capsys, "hom-dim", "--field", "cyclotomic:e=4", "--lambda", "3", "--mu", "2,1"
    )
    assert "dimension: 0" in out


def test_hom_dim_guard(capsys):
    # (10) and (8,2) share the 3-core (1): the pair would be solved
    code, _, err = run_cli(
        capsys, "hom-dim", "--field", "cyclotomic:e=3",
        "--lambda", "10", "--mu", "8,2",
    )
    assert code == 2
    assert "--force" in err


@pytest.mark.parametrize("spec, lam, mu", [
    ("cyclotomic:e=3", "10", "9,1"), ("cyclotomic:e=3", "30", "28,2"),
    ("p=1000000007,q=1", "2", "1,1"), ("p=999999999989,q=1", "3,1", "2,2"),
])
def test_hom_dim_across_blocks_needs_no_force(capsys, spec, lam, mu):
    # different e-cores: the answer is 0 with nothing solved, at any n and
    # at any e (with q = 1, e is p)
    code, out, _ = run_cli(
        capsys, "--format", "json", "hom-dim", "--field", spec, "--lambda", lam, "--mu", mu,
    )
    assert code == 0
    assert json.loads(out)["result"]["dimension"] == 0


@pytest.mark.parametrize("lam, mu", [("10", "9"), ("12", "9"), ("3", "1"), ("10", "9,2,1"), ("3,4", "7")])
def test_hom_dim_bad_pairs_exit_2(capsys, lam, mu):
    # unequal sizes, across blocks or not and over the guard or not, and
    # malformed partitions
    code, out, err = run_cli(
        capsys, "hom-dim", "--field", "cyclotomic:e=3", "--lambda", lam, "--mu", mu,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("force", [(), ("--force",)])
def test_hom_dim_unequal_sizes_over_the_guard(capsys, force):
    # sizes are checked before the n guard, with or without --force
    code, out, err = run_cli(
        capsys, "hom-dim", "--field", "cyclotomic:e=3", "--lambda", "10", "--mu", "1", *force,
    )
    assert (code, out) == (2, "")
    assert "partitions must have equal size" in err
    assert "--force" not in err


def test_compose(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "compose", "--field", "p=97,q=3",
        "--tableau", "[[1,1,2]]", "--d", "1", "--t", "0",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["target"] == [3, 0]
    assert result["coefficients"] == [{"tableau": [[1, 1, 1]], "scalar": "13"}]


@pytest.mark.parametrize("d", ["0", "-1"])
def test_compose_refuses_a_merge_row_above_the_first(capsys, d):
    # d < 1 names no merge map; row d + 1 = 1 exists, so "outside" would mislead
    code, out, err = run_cli(capsys, "compose", "--field", "cyclotomic:e=3",
                             "--tableau", "[[1,1,2]]", "--d", d, "--t", "0")
    assert (code, out) == (2, "")
    assert f"need d >= 1, got d={d}" in err
    assert "outside" not in err


def test_classify_outputs(capsys):
    code, out, _ = run_cli(capsys, "classify", "--field", "cyclotomic:e=3", "--n", "3")
    assert code == 0
    assert "2,1: reducible" in out
    code, out, _ = run_cli(capsys, "--format", "json", "classify", "--field", "cyclotomic:e=3", "--n", "3")
    reports = [ReducibilityReport.from_json(item) for item in json.loads(out)["result"]]
    assert [r.verdict for r in reports] == ["irreducible", "reducible", "irreducible"]
    code, out, _ = run_cli(capsys, "--format", "csv", "classify", "--field", "cyclotomic:e=3", "--n", "3")
    lines = out.strip().splitlines()
    assert lines[0] == "# field=cyclotomic:e=3,e=3,p=0"
    assert lines[1] == "partition,e,p,verdict,witness,note"
    assert lines[3] == '"2,1",3,0,reducible,"1,1;1,2;2,1",'


@pytest.mark.parametrize("chunk", [1, 7, cli.JSON_CHUNK])
@pytest.mark.parametrize("spec", ["cyclotomic:e=3", "p=2,q=1", "ext:p=2,e=3"])
def test_classify_json_streams_the_same_bytes(capsys, monkeypatch, spec, chunk):
    # the reports are encoded a chunk at a time, with the bytes of one
    # json.dumps of the whole payload
    monkeypatch.setattr(cli, "JSON_CHUNK", chunk)
    profile = parse_field(spec).profile()
    for n in range(1, 15):
        _, out, _ = run_cli(capsys, "--format", "json", "classify", "--field", spec, "--n", str(n))
        payload = {"field": spec, "e": profile.e, "p": profile.p, "command": "classify",
                   "result": [r.to_json() for r in classify_range(n, profile)]}
        assert out == json.dumps(payload) + "\n", (spec, n)


@pytest.mark.parametrize("name", ["p=3,q=1", "cyclotomic:e=2"])
def test_classify_text_and_csv_follow_the_json_reports(capsys, name):
    # the text and CSV rows are generated lazily from the same reports
    argv = ("classify", "--field", name, "--n", "7")
    _, out, _ = run_cli(capsys, "--format", "json", *argv)
    reports = json.loads(out)["result"]
    assert len(reports) == len(list(partitions_of(7))) == 15
    expect = [
        (",".join(map(str, r["partition"])), r["verdict"],
         ";".join(f"{i},{j}" for i, j in r["witness"] or ()), r["caveat"] or "")
        for r in reports
    ]
    assert any(note for *_, note in expect) == (name == "cyclotomic:e=2")

    _, out, _ = run_cli(capsys, *argv)
    header, *lines = out.splitlines()
    assert header.startswith(f"field {name} (e=")
    assert lines == [
        f"{part}: {verdict}" + (f"  witness {witness}" if witness else "")
        + (f"  [{note}]" if note else "")
        for part, verdict, witness, note in expect
    ]

    _, out, _ = run_cli(capsys, "--format", "csv", *argv)
    comment, *rows = out.splitlines()
    assert comment.startswith(f"# field={name},e=")
    header, *rows = csv.reader(rows)
    assert header == ["partition", "e", "p", "verdict", "witness", "note"]
    assert [(part, verdict, witness, note) for part, _e, _p, verdict, witness, note in rows] == expect


@pytest.mark.parametrize("argv, worker", [
    (("classify", "--n", "46"), "classify_range"),
    (("tables", "--max", "1001"), "qbinom_rows"),
    (("qbinom", "--alpha", "8000", "--beta", "1000"), "qbinom"),
    (("qbinom", "--alpha", "30000000", "--beta", "0"), "qbinom"),
    (("compose", "--tableau", json.dumps([[1, 2, 2, 2, 2, 2]] * 10), "--d", "1", "--t", "25"),
     "compose_psi_theta"),
])
def test_oversized_closed_form_input_is_refused(capsys, monkeypatch, argv, worker):
    def refuse(*args):
        raise AssertionError("an oversized input must be refused before any work")

    monkeypatch.setattr(cli, worker, refuse)
    code, out, err = run_cli(capsys, argv[0], "--field", "cyclotomic:e=3", *argv[1:])
    assert (code, out) == (2, "")
    assert "exceeds the size limit" in err


@pytest.mark.parametrize("argv, payload, message", [
    (("compose", "--tableau", "[[1,100000000000]]", "--d", "1", "--t", "0"), None,
     "entry 100000000000 exceeds the size limit"),
    (("cp-verify", "--hom-json", "-"),
     {**HOM_JSON, "source": [2], "target": [1, 1],
      "coefficients": [{"tableau": [[1, 100000000000]], "scalar": "1"}]},
     "does not have type (1, 1)"),
], ids=["compose", "cp-verify"])
def test_huge_tableau_entry_is_refused(capsys, monkeypatch, argv, payload, message):
    # Tableau.content() lists every value up to the largest entry, so the
    # entry must be refused before it is called
    def refuse(self):
        raise AssertionError("content() of a huge entry")

    monkeypatch.setattr(Tableau, "content", refuse)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, err = run_cli(capsys, argv[0], "--field", "cyclotomic:e=3", *argv[1:])
    assert (code, out) == (2, "")
    assert message in err


def test_compose_guard_counts_every_term(capsys, monkeypatch):
    # with no room left every compose is refused, naming its term count:
    # the number of tuples compose_psi_theta would list
    monkeypatch.setattr(cli, "CELLS_LIMIT", 0)
    for lam in partitions_of(4):
        for mu in partitions_of(4):
            for tab in enumerate_row_standard(lam, mu):
                for d in range(1, len(mu)):
                    counts = [row.count(d + 1) for row in tab.rows]
                    for t in range(mu[d]):
                        terms = len(list(_bounded_compositions(mu[d] - t, counts)))
                        _, _, err = run_cli(capsys, "compose", "--field", "p=7,q=2", "--tableau",
                                            json.dumps(tab.to_lists()), "--d", str(d), "--t", str(t))
                        assert f"term count {terms} exceeds" in err, (tab, d, t)


def test_compose_under_the_size_limit_runs(capsys, monkeypatch):
    # eight rows of [1,2,2,2,2,2] at --d 1 --t 20 list 135954 terms, under
    # the limit, where ten rows at --t 25 list 4395456
    built = []

    def compose(field, tab, d, t):
        built.append(tab)
        return HomSpec(field, tab.shape, nu_composition(tab.content(), d, t), {})

    monkeypatch.setattr(cli, "compose_psi_theta", compose)
    argv = ("compose", "--field", "p=7,q=2", "--tableau", json.dumps([[1, 2, 2, 2, 2, 2]] * 8),
            "--d", "1", "--t", "20")
    assert run_cli(capsys, *argv)[0] == 0 and len(built) == 1
    monkeypatch.setattr(cli, "CELLS_LIMIT", 0)
    assert "term count 135954 exceeds" in run_cli(capsys, *argv)[2]


def _refuse(*args, **kwargs):
    raise AssertionError("an oversized input must be refused before any work")


@pytest.mark.parametrize("argv", [
    ("--xi", "1000,1", "--a", "1", "--b", "2"),
    ("--xi", "8,7,6,5,4,3,2,1", "--a", "1", "--b", "8"),  # cp-map takes > 60 s on it
    ("--mu", "20,20", "--a", "1", "--gamma", "1"),
    ("--hom-json", "-"),
])
def test_cp_verify_guards_its_size_before_building(capsys, monkeypatch, argv):
    # the n guard reads the size off the flags or the JSON source: no map
    # is built, read or verified
    for name in ("one_node_map", "adjacent_map", "verify_cp"):
        monkeypatch.setattr(cli, name, _refuse)
    monkeypatch.setattr(HomSpec, "from_json", _refuse)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({**HOM_JSON, "source": [1000, 1]})))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "cp-verify", "--field", "p=7,q=2", *argv)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert "exceeds the brute-force guard (9); pass --force" in err


def test_cp_verify_guards_the_source_of_cp_map_json_output(capsys, monkeypatch):
    # in cp-map's whole JSON output the guard reads n off the result's source
    monkeypatch.setattr(HomSpec, "from_json", _refuse)
    payload = {"command": "cp-map", "result": {**HOM_JSON, "source": [1000, 1]}}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out, err = run_cli(capsys, "cp-verify", "--field", "p=7,q=2", "--hom-json", "-")
    assert (code, out) == (2, "")
    assert "exceeds the brute-force guard (9); pass --force" in err


@pytest.mark.parametrize("argv", [
    ("hom-dim", "--lambda", "1000,1", "--mu", "999,2", "--force"),
    ("cp-verify", "--xi", "1000,1", "--a", "1", "--b", "2", "--force"),
])
def test_forced_n_past_the_size_limit_is_refused(capsys, monkeypatch, argv):
    # --force lifts the brute-force guard only up to n = 1000: the n = 1001
    # pair takes 10 s on the semistandard route
    for name in ("hom_space_dim", "one_node_map"):
        monkeypatch.setattr(cli, name, _refuse)
    code, out, err = run_cli(capsys, argv[0], "--field", "p=7,q=2", *argv[1:])
    assert (code, out) == (2, "")
    assert "n=1001 exceeds the size limit 1000" in err


def test_long_rows_need_no_recursion(capsys):
    # the semistandard fill goes cell by cell and the compositions row by
    # row, with no call per cell or per row
    code, out, err = run_cli(capsys, "--format", "json", "cp-map", "--field", "p=7,q=2",
                             "--xi", "990,1", "--a", "1", "--b", "2")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["coefficients"] == [
        {"tableau": [[1] * 990 + [2]], "scalar": "1"}]
    rows = [[1]] + [[2]] * 1200
    code, out, err = run_cli(capsys, "--format", "json", "compose", "--field", "p=7,q=2",
                             "--tableau", json.dumps(rows), "--d", "1", "--t", "0")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["coefficients"] == [
        {"tableau": [[1]] * 1201, "scalar": "1"}]


def test_tables(capsys):
    code, out, _ = run_cli(capsys, "tables", "--field", "cyclotomic:e=2", "--max", "4")
    assert code == 0
    assert "[4] 1  0  2  0  1" in out


def test_tables_match_per_cell_qbinom(capsys):
    # q = 5 has order 999982 mod 999983, so q_power memoises few of its powers
    for name in ("cyclotomic:e=3", "p=7,q=2", "ext:p=2,e=3", "p=999983,q=5"):
        field = parse_field(name)
        for top in (0, 1, 12):
            code, out, _ = run_cli(capsys, "--format", "json", "tables", "--field", name, "--max", str(top))
            assert code == 0
            table = json.loads(out)["result"]["qbinom"]
            assert table == [
                [str(qbinom(field, a, b)) for b in range(a + 1)] for a in range(top + 1)
            ], (name, top)


@pytest.mark.parametrize("argv", [
    ("qbinom", "--alpha", "4", "--beta", "2"),
    ("vanish-run", "--alpha", "4", "--beta", "2"),
    ("trivial-sub", "--mu", "3,1"),
    ("cp-eligible", "--mu", "3,2,2", "--a", "1", "--b", "3"),
    ("cp-map", "--xi", "2,1,1", "--a", "1", "--b", "3"),
    ("cp-verify", "--xi", "2,1,1", "--a", "1", "--b", "3"),
    ("hom-dim", "--lambda", "3,1", "--mu", "2,2"),
    ("compose", "--tableau", "[[1,1,2],[3]]", "--d", "1", "--t", "0"),
    ("classify", "--n", "4"),
    ("tables", "--max", "4"),
])
def test_csv_rows_as_wide_as_the_header(capsys, argv):
    code, out, _ = run_cli(capsys, "--format", "csv", argv[0], "--field", "p=97,q=3", *argv[1:])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# field=p=97,q=3,e=48,p=97"
    header, *rows = csv.reader(lines[1:])
    assert rows
    if argv[0] == "tables":  # the triangle: row a holds alpha and beta = 0..a
        assert [len(row) for row in rows] == [a + 2 for a in range(len(header) - 1)]
    else:
        assert [len(row) for row in rows] == [len(header)] * len(rows)


# one query per subcommand; a subcommand without one fails the test below
RENDER_CASES = {
    "qbinom": ("--field", "cyclotomic:e=2", "--alpha", "4", "--beta", "2"),
    "vanish-run": ("--field", "p=7,q=2", "--alpha", "20", "--beta", "3"),
    "trivial-sub": ("--field", "cyclotomic:e=3", "--mu", " 2, 2,1"),
    "cp-eligible": ("--field", "cyclotomic:e=4", "--mu", "2,1,1", "--a", "1", "--b", "3"),
    "cp-map": ("--field", "cyclotomic:e=4", "--xi", "2,1,1", "--a", "1", "--b", "3"),
    "cp-verify": ("--field", "cyclotomic:e=4", "--xi", "2,1,1", "--a", "1", "--b", "3"),
    "hom-dim": ("--field", "cyclotomic:e=3", "--lambda", "3", "--mu", "2,1"),
    "compose": ("--field", "p=97,q=3", "--tableau", "[[1,2,3],[2,3]]", "--d", "2", "--t", "1"),
    "classify": ("--field", "cyclotomic:e=2", "--n", "5"),
    "tables": ("--field", "cyclotomic:e=3", "--max", "4"),
}


def _subcommands():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


@pytest.mark.parametrize("command", _subcommands())
def test_text_and_csv_render_the_json_result(capsys, command):
    argv = (command, *RENDER_CASES[command])
    outs = {}
    for fmt in ("json", "text", "csv"):
        code, outs[fmt], _ = run_cli(capsys, "--format", fmt, *argv)
        assert code == 0, fmt
    result = json.loads(outs["json"])["result"]
    _, *lines = outs["text"].splitlines()
    comment, *csv_lines = outs["csv"].splitlines()
    assert comment.startswith("# field=")
    header, *rows = csv.reader(csv_lines)
    if command == "classify":
        expect = [
            (",".join(map(str, r["partition"])), str(r["e"]), str(r["p"]), r["verdict"],
             ";".join(f"{i},{j}" for i, j in r["witness"] or ()), r["caveat"] or "")
            for r in result
        ]
        assert lines == [
            f"{part}: {verdict}" + (f"  witness {w}" if w else "") + (f"  [{note}]" if note else "")
            for part, _e, _p, verdict, w, note in expect
        ]
        assert header == ["partition", "e", "p", "verdict", "witness", "note"]
        assert [tuple(row) for row in rows] == expect
    elif command == "tables":
        table = result["qbinom"]
        assert lines == [f"[{a}] " + "  ".join(row) for a, row in enumerate(table)]
        assert header == ["alpha\\beta", *map(str, range(len(table)))]
        assert rows == [[str(a), *row] for a, row in enumerate(table)]
    elif command in ("cp-map", "compose"):
        expect = [(json.dumps(c["tableau"]).replace(" ", ""), c["scalar"])
                  for c in result["coefficients"]]
        assert expect
        assert lines == [f"{tab} -> {scalar}" for tab, scalar in expect]
        assert header == ["tableau", "scalar"]
        assert [tuple(row) for row in rows] == expect
    else:
        assert lines == [f"{key}: {_cell(value)}" for key, value in result.items()]
        assert header == list(result)
        assert rows == [[_cell(value) for value in result.values()]]


def test_text_shows_lambda_and_canonical_partitions(capsys):
    _, out, _ = run_cli(capsys, "cp-eligible", *RENDER_CASES["cp-eligible"])
    assert "lambda: 3,1" in out.splitlines()
    _, out, _ = run_cli(capsys, "trivial-sub", *RENDER_CASES["trivial-sub"])
    assert "mu: 2,2,1" in out.splitlines()


def test_out_of_scope_note_in_every_format(capsys):
    argv = ("cp-eligible", "--field", "cyclotomic:e=3", "--mu", "3,2,2", "--a", "1", "--b", "3",
            "--gamma", "2")
    note = "gamma=2 across rows 1<3 is outside the proven scope"
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and note in out.splitlines()
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    assert json.loads(out)["note"] == note
    code, out, _ = run_cli(capsys, "--format", "csv", *argv)
    assert out.splitlines() == [
        "# field=cyclotomic:e=3,e=3,p=0", f"# note={note}", "verdict", "outside proven scope",
    ]


def test_closed_pipe_leaves_no_traceback():
    # `classify ... | head -n 1`: the reader leaves after one line while
    # the process still has far more than a pipe buffer to write
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [sys.executable, "-m", "heckespecht", "classify", "--field", "p=7,q=2", "--n", "40"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first == b"field p=7,q=2 (e=3, p=7)\n"
    assert err == ""  # no traceback, and no flush error at exit either


def test_byte_identical_reruns(capsys):
    args = ("--format", "json", "classify", "--field", "p=7,q=2", "--n", "5")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    args = ("--format", "csv", "tables", "--field", "cyclotomic:e=3", "--max", "6")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_parser_built_once_per_process(capsys, monkeypatch):
    runs = [
        ("qbinom", "--field", "cyclotomic:e=2", "--alpha", "4", "--beta", "2"),
        ("--format", "json", "hom-dim", "--field", "cyclotomic:e=3", "--lambda", "3", "--mu", "2,1"),
        ("--format", "csv", "tables", "--field", "p=7,q=2", "--max", "3"),
        ("cp-eligible", "--field", "cyclotomic:e=3", "--mu", "3,2,2", "--a", "1", "--b", "2"),
    ]
    rejected = ("qbinom", "--field", "p=7,q=2", "--alpha", "1", "--beta", "1", "--bogus")
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    calls = [0]
    build = cli.build_parser

    def counted():
        calls[0] += 1
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    # well-formed runs build no parser
    for argv, expected in zip(runs, fresh):
        assert run_cli(capsys, *argv) == expected
    assert calls[0] == 0
    # the first rejection builds it, and later ones reuse it
    for argv, expected in zip(runs, fresh):
        with pytest.raises(SystemExit) as exc:
            main(list(rejected))
        assert exc.value.code == 2
        assert "--bogus" in capsys.readouterr().err
        assert run_cli(capsys, *argv) == expected
    assert calls[0] == 1


def _workloads():
    # the benchmark's query pools, loaded by path (bench/ is no package)
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _no_argparse():
    raise AssertionError("a common form reached argparse")


def _assert_fast_path(monkeypatch, argvs):
    # read off the flag table, argparse never built, with argparse's Namespace
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "_parser", _no_argparse)
    for argv in argvs:
        assert vars(cli._parse(argv)) == vars(parser.parse_args(argv)), argv


def test_pool_queries_take_the_fast_path(monkeypatch):
    workloads = _workloads()
    argvs = []
    for name in workloads.WORKLOADS:
        for kind, params, specs in workloads.Plan(name).entries:
            for spec in specs:
                argv = workloads.make_query(kind, spec, params).argv
                argvs += [argv, ["--format", "json", *argv]]  # the worker adds --format json
    assert len(argvs) > 5000
    _assert_fast_path(monkeypatch, argvs)


@pytest.mark.parametrize("command", RENDER_CASES)
def test_render_cases_take_the_fast_path(monkeypatch, command):
    case = RENDER_CASES[command]
    reverse = [token for pair in reversed(list(zip(case[::2], case[1::2]))) for token in pair]
    forms = [[command, *flags] for flags in (case, reverse)]
    _assert_fast_path(monkeypatch, [
        *forms, *(["--format", fmt, *form] for fmt in cli.FORMATS for form in forms)])


def test_readme_commands_take_the_fast_path(monkeypatch, readme_commands):
    _assert_fast_path(monkeypatch, readme_commands)


def test_fast_path_defaults():
    # pinned apart from the table that both paths read
    assert cli._parse(["cp-eligible", *RENDER_CASES["cp-eligible"]]).gamma == 1
    assert cli._parse(["tables", "--field", "p=7,q=2"]).max == 8
    args = cli._parse(["cp-verify", *RENDER_CASES["cp-verify"]])
    assert (args.format, args.force, args.mu, args.hom_json) == ("text", False, None, None)


HOM_DIM = ("hom-dim", "--field", "cyclotomic:e=3")


@pytest.mark.parametrize("argv", [
    ("-h",),
    ("hom-dim", "--help"),
    (*HOM_DIM, "--lam", "3", "--mu", "2,1"),  # an abbreviation
    (*HOM_DIM, "--lambda=3", "--mu", "2,1"),
    (*HOM_DIM, "--lambda", "3", "--mu", "2,1", "--mu", "1,1,1"),  # argparse keeps the last
    ("cp-eligible", "--field", "cyclotomic:e=3", "--mu", "2,1", "--a", "-1", "--b", "2"),
    ("cp-verify", "--field", "cyclotomic:e=3", "--hom-json", "-"),
    (*HOM_DIM, "--lambda", "3", "--mu", "2,1", "--format", "json"),
    ("--format", "xml", *HOM_DIM, "--lambda", "3", "--mu", "2,1"),
    (*HOM_DIM, "--lambda", "3"),  # --mu missing
    ("qbinom", "--field", "p=7,q=2", "--alpha", "x", "--beta", "1"),
    ("frobnicate",),
    (),
])
def test_unusual_forms_go_to_argparse(capsys, monkeypatch, argv):
    argv = list(argv)
    handed = []

    class Recorder:
        def parse_args(self, args):
            handed.append(args)
            return argparse.Namespace()

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parser", Recorder)
        cli._parse(argv)
    assert handed == [argv]

    def outcome(call):
        try:
            result = ("namespace", vars(call(argv)))
        except SystemExit as exc:
            result = ("exit", exc.code)
        return (*result, *capsys.readouterr())

    seen = []
    monkeypatch.setattr(cli, "_dispatch", lambda args, field: seen.append(args) or {})

    def through_main(argv):
        assert main(argv) == 0
        capsys.readouterr()  # the stub's output
        return seen.pop()

    expected = outcome(cli.build_parser().parse_args)
    assert expected[0] == "namespace" or expected[1] in (0, 2)
    assert outcome(through_main) == expected
