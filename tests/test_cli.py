"""The command-line surface and its JSON contract."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from itertools import count
from math import lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yangian_weyl import __version__
from yangian_weyl.cli import (
    MAX_FACTORS,
    MAX_RANK,
    SchemaError,
    _common_audit,
    _emit,
    _pair_audit,
    _pairwise_audit,
    _table_parse,
    _triple_str,
    build_parser,
    chain_to_doc,
    main,
    parse_chain_doc,
    parse_sl2_doc,
    parse_tuple_doc,
    tuple_to_doc,
)
from yangian_weyl.drinfeld import DrinfeldTuple, FactorChain, order_factors
from yangian_weyl.exact import GaussianRational as G
from yangian_weyl.rootsys import all_nodes, lie_type

from audit_oracle import pair_audit
from criteria_oracle import closed_form_set

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_info_g2(capsys):
    code, report = _run_json(capsys, ["info", "--type", "G2"])
    assert code == 0
    assert report["version"] and report["exact"] is True
    assert report["kappa"] == "2"
    dims = {row["node"]: row for row in report["fundamental_dims"]}
    assert dims[1]["lie_dim"] == 14 and dims[2]["lie_dim"] == 7
    assert dims[1]["provenance"] == "external"


def test_info_a1_and_d4(capsys):
    code, report = _run_json(capsys, ["info", "--type", "A", "--rank", "1"])
    assert code == 0 and report["longest_word"] == [1]
    code, report = _run_json(capsys, ["info", "--type", "D", "--rank", "4"])
    assert code == 0
    assert report["involution"] == {"1": 1, "2": 2, "3": 3, "4": 4}


@pytest.mark.parametrize(
    "argv",
    [["info", "--type", "D", "--rank", "3"], ["ssets", "--type", "D", "--rank", "3", "--json"]],
    ids=["info", "ssets"],
)
def test_d3_warns_once_per_run(argv):
    # Cached tables are keyed on the validated type, so no table rebuilds
    # it and repeats the warning.
    result = subprocess.run(
        [sys.executable, "-m", "yangian_weyl.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.count("UserWarning") == 1, result.stderr


def test_reader_that_closes_early_ends_the_run_quietly():
    # `weyl` on 400 roots writes a report of megabytes; the reader takes 10
    # bytes and closes the pipe.  The run ends with status 1 and no
    # traceback.
    doc = json.dumps({"type": "A", "rank": 1, "polys": {"1": [f"{k}/7" for k in range(400)]}})
    proc = subprocess.Popen(
        [sys.executable, "-m", "yangian_weyl.cli", "weyl", doc, "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""


def test_weyl_command(capsys):
    doc = '{"type":"A","rank":2,"polys":{"1":["2"],"2":["0"]}}'
    code, report = _run_json(capsys, ["weyl", doc])
    assert code == 0
    assert report["dimension"] == 9
    assert [f["node"] for f in report["chain"]] == [1, 2]
    assert [f["a"] for f in report["chain"]] == ["2", "0"]

    code, report = _run_json(
        capsys, ["weyl", '{"type":"B","rank":3,"polys":{"2":["0"]}}']
    )
    assert code == 0 and report["dimension"] == 22

    code, report = _run_json(
        capsys, ["weyl", '{"type":"A","rank":2,"polys":{"1":["1-2i"]}}']
    )
    assert code == 0 and report["chain"][0]["a"] == "1-2i"

    # Real parts that tie across the denominators 2 and 6 break by
    # descending imaginary part, then ascending node, in both modes.
    tied = '{"type":"A","rank":2,"polys":{"1":["1/2","1/2-1/3i","-7/6"],"2":["1/2+1/3i","1/2"]}}'
    code, report = _run_json(capsys, ["weyl", tied])
    assert code == 0 and report["chain"] == [
        {"a": "1/2+1/3i", "node": 2}, {"a": "1/2", "node": 1}, {"a": "1/2", "node": 2},
        {"a": "1/2-1/3i", "node": 1}, {"a": "-7/6", "node": 1}]
    assert main(["weyl", tied]) == 0
    assert "  1: node 2, a = 1/2+1/3i" in capsys.readouterr().out.splitlines()


def test_check_command(capsys):
    doc = '{"type":"A","rank":3,"factors":[{"node":1,"a":"0"},{"node":2,"a":"3/2"}]}'
    code, report = _run_json(capsys, ["check", doc, "--mode", "cyclic"])
    assert code == 0
    verdict = report["verdict"]
    assert verdict["guaranteed"] is False and verdict["exact"] is False
    assert verdict["witnesses"] == [{"i": 1, "j": 2, "difference": "3/2"}]

    complex_doc = (
        '{"type":"A","rank":3,"factors":'
        '[{"node":1,"a":"0+1i"},{"node":2,"a":"0-1i"}]}'
    )
    code, report = _run_json(capsys, ["check", complex_doc, "--mode", "cyclic"])
    assert code == 0 and report["verdict"]["guaranteed"] is True

    g2 = '{"type":"G2","factors":[{"node":2,"a":"0"},{"node":2,"a":"1"}]}'
    code, report = _run_json(capsys, ["check", g2, "--mode", "irreducible"])
    assert code == 0 and report["verdict"]["guaranteed"] is False


def test_sl2_command(capsys):
    code, report = _run_json(capsys, ["sl2", '[[1,"1"],[1,"0"]]'])
    assert code == 0
    assert report["closure_dimension"] == 4 and report["highest_weight"] is True

    code, report = _run_json(capsys, ["sl2", '[[1,"0"],[1,"1"]]'])
    assert code == 0
    assert report["closure_dimension"] == 3 and report["highest_weight"] is False

    code, report = _run_json(
        capsys, ["sl2", '[[2,"0"]]', "--verify", "series", "--order", "3"]
    )
    assert code == 0 and report["matches"] is True
    assert report["series"] == ["1", "2", "2", "2", "2"]

    code, report = _run_json(
        capsys, ["sl2", '[[1,"0"],[2,"5"]]', "--verify", "identities"]
    )
    assert code == 0 and report["relations_hold"] is True

    # A Gaussian three-factor product through the relation suite's packed
    # integer rows.
    code, report = _run_json(
        capsys, ["sl2", '[[1,"0"],[2,"5/2+1i"],[1,"-1/3"]]', "--verify", "identities"]
    )
    assert code == 0 and report["relations_hold"] is True and report["failures"] == []

    # Spins that cross from a full level into a short one.
    for spec, dims in (('[[2,"0"],[2,"1"]]', (8, 9)),
                       ('[[2,"0"],[2,"1"],[1,"1/2+1i"]]', (16, 18))):
        code, report = _run_json(capsys, ["sl2", spec, "--verify", "closure"])
        assert code == 0 and report["highest_weight"] is False
        assert (report["closure_dimension"], report["dimension"]) == dims

    # Gaussian parameters over large coprime denominators: the series
    # check's recursion at orders 8 and 32 (h_k pairs with c_(k+1)), the
    # relation suite's common denominator, and the closure.
    coprime = '[[1,"7/999999937+2/7i"],[2,"-5/1000003"],[1,"1/2"]]'
    for order in (8, 32):
        code, report = _run_json(
            capsys, ["sl2", coprime, "--verify", "series", "--order", str(order)]
        )
        assert code == 0 and report["matches"] is True and len(report["series"]) == order + 2
    code, report = _run_json(capsys, ["sl2", coprime, "--verify", "identities"])
    assert code == 0 and report["relations_hold"] is True and report["failures"] == []
    code, report = _run_json(capsys, ["sl2", coprime, "--verify", "closure"])
    assert code == 0
    assert (report["closure_dimension"], report["dimension"], report["highest_weight"]) == (
        12, 12, True)


def test_ssets_command(capsys):
    code, report = _run_json(capsys, ["ssets", "--type", "G2"])
    assert code == 0
    assert report["sets"]["2,1"] == ["9/2", "13/2"]
    assert report["sets"]["1,1"] == ["3", "4", "5", "6"]


def test_ssets_matches_oracle(capsys):
    # The whole `ssets --json` report, rendered from the closed forms of the
    # oracle without the package's scalar printing, for every type of rank
    # 12 or less.
    types = [("A", l) for l in range(1, 13)] + [(f, l) for f in "BC" for l in range(2, 13)]
    types += [("D", l) for l in range(3, 13)] + [("G2", 2)]
    for family, rank in types:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # D3 is A3 relabelled
            t = lie_type(family, rank)
            assert main(["ssets", "--type", family, "--rank", str(rank), "--json"]) == 0
        sets = {
            f"{b_m},{b_n}": [str(v) for v in sorted(closed_form_set(t, b_m, b_n))]
            for b_m in all_nodes(t)
            for b_n in all_nodes(t)
        }
        expected = {"version": __version__, "exact": True, "command": "ssets",
                    "lie_type": {"type": family, "rank": rank}, "sets": sets}
        out = capsys.readouterr().out
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n", str(t)


def test_human_output_runs(capsys):
    assert main(["info", "--type", "C", "--rank", "2"]) == 0
    assert main(["ssets", "--type", "A", "--rank", "2"]) == 0
    out = capsys.readouterr().out
    assert "S(1,1)" in out


# More digits than Python converts between int and str by default (4,300).
_LONG_INT = "7" * 5000
# `weyl` documents that pass the schema but whose one difference has a real
# part, or a zero real part and an imaginary part, with a denominator of
# about 6,000 digits.
_LONG_REAL = json.dumps({"type": "A", "rank": 1, "polys": {
    "1": ["1/" + "7" * 3000, "1/" + "3" * 2999 + "1"]}})
_LONG_IMAGINARY = json.dumps({"type": "A", "rank": 1, "polys": {
    "1": ["2+1/" + "7" * 3000 + "i", "2+1/" + "3" * 2999 + "1i"]}})
# The same, but the too-long part, 2 * 5 * 10^4299 = 10^4300, is in a later
# difference over a denominator already met, not in the first.
_X = "5" + "0" * 4299
_LONG_LATER_REAL = json.dumps({"type": "A", "rank": 1, "polys": {
    "1": ["0", "1", _X, "-" + _X]}})
_LONG_LATER_IMAGINARY = json.dumps({"type": "A", "rank": 1, "polys": {
    "1": ["0", "1+1i", "1+%si" % _X, "1-%si" % _X]}})


# (ID, argv, pointer) for each refusal.  The IDs are fixed here, so a row
# can sit beside its kin and a new row renames no other; the first 56 keep
# the positional IDs they were first collected under.
_SCHEMA_ERRORS = [
    ("argv0-/type", ["weyl", '{"type":"Z","rank":2,"polys":{}}'], "/type"),
    ("argv1-/rank", ["weyl", '{"type":"A","polys":{}}'], "/rank"),
    ("argv2-/polys/5", ["weyl", '{"type":"A","rank":2,"polys":{"5":["0"]}}'], "/polys/5"),
    ("argv3-/polys/1/0", ["weyl", '{"type":"A","rank":2,"polys":{"1":["x"]}}'], "/polys/1/0"),
    ("argv4-/polys", ["weyl", '{"type":"A","rank":2,"polys":{}}'], "/polys"),
    ("argv5-", ["weyl", "not json"], ""),
    ("argv6-/factors", ["check", '{"type":"A","rank":2,"factors":[]}'], "/factors"),
    ("argv7-/factors/0/node", ["check", '{"type":"A","rank":2,"factors":[{"node":9,"a":"0"}]}'],
     "/factors/0/node"),
    ("argv8-/0/0", ["sl2", '[[0,"1"]]'], "/0/0"),
    ("argv9-/0/1", ["sl2", '[[1,"1/0"]]'], "/0/1"),
    ("argv10-/rank", ["check", '{"type":"A","rank":true,"factors":[{"node":1,"a":"0"}]}'],
     "/rank"),
    ("argv11-/factors/0/node",
     ["check", '{"type":"A","rank":2,"factors":[{"node":true,"a":"0"}]}'],
     "/factors/0/node"),
    ("argv12-/0/0", ["sl2", '[[true,"0"]]'], "/0/0"),
    ("argv13---order", ["sl2", '[[1,"0"]]', "--verify", "series", "--order", "-1"], "--order"),
    ("argv14-", ["sl2", json.dumps([[1, "0"]] * 12)], ""),
    ("argv15-/polys/01", ["weyl", '{"type":"A","rank":2,"polys":{"1":["0"],"01":["5"]}}'],
     "/polys/01"),
    ("argv16-/polys/ 2", ["weyl", '{"type":"A","rank":2,"polys":{" 2":["0"]}}'], "/polys/ 2"),
    ("argv17-/polys/+1", ["weyl", '{"type":"A","rank":2,"polys":{"+1":["0"]}}'], "/polys/+1"),
    ("argv18-", ["weyl", '{"type":"A","rank":2,"polys":{"1":["0"],"1":["5"]}}'], ""),
    ("argv19---order", ["sl2", '[[1,"0"]]', "--verify", "series", "--order", "33"], "--order"),
    ("argv20-", ["check", '{"type":"A","rank":%s,"factors":[]}' % _LONG_INT], ""),
    ("argv21-/factors/0/a",
     ["check", '{"type":"A","rank":2,"factors":[{"node":1,"a":"%s"}]}' % _LONG_INT],
     "/factors/0/a"),
    ("argv22-/0/1", ["sl2", '[[1,"1/%s"]]' % _LONG_INT], "/0/1"),
    ("argv23-/rank", ["info", "--type", "A", "--rank", str(MAX_RANK + 1)], "/rank"),
    ("argv24-/rank", ["check", json.dumps({"type": "B", "rank": MAX_RANK + 1,
                                           "factors": [{"node": 1, "a": "0"}]})], "/rank"),
    # Inputs that pass the schema but print a part too long for str().
    ("argv25-", ["sl2", '[[1,"%s"]]' % ("3" * 2500), "--verify", "series", "--order", "2",
                 "--json"], ""),
    ("argv26-", ["weyl", _LONG_REAL], ""),
    ("argv27-/polys", ["weyl", json.dumps({"type": "A", "rank": 2, "polys": {
        "1": [str(k) for k in range(MAX_FACTORS)], "2": ["0"]}})], "/polys"),
    ("argv28-/factors", ["check", json.dumps({"type": "A", "rank": 2, "factors": [
        {"node": 1, "a": str(k)} for k in range(MAX_FACTORS + 1)]})], "/factors"),
    # RFC 6901 escapes in keys: "/" as "~1", "~" as "~0".
    ("argv29-/polys/1~12",
     ["weyl", '{"type":"A","rank":2,"polys":{"1/2":["0"]}}'], "/polys/1~12"),
    ("argv30-/polys/a~0b",
     ["weyl", '{"type":"A","rank":2,"polys":{"a~b":["0"]}}'], "/polys/a~0b"),
    # Unknown keys, at the top level and in a check factor; the top
    # level is checked first.
    ("argv31-/factors/0/extra",
     ["check", '{"type":"A","rank":2,"factors":[{"node":1,"a":"0","extra":1}]}'],
     "/factors/0/extra"),
    ("argv32-/zzz",
     ["check", '{"type":"A","rank":2,"factors":[{"node":1,"a":"0","extra":1}],"zzz":2}'],
     "/zzz"),
    ("argv33-/factors/1/a~1b",
     ["check", '{"type":"G2","factors":[{"node":1,"a":"0"},{"a":"1","node":2,"a/b":0}]}'],
     "/factors/1/a~1b"),
    ("argv34-/", ["weyl", '{"type":"A","rank":2,"polys":{"1":["0"]},"":1}'], "/"),
    ("argv35-/factors",
     ["weyl", '{"type":"A","rank":2,"polys":{"1":["0"]},"factors":[]}'], "/factors"),
    # Node 0 and node rank + 1, on both sides of the range.
    ("argv36-/polys/0", ["weyl", '{"type":"A","rank":2,"polys":{"0":["0"]}}'], "/polys/0"),
    ("argv37-/polys/3", ["weyl", '{"type":"A","rank":2,"polys":{"3":["0"]}}'], "/polys/3"),
    # The whole document is the empty pointer; "/" names the key "".
    ("argv38-", ["weyl", "[1]"], ""),
    ("argv39-", ["sl2", '{"m":1}'], ""),
    # Refusals that no other row reaches.
    ("argv40-/rank", ["weyl", '{"type":"B","rank":1,"polys":{}}'], "/rank"),
    ("argv41-/factors/0/a",
     ["check", '{"type":"A","rank":2,"factors":[{"node":1,"a":0}]}'], "/factors/0/a"),
    ("argv42-/polys", ["weyl", '{"type":"A","rank":2,"polys":[]}'], "/polys"),
    ("argv43-/polys/1", ["weyl", '{"type":"A","rank":2,"polys":{"1":"0"}}'], "/polys/1"),
    ("argv44-/factors/0", ["check", '{"type":"A","rank":2,"factors":[3]}'], "/factors/0"),
    # A root and a parameter that are not strings, as the factor's "a" above.
    ("argv54-/polys/1/0", ["weyl", '{"type":"A","rank":2,"polys":{"1":[1]}}'], "/polys/1/0"),
    ("argv55-/0/1", ["sl2", '[[1,0]]'], "/0/1"),
    # Pointers past index 0, built only when the input is refused.
    ("argv45-/factors/3/a", ["check", json.dumps({"type": "A", "rank": 2, "factors": [
        {"node": 1, "a": "0"}, {"node": 2, "a": "1"}, {"node": 1, "a": "2"},
        {"node": 2, "a": "1/0"}]})], "/factors/3/a"),
    ("argv46-/factors/2/node", ["check", json.dumps({"type": "A", "rank": 2, "factors": [
        {"node": 1, "a": "0"}, {"node": 2, "a": "1"}, {"node": 0, "a": "2"}]})],
     "/factors/2/node"),
    ("argv47-/polys/2/1",
     ["weyl", '{"type":"A","rank":2,"polys":{"1":["0"],"2":["1/2","x"]}}'], "/polys/2/1"),
    ("argv48-/2/1", ["sl2", '[[1,"0"],[2,"1/2"],[1,"x"]]'], "/2/1"),
    ("argv49-", ["check", '{"type":"A","rank":2,"factors":[{"node":1,"a":"0","a":"1"}]}'], ""),
    # A difference with real part 0 and an imaginary part too long to print.
    ("argv50-", ["weyl", _LONG_IMAGINARY], ""),
    ("argv51-", ["weyl", _LONG_LATER_REAL], ""),
    ("argv52-", ["weyl", _LONG_LATER_IMAGINARY], ""),
    # Too many roots, counted before any root is parsed.
    ("argv53-/polys", ["weyl", json.dumps({"type": "A", "rank": 2, "polys": {
        "1": ["x"] + ["0"] * MAX_FACTORS}})], "/polys"),
]


@pytest.mark.parametrize(
    "argv,pointer", [row[1:] for row in _SCHEMA_ERRORS], ids=[row[0] for row in _SCHEMA_ERRORS])
def test_schema_errors(capsys, argv, pointer):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert f"schema error at {pointer}:" in err


def _chain_doc(*factors) -> str:
    return json.dumps({"type": "A", "rank": 2, "factors": list(factors)})


def _int_error(digits: str) -> str:
    """int()'s message for `digits`, which names this Python's digit limit."""
    with pytest.raises(ValueError) as exc:
        int(digits)
    return str(exc.value)


_NOT_POSITIVE = "/factors/0/node: node must be a positive integer"
_UNKNOWN = "unknown key; expected one of node, a"


# The whole refusal line of every factor-level `check` refusal: the rows of
# test_schema_errors pin only the pointer.  Each factor is refused for its
# first fault in the order object, keys, node, a.
@pytest.mark.parametrize(
    "factors,line",
    [
        ([3], "/factors/0: expected an object"),
        ([{"node": 1, "a": "0", "extra": 1}], "/factors/0/extra: " + _UNKNOWN),
        ([{"node": 0, "a": "0", "extra": 1}], "/factors/0/extra: " + _UNKNOWN),
        ([{"node": 1, "a": "0"}, {"a": "1", "node": 2, "a/b": 0}],
         "/factors/1/a~1b: " + _UNKNOWN),
        ([{"a": "0"}], _NOT_POSITIVE),
        ([{"node": True, "a": "0"}], _NOT_POSITIVE),
        ([{"node": 1.5, "a": "0"}], _NOT_POSITIVE),
        ([{"node": "1", "a": "0"}], _NOT_POSITIVE),
        ([{"node": 3, "a": "0"}], "/factors/0/node: node 3 out of range for A2"),
        ([{"node": 1, "a": "0"}, {"node": 2, "a": "1"}, {"node": 0, "a": "2"}],
         "/factors/2/node: node 0 out of range for A2"),
        ([{"node": 0, "a": "x"}], "/factors/0/node: node 0 out of range for A2"),
        ([{"node": 1}], "/factors/0/a: expected a scalar string"),
        ([{"node": 1, "a": 0}], "/factors/0/a: expected a scalar string"),
        ([{"node": 1, "a": "x"}], "/factors/0/a: malformed scalar 'x'"),
        ([{"node": 1, "a": "0"}, {"node": 2, "a": "1"}, {"node": 1, "a": "2"},
          {"node": 2, "a": "1/0"}], "/factors/3/a: zero denominator in '1/0'"),
        ([{"node": 1, "a": _LONG_INT}],
         "/factors/0/a: scalar part too long: " + _int_error(_LONG_INT)),
    ],
    ids=["not-an-object", "unknown-key", "unknown-key-before-bad-node", "escaped-key",
         "missing-node", "node-true", "node-1.5", "node-string", "node-past-rank",
         "node-0-at-2", "bad-node-before-bad-a", "missing-a", "a-number", "a-x",
         "zero-denominator-at-3", "a-too-long"],
)
def test_factor_schema_errors_print_the_whole_line(capsys, factors, line):
    assert main(["check", _chain_doc(*factors)]) == 2
    assert capsys.readouterr().err == f"schema error at {line}\n"


def test_a_padded_factor_parameter_is_accepted(capsys):
    # parse_scalar strips the text; the chain echoes it in canonical form.
    code, report = _run_json(capsys, ["check", _chain_doc({"node": 1, "a": " 1/2 "})])
    assert code == 0 and report["chain"]["factors"] == [{"a": "1/2", "node": 1}]


def test_chain_to_doc_refuses_a_parameter_too_long_to_print():
    # No document reaches this (each part prints in at most the digits it
    # was given in), but a chain built in Python can.
    chain = FactorChain(lie_type("A", 1), ((1, G(0)), (1, G(1, 10**4300))))
    with pytest.raises(SchemaError, match="^: output scalar too long to print: "):
        chain_to_doc(chain)


@pytest.mark.parametrize(
    "argv,listed",
    [
        (["weyl", json.dumps({"type": "A", "rank": 2, "polys": {
            "1": [str(k) for k in range(MAX_FACTORS)]}})], lambda r: r["chain"]),
        (["check", json.dumps({"type": "A", "rank": 2, "factors": [
            {"node": 1, "a": str(k)} for k in range(MAX_FACTORS)]})],
         lambda r: r["chain"]["factors"]),
    ],
    ids=["weyl", "check"],
)
def test_max_factors_is_accepted(capsys, argv, listed):
    # The bound is inclusive: one root or factor more is a schema error.
    code, report = _run_json(capsys, argv)
    assert code == 0 and len(listed(report)) == MAX_FACTORS


@pytest.mark.parametrize(
    "doc",
    [_LONG_REAL, _LONG_IMAGINARY, _LONG_LATER_REAL, _LONG_LATER_IMAGINARY],
    ids=["real", "imaginary", "later-real", "later-imaginary"],
)
def test_refused_weyl_prints_nothing(capsys, doc):
    # The audit is refused before any line of the report is printed, in
    # human mode as well as with --json.
    for flags in ([], ["--json"]):
        assert main(["weyl", doc, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "schema error at : output scalar too long to print" in captured.err


def test_weyl_refuses_the_first_too_long_part(capsys):
    # Pair (1, 2) has a real part -1 and an imaginary part 2X = 10^4300, one
    # digit too long; pair (1, 3), later in the same row, has a real part
    # -14 * 10^4299, also too long.  The common form meets the real part of
    # (1, 3) first, as it forms a row's real parts before its imaginary
    # ones.  The refusal is that of the pairwise form, which runs next and
    # meets the imaginary part of (1, 2) first, as the oracle's order does.
    import yangian_weyl.cli as cli

    x = int(_X)
    roots = [f"{x}-{x}i", f"{x - 1}+{x}i", f"{-9 * 10**4299}"]
    doc = json.dumps({"type": "A", "rank": 1, "polys": {"1": roots}})
    chain = order_factors(parse_tuple_doc(json.loads(doc)))
    assert [str(a) for _, a in chain.factors] == roots
    with pytest.raises(SchemaError) as first:
        _triple_str(-1, 2 * x, 1)
    raised = []  # (formatter, numerator) of each part too long to print

    def spy(form):
        def call(n, d):
            try:
                return form(n, d)
            except ValueError:
                raised.append((form.__name__, n))
                raise
        return call

    with mock.patch.object(cli, "rational_text", spy(cli.rational_text)), \
            mock.patch.object(cli, "imaginary_suffix", spy(cli.imaginary_suffix)):
        for flags in ([], ["--json"]):
            assert main(["weyl", doc, *flags]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"schema error at {first.value}\n"
    assert raised == [("rational_text", -14 * 10**4299), ("imaginary_suffix", 2 * x)] * 2


def test_dash_reads_the_document_from_stdin(capsys, monkeypatch):
    doc = '{"type":"A","rank":2,"polys":{"1":["0"],"2":["1/2","3-1i"]}}'
    for flags in ([], ["--json"]):
        assert main(["weyl", doc, *flags]) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        assert main(["weyl", "-", *flags]) == 0
        assert capsys.readouterr().out == expected


def test_consecutive_calls_do_not_leak_options(capsys):
    # main builds its parser once; each call must still see the defaults.
    chain = '{"type":"A","rank":2,"factors":[{"node":1,"a":"0"}]}'
    assert _run_json(capsys, ["check", chain, "--mode", "irreducible"])[1]["mode"] == "irreducible"
    assert _run_json(capsys, ["check", chain])[1]["mode"] == "cyclic"
    spec = '[[1,"0"]]'
    assert _run_json(capsys, ["sl2", spec, "--verify", "series", "--order", "5"])[1]["order"] == 5
    assert _run_json(capsys, ["sl2", spec, "--verify", "series"])[1]["order"] == 3
    assert _run_json(capsys, ["sl2", spec, "--order", "5"])[1]["spec"] == [[1, "0"]]
    assert "order" not in _run_json(capsys, ["sl2", spec])[1]
    assert main(["check", chain]) == 0
    assert capsys.readouterr().out.startswith("cyclic guaranteed:")


@pytest.mark.parametrize("fault", ["drop", "duplicate", "alter", "move"])
def test_weyl_self_check_catches_a_wrong_chain(capsys, monkeypatch, fault):
    import yangian_weyl.cli as cli

    doc = '{"type":"A","rank":2,"polys":{"1":["0","1/2+1i"],"2":["3/2","0"]}}'
    assert main(["weyl", doc]) == 0
    capsys.readouterr()

    def faulty(pi):
        chain = order_factors(pi)
        factors = list(chain.factors)
        node, a = factors[1]
        if fault == "drop":
            del factors[1]
        elif fault == "duplicate":
            factors.insert(1, (node, a))
        elif fault == "alter":
            factors[1] = (node, a + G(Fraction(1, 10**30)))
        else:  # the same root at the other node
            factors[1] = (3 - node, a)
        return FactorChain(chain.lie_type, tuple(factors))

    monkeypatch.setattr(cli, "order_factors", faulty)
    with pytest.raises(RuntimeError, match="does not reproduce the input module"):
        main(["weyl", doc])


def test_a_leading_byte_order_mark_is_refused_with_json_loads_message(capsys):
    # Every document goes through one module-level JSONDecoder, whose
    # decode() does not check for a byte-order mark; the CLI refuses one
    # with the message json.loads gives.
    doc = "\ufeff" + json.dumps({"type": "A", "rank": 2, "polys": {"1": ["0"]}})
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(doc)
    assert main(["weyl", doc, "--json"]) == 2
    assert capsys.readouterr().err == f"schema error at : invalid JSON: {expected.value}\n"


@pytest.mark.parametrize("command", ["weyl", "check", "sl2"])
def test_a_document_nested_too_deep_is_refused(capsys, monkeypatch, command):
    # json raises RecursionError, which is not a ValueError, on nesting
    # deeper than the interpreter's recursion limit.
    for kind, opening in (("array", "["), ("object", '{"a":')):
        doc = opening * 100_000
        expected = ("schema error at : invalid JSON: maximum recursion depth exceeded"
                    f" while decoding a JSON {kind} from a unicode string\n")
        for flags in ([], ["--json"]):
            for text in (doc, "-"):
                monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
                assert main([command, text, *flags]) == 2
                assert capsys.readouterr() == ("", expected)


def test_json_documents_roundtrip():
    rng = random.Random(97)
    types = [lie_type("A", 3), lie_type("B", 2), lie_type("C", 3), lie_type("G2")]
    for _ in range(100):
        t = rng.choice(types)
        rows = {
            node: [
                G(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                )
                for _ in range(rng.randint(0, 2))
            ]
            for node in range(1, t.rank + 1)
        }
        if not any(rows.values()):
            rows[1] = [G(rng.randint(-5, 5))]
        pi = DrinfeldTuple.from_dict(t, rows)
        doc = tuple_to_doc(pi)
        assert parse_tuple_doc(json.loads(json.dumps(doc))) == pi
        from yangian_weyl.drinfeld import order_factors

        chain = order_factors(pi)
        chain_doc = chain_to_doc(chain)
        assert parse_chain_doc(json.loads(json.dumps(chain_doc))) == chain


_fraction_st = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5]))


@st.composite
def _verdict_factors(draw, longest: int):
    """(type, rank, [(node, parameter text)]) with 1 to `longest` factors
    over one of the six types of the benchmark's `verdicts` workload, most
    of them Gaussian parameters on half-integer shifts of one base, so that
    many pairs differ by an element of their criterion set."""
    family, rank = draw(st.sampled_from(
        [("A", 1), ("A", 4), ("B", 3), ("C", 3), ("D", 5), ("G2", 2)]))
    base_re, base_im = draw(_fraction_st), draw(_fraction_st)
    factors = []
    for _ in range(draw(st.integers(1, longest))):
        if draw(st.booleans()) or draw(st.booleans()):
            re, im = base_re + Fraction(draw(st.integers(0, 12)), 2), base_im
        else:
            re, im = draw(_fraction_st), draw(_fraction_st)
        factors.append((draw(st.integers(1, rank)), str(G(re, im))))
    return family, rank, factors


@st.composite
def _weyl_docs(draw):
    """A `weyl` document of 1-60 roots from `_verdict_factors` (the ordered
    chain puts each pair in a criterion set the cyclic way round)."""
    family, rank, factors = draw(_verdict_factors(60))
    polys = {}
    for node, a in factors:
        polys.setdefault(str(node), []).append(a)
    return {"type": family, "rank": rank, "polys": polys}


@settings(max_examples=80, deadline=None)
@given(_weyl_docs())
def test_weyl_json_is_what_json_dumps_prints(doc):
    # `weyl` writes its pair audit from row fragments; the whole report
    # must be the bytes json.dumps(indent=2, sort_keys=True) gives for it.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["weyl", json.dumps(doc), "--json"]) == 0
    text = out.getvalue()
    report = json.loads(text)
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    n = len(report["chain"])
    assert [(r["i"], r["j"], r["in_criterion_set"]) for r in report["pair_audit"]] == [
        (i, j, False) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


@settings(max_examples=80, deadline=None)
@given(_verdict_factors(40), st.sampled_from(["cyclic", "irreducible"]))
def test_check_json_is_what_json_dumps_prints(drawn, mode):
    # `check` writes its chain from one row template; the whole report must
    # be the bytes json.dumps(indent=2, sort_keys=True) gives for it, and
    # the chain must echo the factors, whose texts are already canonical.
    family, rank, factors = drawn
    factors = [{"node": node, "a": a} for node, a in factors]
    doc = {"type": family, "rank": rank, "factors": factors}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["check", json.dumps(doc), "--mode", mode, "--json"]) == 0
    text = out.getvalue()
    report = json.loads(text)
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert report["chain"] == doc


# Numerators of one or two digits or of 201-301 digits, over one of two
# denominator pools: pairwise coprime and repeated denominators up to 10^6,
# or seven primes near 10^9.  Over enough of those primes the common
# denominator of the parts has more than twice the bits of the longest one,
# and `_pair_audit` forms each pair over its own denominator.
_audit_numerators = st.integers(-12, 12) | st.builds(
    int.__mul__, st.integers(10**200, 10**300), st.sampled_from([1, -1]))
_audit_denominators = (
    st.sampled_from([1, 2, 3, 5, 6, 7, 12, 999_983, 10**6]) | st.integers(1, 10**6),
    st.sampled_from([999_999_751, 999_999_797, 999_999_883, 999_999_893, 999_999_929,
                     999_999_937, 1_000_000_007]),
)


def _ordered_chain(family: str, rank: int, factors) -> FactorChain:
    """The ordered chain of the (node, root) factors."""
    polys = {}
    for node, a in factors:
        polys.setdefault(node, []).append(a)
    return order_factors(DrinfeldTuple.from_dict(lie_type(family, rank), polys))


@st.composite
def _audit_chains(draw):
    """The ordered chain of 1-30 factors.  The parts come from small
    pools, so that many differences are purely real, purely imaginary or
    zero; about half the factors are real, on half-integer shifts of one
    base, so that in some order many pairs differ by an element of their
    criterion set."""
    family, rank = draw(st.sampled_from(
        [("A", 1), ("A", 4), ("B", 3), ("C", 3), ("D", 5), ("G2", 2)]))
    parts = st.builds(Fraction, _audit_numerators, draw(st.sampled_from(_audit_denominators)))
    reals = draw(st.lists(parts, min_size=1, max_size=4))
    imags = [Fraction(0)] + draw(st.lists(parts, max_size=3))
    base = draw(parts)
    factors = []
    for _ in range(draw(st.integers(1, 30))):
        if draw(st.booleans()):
            a = G(base + Fraction(draw(st.integers(0, 12)), 2))
        else:
            a = G(draw(st.sampled_from(reals)), draw(st.sampled_from(imags)))
        factors.append((draw(st.integers(1, rank)), a))
    return _ordered_chain(family, rank, factors)


def _audit_rows(audit) -> list:
    """The (i, j, difference) rows of a `_pair_audit` result."""
    rows = []
    for i, (reals, imags) in enumerate(audit, 1):
        assert len(reals) == len(imags) == len(audit) + 1 - i
        rows += [(i, j, re + im) for j, re, im in zip(count(i + 1), reals, imags)]
    return rows


@settings(max_examples=150, deadline=None)
@given(_audit_chains())
# Fixed chains for the common form, which slices a later row from the row
# of the first equal anchor: an all-real chain, where every row has the
# imaginary anchor 0; the imaginary anchor 0 at rows 1, 3 and 5, so rows 3
# and 5 are slices at offsets 2 and 4; the real anchor 2 at rows 1-3; and
# pairwise-distinct parts, where no anchor repeats.
@example(_ordered_chain("A", 4, [(1, G(3)), (2, G(Fraction(5, 2))), (1, G(1)), (4, G(0))]))
@example(_ordered_chain("A", 4, [(1, G(5)), (2, G(4, 1)), (3, G(3)), (1, G(2, 2)),
                                 (4, G(1)), (2, G(0, 3))]))
@example(_ordered_chain("D", 5, [(1, G(2, 1)), (2, G(2)), (5, G(2, -1)), (3, G(1))]))
@example(_ordered_chain("B", 3, [(1, G(Fraction(7, 2), Fraction(1, 3))), (2, G(2, 2)),
                                 (3, G(Fraction(1, 6), -1))]))
def test_pair_audit_is_the_oracle_audit(chain):
    # The audit forms every part over the common denominator of the chain,
    # or each pair over its own, and runs no join; the oracle formats every
    # whole difference and joins the chain with its criterion sets, which
    # on an ordered chain finds no pair.  Each form, whichever the chain
    # selects, gives the oracle's texts.
    expected = pair_audit(chain)
    assert not any(hit for _, _, _, hit in expected)
    triples = [a.triple for _, a in chain.factors]
    audit = _pair_audit(chain)
    common = lcm(*(d for _, _, d in triples))
    for rows in (audit, _common_audit(triples, common), _pairwise_audit(triples)):
        assert [(*row, False) for row in _audit_rows(rows)] == expected
    # The writer.
    rows = [{"i": i, "j": j, "difference": d, "in_criterion_set": hit}
            for i, j, d, hit in expected]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit({"pair_audit": audit}, True, None)
    assert out.getvalue() == json.dumps({"pair_audit": rows}, indent=2, sort_keys=True) + "\n"
    # `weyl --json` on the same factors.
    t = chain.lie_type
    polys = {}
    for node, a in chain.factors:
        polys.setdefault(str(node), []).append(str(a))
    doc = {"type": t.family, "rank": t.rank, "polys": polys}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["weyl", json.dumps(doc), "--json"]) == 0
    report = json.loads(out.getvalue())
    assert [(r["i"], r["j"], r["difference"], r["in_criterion_set"])
            for r in report["pair_audit"]] == expected


@pytest.mark.parametrize(
    "polys,calls",
    [
        # Sixths: the common denominator 6 is no longer than 6 * 6.
        ({"1": ["1/2", "-1/3+5/6i", "7"], "2": ["1/6-1i"]}, (1, 0)),
        # Two coprime denominators: their product is the longest pair's.
        ({"1": ["1/999999937", "2/1000000007+1/999999937i"]}, (1, 0)),
        # Three primes near 10^9: a pair's product has at most 60 bits, the
        # common denominator 90.
        ({"1": ["1/999999937", "2/1000000007", "-3/999999929+1/999999929i"]}, (0, 1)),
        # The common form meets a part too long to print, and the pairwise
        # form, which names it, runs again.
        ({"1": ["0", "1", "5" + "0" * 4299, "-5" + "0" * 4299]}, (1, 1)),
    ],
    ids=["sixths", "two-primes", "three-primes", "too-long"],
)
def test_pair_audit_form_follows_the_denominators(polys, calls):
    # The form is selected from the input alone: the common denominator of
    # every part when it is no longer, in bits, than twice the longest
    # denominator, else each pair over its own.
    import yangian_weyl.cli as cli

    chain = order_factors(parse_tuple_doc({"type": "A", "rank": 2, "polys": polys}))
    with mock.patch.object(cli, "_common_audit", wraps=_common_audit) as common, \
            mock.patch.object(cli, "_pairwise_audit", wraps=_pairwise_audit) as pairwise:
        try:
            audit = _pair_audit(chain)
        except SchemaError:
            audit = None
    assert (common.call_count, pairwise.call_count) == calls
    if audit is not None:
        assert [(*row, False) for row in _audit_rows(audit)] == pair_audit(chain)


def test_pair_audit_of_the_ordered_chain_has_no_hits(capsys):
    # S(1, 1) = {1} on A1: in ascending order the oracle's join finds two
    # pairs.  `weyl` orders the chain by descending real part, where the
    # join finds none, and prints every row false without running it.
    ascending = FactorChain(lie_type("A", 1), ((1, G(0)), (1, G(1)), (1, G(2))))
    assert pair_audit(ascending) == [(1, 2, "1", True), (1, 3, "2", False), (2, 3, "1", True)]
    doc = {"type": "A", "rank": 1, "polys": {"1": ["0", "1", "2"]}}
    code, report = _run_json(capsys, ["weyl", json.dumps(doc)])
    assert code == 0
    rows = [(r["i"], r["j"], r["difference"], r["in_criterion_set"]) for r in report["pair_audit"]]
    expected = [(1, 2, "-1", False), (1, 3, "-2", False), (2, 3, "-1", False)]
    assert rows == expected == pair_audit(order_factors(parse_tuple_doc(doc)))


_json_strings = st.text() | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\n\t\r", "\u00e9", "\u2028", "\U0001f600", "\ud800",
     'a"b\\c'])
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200) | _json_strings,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_json_strings, children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_writer_is_what_json_dumps_prints(value):
    # `_emit` writes every report with its own writer, not with json.dumps.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(value, True, None)
    assert out.getvalue() == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": [Fraction(1, 2)]}, G(1)])
def test_writer_refuses_what_json_reports_do_not_hold(value):
    with pytest.raises(TypeError):
        _emit(value, True, None)


def test_parse_sl2_doc():
    spec = parse_sl2_doc([[1, "3/2"], [2, "0+1i"]])
    assert spec == ((1, G(Fraction(3, 2))), (2, G(0, 1)))
    with pytest.raises(SchemaError):
        parse_sl2_doc([])
    with pytest.raises(SchemaError):
        parse_sl2_doc([[1]])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# argv grammar for the table parse: valid calls of every command, and the
# spellings only argparse reads (abbreviations, "=" forms, "--", "-" as the
# document, help), unknown options and commands, and bad values.
_DOCS = {
    "weyl": '{"type":"A","rank":2,"polys":{"1":["0"],"2":["1/2"]}}',
    "check": '{"type":"A","rank":2,"factors":[{"node":1,"a":"0"},{"node":2,"a":"3/2"}]}',
    "sl2": '[[1,"0"],[1,"1"]]',
}
_VALID = {
    "--type": ["A", "B", "C", "D", "G2"],
    "--rank": ["1", "2", "3", "03", str(MAX_RANK + 1)],
    "--mode": ["cyclic", "irreducible"],
    "--verify": ["series", "closure", "identities"],
    "--order": ["0", "2", "5", "33"],
}
_OPTIONS = {
    "info": ["--type", "--rank"],
    "ssets": ["--type", "--rank"],
    "weyl": [],
    "check": ["--mode"],
    "sl2": ["--verify", "--order"],
}
_BAD_VALUES = ["", "-1", "--1", "+2", " 2", "1_0", "\u0663", "2.0", "x", "cyc", "a", "9" * 4301]
_ODD_TOKENS = [
    "", "-", "--", "-1", "-x", "x", "\u0663", "not json", "-h", "--help", "--version",
    "--j", "--js", "--ver", "--verif", "--ord", "--mo", "--ty", "--ra", "--bogus",
    "--json=1", "--order=2", "--mode=irreducible", "--type=A", "--verify=series",
    *_VALID, "--json", "A", "cyclic", "series", *_DOCS.values(),
]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from([*_OPTIONS] * 3 + ["bogus", "SL2", "sl", "", "--version", "-h"]))
    rare = st.integers(0, 7).map(lambda k: k == 0)
    pieces = []
    if command in _DOCS and draw(st.integers(0, 7)):
        pieces.append([draw(st.sampled_from([_DOCS[command]] * 3 + ["-"]))])
    for flag in _OPTIONS.get(command, []):
        if not draw(st.integers(0, 7 if flag == "--type" else 1)):
            continue
        value = draw(st.sampled_from(_BAD_VALUES if draw(rare) else _VALID[flag]))
        spelling = draw(st.sampled_from([flag] * 5 + [flag[:3], flag[:-1], "=", "bare", "bare"]))
        if spelling == "=":
            pieces.append([f"{flag}={value}"])
        else:
            pieces.append([flag] if spelling == "bare" else [spelling, value])
    pieces.extend([["--json"]] * draw(st.integers(0, 2)))
    pieces = draw(st.permutations(pieces))
    for _ in range(draw(st.integers(0, 2)) * draw(st.booleans())):
        pieces.insert(draw(st.integers(0, len(pieces))), [draw(st.sampled_from(_ODD_TOKENS))])
    return [command, *(token for piece in pieces for token in piece)]


_ARGPARSE = build_parser()


def _argparse_main(argv):
    """`main` with argparse reading every argv."""
    args = _ARGPARSE.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error at {exc}", file=sys.stderr)
        return 2


def _outcome(run, argv):
    """(exit status, stdout, stderr) of run(argv), with the command's own
    document on stdin."""
    out, err = io.StringIO(), io.StringIO()
    stdin = io.StringIO(_DOCS.get(argv[0], ""))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", stdin), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # D3 is A3 relabelled
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None)
@given(_argv())
@example(["sl2", _DOCS["sl2"], "--order"])
@example(["sl2", _DOCS["sl2"], _DOCS["sl2"]])
@example(["check", _DOCS["check"], "--mode", "cyc"])
@example(["info", "--rank", "2"])
@example(["weyl", _DOCS["weyl"], "--json=1"])
@example(["sl2", "-", "--verify", "series", "--order", "-1"])
def test_table_parse_agrees_with_argparse(argv):
    # The table reads argv as argparse does or declines it, and `main`
    # prints and exits as argparse alone would, on every argv.
    args = _table_parse(argv)
    if args is not None:
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                expected = _ARGPARSE.parse_args(argv)
            except SystemExit:
                pytest.fail(f"the table read an argv that argparse refuses: {argv!r}")
        assert args == expected
    assert _outcome(main, argv) == _outcome(_argparse_main, argv)


def test_table_declines_an_integer_too_long_to_convert():
    # int() refuses more digits than sys.get_int_max_str_digits(); the
    # table declines such an argv and argparse refuses it with status 2.
    argv = ["sl2", _DOCS["sl2"], "--verify", "series", "--order", "9" * 5000]
    assert _table_parse(argv) is None
    code, out, err = _outcome(main, argv)
    assert (code, out) == (2, "") and "argument --order: invalid int value" in err
