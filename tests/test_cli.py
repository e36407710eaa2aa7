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
from yangian_weyl.exact import GaussianRational as G, format_scalar
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


@pytest.mark.parametrize(
    "argv,pointer",
    [
        (["weyl", '{"type":"Z","rank":2,"polys":{}}'], "/type"),
        (["weyl", '{"type":"A","polys":{}}'], "/rank"),
        (["weyl", '{"type":"A","rank":2,"polys":{"5":["0"]}}'], "/polys/5"),
        (["weyl", '{"type":"A","rank":2,"polys":{"1":["x"]}}'], "/polys/1/0"),
        (["weyl", '{"type":"A","rank":2,"polys":{}}'], "/polys"),
        (["weyl", "not json"], ""),
        (["check", '{"type":"A","rank":2,"factors":[]}'], "/factors"),
        (["check", '{"type":"A","rank":2,"factors":[{"node":9,"a":"0"}]}'],
         "/factors/0/node"),
        (["sl2", '[[0,"1"]]'], "/0/0"),
        (["sl2", '[[1,"1/0"]]'], "/0/1"),
        (["check", '{"type":"A","rank":true,"factors":[{"node":1,"a":"0"}]}'],
         "/rank"),
        (["check", '{"type":"A","rank":2,"factors":[{"node":true,"a":"0"}]}'],
         "/factors/0/node"),
        (["sl2", '[[true,"0"]]'], "/0/0"),
        (["sl2", '[[1,"0"]]', "--verify", "series", "--order", "-1"], "--order"),
        (["sl2", json.dumps([[1, "0"]] * 12)], ""),
        (["weyl", '{"type":"A","rank":2,"polys":{"1":["0"],"01":["5"]}}'],
         "/polys/01"),
        (["weyl", '{"type":"A","rank":2,"polys":{" 2":["0"]}}'], "/polys/ 2"),
        (["weyl", '{"type":"A","rank":2,"polys":{"+1":["0"]}}'], "/polys/+1"),
        (["weyl", '{"type":"A","rank":2,"polys":{"1":["0"],"1":["5"]}}'], ""),
        (["sl2", '[[1,"0"]]', "--verify", "series", "--order", "33"], "--order"),
        (["check", '{"type":"A","rank":%s,"factors":[]}' % _LONG_INT], ""),
        (["check", '{"type":"A","rank":2,"factors":[{"node":1,"a":"%s"}]}' % _LONG_INT],
         "/factors/0/a"),
        (["sl2", '[[1,"1/%s"]]' % _LONG_INT], "/0/1"),
        (["info", "--type", "A", "--rank", str(MAX_RANK + 1)], "/rank"),
        (["check", json.dumps({"type": "B", "rank": MAX_RANK + 1,
                               "factors": [{"node": 1, "a": "0"}]})], "/rank"),
        # Inputs that pass the schema but print a part too long for str().
        (["sl2", '[[1,"%s"]]' % ("3" * 2500), "--verify", "series", "--order", "2",
          "--json"], ""),
        (["weyl", _LONG_REAL], ""),
        (["weyl", json.dumps({"type": "A", "rank": 2, "polys": {
            "1": [str(k) for k in range(MAX_FACTORS)], "2": ["0"]}})], "/polys"),
        (["check", json.dumps({"type": "A", "rank": 2, "factors": [
            {"node": 1, "a": str(k)} for k in range(MAX_FACTORS + 1)]})], "/factors"),
        # RFC 6901 escapes in keys: "/" as "~1", "~" as "~0".
        (["weyl", '{"type":"A","rank":2,"polys":{"1/2":["0"]}}'], "/polys/1~12"),
        (["weyl", '{"type":"A","rank":2,"polys":{"a~b":["0"]}}'], "/polys/a~0b"),
        # Unknown keys, at the top level and in a check factor; the top
        # level is checked first.
        (["check", '{"type":"A","rank":2,"factors":[{"node":1,"a":"0","extra":1}]}'],
         "/factors/0/extra"),
        (["check", '{"type":"A","rank":2,"factors":[{"node":1,"a":"0","extra":1}],"zzz":2}'],
         "/zzz"),
        (["check", '{"type":"G2","factors":[{"node":1,"a":"0"},{"a":"1","node":2,"a/b":0}]}'],
         "/factors/1/a~1b"),
        (["weyl", '{"type":"A","rank":2,"polys":{"1":["0"]},"":1}'], "/"),
        (["weyl", '{"type":"A","rank":2,"polys":{"1":["0"]},"factors":[]}'], "/factors"),
        # Node 0 and node rank + 1, on both sides of the range.
        (["weyl", '{"type":"A","rank":2,"polys":{"0":["0"]}}'], "/polys/0"),
        (["weyl", '{"type":"A","rank":2,"polys":{"3":["0"]}}'], "/polys/3"),
        # The whole document is the empty pointer; "/" names the key "".
        (["weyl", "[1]"], ""),
        (["sl2", '{"m":1}'], ""),
        # Refusals that no other row reaches.
        (["weyl", '{"type":"B","rank":1,"polys":{}}'], "/rank"),
        (["check", '{"type":"A","rank":2,"factors":[{"node":1,"a":0}]}'], "/factors/0/a"),
        (["weyl", '{"type":"A","rank":2,"polys":[]}'], "/polys"),
        (["weyl", '{"type":"A","rank":2,"polys":{"1":"0"}}'], "/polys/1"),
        (["check", '{"type":"A","rank":2,"factors":[3]}'], "/factors/0"),
        # Pointers past index 0, built only when the input is refused.
        (["check", json.dumps({"type": "A", "rank": 2, "factors": [
            {"node": 1, "a": "0"}, {"node": 2, "a": "1"}, {"node": 1, "a": "2"},
            {"node": 2, "a": "1/0"}]})], "/factors/3/a"),
        (["check", json.dumps({"type": "A", "rank": 2, "factors": [
            {"node": 1, "a": "0"}, {"node": 2, "a": "1"}, {"node": 0, "a": "2"}]})],
         "/factors/2/node"),
        (["weyl", '{"type":"A","rank":2,"polys":{"1":["0"],"2":["1/2","x"]}}'], "/polys/2/1"),
        (["sl2", '[[1,"0"],[2,"1/2"],[1,"x"]]'], "/2/1"),
        (["check", '{"type":"A","rank":2,"factors":[{"node":1,"a":"0","a":"1"}]}'], ""),
        # A difference with real part 0 and an imaginary part too long to print.
        (["weyl", _LONG_IMAGINARY], ""),
        (["weyl", _LONG_LATER_REAL], ""),
        (["weyl", _LONG_LATER_IMAGINARY], ""),
    ],
)
def test_schema_errors(capsys, argv, pointer):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert f"schema error at {pointer}:" in err


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
    assert [format_scalar(a) for _, a in chain.factors] == roots
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
def _weyl_docs(draw):
    """A `weyl` document of 1-60 Gaussian roots, most of them on
    half-integer shifts of one base, so that many pairs differ by an element
    of their criterion set (the ordered chain puts each such pair the
    cyclic way round)."""
    family, rank = draw(st.sampled_from(
        [("A", 1), ("A", 4), ("B", 3), ("C", 3), ("D", 5), ("G2", 2)]))
    base_re, base_im = draw(_fraction_st), draw(_fraction_st)
    polys = {}
    for _ in range(draw(st.integers(1, 60))):
        if draw(st.booleans()) or draw(st.booleans()):
            re, im = base_re + Fraction(draw(st.integers(0, 12)), 2), base_im
        else:
            re, im = draw(_fraction_st), draw(_fraction_st)
        node = draw(st.integers(1, rank))
        polys.setdefault(str(node), []).append(format_scalar(G(re, im)))
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
    polys = {}
    for node, a in factors:
        polys.setdefault(node, []).append(a)
    return order_factors(DrinfeldTuple.from_dict(lie_type(family, rank), polys))


def _audit_rows(audit) -> list:
    """The (i, j, difference) rows of a `_pair_audit` result."""
    rows = []
    for i, (reals, imags) in enumerate(audit, 1):
        assert len(reals) == len(imags) == len(audit) + 1 - i
        rows += [(i, j, re + im) for j, re, im in zip(count(i + 1), reals, imags)]
    return rows


@settings(max_examples=150, deadline=None)
@given(_audit_chains())
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
        polys.setdefault(str(node), []).append(format_scalar(a))
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
