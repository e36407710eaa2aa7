"""The command-line surface and its JSON contract."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from yangian_weyl.cli import (
    MAX_FACTORS,
    MAX_RANK,
    SchemaError,
    chain_to_doc,
    main,
    parse_chain_doc,
    parse_sl2_doc,
    parse_tuple_doc,
    tuple_to_doc,
)
from yangian_weyl.drinfeld import DrinfeldTuple
from yangian_weyl.exact import GaussianRational as G
from yangian_weyl.rootsys import lie_type


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


def test_human_output_runs(capsys):
    assert main(["info", "--type", "C", "--rank", "2"]) == 0
    assert main(["ssets", "--type", "A", "--rank", "2"]) == 0
    out = capsys.readouterr().out
    assert "S(1,1)" in out


# More digits than Python converts between int and str by default (4,300).
_LONG_INT = "7" * 5000


@pytest.mark.parametrize(
    "argv,pointer",
    [
        (["weyl", '{"type":"Z","rank":2,"polys":{}}'], "/type"),
        (["weyl", '{"type":"A","polys":{}}'], "/rank"),
        (["weyl", '{"type":"A","rank":2,"polys":{"5":["0"]}}'], "/polys/5"),
        (["weyl", '{"type":"A","rank":2,"polys":{"1":["x"]}}'], "/polys/1/0"),
        (["weyl", '{"type":"A","rank":2,"polys":{}}'], "/polys"),
        (["weyl", "not json"], "/"),
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
        (["sl2", json.dumps([[1, "0"]] * 12)], "/"),
        (["weyl", '{"type":"A","rank":2,"polys":{"1":["0"],"01":["5"]}}'],
         "/polys/01"),
        (["weyl", '{"type":"A","rank":2,"polys":{" 2":["0"]}}'], "/polys/ 2"),
        (["weyl", '{"type":"A","rank":2,"polys":{"+1":["0"]}}'], "/polys/+1"),
        (["weyl", '{"type":"A","rank":2,"polys":{"1":["0"],"1":["5"]}}'], "/"),
        (["sl2", '[[1,"0"]]', "--verify", "series", "--order", "33"], "--order"),
        (["check", '{"type":"A","rank":%s,"factors":[]}' % _LONG_INT], "/"),
        (["check", '{"type":"A","rank":2,"factors":[{"node":1,"a":"%s"}]}' % _LONG_INT],
         "/factors/0/a"),
        (["sl2", '[[1,"1/%s"]]' % _LONG_INT], "/0/1"),
        (["info", "--type", "A", "--rank", str(MAX_RANK + 1)], "/rank"),
        (["check", json.dumps({"type": "B", "rank": MAX_RANK + 1,
                               "factors": [{"node": 1, "a": "0"}]})], "/rank"),
        # Inputs that pass the schema but print a part too long for str().
        (["sl2", '[[1,"%s"]]' % ("3" * 2500), "--verify", "series", "--order", "2",
          "--json"], "/"),
        (["weyl", json.dumps({"type": "A", "rank": 1, "polys": {
            "1": ["1/" + "7" * 3000, "1/" + "3" * 2999 + "1"]}})], "/"),
        (["weyl", json.dumps({"type": "A", "rank": 2, "polys": {
            "1": [str(k) for k in range(MAX_FACTORS)], "2": ["0"]}})], "/polys"),
        (["check", json.dumps({"type": "A", "rank": 2, "factors": [
            {"node": 1, "a": str(k)} for k in range(MAX_FACTORS + 1)]})], "/factors"),
        # RFC 6901 escapes in keys: "/" as "~1", "~" as "~0".
        (["weyl", '{"type":"A","rank":2,"polys":{"1/2":["0"]}}'], "/polys/1~12"),
        (["weyl", '{"type":"A","rank":2,"polys":{"a~b":["0"]}}'], "/polys/a~0b"),
    ],
)
def test_schema_errors(capsys, argv, pointer):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert f"schema error at {pointer}:" in err


def test_weyl_invariant_survives_optimized_mode(monkeypatch):
    import yangian_weyl.cli as cli

    monkeypatch.setattr(cli, "chain_dim", lambda chain: -1)
    with pytest.raises(RuntimeError):
        main(["weyl", '{"type":"A","rank":2,"polys":{"1":["0"]}}'])


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
