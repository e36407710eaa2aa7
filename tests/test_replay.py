"""Replay fixed corpora of package calls in process and compare every
output with a stored digest.  The corpora, by key:

- `<workload>/<seed>`: one round per seed 1-3 of each `bench/workloads.py`
  workload, on the "timed" stream that `bench/run.py` times.
- `sl2-golden`: 36 seeded products (1-4 factors, m <= 3, dimension <= 64,
  half with Gaussian parameters) under `sl2 --json`, in each verify mode.
- `verdicts-golden`: 48 seeded chains of 1-40 factors, eight per type of
  `TYPES`, under `weyl` (on the chain's Drinfeld tuple) and `check` in
  both modes, in JSON and human mode.  Most chains sit on half-integer
  shifts of one base, so many have criterion witnesses.
- `cli`: `info` and `ssets` on eleven types, the first four `sl2-golden`
  products in human mode, six schema errors, and `weyl --json` on
  pairwise coprime 9-10-digit denominators, whose pair audit is formed
  pair by pair.
- `ledger`: the parameter ledger of every node of A1-A8, B2-B8, C2-C8,
  D3-D8 and G2, one op per (type, node), each printed as the JSON list of
  its entries [node, divisor, [offset, ...]] with the offsets as strings,
  in the ledger's (ascending) order.

tests/data/replay_digest.json stores per op a short SHA-256 of the input
and of each of status, stdout and stderr.  Each op is compared with the
stored row of its input hash, so an op that only moved reads as moved, and
one added or removed as such; an op whose input changed in place reads as
a changed input, and a changed output names its stream.  Each key is one
test; the golden keys and `ledger` also have their recipes checked.  The
script below is the one writer of tests/data/ and needs no pytest.  Run
from the repository root, it prints every op that differs; `--check`
then exits 1 if any does and writes nothing, and `--write` rewrites the
digest, which is only for when the output is meant to change, and leaves
the file as it is when no op differs:

    PYTHONPATH=src python tests/test_replay.py --check
    PYTHONPATH=src python tests/test_replay.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import random
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from yangian_weyl.cli import main
from yangian_weyl.drinfeld import series_to_roots
from yangian_weyl.exact import GaussianRational, Series
from yangian_weyl.rootsys import LieType
from yangian_weyl.weylpath import parameter_ledger

ROOT = Path(__file__).resolve().parent.parent
DIGEST = ROOT / "tests" / "data" / "replay_digest.json"
SEEDS = (1, 2, 3)
STREAMS = ("input", "status", "stdout", "stderr")


@lru_cache(maxsize=None)
def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


MODES = {"closure": ["--verify", "closure"], "identities": ["--verify", "identities"],
         "series": ["--verify", "series", "--order", "5"]}


def _fraction(rng, bound):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 3))


def golden_specs(count=36):
    """Seeded products; most factors of a product sit on integer
    shifts of one base parameter, so some products are not highest weight."""
    rng = random.Random("sl2-golden")
    specs = []
    for n in range(count):
        k = 1 + n % 4
        gauss = (n % 4 + n // 4) % 2 == 1
        while True:
            ms = [rng.randint(1, 3) for _ in range(k)]
            if math.prod(m + 1 for m in ms) <= 64:
                break
        base = _fraction(rng, 6)
        im = Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 2))
        spec = []
        for m in ms:
            re = base + rng.randint(-3, 3) if rng.random() < 0.8 else _fraction(rng, 6)
            spec.append([m, str(GaussianRational(re, im if gauss else 0))])
        specs.append(spec)
    return specs


def _sl2_argv(spec, mode, as_json=True):
    return ["sl2", json.dumps(spec), *MODES[mode]] + ["--json"] * as_json


TYPES = (("A", 1), ("A", 4), ("B", 3), ("C", 3), ("D", 5), ("G2", 2))
COMMANDS = {"weyl": ["weyl"], "cyclic": ["check", "--mode", "cyclic"],
            "irreducible": ["check", "--mode", "irreducible"]}


def golden_chains(per_type=8):
    """Seeded chains as (type, rank, [(node, scalar string), ...])."""
    rng = random.Random("verdicts-golden")
    chains = []
    for family, rank in TYPES:
        for n in range(per_type):
            k = rng.randint(1, 40) if n > 1 else 1 + 2 * n
            style = n % 4  # 0 real, 1 half-integer, 2 Gaussian, 3 mixed
            base = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3)))
            ims = [Fraction(0)] if style < 2 else [
                Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(2)]
            factors = []
            for _ in range(k):
                if rng.random() < 0.8:  # near the base: witnesses likely
                    re = base + Fraction(rng.randint(0, 16), 1 if style == 0 else 2)
                else:
                    re = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 5)))
                im = rng.choice(ims) if style != 3 or rng.random() < 0.5 else Fraction(0)
                factors.append((rng.randint(1, rank), _workloads().fmt((re, im))))
            chains.append((family, rank, factors))
    return chains


def _verdict_argv(command, chain, as_json):
    """`weyl` on the chain's Drinfeld tuple, or `check` on the chain."""
    family, rank, factors = chain
    polys = {}
    for node, a in factors:
        polys.setdefault(str(node), []).append(a)
    doc = {"type": family, "rank": rank, **({"polys": polys} if command == "weyl" else
           {"factors": [{"node": node, "a": a} for node, a in factors]})}
    return [COMMANDS[command][0], json.dumps(doc), *COMMANDS[command][1:]] + ["--json"] * as_json


# D3 is left out: its UserWarning prints a source line, and tier-1 makes it
# an error.  So is argparse's help and usage text, which varies with Python.
CLI_TYPES = (("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
             ("C", 2), ("C", 3), ("D", 4), ("D", 5), ("G2", 2))
SCHEMA_ERRORS = (
    ["check", json.dumps({"type": "A", "rank": 3, "factors": [{"node": 4, "a": "0"}]})],
    ["info", "--type", "A", "--rank", "65"],
    ["sl2", json.dumps([[1, "0"]]), "--verify", "series", "--order", "33"],
    ["check", json.dumps({"type": "A", "rank": 1, "factors": [{"node": 1, "b": "0"}]})],
    ["weyl", '{"type":'],
    ["sl2", "[" * 100_000],
)
PAIRWISE_WEYL = ["weyl", '{"type":"A","rank":2,"polys":{"1":["7/999999937+2/999999937i",'
                 '"-5/1000000009","3/999999929-1/999999929i"],"2":["11/1000000007+4/1000000007i"]}}',
                 "--json"]
# `LieType` itself, not `lie_type`: D3 then builds without its UserWarning.
LEDGER_TYPES = [LieType(family, rank) for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                for rank in range(low, 9)] + [LieType("G2", 2)]


@lru_cache(maxsize=None)
def corpora() -> dict:
    """{key: [op]}, each op a `bench/workloads.py` `Op`; the fixed corpora
    hold CLI ops of kind "cli", and `ledger` ops (family, rank, node) of
    kind "ledger"."""
    workloads = _workloads()
    ops = {f"{workload}/{seed}": workloads.generate(workload, seed, 1)
           for workload in sorted(workloads.GENERATORS) for seed in SEEDS}
    specs = golden_specs()
    fixed = {
        "sl2-golden": [_sl2_argv(spec, mode) for spec in specs for mode in MODES],
        "verdicts-golden": [_verdict_argv(command, chain, as_json) for chain in golden_chains()
                            for command in COMMANDS for as_json in (True, False)],
        "cli": [[command, "--type", family, "--rank", str(rank)] + ["--json"] * as_json
                for family, rank in CLI_TYPES for command in ("info", "ssets")
                for as_json in (True, False)]
        + [_sl2_argv(spec, mode, False) for spec in specs[:4] for mode in MODES]
        + list(SCHEMA_ERRORS) + [PAIRWISE_WEYL],
    }
    for key, argvs in fixed.items():
        ops[key] = [workloads.Op("cli", tuple(argv)) for argv in argvs]
    ops["ledger"] = [workloads.Op("ledger", (t.family, t.rank, b))
                     for t in LEDGER_TYPES for b in range(1, t.rank + 1)]
    return ops


def _short(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _cli(argv):
    """(status, stdout, stderr) texts of one `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = exc.code
    return str(status), out.getvalue(), err.getvalue()


def _run(op):
    """`_cli` of a CLI op; a `roots` op runs on the series `bench/run.py`
    hands over and records its roots' sorted `repr`s, or the refusal; a
    `ledger` op prints the entries of one node's ledger."""
    if op.kind == "ledger":
        family, rank, node = op.argv
        entries = parameter_ledger(LieType(family, rank), node).entries
        rows = [[e.node, e.divisor, [str(o) for o in e.offsets]] for e in entries]
        return "0", json.dumps(rows, separators=(",", ":")), ""
    if op.kind != "roots":
        return _cli(op.argv)
    degree, d = op.argv
    series = Series([GaussianRational(re, im) for re, im in _workloads().roots_series(op)])
    try:
        roots = series_to_roots(series, degree, d)
    except Exception as exc:  # a refusal is an output too
        return "raised", "", f"{type(exc).__name__}: {exc}"
    return "0", repr(sorted(repr(r) for r in roots)), ""


def _input(op) -> str:
    return _short(repr((op.kind, op.argv, op.data)))


def _row(op) -> list:
    """[hash per stream] of one op."""
    return [_input(op), *map(_short, _run(op))]


def replay(key) -> list:
    return [_row(op) for op in corpora().get(key, [])]


def stored(key) -> list:
    return json.loads(DIGEST.read_text()).get(key, [])


def _keys(stored) -> list:
    """Every corpus, then any key stored for a corpus that no longer exists."""
    return list(corpora()) + [key for key in stored if key not in corpora()]


def _pairing(ops, old) -> list:
    """The index of the stored row in `old` that each op of `ops` is
    compared with, or None.  An op takes the stored row of its input hash,
    the k-th op of one input the k-th such row; an op left over takes the
    row at its own index if no op took that row, so that a changed input
    in place reads as changed."""
    rows = {}
    for index, row in enumerate(old):
        rows.setdefault(row[0], []).append(index)
    pairs = [rows[key].pop(0) if rows.get(key) else None for key in map(_input, ops)]
    free = set(range(len(old))) - set(pairs)
    for index, paired in enumerate(pairs):
        if paired is None and index in free:
            pairs[index] = index
    return pairs


def _mismatches(key, ops, old, new) -> list:
    """Lines naming each op of `ops` whose replayed row in `new` is not its
    stored row in `old`, and each stored row that no op is paired with
    (see `_pairing`).  An op is added if no stored row is paired with it,
    moved if its row is stored at another index, and changed in each
    stream whose hash differs."""
    pairs = _pairing(ops, old)
    lines = []
    for index, now in enumerate(new):
        was = pairs[index]
        if was is None:
            found = ["added"]
        else:
            changed = [s for s, a, b in zip(STREAMS, old[was], now) if a != b]
            found = [f"moved from op {was}"] * (was != index) + [
                ", ".join(changed) + " changed"] * bool(changed)
        if found:
            shown = repr(ops[index].argv + ops[index].data)[:100]
            lines.append(f"{key} op {index} {shown}: {', '.join(found)}")
    lines += [f"{key} stored op {index} (input {old[index][0]}): removed"
              for index in sorted(set(range(len(old))) - set(pairs))]
    return lines


def check_replay(key):
    """Replay the ops of one corpus against their stored rows."""
    lines = _mismatches(key, corpora().get(key, []), stored(key), replay(key))
    assert not lines, f"{len(lines)} ops differ; first:\n" + "\n".join(lines[:5])


def check_fixed_rows(key, count):
    """A fixed corpus has `count` stored rows, each of exit status 0 and empty stderr."""
    rows = stored(key)
    assert len(corpora()[key]) == len(rows) == count
    assert all((status, stderr) == (_short("0"), _short("")) for _, status, _, stderr in rows)


def pytest_generate_tests(metafunc):
    if "key" in metafunc.fixturenames:
        metafunc.parametrize("key", _keys(json.loads(DIGEST.read_text())))


def test_replay_digest_is_unchanged(key):
    check_replay(key)


def test_mismatches_tell_moved_added_removed_and_changed_ops():
    # A synthetic corpus and digest, one output per op: no op runs.
    ops = {name: _workloads().Op("cli", ("info", "--type", name)) for name in "abcdef"}

    def rows(names, changed=""):
        return [[_input(ops[n]), "0", "out " + n + "!" * (n in changed), ""] for n in names]

    def lines(stored_names, names, changed=""):
        return _mismatches("k", [ops[n] for n in names], rows(stored_names), rows(names, changed))

    def op(index, name):
        return f"k op {index} {('info', '--type', name)!r}"

    assert lines("abca", "abca") == []
    # One op inserted: it is added, and the op after it only moved.
    assert lines("abc", "abdc") == [
        op(2, "d") + ": added", op(3, "c") + ": moved from op 2"]
    assert lines("abc", "ac") == [
        op(1, "c") + ": moved from op 2", f"k stored op 1 (input {_input(ops['b'])}): removed"]
    assert lines("ab", "ba", changed="a") == [
        op(0, "b") + ": moved from op 1", op(1, "a") + ": moved from op 0, stdout changed"]
    # A changed output in place, and a changed input in place.
    assert lines("abc", "abc", changed="b") == [op(1, "b") + ": stdout changed"]
    assert lines("abc", "aec") == [op(1, "e") + ": input, stdout changed"]
    # Two ops of one input pair with their stored rows in order.
    assert lines("aab", "aba") == [op(1, "b") + ": moved from op 2", op(2, "a") + ": moved from op 1"]


def test_sl2_golden_corpus_matches_its_recipe():
    check_fixed_rows("sl2-golden", 3 * 36)
    assert sum(any("i" in a for _, a in spec) for spec in golden_specs()) == 18


def test_verdicts_golden_corpus_matches_its_recipe():
    check_fixed_rows("verdicts-golden", 6 * 48)
    chains = golden_chains()
    assert all(1 <= len(factors) <= 40 for _, _, factors in chains)
    assert max(len(factors) for _, _, factors in chains) >= 35
    assert sum(any("i" in a for _, a in factors) for _, _, factors in chains) >= 12
    assert sum(any("/2" in a for _, a in factors) for _, _, factors in chains) >= 12
    reports = [json.loads(_cli(_verdict_argv("irreducible", chain, True))[1]) for chain in chains]
    witnessed = [len(report["verdict"]["witnesses"]) > 0 for report in reports]
    assert sum(witnessed) >= 12 and not all(witnessed)


def test_ledger_corpus_matches_its_recipe():
    check_fixed_rows("ledger", 141)


def test_cli_corpus_errors_are_schema_errors():
    for argv in SCHEMA_ERRORS:
        status, out, err = _cli(argv)
        assert (status, out, err.count("\n")) == ("2", "", 1), argv
        assert err.startswith("schema error at "), argv


if __name__ == "__main__":
    if sys.argv[1:] not in (["--check"], ["--write"]):
        sys.exit("usage: PYTHONPATH=src python tests/test_replay.py --check | --write")
    digest = {key: replay(key) for key in corpora()}
    lines = [line for key in _keys(json.loads(DIGEST.read_text()))
             for line in _mismatches(key, corpora().get(key, []), stored(key), digest.get(key, []))]
    print("\n".join(lines) or f"all {sum(map(len, digest.values()))} ops match {DIGEST.name}")
    if lines and sys.argv[1] == "--check":
        sys.exit(1)
    if lines:
        # One op to a line, so that a rewrite shows in a diff op by op.
        blocks = [f"  {json.dumps(key)}: [\n" + ",\n".join(f"    {json.dumps(row)}" for row in rows)
                  + "\n  ]" for key, rows in digest.items()]
        DIGEST.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
        print(f"rewrote {DIGEST.name}: {len(lines)} lines above")
