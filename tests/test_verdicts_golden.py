"""Byte-for-byte replay of `weyl` and `check` on a fixed corpus of chains.

tests/data/verdicts_golden.json holds 48 seeded factor chains, eight per
type A1, A4, B3, C3, D5 and G2, with 1-40 factors each.  Parameters are
integers, halves, thirds and Gaussian rationals; most chains sit on
half-integer shifts of one base, so many have criterion witnesses.  For
each chain the corpus stores the SHA-256 of the standard output of `weyl`
(on the chain's Drinfeld tuple), `check --mode cyclic` and
`check --mode irreducible`, each in JSON and in human mode, and the full
output of the chains with at most three factors.  Any change to the scalar
layer, the criteria or the report builders must leave every output
unchanged.  Regenerate the corpus, from the repository root, only when the
output is meant to change:

    PYTHONPATH=src python tests/test_verdicts_golden.py > tests/data/verdicts_golden.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from yangian_weyl.cli import main

CORPUS = Path(__file__).resolve().parent / "data" / "verdicts_golden.json"
TYPES = (("A", 1), ("A", 4), ("B", 3), ("C", 3), ("D", 5), ("G2", 2))
COMMANDS = {
    "weyl": ["weyl"],
    "cyclic": ["check", "--mode", "cyclic"],
    "irreducible": ["check", "--mode", "irreducible"],
}
FULL_OUTPUT_MAX_FACTORS = 3


def _rat(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _scalar(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return _rat(re)
    return f"{_rat(re)}{'+' if im > 0 else '-'}{_rat(abs(im))}i"


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
                Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(2)
            ]
            factors = []
            for _ in range(k):
                if rng.random() < 0.8:  # near the base: witnesses likely
                    re = base + Fraction(rng.randint(0, 16), 1 if style == 0 else 2)
                else:
                    re = Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 5)))
                im = rng.choice(ims) if style != 3 or rng.random() < 0.5 else Fraction(0)
                factors.append((rng.randint(1, rank), _scalar(re, im)))
            chains.append((family, rank, factors))
    return chains


def _documents(family, rank, factors):
    """The `weyl` document (the chain's Drinfeld tuple) and the `check`
    document (the chain itself)."""
    polys = {}
    for node, a in factors:
        polys.setdefault(str(node), []).append(a)
    head = {"type": family, "rank": rank}
    chain = [{"node": node, "a": a} for node, a in factors]
    return {**head, "polys": polys}, {**head, "factors": chain}


def run(command, doc, as_json):
    out = io.StringIO()
    argv = [COMMANDS[command][0], json.dumps(doc), *COMMANDS[command][1:]]
    with contextlib.redirect_stdout(out):
        code = main(argv + (["--json"] if as_json else []))
    assert code == 0, argv
    return out.getvalue()


def _outputs(family, rank, factors):
    """{"<command>/<json|human>": stdout} for one chain."""
    weyl_doc, check_doc = _documents(family, rank, factors)
    return {
        f"{command}/{'json' if as_json else 'human'}": run(
            command, weyl_doc if command == "weyl" else check_doc, as_json
        )
        for command in COMMANDS
        for as_json in (True, False)
    }


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _corpus():
    return json.loads(CORPUS.read_text())


def test_corpus_matches_its_recipe():
    corpus = _corpus()
    recipe = golden_chains()
    assert [(e["type"], e["rank"], [tuple(f) for f in e["factors"]]) for e in corpus] == recipe
    assert all(1 <= len(factors) <= 40 for _, _, factors in recipe)
    assert max(len(factors) for _, _, factors in recipe) >= 35
    assert sum(any("i" in a for _, a in factors) for _, _, factors in recipe) >= 12
    assert sum(any("/2" in a for _, a in factors) for _, _, factors in recipe) >= 12
    witnessed = [e["witnessed"] > 0 for e in corpus]
    assert sum(witnessed) >= 12 and not all(witnessed)
    assert CORPUS.stat().st_size < 150_000


@pytest.mark.parametrize("family,rank", TYPES)
def test_verdict_reports_replay_byte_for_byte(family, rank):
    entries = [e for e in _corpus() if (e["type"], e["rank"]) == (family, rank)]
    assert entries
    for entry in entries:
        factors = [tuple(f) for f in entry["factors"]]
        for key, text in _outputs(family, rank, factors).items():
            assert _sha(text) == entry["sha256"][key], (key, factors)
            if key in entry:
                assert text == entry[key], (key, factors)


def build_corpus():
    corpus = []
    for family, rank, factors in golden_chains():
        outputs = _outputs(family, rank, factors)
        witnesses = json.loads(outputs["irreducible/json"])["verdict"]["witnesses"]
        entry = {
            "type": family,
            "rank": rank,
            "factors": [list(f) for f in factors],
            "witnessed": len(witnesses),
            "sha256": {key: _sha(text) for key, text in outputs.items()},
        }
        if len(factors) <= FULL_OUTPUT_MAX_FACTORS:
            entry.update(outputs)
        corpus.append(entry)
    return corpus


if __name__ == "__main__":
    json.dump(build_corpus(), sys.stdout, indent=1)
    sys.stdout.write("\n")
