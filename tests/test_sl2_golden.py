"""Byte-for-byte replay of `sl2 --json` on a fixed corpus of products.

tests/data/sl2_golden.json holds 36 seeded products (1-4 factors, m <= 3,
dimension <= 64, half of them with Gaussian parameters) and the exact
standard output of `sl2 --json` on each in closure, identities and
`series --order 5` modes.  Any change to the exact kernels must leave
every report unchanged.  Regenerate the corpus, from the repository root,
only when the output is meant to change:

    PYTHONPATH=src python tests/test_sl2_golden.py > tests/data/sl2_golden.json
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from yangian_weyl.cli import main
from yangian_weyl.exact import GaussianRational, format_scalar

CORPUS = Path(__file__).resolve().parent / "data" / "sl2_golden.json"
MODES = {
    "closure": ["--verify", "closure"],
    "identities": ["--verify", "identities"],
    "series": ["--verify", "series", "--order", "5"],
}


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
            spec.append([m, format_scalar(GaussianRational(re, im if gauss else 0))])
        specs.append(spec)
    return specs


def sl2_stdout(spec, mode):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["sl2", json.dumps(spec), *MODES[mode], "--json"])
    assert code == 0
    return out.getvalue()


def _corpus():
    return json.loads(CORPUS.read_text())


def test_corpus_matches_its_recipe():
    corpus = _corpus()
    assert [entry["spec"] for entry in corpus] == golden_specs()
    assert sum(any("i" in a for _, a in entry["spec"]) for entry in corpus) == 18


@pytest.mark.parametrize("mode", sorted(MODES))
def test_sl2_reports_replay_byte_for_byte(mode):
    for entry in _corpus():
        assert sl2_stdout(entry["spec"], mode) == entry[mode], entry["spec"]


if __name__ == "__main__":
    corpus = [
        {"spec": spec, **{mode: sl2_stdout(spec, mode) for mode in MODES}}
        for spec in golden_specs()
    ]
    json.dump(corpus, sys.stdout, indent=1)
    sys.stdout.write("\n")
