"""The parameter-height recipe: how `sl2 --verify closure` and
`--verify identities` grow with the number of digits of the parameters.

For each k given on the command line (default 1 and 10) the product is 8
two-dimensional factors, dimension 256, drawn from `random.Random(1)`: per
factor one k-digit denominator d, then k-digit r and s with random signs,
and the parameter (r + s i)/d.  Each mode runs in process through
`cli.main`, best of 3 (the first call also builds the shape's cache).  One
JSON line per k gives the times in seconds, both answers, and the bit
lengths of the relation suite's common denominator L and slot width S at
K = 2.  Run from the repository root:

    PYTHONPATH=src python tests/height_recipe.py [k ...]
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time

from yangian_weyl.cli import main
from yangian_weyl.exact import parse_scalar
from yangian_weyl.ysl2 import _packed_relations, tensor_module

FACTORS = 8
REPEATS = 3


def spec(k: int) -> list:
    """The recipe's sl2 document at k digits, as [[1, "r/d+s/di"], ...]."""
    rng = random.Random(1)

    def digits():
        return rng.randrange(10 ** (k - 1), 10**k)

    factors = []
    for _ in range(FACTORS):
        d = digits()
        r, s = (rng.choice((-1, 1)) * digits() for _ in range(2))
        factors.append([1, f"{r}/{d}{s:+d}/{d}i"])
    return factors


def timed(doc: str, mode: str):
    """(best of REPEATS seconds, parsed JSON report) of `sl2 doc --verify mode`."""
    best = None
    for _ in range(REPEATS):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            status = main(["sl2", doc, "--verify", mode, "--json"])
            elapsed = time.perf_counter() - start
        if status != 0:
            raise SystemExit(f"sl2 --verify {mode} exited {status}")
        best = elapsed if best is None else min(best, elapsed)
    return best, json.loads(out.getvalue())


def measure(k: int) -> dict:
    factors = spec(k)
    doc = json.dumps(factors)
    closure_s, closure = timed(doc, "closure")
    identities_s, identities = timed(doc, "identities")
    module = tensor_module([(m, parse_scalar(a)) for m, a in factors])
    L, S, *_ = _packed_relations(module, 2)
    return {
        "k": k,
        "dimension": closure["dimension"],
        "closure_s": round(closure_s, 4),
        "identities_s": round(identities_s, 4),
        "highest_weight": closure["highest_weight"],
        "relations_hold": identities["relations_hold"],
        "L_bits": L.bit_length(),
        "S_bits": S,
    }


if __name__ == "__main__":
    for k in map(int, sys.argv[1:] or ("1", "10")):
        if k < 1:
            raise SystemExit(f"k must be at least 1, not {k}")
        print(json.dumps(measure(k)), flush=True)
