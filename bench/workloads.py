"""Inputs and output checks for the four benchmark workloads.

Each workload is a fixed *round*: a list of op slots (which entry point,
which input shape).  A run times whole rounds; the seed fills every slot
with fresh parameters, so no input repeats within a run and every run has
the same make-up.

The checks never consult the package: each output is compared with a
computation made here (a string rule, a series expansion, a binomial
product, a planted answer) or with a property the output must have.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

# ---------------------------------------------------------------------------
# Scalars as (re, im) pairs of Fractions, in the package's text grammar
# int[/posint][(+|-)int[/posint]i].

_SCALAR = re.compile(r"^(-?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)i)?$")


def fmt(value) -> str:
    re_, im = value

    def rat(x: Fraction) -> str:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    if im == 0:
        return rat(re_)
    return f"{rat(re_)}{'+' if im > 0 else '-'}{rat(abs(im))}i"


def parse(text: str):
    match = _SCALAR.match(text)
    if match is None:
        raise ValueError(f"unparsable scalar {text!r}")
    im = Fraction(match.group(3)) if match.group(3) else Fraction(0)
    if match.group(2) == "-":
        im = -im
    return (Fraction(match.group(1)), im)


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _linear_product(roots, shift):
    """Coefficients in x of prod_a (1 + (shift - a) x)."""
    zero = (Fraction(0), Fraction(0))
    out = [(Fraction(1), Fraction(0))]
    for a in roots:
        c = (shift - a[0], -a[1])
        out = [_add(x, _mul(c, y)) for x, y in zip(out + [zero], [zero] + out)]
    return out


def expand_series(roots, d: int, order: int):
    """Coefficients c_0..c_order of prod_a (1 + sum_k d a^(k-1) u^-k).

    With x = 1/u each factor sums to (1 - (a-d) x) / (1 - a x), so the
    series is N/D for two polynomials of degree len(roots), divided as
    power series: c_k = N_k - sum_{j>=1} D_j c_(k-j)."""
    num = _linear_product(roots, d)
    den = _linear_product(roots, 0)
    out = []
    for k in range(order + 1):
        c = num[k] if k < len(num) else (Fraction(0), Fraction(0))
        for j in range(1, min(k, len(den) - 1) + 1):
            c = _sub(c, _mul(den[j], out[k - j]))
        out.append(c)
    return out


def highest_weight_by_strings(spec) -> bool:
    """Chari-Pressley string rule for an ordered product of evaluation
    modules (m, a): factor i has string {a_i, ..., a_i + m_i - 1}.  The
    product fails to be highest weight exactly when some i < j has
    S_i u S_j a string properly containing both, with S_j starting above
    S_i, i.e. a_j - a_i = k an integer with 0 < k <= m_i < k + m_j."""
    for i, (m_i, a_i) in enumerate(spec):
        for m_j, a_j in spec[i + 1:]:
            k = _sub(a_j, a_i)
            if k[1] == 0 and k[0].denominator == 1 and 0 < k[0] <= m_i < k[0] + m_j:
                return False
    return True


# ---------------------------------------------------------------------------
# Ops.


@dataclass(frozen=True)
class Op:
    """One call into the package: `argv` for `cli.main`, or the planted
    roots whose series goes to `drinfeld.series_to_roots`."""

    kind: str
    argv: tuple = ()
    data: tuple = ()


def _sl2_op(kind: str, spec, *flags) -> Op:
    doc = [[m, fmt(a)] for m, a in spec]
    return Op(kind, ("sl2", json.dumps(doc), "--verify", *flags, "--json"), tuple(spec))


def _load_report(output, command: str):
    rc, text = output
    if rc != 0:
        return None, f"exit status {rc}"
    doc = json.loads(text)
    if doc.get("command") != command or doc.get("exact") is not True:
        return None, "report header is wrong"
    return doc, None


def _unique(rng, make, seen):
    while True:
        op = make(rng)
        if op.argv + op.data not in seen:
            seen.add(op.argv + op.data)
            return op


# ---------------------------------------------------------------------------
# spin: sl2 --verify closure.

# (factor dimensions minus one, highest weight, Gaussian parameters, count).
# Sorted by cost, a round is 30 products of dimension 8, 30 of dimension
# 12, 14 of dimension 16 or 18 and 6 heavier ones (24 to 48), so that the
# median falls inside the 12-dimensional class and the tail percentile
# (p87 of 80) inside the 16/18 class, away from the gaps between classes.
SPIN_ROUND = (
    ((1, 1, 1), True, False, 8), ((1, 1, 1), True, True, 7),
    ((1, 1, 1), False, False, 7), ((1, 1, 1), False, True, 8),
    ((2, 1, 1), True, False, 8), ((2, 1, 1), True, True, 7),
    ((2, 1, 1), False, False, 7), ((2, 1, 1), False, True, 8),
    ((1, 1, 1, 1), True, False, 2), ((1, 1, 1, 1), True, True, 2),
    ((1, 1, 1, 1), False, False, 2), ((1, 1, 1, 1), False, True, 2),
    ((2, 2, 1), True, False, 2), ((2, 2, 1), True, True, 1),
    ((2, 2, 1), False, False, 1), ((2, 2, 1), False, True, 2),
    ((2, 1, 1, 1), True, True, 1), ((2, 1, 1, 1), False, False, 1),
    ((1, 1, 1, 1, 1), True, False, 1), ((1, 1, 1, 1, 1), False, True, 1),
    ((2, 2, 1, 1), True, False, 1),
    ((2, 1, 1, 1, 1), True, False, 1),
)


def _spin_op(rng, ms, want_hw: bool, gauss: bool) -> Op:
    while True:
        order = list(ms)
        rng.shuffle(order)
        base = Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 5)))
        q = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
        spec = [
            (
                m,
                (
                    base + rng.randint(-3, 3) + rng.choice((0, 0, Fraction(1, 2))),
                    q * rng.randint(1, 2) if gauss else Fraction(0),
                ),
            )
            for m in order
        ]
        if highest_weight_by_strings(spec) == want_hw:
            return _sl2_op("closure", spec, "closure")


def spin_ops(rng, rounds: int) -> list:
    seen: set = set()
    ops = [
        _unique(rng, lambda r: _spin_op(r, ms, hw, gauss), seen)
        for _ in range(rounds)
        for ms, hw, gauss, count in SPIN_ROUND
        for _ in range(count)
    ]
    rng.shuffle(ops)
    return ops


def check_closure(op: Op, output):
    doc, err = _load_report(output, "sl2")
    if err:
        return err
    spec = op.data
    if doc["dimension"] != prod(m + 1 for m, _ in spec):
        return "dimension is not the product of (m+1)"
    expected = highest_weight_by_strings(spec)
    if doc["highest_weight"] is not expected:
        return f"highest_weight {doc['highest_weight']} but the string rule says {expected}"
    if (doc["closure_dimension"] == doc["dimension"]) is not doc["highest_weight"]:
        return "closure_dimension disagrees with highest_weight"
    if not 1 <= doc["closure_dimension"] <= doc["dimension"]:
        return "closure_dimension out of range"
    return None


# ---------------------------------------------------------------------------
# relations: sl2 --verify identities and sl2 --verify series --order 5.

SERIES_ORDER = 5

# (verify mode, factor dimensions minus one, count); half the parameters
# of each slot are real and half Gaussian.  Sorted by cost, the median of
# a round (70 ops) falls among the ~75 ms ops.  A run has two rounds; its
# tail percentile (p92 of 140) falls in the band of 3-factor and (2,2)
# identity checks, below the eight heaviest ops of the run.
RELATIONS_ROUND = (
    ("identities", (1, 1), 8), ("identities", (2, 1), 8), ("identities", (2, 2), 7),
    ("identities", (1, 1, 1), 8), ("identities", (2, 1, 1), 1),
    ("identities", (1, 1, 1, 1), 1),
    ("series", (1, 1), 8), ("series", (2, 1), 8), ("series", (2, 2), 8),
    ("series", (1, 1, 1), 7), ("series", (2, 1, 1), 4), ("series", (2, 2, 1), 1),
    ("series", (1, 1, 1, 1), 1),
)


def _relations_op(rng, mode: str, ms, gauss: bool) -> Op:
    order = list(ms)
    rng.shuffle(order)
    spec = [
        (
            m,
            (
                Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 5))),
                Fraction(rng.randint(1, 6), rng.choice((1, 2))) if gauss else Fraction(0),
            ),
        )
        for m in order
    ]
    if mode == "series":
        return _sl2_op("series", spec, "series", "--order", str(SERIES_ORDER))
    return _sl2_op("identities", spec, "identities")


def relations_ops(rng, rounds: int) -> list:
    seen: set = set()
    ops = [
        _unique(rng, lambda r: _relations_op(r, mode, ms, k % 2 == 1), seen)
        for _ in range(rounds)
        for mode, ms, count in RELATIONS_ROUND
        for k in range(count)
    ]
    rng.shuffle(ops)
    return ops


def check_identities(op: Op, output):
    doc, err = _load_report(output, "sl2")
    if err:
        return err
    if doc["relations_hold"] is not True or doc["failures"]:
        return f"relations fail: {doc['failures']}"
    return None


def check_series(op: Op, output):
    doc, err = _load_report(output, "sl2")
    if err:
        return err
    roots = [(a[0] + s, a[1]) for m, a in op.data for s in range(m)]
    expected = expand_series(roots, 1, SERIES_ORDER + 1)
    if doc["order"] != SERIES_ORDER or doc["matches"] is not True:
        return "series does not match the matrix action"
    if [parse(c) for c in doc["series"]] != expected:
        return "series differs from the expansion over the roots a+s"
    return None


# ---------------------------------------------------------------------------
# roots: drinfeld.series_to_roots on series expanded here from planted roots.

# (degree, shift d, Gaussian roots): every degree 2-10 with every shift,
# real and Gaussian, plus a second degree 9 and 10 Gaussian op per shift.
# Those are the heaviest ops; doubling them puts the tail percentile (p95
# of 240) inside their class instead of at its upper edge, where the
# divisor search makes cost vary most from input to input.
ROOT_ROUND = tuple(
    (degree, d, gauss) for degree in range(2, 11) for d in (1, 2, 3) for gauss in (False, True)
) + tuple((degree, d, True) for degree in (9, 10) for d in (1, 2, 3))


def _roots_op(rng, degree: int, d: int, gauss: bool) -> Op:
    roots = []
    for _ in range(degree):
        re_ = Fraction(rng.randint(-5, 5), rng.choice((1, 2)))
        im = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2))) if gauss else Fraction(0)
        roots.append((re_, im))
    roots.sort()
    return Op("roots", (degree, d), tuple(roots))


def roots_ops(rng, rounds: int) -> list:
    seen: set = set()
    ops = [
        _unique(rng, lambda r: _roots_op(r, degree, d, gauss), seen)
        for _ in range(rounds)
        for degree, d, gauss in ROOT_ROUND
    ]
    rng.shuffle(ops)
    return ops


def roots_series(op: Op):
    """The series handed to the package: order 2*degree, the least that
    pins the polynomial down."""
    degree, d = op.argv
    return expand_series(op.data, d, 2 * degree)


def check_roots(op: Op, output):
    recovered = sorted((r.re, r.im) for r in output)
    if recovered != list(op.data):
        return f"recovered {recovered} but planted {list(op.data)}"
    return None


# ---------------------------------------------------------------------------
# verdicts: weyl, check --mode cyclic, check --mode irreducible.

VERDICT_TYPES = (("A", 1), ("A", 4), ("B", 3), ("C", 3), ("D", 5), ("G2", 2))
CHAIN_LENGTHS = (20, 50, 80, 120)


def vector_poles(family: str, rank: int):
    """Poles of the vector-representation R-matrix on the package's scale:
    the criterion set of the node pair (1, 1)."""
    return {
        "A": (1,),
        "B": (2, 2 * rank - 1),
        "C": (1, rank + 1),
        "D": (1, rank - 1),
    }.get(family, ())


def fundamental_dim(family: str, rank: int, node: int):
    """Binomial dimension formulas for types A and C (None otherwise)."""
    if family == "A":
        return comb(rank + 1, node)
    if family == "C":
        return comb(2 * rank, node) - (comb(2 * rank, node - 2) if node >= 2 else 0)
    return None


def _type_doc(family: str, rank: int) -> dict:
    return {"type": family} if family == "G2" else {"type": family, "rank": rank}


def _random_real(rng):
    return Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3)))


def _weyl_op(rng, family, rank, n) -> Op:
    polys: dict = {}
    for _ in range(n):
        node = rng.randint(1, rank)
        im = Fraction(rng.choice((0, 0, 1, -1, 2)), rng.choice((1, 2)))
        polys.setdefault(str(node), []).append(fmt((_random_real(rng), im)))
    doc = {**_type_doc(family, rank), "polys": polys}
    return Op("weyl", ("weyl", json.dumps(doc), "--json"), (family, rank))


def _chain_op(rng, family, rank, n, mode, variant) -> Op:
    """variant 'nonreal': all pairwise differences non-real;
    'pole': one real pair (i<j) at node 1 with a_j - a_i a vector pole;
    'spread'/'dense': type A1 real chains without/with differences +-1."""
    nodes = [rng.randint(1, rank) for _ in range(n)]
    expected = []
    if variant in ("nonreal", "pole"):
        ims = rng.sample(range(1, 40 * n), n)
        params = [(_random_real(rng), Fraction(im, 2)) for im in ims]
        if variant == "pole":
            i, j = sorted(rng.sample(range(n), 2))
            pole = Fraction(rng.choice(vector_poles(family, rank)))
            nodes[i] = nodes[j] = 1
            params[j] = (params[i][0] + pole, params[i][1])
            expected = [(i + 1, j + 1, (pole, Fraction(0)))]
    else:
        base = Fraction(rng.randint(-20, 20), rng.choice((1, 3)))
        if variant == "spread":
            params = [
                (base + 2 * rng.randint(0, 2 * n) + rng.choice((0, Fraction(1, 2))), Fraction(0))
                for _ in range(n)
            ]
        else:
            params = [(base + rng.randint(0, 3 * n), Fraction(0)) for _ in range(n)]
        one = (Fraction(1), Fraction(0))
        expected = [
            (i + 1, j + 1, one)
            for i in range(n)
            for j in range(n)
            if (j > i or (mode == "irreducible" and j != i))
            and _sub(params[j], params[i]) == one
        ]
    doc = {
        **_type_doc(family, rank),
        "factors": [{"node": b, "a": fmt(a)} for b, a in zip(nodes, params)],
    }
    return Op(mode, ("check", json.dumps(doc), "--mode", mode, "--json"),
              (family, tuple(sorted(expected))))


def verdict_ops(rng, rounds: int) -> list:
    seen: set = set()
    ops = []
    for _ in range(rounds):
        for family, rank in VERDICT_TYPES:
            for k, n in enumerate(CHAIN_LENGTHS):
                if family == "A" and rank == 1:
                    variant = ("spread", "dense")[k % 2]
                elif family == "G2":
                    variant = "nonreal"
                else:
                    variant = ("nonreal", "pole")[k % 2]
                ops.append(_unique(rng, lambda r: _weyl_op(r, family, rank, n), seen))
                for mode in ("cyclic", "irreducible"):
                    ops.append(_unique(
                        rng, lambda r: _chain_op(r, family, rank, n, mode, variant), seen))
    rng.shuffle(ops)
    return ops


def check_weyl(op: Op, output):
    doc, err = _load_report(output, "weyl")
    if err:
        return err
    family, rank = op.data
    given = sorted(
        (int(node), parse(a)) for node, roots in json.loads(op.argv[1])["polys"].items() for a in roots
    )
    chain = [(f["node"], parse(f["a"])) for f in doc["chain"]]
    if sorted(chain) != given:
        return "chain is not a permutation of the input"
    if any(chain[k][1][0] < chain[k + 1][1][0] for k in range(len(chain) - 1)):
        return "chain is not sorted by descending real part"
    n = len(chain)
    audit = doc["pair_audit"]
    if len(audit) != n * (n - 1) // 2 or any(row["in_criterion_set"] for row in audit):
        return "pair audit is not all false"
    dims = [fundamental_dim(family, rank, node) for node, _ in chain]
    if None not in dims and doc["dimension"] != prod(dims):
        return f"dimension {doc['dimension']} is not the product of fundamental dimensions"
    return None


def check_verdict(op: Op, output):
    doc, err = _load_report(output, "check")
    if err:
        return err
    family, expected = op.data
    verdict = doc["verdict"]
    exact = op.kind == "irreducible" and family == "A"
    witnesses = sorted((w["i"], w["j"], parse(w["difference"])) for w in verdict["witnesses"])
    if witnesses != list(expected):
        return f"witnesses {witnesses[:4]}... but expected {list(expected)[:4]}..."
    if verdict["guaranteed"] is not (not expected):
        return "guaranteed disagrees with the witnesses"
    if verdict["exact"] is not exact:
        return "exact flag is wrong"
    return None


# ---------------------------------------------------------------------------
# Registry.

CHECKS = {
    "closure": check_closure,
    "identities": check_identities,
    "series": check_series,
    "roots": check_roots,
    "weyl": check_weyl,
    "cyclic": check_verdict,
    "irreducible": check_verdict,
}

GENERATORS = {
    "spin": spin_ops,
    "relations": relations_ops,
    "roots": roots_ops,
    "verdicts": verdict_ops,
}


def _fixed_chain(family, rank, mode):
    doc = {
        **_type_doc(family, rank),
        "factors": [{"node": 1, "a": "0+1i"}, {"node": rank, "a": "1/2+2i"},
                    {"node": 1, "a": "-1+3i"}],
    }
    return Op(mode, ("check", json.dumps(doc), "--mode", mode, "--json"), (family, ()))


def warmup_ops(workload: str) -> list:
    """One fixed op of each kind the workload runs, smaller than any timed
    input so that it never repeats one.  Set-up runs them untimed."""
    one = (Fraction(1), Fraction(0))
    if workload == "spin":
        return [_sl2_op("closure", [(1, (Fraction(0), Fraction(0))), (1, (Fraction(1, 2), Fraction(0)))], "closure")]
    if workload == "relations":
        spec = [(1, (Fraction(1, 3), Fraction(0)))]
        return [_sl2_op("identities", spec, "identities"),
                _sl2_op("series", spec, "series", "--order", str(SERIES_ORDER))]
    if workload == "roots":
        return [Op("roots", (1, 1), ((Fraction(2), Fraction(0)),))]
    ops = []
    for family, rank in VERDICT_TYPES:
        polys = {"1": ["0", "2+1i"]}
        polys.setdefault(str(rank), []).append(fmt(one))
        doc = {**_type_doc(family, rank), "polys": polys}
        ops.append(Op("weyl", ("weyl", json.dumps(doc), "--json"), (family, rank)))
        ops.extend(_fixed_chain(family, rank, mode) for mode in ("cyclic", "irreducible"))
    return ops


def corrupt(op: Op, output):
    """A wrong output for the self-test: the check must reject it."""
    if op.kind == "roots":
        return ((output[0] + 1),) + tuple(output[1:])
    rc, text = output
    doc = json.loads(text)
    if op.kind == "closure":
        doc["highest_weight"] = not doc["highest_weight"]
    elif op.kind == "identities":
        doc["failures"] = ["[h0,h1]"]
    elif op.kind == "series":
        doc["series"][-1] = fmt((parse(doc["series"][-1])[0] + 1, Fraction(0)))
    elif op.kind == "weyl":
        doc["pair_audit"][0]["in_criterion_set"] = True
    else:
        doc["verdict"]["guaranteed"] = not doc["verdict"]["guaranteed"]
    return rc, json.dumps(doc)


def generate(workload: str, seed: int, rounds: int, stream: str = "timed") -> list:
    """The run's inputs: `rounds` whole rounds, a function of the seed only."""
    rng = random.Random(f"{workload}/{stream}/{seed}")
    return GENERATORS[workload](rng, rounds)
