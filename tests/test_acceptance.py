"""Acceptance criteria.

Every check here is exact (no tolerances); each test prints one PASS line
with its measured runtime.  Each criterion runs on its own: criterion 12
builds the products of criteria 1-5 again and runs the defining-relation
suite on them.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from yangian_weyl.cli import main
from yangian_weyl.criteria import (
    criterion_set,
    cyclicity_guaranteed,
    dual_chain,
    irreducibility_guaranteed,
)
from yangian_weyl.dims import chain_dim, weyl_module_dim, yangian_fundamental_dim
from yangian_weyl.drinfeld import (
    DrinfeldTuple,
    FactorChain,
    NotDrinfeldSeriesError,
    eigenvalue_series,
    order_factors,
    series_to_roots,
)
from yangian_weyl.exact import GaussianRational as G, Series, unit_vector
from yangian_weyl.rootsys import (
    all_nodes,
    fundamental_weight,
    is_positive_root_vector,
    lie_type,
    node_involution,
    reflect_root,
)
from yangian_weyl.weylpath import descent_chain
from yangian_weyl.ysl2 import (
    defining_relation_failures,
    extend_generators,
    is_highest_weight,
    submodule_dimension,
    tensor_module,
    trivial_submodule_check,
)

from criteria_oracle import closed_form_set
from dense_oracle import combine, vector
from pair_oracle import ordering_key
from test_criteria import _sweep_types
from test_replay import _workloads

F = Fraction

class _Timer:
    def __init__(self, name, limit=None):
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"PASS {self.name} ({elapsed:.2f}s)")
            if self.limit is not None:
                assert elapsed < self.limit, f"{self.name}: {elapsed:.2f}s over budget"
        else:
            print(f"FAIL {self.name} ({elapsed:.2f}s)")
        return False


# The parameters of the products criteria 1-5 build; criterion 12 builds
# them all again.
HALF_GRID = [F(n, 2) for n in range(-4, 5)]  # -2, -3/2, ..., 2
TRIPLE_GRID = [F(0), F(1), F(2), F(3)]
TRIVIAL_BASES = (G(0), G(5), G(F(-3, 2)))
SERIES_PARAMS = [F(0), F(1), F(2), F(7, 2)]
W2_PARAMS = (G(0), G(1), G(-2), G(F(1, 2)))
PAIR_PARAMS = (G(0), G(1), G(2), G(-1), G(F(3, 2)))


def test_criterion_01_pair_highest_weight_iff():
    with _Timer("criterion 1: rank-one pair cyclicity iff", limit=2.0):
        assert len(HALF_GRID) == 9
        for a1, a2 in product(HALF_GRID, repeat=2):
            spec = [(1, G(a1)), (1, G(a2))]
            module = tensor_module(spec)
            top = unit_vector(module.dim, module.highest_index)
            hw = submodule_dimension(module, top) == module.dim
            assert hw == (a2 - a1 != 1), (a1, a2)


def test_criterion_02_triple_highest_weight_iff():
    with _Timer("criterion 2: rank-one triple cyclicity iff", limit=30.0):
        for a1, a2, a3 in product(TRIPLE_GRID, repeat=3):
            spec = [(1, G(a1)), (1, G(a2)), (1, G(a3))]
            module = tensor_module(spec)
            top = unit_vector(module.dim, module.highest_index)
            hw = submodule_dimension(module, top) == module.dim
            expected = all(
                b - a != 1 for a, b in ((a1, a2), (a1, a3), (a2, a3))
            )
            assert hw == expected, (a1, a2, a3)


def test_criterion_03_trivial_submodule_structure():
    with _Timer("criterion 3: pair structure with the invariant line", limit=1.0):
        for a in TRIVIAL_BASES:
            assert trivial_submodule_check(a)
            module = tensor_module([(1, a + 1), (1, a)])
            top = unit_vector(module.dim, module.highest_index)
            assert submodule_dimension(module, top) == 4
            # The quotient by the invariant line is the 3-dimensional
            # module: its top eigenvalues of h0, h1 appear on the top vector.
            w2 = tensor_module([(2, a)])
            w2_top = unit_vector(3, 2)
            assert module.h0.matvec(top) == tuple(2 * e for e in top)
            assert w2.h0.matvec(w2_top) == tuple(2 * e for e in w2_top)
            assert module.h1.matvec(top) == tuple(2 * (a + 1) * e for e in top)
            assert w2.h1.matvec(w2_top) == tuple(2 * (a + 1) * e for e in w2_top)


def _ordered_specs(params, max_len):
    """All weakly-decreasing tuples drawn from params (reals)."""
    ordered = sorted(params, reverse=True)
    out = []
    for k in range(1, max_len + 1):
        def grow(prefix, start):
            if len(prefix) == k:
                out.append(tuple(prefix))
                return
            for idx in range(start, len(ordered)):
                grow(prefix + [ordered[idx]], idx)
        grow([], 0)
    return out


def test_criterion_04_drinfeld_series_to_order_five():
    with _Timer("criterion 4: eigenvalue series of ordered products", limit=10.0):
        order = 5
        for values in _ordered_specs(SERIES_PARAMS, 3):
            spec = [(1, G(v)) for v in values]
            module = tensor_module(spec)
            ladder = extend_generators(module, order)
            series = eigenvalue_series([G(v) for v in values], 1, order + 1)
            top = unit_vector(module.dim, module.highest_index)
            for k in range(order + 1):
                assert ladder.h[k].matvec(top) == tuple(
                    series.coeffs[k + 1] * e for e in top
                ), (values, k)


def w2_identity_battery(a):
    """Six identities of the three-dimensional module, plus the level-k
    lowering patterns."""
    mod = tensor_module([(2, a)])
    ladder = extend_generators(mod, 3)
    top = unit_vector(3, 2)
    w1 = unit_vector(3, 1)
    x0m = ladder.xm[0]
    sq = x0m @ x0m

    for k in range(4):
        assert ladder.xm[k].matvec(top) == tuple((a + 1) ** k * e for e in w1)
        assert ladder.xm[k].matvec(w1) == tuple(
            2 * a**k * e for e in unit_vector(3, 0)
        )
    assert (x0m @ ladder.xm[1]).matvec(top) == tuple(
        (a + 1) * e for e in sq.matvec(top)
    )
    assert (ladder.xm[1] @ x0m).matvec(top) == tuple(a * e for e in sq.matvec(top))
    assert combine((1, ladder.xm[1] @ x0m), (1, x0m @ ladder.xm[1])).matvec(top) == tuple(
        (2 * a + 1) * e for e in sq.matvec(top)
    )
    assert combine((1, ladder.xm[2] @ x0m), (1, x0m @ ladder.xm[2])).matvec(top) == tuple(
        (2 * a * a + 2 * a + 1) * e for e in sq.matvec(top)
    )
    assert (ladder.xm[1] @ ladder.xm[1]).matvec(top) == tuple(
        a * (a + 1) * e for e in sq.matvec(top)
    )


def pair_identity_battery(a, b):
    """Identities on W_1(b) (x) W_1(a); the first-level vectors are
    independent exactly away from a - b = 1."""
    mod = tensor_module([(1, b), (1, a)])
    ladder = extend_generators(mod, 3)
    top = unit_vector(4, mod.highest_index)
    x0m, x1m, x2m, x3m = ladder.xm[:4]
    sq_top = (x0m @ x0m).matvec(top)

    def scaled(c, vec):
        return tuple(c * e for e in vec)

    if a - b != G(1):
        d1, d2 = x0m.matvec(top), x1m.matvec(top)
        assert any(
            d1[i] * d2[j] - d1[j] * d2[i] for i in range(4) for j in range(4)
        )
    assert (x0m @ x1m).matvec(top) == scaled((a + b + 1) / 2, sq_top)
    assert (x1m @ x0m).matvec(top) == scaled((a + b - 1) / 2, sq_top)
    assert combine((1, x1m @ x0m), (1, x0m @ x1m)).matvec(top) == scaled(a + b, sq_top)
    expected = vector(mod, {(0, 1): b * b + b + a, (1, 0): a * a})
    assert x2m.matvec(top) == expected
    assert (x0m @ x2m).matvec(top) == scaled((b * b + b + a + a * a) / 2, sq_top)
    assert (x1m @ x2m).matvec(top) == scaled(a * b * (a + b + 1) / 2, sq_top)
    assert (x1m @ x1m).matvec(top) == scaled(a * b, sq_top)
    expected3 = vector(mod, {(0, 1): b**3 + b * b + a * b + a * a, (1, 0): a**3})
    assert x3m.matvec(top) == expected3
    assert (x0m @ x3m).matvec(top) == scaled(
        (b**3 + b * b + a * b + a * a + a**3) / 2, sq_top
    )


def test_criterion_05_corollary_batteries():
    with _Timer("criterion 5: identity batteries", limit=5.0):
        for a_val in W2_PARAMS:
            w2_identity_battery(a_val)
        for b_val, a_val in product(PAIR_PARAMS, repeat=2):
            pair_identity_battery(a_val, b_val)


def chain_root_positivity(t, b) -> bool:
    """Each step's simple root, pulled back through the earlier steps,
    stays positive: the chain always moves strictly downward."""
    chain = descent_chain(t, b)
    l = t.rank
    for k, step in enumerate(chain.steps):
        vec = tuple(1 if j == step.node - 1 else 0 for j in range(l))
        for earlier in reversed(chain.steps[:k]):
            vec = reflect_root(t, vec, earlier.node)
        if not is_positive_root_vector(vec):
            return False
    return True


def test_criterion_06_chain_coefficients_and_positivity():
    with _Timer("criterion 6: descent chain combinatorics", limit=5.0):
        for t in _sweep_types(8):
            allowed = {1, 2, 3} if t.family == "G2" else {1, 2}
            nu = node_involution(t)
            for b in all_nodes(t):
                chain = descent_chain(t, b)
                assert set(chain.coefficients) <= allowed
                lowest = tuple(-c for c in fundamental_weight(t, nu[b - 1]))
                assert chain.steps[-1].weight_after == lowest
                assert chain_root_positivity(t, b)
                for k, step in enumerate(chain.steps):
                    assert step.index == k
                    assert step.weight_before[step.node - 1] == step.coefficient
                    if k:
                        assert step.weight_before == chain.steps[k - 1].weight_after


def test_criterion_07_criterion_set_oracle_equivalence():
    with _Timer("criterion 7: ledger-derived criterion sets = closed forms", limit=5.0):
        for t in _sweep_types(16):
            for b_m in all_nodes(t):
                for b_n in all_nodes(t):
                    assert (
                        criterion_set(t, b_m, b_n).values == closed_form_set(t, b_m, b_n)
                    ), (str(t), b_m, b_n)


def test_criterion_08_type_a_symmetries():
    with _Timer("criterion 8: type A criterion-set symmetries", limit=1.0):
        for l in range(1, 11):
            t = lie_type("A", l)
            for b_i in all_nodes(t):
                for b_j in all_nodes(t):
                    s = criterion_set(t, b_i, b_j).values
                    assert s == criterion_set(t, b_j, b_i).values
                    assert (
                        criterion_set(t, l + 1 - b_j, l + 1 - b_i).values == s
                    )


def test_criterion_09_dimension_identities():
    with _Timer("criterion 9: dimension identities", limit=1.0):
        spots = [
            (lie_type("A", 3), 2, 6),
            (lie_type("B", 3), 2, 22),
            (lie_type("C", 2), 2, 5),
            (lie_type("D", 4), 4, 8),
            (lie_type("G2"), 2, 7),
        ]
        for t, node, expected in spots:
            assert yangian_fundamental_dim(t, node) == expected

        rng = random.Random(2024)
        types = _sweep_types(6)
        per_type = {f: 0 for f in "ABCDG"}
        while any(v < 200 for v in per_type.values()):
            t = rng.choice(types)
            rows = {
                node: [
                    G(F(rng.randint(-6, 6), rng.randint(1, 2)), rng.randint(-1, 1))
                    for _ in range(rng.randint(0, 2))
                ]
                for node in all_nodes(t)
            }
            pi = DrinfeldTuple.from_dict(t, rows)
            if pi.total_degree == 0:
                continue
            assert chain_dim(order_factors(pi)) == weyl_module_dim(pi)
            per_type[t.family[0]] += 1


def test_criterion_10_verdict_consistency():
    with _Timer("criterion 10: irreducibility = cyclicity of chain and dual",
                 limit=10.0):
        types = [
            lie_type("A", 4), lie_type("B", 3), lie_type("C", 3),
            lie_type("D", 4), lie_type("D", 5), lie_type("G2"),
        ]
        rng = random.Random(4096)
        for t in types:
            for _ in range(1000):
                k = rng.randint(1, 5)
                chain = FactorChain(
                    t,
                    tuple(
                        (
                            rng.randint(1, t.rank),
                            G(
                                F(rng.randint(-6, 6), rng.randint(1, 2)),
                                rng.choice([0, 0, 0, 1, -1]),
                            ),
                        )
                        for _ in range(k)
                    ),
                )
                direct = irreducibility_guaranteed(chain)
                assert direct.guaranteed == (not direct.witnesses)
                via_dual = (
                    cyclicity_guaranteed(chain).guaranteed
                    and cyclicity_guaranteed(dual_chain(chain)).guaranteed
                )
                assert direct.guaranteed == via_dual


def test_criterion_11_series_roundtrip():
    with _Timer("criterion 11: series/polynomial roundtrip", limit=2.0):
        rng = random.Random(512)
        for _ in range(100):
            degree = rng.randint(1, 4)
            d = rng.choice([1, 2, 3])
            roots = [
                G(F(rng.randint(-9, 9), rng.randint(1, 4)))
                for _ in range(degree)
            ]
            series = eigenvalue_series(roots, d, 2 * degree)
            recovered = series_to_roots(series, degree, d)
            assert sorted((r.re, r.im) for r in recovered) == sorted(
                (r.re, r.im) for r in roots
            )


def test_criterion_12_defining_relations_on_registry():
    # The registry: every product criteria 1-5 build, built here again.
    registry = (
        [[(1, G(a1)), (1, G(a2))] for a1, a2 in product(HALF_GRID, repeat=2)]
        + [[(1, G(a)) for a in params] for params in product(TRIPLE_GRID, repeat=3)]
        + [[(1, a + 1), (1, a)] for a in TRIVIAL_BASES]
        + [[(1, G(v)) for v in values] for values in _ordered_specs(SERIES_PARAMS, 3)]
        + [[(2, a)] for a in W2_PARAMS]
        + [[(1, b), (1, a)] for b, a in product(PAIR_PARAMS, repeat=2)]
    )
    assert len(registry) == 211
    with _Timer("criterion 12: defining relations on every module of criteria 1-5"):
        for spec in registry:
            assert defining_relation_failures(tensor_module(spec), K=2) == []


def _highest_weight_by_strings(spec):
    """The benchmark's Chari-Pressley string rule, on (re, im) `Fraction`
    pairs."""
    return _workloads().highest_weight_by_strings([(m, (a.re, a.im)) for m, a in spec])


def test_criterion_13_oracle_matches_string_rule_up_to_dimension_128():
    with _Timer("criterion 13: oracle = string rule on 6 and 7 factors", limit=30.0):
        # Half the products list their parameters in decreasing order, which
        # makes them highest weight; the rest keep the order they were drawn in.
        rng = random.Random(1313)
        specs = []
        for k in (6, 6, 6, 6, 6, 6, 7):
            params = [F(rng.randint(-4, 4), rng.choice((1, 1, 2))) for _ in range(k)]
            if len(specs) % 2 == 0:
                params.sort(reverse=True)
            specs.append(tuple((1, G(a)) for a in params))
        verdicts = set()
        for spec in specs:
            hw = is_highest_weight(spec)
            assert hw == _highest_weight_by_strings(spec), spec
            verdicts.add(hw)
        assert verdicts == {True, False}


def test_criterion_14_degree_12_series_roundtrip():
    with _Timer("criterion 14: degree-12 series roundtrip", limit=30.0):
        # The first eight seeded instances, none picked by its timing.
        for seed in range(8):
            rng = random.Random(seed)
            roots = [
                G(F(rng.randint(-9, 9), rng.randint(1, 5)),
                  F(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3)))
                for _ in range(12)
            ]
            series = eigenvalue_series(roots, 2, 24)
            recovered = series_to_roots(series, 12, 2)
            assert sorted((r.re, r.im) for r in recovered) == sorted(
                (r.re, r.im) for r in roots
            )


def test_criterion_14_hard_roots_within_a_tenth_of_a_second():
    # Degree 24 from the generator above (seeds 1-3), and degree 4 with
    # parts up to 10^6/10^4, whose constant and leading coefficients have
    # many divisors.
    ops = []
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        roots = [
            G(F(rng.randint(-9, 9), rng.randint(1, 5)),
              F(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3)))
            for _ in range(24)
        ]
        ops.append((f"degree 24, seed {seed}", roots, 2))
    rng = random.Random(4)
    part = lambda: F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
    ops.append(("degree 4, parts up to 10^6/10^4", [G(part(), part()) for _ in range(4)], 1))
    for name, roots, d in ops:
        series = eigenvalue_series(roots, d, 2 * len(roots))
        with _Timer(f"criterion 14: {name}", limit=0.1):
            recovered = series_to_roots(series, len(roots), d)
        assert sorted((r.re, r.im) for r in recovered) == sorted(
            (r.re, r.im) for r in roots
        )


def test_criterion_15_level_spin_on_eight_factors(capsys):
    with _Timer("criterion 15: level spin = string rule at dimension 256", limit=10.0):
        params = [F(0), F(7, 2), F(-5, 3), F(2), F(1, 7), F(-9, 4), F(5), F(11, 5)]
        spec = tuple((1, G(a)) for a in params)
        expected = _highest_weight_by_strings(spec)
        assert is_highest_weight(spec) == expected
        doc = json.dumps([[1, str(G(a))] for a in params])
        assert main(["sl2", doc, "--verify", "closure", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dimension"] == 256
        assert report["highest_weight"] == expected
        assert (report["closure_dimension"] == 256) == expected


def _doubled_scan(t, rows):
    """Oracle for criterion 16 that shares no scalar code with the package:
    a scan of every ordered pair i != j on the doubled parameters
    (2 Re a, 2 Im a), integers for the chains below.  Yields (i, j, d),
    1-based, for the pairs with a_j - a_i = d/2 in S(b_i, b_j)."""
    doubled = {}
    for p, q in product(all_nodes(t), repeat=2):
        values = {2 * v for v in criterion_set(t, p, q).values}
        assert all(v.denominator == 1 for v in values)
        doubled[p, q] = {int(v) for v in values}
    for i, (b_i, x_i, y_i) in enumerate(rows, 1):
        for j, (b_j, x_j, y_j) in enumerate(rows, 1):
            if j != i and y_j == y_i and x_j - x_i in doubled[b_i, b_j]:
                yield i, j, x_j - x_i


def test_criterion_16_verdicts_at_max_factors(capsys):
    # 500 factors, the most `check` accepts: Gaussian parameters, and dense
    # half-integer real ones with thousands of witnesses.
    from yangian_weyl.cli import MAX_FACTORS

    rng = random.Random(16)
    cases = []
    for t in (lie_type("A", 4), lie_type("B", 4), lie_type("C", 4), lie_type("D", 5),
              lie_type("G2")):
        for dense in (False, True):
            rows = [
                (rng.randint(1, t.rank), rng.randint(-40, 40), 0) if dense else
                (rng.randint(1, t.rank), rng.randint(-120, 120), rng.choice((-2, -1, 1, 3)))
                for _ in range(MAX_FACTORS)
            ]
            doc = {"type": t.family, "rank": t.rank, "factors": [
                {"node": b, "a": str(G(F(x, 2), F(y, 2)))} for b, x, y in rows]}
            cases.append((t, rows, dense, json.dumps(doc)))
    outputs = []
    with _Timer("criterion 16: check on 500-factor chains", limit=6.0):
        for t, rows, dense, doc in cases:
            for mode in ("cyclic", "irreducible"):
                assert main(["check", doc, "--mode", mode, "--json"]) == 0
                outputs.append(capsys.readouterr().out)
    for k, (t, rows, dense, doc) in enumerate(cases):
        pairs = [(i, j, str(G(F(d, 2)))) for i, j, d in _doubled_scan(t, rows)]
        assert len(pairs) > (1000 if dense else 100)
        for mode, out in zip(("cyclic", "irreducible"), outputs[2 * k:2 * k + 2]):
            expected = [w for w in pairs if mode == "irreducible" or w[0] < w[1]]
            verdict = json.loads(out)["verdict"]
            got = [(w["i"], w["j"], w["difference"]) for w in verdict["witnesses"]]
            assert got == expected
            assert verdict["guaranteed"] == (not expected)


def _sixths_text(x: int) -> str:
    """x/6 in lowest terms, printed without the package's scalar code."""
    g = gcd(x, 6)
    return str(x // 6) if g == 6 else f"{x // g}/{6 // g}"


def test_criterion_17_weyl_audit_at_max_factors(capsys):
    # 500 roots, the most `weyl` accepts, over A4 and D5: real and Gaussian
    # parameters in sixths, so the audit meets denominators 1, 2, 3 and 6.
    # Each parameter is (x + y*i)/6 for integers x and y, and every audit row
    # is checked against the integer-pair difference of its two factors.
    from yangian_weyl.cli import MAX_FACTORS

    rng = random.Random(17)
    cases = []
    for t in (lie_type("A", 4), lie_type("D", 5)):
        rows = [
            (rng.randint(1, t.rank), rng.randint(-360, 360) * rng.choice((1, 2, 3)),
             rng.choice((0, 0, 3, -3, 6, 12, -4)))
            for _ in range(MAX_FACTORS)
        ]
        names = {}
        polys = {}
        for b, x, y in rows:
            text = _sixths_text(x) if y == 0 else (
                f"{_sixths_text(x)}{'+' if y > 0 else '-'}{_sixths_text(abs(y))}i")
            names[text] = (x, y)
            polys.setdefault(str(b), []).append(text)
        cases.append((t, rows, names, json.dumps({"type": t.family, "rank": t.rank,
                                                  "polys": polys})))
    outputs = []
    with _Timer("criterion 17: weyl audit on 500-root tuples", limit=3.0):
        for t, rows, names, doc in cases:
            assert main(["weyl", doc, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
    for (t, rows, names, doc), out in zip(cases, outputs):
        report = json.loads(out)
        chain = [(f["node"], *names[f["a"]]) for f in report["chain"]]
        assert sorted(chain) == sorted(rows)
        doubled = {
            (p, q): {int(2 * v) for v in criterion_set(t, p, q).values}
            for p, q in product(all_nodes(t), repeat=2)
        }
        audit = report["pair_audit"]
        assert len(audit) == MAX_FACTORS * (MAX_FACTORS - 1) // 2
        rows_seen = iter(audit)
        hits = 0
        for i, (b_i, x_i, y_i) in enumerate(chain, 1):
            for j in range(i + 1, MAX_FACTORS + 1):
                b_j, x_j, y_j = chain[j - 1]
                dx, dy = x_j - x_i, y_j - y_i
                want = _sixths_text(dx) if dy == 0 else (
                    f"{_sixths_text(dx)}{'+' if dy > 0 else '-'}{_sixths_text(abs(dy))}i")
                # a_j - a_i = dx/6 lies in S iff it is real and 2 dx/6 in 2S.
                hit = dy == 0 and dx % 3 == 0 and dx // 3 in doubled[b_i, b_j]
                row = next(rows_seen)
                assert (row["i"], row["j"], row["difference"], row["in_criterion_set"]) == (
                    i, j, want, hit)
                hits += hit
        assert hits == 0  # the ordered chain is cyclic: no pair i < j hits


def test_criterion_18_prime_constant_refused_fast():
    # Q(u) = u^2 + c has no root in Q(i) for either c below.  c = 100000007
    # is a prime = 3 mod 4, so N(c) = c^2 is the square of a large prime;
    # c = 10000025 + 2i is primitive and N(c) ~ 10^14 is prime.
    # Q(u+1)/Q(u) = 1 + (2u + 1)/(u^2 + c) = 1 + 2u^-1 + u^-2 - 2c u^-3 - c u^-4 + ...
    # In degree 3, u^3 + c has no root, (u - 1)(u^2 + c) the root 1, and
    # neither splits; a root search that factored the constant term would
    # meet N(c).  The last c, (3500 + 3i)(3508 + 37i), has a norm with two
    # prime factors near 1.2 * 10^7.  With x = 1/u their series are
    # (1 + 3x + 3x^2 + (1 + c)x^3) / (1 + c x^3) and
    # (1 + 2x + (1 + c)x^2) / (1 - x + c x^2 - c x^3).
    c = G(10000025, 2)
    rows = [
        (f"u^2 + {a}", 2, [G(1), G(2), G(1), -2 * a, -a])
        for a in (G(100000007), c)
    ] + [
        (f"u^3 + {a}", 3, [G(1), G(3), G(3), G(1), -3 * a, -3 * a, -a])
        for a in (c, G(3500, 3) * G(3508, 37))
    ] + [
        (f"(u - 1)(u^2 + {c})", 3,
         [G(1), G(3), G(4), 4 - 2 * c, 4 - 3 * c, 4 - 3 * c + 2 * c * c, 4 - 3 * c + 3 * c * c]),
    ]
    for name, degree, coeffs in rows:
        with _Timer(f"criterion 18: refusing the series of {name}", limit=0.05):
            with pytest.raises(NotDrinfeldSeriesError, match=r"^polynomial does not split over Q\(i\)$"):
                series_to_roots(Series(coeffs), degree, 1)


def test_criterion_19_series_to_order_32_on_eight_factors(capsys):
    # The README's eight two-dimensional factors (dimension 256, the largest
    # `sl2` accepts) at the largest order it accepts.
    params = [F(0), F(7, 2), F(-5, 3), F(2), F(1, 7), F(-9, 4), F(5), F(11, 5)]
    doc = json.dumps([[1, str(G(a))] for a in params])
    assert main(["sl2", doc, "--verify", "identities", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["relations_hold"] is True and report["failures"] == []
    with _Timer("criterion 19: series to order 32 at dimension 256", limit=0.5):
        assert main(["sl2", doc, "--verify", "series", "--order", "32", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
    assert report["order"] == 32 and len(report["series"]) == 34  # h_k pairs with c_{k+1}
    assert report["matches"] is True


def test_criterion_20_ssets_at_max_rank(capsys):
    # `ssets` derives every criterion set of the type from the ledgers of
    # all its nodes, so rank 64, the most the command line accepts, is its
    # largest input.  The caches are cleared so that each call derives
    # them afresh.
    import yangian_weyl.criteria as crit
    import yangian_weyl.weylpath as wp
    from yangian_weyl.cli import MAX_RANK

    passes = []  # each type's PASS line, printed again at the end
    for family in "ABCD":
        crit._ledger_sets.cache_clear()
        crit._doubled_sets.cache_clear()
        wp.parameter_ledger.cache_clear()
        with _Timer(f"criterion 20: ssets on {family}{MAX_RANK}", limit=3.0):
            assert main(["ssets", "--type", family, "--rank", str(MAX_RANK), "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
        passes.append(capsys.readouterr().out)
        t = lie_type(family, MAX_RANK)
        sets = report["sets"]
        assert len(sets) == MAX_RANK**2
        for b_m in (1, MAX_RANK):
            for b_n in all_nodes(t):
                expected = [str(G(v)) for v in sorted(closed_form_set(t, b_m, b_n))]
                assert sets[f"{b_m},{b_n}"] == expected, (family, b_m, b_n)
    print(*passes, sep="", end="")


def test_criterion_21_involution_at_max_rank(capsys):
    # `info` prints the node involution i -> -w0(i), walking every
    # fundamental weight through the longest word, which has up to 4,096
    # letters at rank 64.  The irreducible call's factors have pairwise
    # distinct imaginary parts, so the join makes no lookup: it reads no
    # criterion set and builds no dual chain.  The cyclic calls put two
    # factors in one bucket of the join, so they read the sets of both
    # nodes, and with them run the table check S(p, q) = S(nu p, nu q),
    # which walks nu and reads the ledger of nu(p) too: the end nodes of
    # A64 and the spinor nodes of D63, the largest odd rank of type D, are
    # swapped by nu.  Every per-type cache is cleared before each call, so
    # each call derives its tables afresh.  Each `info` and irreducible
    # `check` report must be the bytes json.dumps prints for it: `check`
    # writes its chain from the factor-row template.
    import yangian_weyl.criteria as crit
    import yangian_weyl.dims as dims
    import yangian_weyl.rootsys as rs
    import yangian_weyl.weylpath as wp
    from yangian_weyl.cli import MAX_RANK

    cached = [f for module in (rs, wp, crit, dims) for f in vars(module).values()
              if hasattr(f, "cache_clear")]
    rank = MAX_RANK
    passes = []  # each call's PASS line, printed again at the end
    for family in "ABCD":
        doc = json.dumps({"type": family, "rank": rank, "factors": [
            {"node": b, "a": a} for b, a in
            ((1, "0"), (rank, "1/2+1i"), (2, "3+2i"), (rank - 1, "-1-1i"), (rank // 2, "5/2+3i"))]})
        runs = (
            ("info", ["info", "--type", family, "--rank", str(rank), "--json"]),
            ("check --mode irreducible", ["check", doc, "--mode", "irreducible", "--json"]),
        )
        reports = []
        for name, argv in runs:
            for f in cached:
                f.cache_clear()
            with _Timer(f"criterion 21: {name} on {family}{rank}", limit=0.25):
                assert main(argv) == 0
                out = capsys.readouterr().out
                reports.append(json.loads(out))
            passes.append(capsys.readouterr().out)
            assert out == json.dumps(reports[-1], indent=2, sort_keys=True) + "\n"
        info, check = reports
        # -w0 reverses the nodes of A and is the identity on B, C and D of
        # even rank.
        expected = {i: rank + 1 - i if family == "A" else i for i in range(1, rank + 1)}
        assert info["involution"] == {str(i): j for i, j in expected.items()}
        assert check["verdict"] == {"guaranteed": True, "exact": family == "A", "witnesses": []}
    for family, rank in (("A", MAX_RANK), ("D", MAX_RANK - 1)):
        t = lie_type(family, rank)
        b_m, b_n = (1, rank) if family == "A" else (rank - 1, rank)
        s = str(G(min(closed_form_set(t, b_m, b_n))))
        doc = json.dumps({"type": family, "rank": rank, "factors": [
            {"node": b_m, "a": "0"}, {"node": b_n, "a": s}]})
        for f in cached:
            f.cache_clear()
        with _Timer(f"criterion 21: check --mode cyclic on {t}", limit=0.25):
            assert main(["check", doc, "--mode", "cyclic", "--json"]) == 0
            check = json.loads(capsys.readouterr().out)
        passes.append(capsys.readouterr().out)
        assert check["verdict"] == {"guaranteed": False, "exact": False,
                                    "witnesses": [{"i": 1, "j": 2, "difference": s}]}
    print(*passes, sep="", end="")


def test_criterion_22_ordering_with_distinct_large_denominators():
    # 500 roots, the most `weyl` accepts, whose 1,000-digit denominators
    # differ pairwise: a common denominator of them would have about
    # 500,000 digits.  Parsing, ordering and the self-check of `weyl` sort
    # on scaled floors of the parts instead, whose size follows the
    # largest denominator alone.
    from yangian_weyl.cli import MAX_FACTORS, _root_multiset, parse_tuple_doc

    rng = random.Random(22)
    dens = set()
    while len(dens) < MAX_FACTORS:
        dens.add(rng.randrange(10**999, 10**1000))
    polys = {}
    for d in sorted(dens):
        text = f"{rng.randrange(-10 * d, 10 * d)}/{d}"
        if rng.random() < 0.5:
            text += f"{rng.choice('+-')}{rng.randrange(1, 10 * d)}/{d}i"
        polys.setdefault(str(rng.randint(1, 4)), []).append(text)
    doc = {"type": "A", "rank": 4, "polys": polys}
    with _Timer("criterion 22: ordering 500 roots over 1,000-digit denominators", limit=0.5):
        pi = parse_tuple_doc(doc)
        chain = order_factors(pi)
        roots = ((node, r) for node, row in enumerate(pi.roots, 1) for r in row)
        assert _root_multiset(chain.factors) == _root_multiset(roots)
    assert list(chain.factors) == sorted(
        chain.factors, key=lambda pair: (*ordering_key(pair[1]), pair[0]))
    assert all(list(row) == sorted(row, key=ordering_key, reverse=True) for row in pi.roots)


def test_criterion_23_identities_on_eight_factors(capsys):
    # The README's eight two-dimensional factors (dimension 256, the largest
    # `sl2` accepts): the relation suite on packed integer rows, ladder
    # included, through the command line.
    params = [F(0), F(7, 2), F(-5, 3), F(2), F(1, 7), F(-9, 4), F(5), F(11, 5)]
    doc = json.dumps([[1, str(G(a))] for a in params])
    with _Timer("criterion 23: identities at dimension 256", limit=0.65):
        assert main(["sl2", doc, "--verify", "identities", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
    assert report["relations_hold"] is True and report["failures"] == []


def _fraction_text(x: F) -> str:
    """x as the reports print a rational part, without the package's scalar
    code."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def test_criterion_24_weyl_audit_over_distinct_denominators(capsys):
    # 500 roots, the most `weyl` accepts, whose 20-digit denominators
    # differ pairwise: their common denominator would have about 10,000
    # digits, so the audit forms each pair over its own d_i * d_j.  The
    # budget is criterion 17's.
    from yangian_weyl.cli import MAX_FACTORS

    rng = random.Random(24)
    dens = set()
    while len(dens) < MAX_FACTORS:
        dens.add(rng.randrange(10**19, 10**20))
    polys = {}
    for d in sorted(dens):
        text = f"{rng.randrange(-10 * d, 10 * d)}/{d}"
        if rng.random() < 0.5:
            text += f"{rng.choice('+-')}{rng.randrange(1, 10 * d)}/{d}i"
        polys.setdefault(str(rng.randint(1, 4)), []).append(text)
    doc = json.dumps({"type": "A", "rank": 4, "polys": polys})
    with _Timer("criterion 24: weyl audit over 500 distinct 20-digit denominators", limit=3.0):
        assert main(["weyl", doc, "--json"]) == 0
        out = capsys.readouterr().out
    report = json.loads(out)
    parts = []
    for f in report["chain"]:
        re, _, im = f["a"].replace("-", "+-").lstrip("+").partition("+")
        parts.append((F(re), F(im.rstrip("i") or 0)))
    audit = report["pair_audit"]
    assert [(row["i"], row["j"]) for row in audit] == list(
        combinations(range(1, MAX_FACTORS + 1), 2))
    for k in rng.sample(range(len(audit)), 2000):
        row = audit[k]
        (re_i, im_i), (re_j, im_j) = parts[row["i"] - 1], parts[row["j"] - 1]
        re, im = re_j - re_i, im_j - im_i
        want = _fraction_text(re) if not im else (
            f"{_fraction_text(re)}{'+' if im > 0 else '-'}{_fraction_text(abs(im))}i")
        assert (row["difference"], row["in_criterion_set"]) == (want, False)
