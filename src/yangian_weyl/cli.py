"""Command-line surface: info, weyl, check, sl2, ssets.

JSON documents are the stable contract; every machine report carries the
package version and an "exact": true flag.  Schema violations are reported
with a JSON-pointer path and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from itertools import chain as iter_chain, repeat
from json.encoder import encode_basestring_ascii

from . import __version__
from .criteria import (
    Verdict,
    _doubled_sets,
    criterion_set,  # unused here; bench/spans.py counts calls through this name
    cyclicity_guaranteed,
    irreducibility_guaranteed,
)
from .dims import (
    chain_dim,
    lie_fundamental_dim,
    weyl_module_dim,
    yangian_fundamental_dim,
)
from .drinfeld import DrinfeldTuple, FactorChain, order_factors
from .exact import (
    GaussianRational,
    ScalarParseError,
    as_scalar,
    format_triple,
    imaginary_suffix,
    parse_scalar,
    rational_text,
)
from .rootsys import (
    LieType,
    cartan_datum,
    duality_shift,
    lie_type,
    longest_word,
    node_involution,
)
from .ysl2 import _series_check, defining_relation_failures, lowering_levels, tensor_module

# Largest product dimension prod(m + 1) that `sl2` builds.  On eight
# two-dimensional factors with parameters 0, 7/2, -5/3, 2, 1/7, -9/4, 5, 11/5
# (dimension 256; Python 3.11, one shared Xeon core) closure takes 0.08-0.09 s,
# identities 0.7-0.8 s and series 0.012-0.018 s at order 5 and 0.022 s at
# order 32; on the first seven, 0.02, 0.26 and 0.006-0.015 s.  Identities,
# whose 74 generator products are whole matrices, sets the bound.
MAX_SL2_DIM = 256
# Largest rank `info`, `ssets`, `weyl` and `check` accept.  The per-type
# tables grow with the rank l (`_tridiagonal` allocates an l x l list, the
# node involution of `info` and `check --mode irreducible` runs every
# fundamental weight through the longest word, O(l^2) letters, and `ssets`
# derives the ledger of every node), so `ssets` sets the bound.  At rank 64,
# with the per-type caches empty, `ssets --json` takes 0.2 s on A64 and
# 0.6-0.7 s on B64, C64 and D64, against 0.03-0.08 s at rank 32 and
# 0.35-1.4 s at rank 80; `info` and `check --mode irreducible` take at most
# 0.045 s at rank 64 (in-process `main` calls; Python 3.11, one shared Xeon
# core).  The demos and the benchmark use rank 12 at most; the tests reach
# rank 64.
MAX_RANK = 64
# Largest `sl2 --order`: the series check runs the x_k^+ ladder up to it on
# the vectors top and x_0^- top, about order^2 / 2 sparse applications each,
# on vectors that stay in the top two weight spaces; at order 32 it takes
# 0.022 s on the eight factors above.  32 is over six times the order the benchmark uses (5).
MAX_SL2_ORDER = 32
# Largest total degree `weyl` accepts and longest chain `check` accepts.
# `weyl` prints a JSON row for every pair of factors, so it sets the bound:
# at 500 roots on A4 and D5 (acceptance criterion 17) it takes 0.14-0.16 s
# (13.7 MB of JSON), of which forming the 124,750 differences takes 0.06 s
# and writing the JSON 0.04 s; with pairwise-distinct six-digit
# denominators, where no part repeats, 0.34-0.44 s.  Both grow as the
# square of the degree.  `check` finds its witnesses by a hash join and
# takes 0.01-0.13 s at 500 factors (Python 3.11, one shared Xeon core).
# The benchmark's longest chain and largest degree are 120.
MAX_FACTORS = 500


class SchemaError(ValueError):
    """Input refused at `pointer`: an RFC 6901 JSON pointer into the
    document ("" for the whole document) or the name of an option."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


def _triple_str(re: int, im: int, d: int) -> str:
    """The scalar (re + im*i) / d as the reports print it.  An input small
    enough to pass the schema can still yield a part with more digits than
    `str` converts; that input is refused, as one too large."""
    try:
        return format_triple(re, im, d)
    except ValueError as exc:
        raise _too_long(exc) from exc


def _too_long(exc: ValueError) -> SchemaError:
    return SchemaError("", f"output scalar too long to print: {exc}")


def _scalar_str(value) -> str:
    return _triple_str(*as_scalar(value).triple)


def _pointer(*segments) -> str:
    """The JSON pointer (RFC 6901) to the value reached through the given
    object keys and list indices: "~" is escaped as "~0" and "/" as "~1"."""
    return "".join("/" + str(s).replace("~", "~0").replace("/", "~1") for s in segments)


def _known_keys(doc: dict, keys, *at):
    """Refuse the first key of the object doc, found at the path `at`, that
    is not one of `keys`."""
    for key in doc:
        if key not in keys:
            raise SchemaError(_pointer(*at, key), f"unknown key; expected one of {', '.join(keys)}")


def _parse_type(doc) -> LieType:
    if not isinstance(doc, dict):
        raise SchemaError("", "expected an object")
    family = doc.get("type")
    if family not in ("A", "B", "C", "D", "G2"):
        raise SchemaError("/type", "expected one of A, B, C, D, G2")
    rank = doc.get("rank")
    if rank is None and family == "G2":
        rank = 2
    if type(rank) is not int:
        raise SchemaError("/rank", "expected an integer rank")
    if rank > MAX_RANK:
        raise SchemaError("/rank", f"expected a rank of at most {MAX_RANK}")
    try:
        return lie_type(family, rank)
    except ValueError as exc:
        raise SchemaError("/rank", str(exc)) from exc


def _parse_scalar_at(text, *at) -> GaussianRational:
    """The scalar string `text` found at the path `at`; the pointer is
    built only when the string is refused."""
    if not isinstance(text, str):
        raise SchemaError(_pointer(*at), "expected a scalar string")
    try:
        return parse_scalar(text)
    except ScalarParseError as exc:
        raise SchemaError(_pointer(*at), str(exc)) from exc


def _check_node_at(t: LieType, node, *at):
    """Refuse, at the path `at`, a node that is not an integer (a JSON
    boolean included) or that `t.check_node` refuses."""
    if type(node) is int and 1 <= node <= t.rank:
        return
    try:
        if type(node) is not int:
            raise ValueError(f"expected an integer node in 1..{t.rank}")
        t.check_node(node)
    except ValueError as exc:
        raise SchemaError(_pointer(*at), str(exc)) from exc


def parse_tuple_doc(doc) -> DrinfeldTuple:
    t = _parse_type(doc)
    _known_keys(doc, ("type", "rank", "polys"))
    polys = doc.get("polys")
    if not isinstance(polys, dict):
        raise SchemaError("/polys", "expected an object mapping nodes to root lists")
    rows = {}
    for key, roots in polys.items():
        try:
            node = int(key)
        except (TypeError, ValueError):
            node = None
        if node is None or key != str(node):
            raise SchemaError(_pointer("polys", key), "node keys must be decimal integers")
        _check_node_at(t, node, "polys", key)
        if not isinstance(roots, list):
            raise SchemaError(_pointer("polys", key), "expected a list of scalar strings")
        rows[node] = [
            _parse_scalar_at(root, "polys", key, i) for i, root in enumerate(roots)
        ]
    pi = DrinfeldTuple.from_dict(t, rows)
    if pi.total_degree == 0:
        raise SchemaError("/polys", "trivial module: at least one root is required")
    if pi.total_degree > MAX_FACTORS:
        raise SchemaError("/polys", f"expected at most {MAX_FACTORS} roots in all")
    return pi


def parse_chain_doc(doc) -> FactorChain:
    t = _parse_type(doc)
    _known_keys(doc, ("type", "rank", "factors"))
    factors = doc.get("factors")
    if not isinstance(factors, list) or not factors:
        raise SchemaError("/factors", "expected a nonempty list")
    if len(factors) > MAX_FACTORS:
        raise SchemaError("/factors", f"expected at most {MAX_FACTORS} factors")
    parsed = []
    for i, factor in enumerate(factors):
        if not isinstance(factor, dict):
            raise SchemaError(_pointer("factors", i), "expected an object")
        _known_keys(factor, ("node", "a"), "factors", i)
        node = factor.get("node")
        _check_node_at(t, node, "factors", i, "node")
        parsed.append((node, _parse_scalar_at(factor.get("a"), "factors", i, "a")))
    return FactorChain(t, tuple(parsed))


def parse_sl2_doc(doc):
    if not isinstance(doc, list) or not doc:
        raise SchemaError("", "expected a nonempty list of [m, a] pairs")
    spec = []
    for i, item in enumerate(doc):
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError(_pointer(i), "expected a [m, a] pair")
        m, a = item
        if type(m) is not int or m < 1:
            raise SchemaError(_pointer(i, 0), "expected a positive integer m")
        spec.append((m, _parse_scalar_at(a, i, 1)))
    return tuple(spec)


def tuple_to_doc(pi: DrinfeldTuple) -> dict:
    t = pi.lie_type
    polys = {
        str(node): [_scalar_str(r) for r in roots]
        for node, roots in enumerate(pi.roots, start=1)
        if roots
    }
    return {"type": t.family, "rank": t.rank, "polys": polys}


def chain_to_doc(chain: FactorChain) -> dict:
    t = chain.lie_type
    return {
        "type": t.family,
        "rank": t.rank,
        "factors": [
            {"node": node, "a": _scalar_str(a)} for node, a in chain.factors
        ],
    }


def _verdict_doc(verdict: Verdict) -> dict:
    return {
        "guaranteed": verdict.guaranteed,
        "exact": verdict.exact,
        "witnesses": [
            {"i": i, "j": j, "difference": _scalar_str(d)}
            for i, j, d in verdict.witnesses
        ],
    }


def _report(command: str, body: dict) -> dict:
    return {"version": __version__, "exact": True, "command": command, **body}


def _emit(report: dict, as_json: bool, lines):
    """Print the report as JSON, or else the human-mode lines that
    `lines()` builds; they are built only when printed.

    The JSON is the text `json.dumps(report, indent=2, sort_keys=True)`
    prints, written by `_write_json` into one list of pieces that is
    joined once, a `weyl` pair audit included.  With `indent` set, `json`
    encodes in pure Python: on the 500-root `weyl` reports of
    `MAX_FACTORS` it takes 0.53-0.94 s, against 0.03-0.05 s here."""
    if as_json:
        print(_json_text(report))
    else:
        for line in lines():
            print(line)


class _PairAudit(list):
    """A `weyl` pair audit: for i = 1 .. n-1, the list of the texts of
    a_j - a_i for j = i+1 .. n, written as a list of row objects under a
    top-level key of the report."""


# One `pair_audit` row as `json.dumps(indent=2, sort_keys=True)` prints it in
# a list under a top-level key of the report: the opening of the list and its
# first row, the difference, the text that names i (every row reads false, see
# `_pair_audit`), and the text that names j, which also holds the separator
# and the opening of the next row.
_AUDIT_OPEN = '[\n    {\n      "difference": '
_AUDIT_I = ',\n      "i": %d,\n      "in_criterion_set": false'
_AUDIT_NEXT = ',\n    {\n      "difference": '
_AUDIT_J = ',\n      "j": %d\n    }' + _AUDIT_NEXT


def _json_text(value) -> str:
    """The JSON text of `value`; its pieces are freed when this returns,
    before the text is printed."""
    out: list = []
    _write_json(value, out, "\n")
    return "".join(out)


def _write_json(value, out: list, nl: str):
    """Append to `out` the pieces of `value` as `json.dumps(indent=2,
    sort_keys=True)` prints it; `nl` is a newline and the indent of the
    line that holds `value`.  Strings go through the C string encoder that
    `json` uses.  Any type but str, int, bool, None, a dict with str keys,
    a list and a _PairAudit raises TypeError."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is bool:
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    elif not value and (kind is dict or kind is list or kind is _PairAudit):
        out.append("{}" if kind is dict else "[]")
    elif kind is dict:
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif kind is list:
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif kind is _PairAudit:
        # Each i's rows are joined in one call, so that no bytecode runs per
        # row.  The last row, (n-1, n), opens no next row.
        named_j = [_AUDIT_J % j for j in range(len(value) + 2)]
        out.append(_AUDIT_OPEN)
        for i, diffs in enumerate(value, 1):
            out.append("".join(iter_chain.from_iterable(zip(
                map(encode_basestring_ascii, diffs), repeat(_AUDIT_I % i), named_j[i + 1:]))))
        out[-1] = out[-1][:-len(_AUDIT_NEXT)] + "\n  ]"
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_info(args) -> int:
    t = _parse_type({"type": args.type, "rank": args.rank})
    datum = cartan_datum(t)
    nu = node_involution(t)
    dims = []
    for i in range(1, t.rank + 1):
        flagged = t.family == "G2" and i == 1
        dims.append(
            {
                "node": i,
                "lie_dim": lie_fundamental_dim(t, i),
                "yangian_dim": yangian_fundamental_dim(t, i),
                "provenance": "external" if flagged else "standard",
            }
        )
    body = {
        "lie_type": {"type": t.family, "rank": t.rank},
        "cartan": [list(row) for row in datum.cartan],
        "d": list(datum.d),
        "kappa": _scalar_str(duality_shift(t)),
        "longest_word": list(longest_word(t)),
        "involution": {str(i): nu[i - 1] for i in range(1, t.rank + 1)},
        "fundamental_dims": dims,
    }
    lines = lambda: [
        f"type {t}",
        "cartan matrix:",
        *("  " + " ".join(f"{e:3d}" for e in row) for row in datum.cartan),
        f"d = {list(datum.d)}",
        f"kappa = {body['kappa']}",
        f"longest word = {body['longest_word']}",
        f"involution = {body['involution']}",
        "fundamental modules (node: lie dim / yangian dim):",
        *(
            "  {node}: {lie_dim} / {yangian_dim}{flag}".format(
                flag=" (external)" if row["provenance"] == "external" else "", **row
            )
            for row in dims
        ),
    ]
    _emit(_report("info", body), args.json, lines)
    return 0


def _pair_audit(chain: FactorChain) -> _PairAudit:
    """The texts of a_j - a_i for every pair i < j of the chain, one list
    per i: the JSON contract lists every pair.  No join runs, and every row
    reads "in_criterion_set": false: `order_factors` orders the chain by
    descending real part, so Re(a_j - a_i) <= 0 for i < j, and every
    criterion value is a positive half-integer.  (`check` runs the join.)

    Each difference is taken over the denominator d = d_i * d_j and printed
    with its parts in lowest terms, so it needs no reduction of its own.
    The first pair over each d is formatted whole.  When d comes again, the
    text is the real part's text followed by the imaginary suffix ("" or
    "+...i" or "-...i"), each formatted once per (numerator, d): a chain
    whose denominators and numerators repeat has far fewer distinct parts
    than pairs, and one whose denominators never repeat makes no caches.
    A part too long to print is refused at the first row that holds it,
    the real part before the imaginary one, as when each whole difference
    is formatted."""
    triples = [a.triple for _, a in chain.factors]
    seen = set()  # each d met once so far
    texts = {}  # each d met again -> ({real numerator: text}, {imaginary numerator: suffix})
    audit = _PairAudit()
    try:
        for i, (r_i, m_i, d_i) in enumerate(triples[:-1], 1):
            row = []
            append = row.append
            for r_j, m_j, d_j in triples[i:]:
                d = d_i * d_j
                re = r_j * d_i - r_i * d_j
                im = m_j * d_i - m_i * d_j
                parts = texts.get(d)
                if parts is None:
                    if d not in seen:
                        seen.add(d)
                        append(format_triple(re, im, d))
                        continue
                    parts = texts[d] = ({}, {})
                reals, imags = parts
                re_text = reals.get(re)
                if re_text is None:
                    re_text = reals[re] = rational_text(re, d)
                im_text = imags.get(im)
                if im_text is None:
                    im_text = imags[im] = imaginary_suffix(im, d)
                append(re_text + im_text)
            audit.append(row)
    except ValueError as exc:  # a part with more digits than str() converts
        raise _too_long(exc) from exc
    return audit


def _root_multiset(pairs) -> list:
    """The (node, root) pairs as sorted (node, triple) pairs: equal lists
    hold the same roots at the same nodes, each as often."""
    return sorted((node, a.triple) for node, a in pairs)


def _cmd_weyl(args) -> int:
    pi = parse_tuple_doc(_load_doc(args.document))
    chain = order_factors(pi)
    audit = _pair_audit(chain)
    body = {
        "input": tuple_to_doc(pi),
        "chain": chain_to_doc(chain)["factors"],
        "dimension": weyl_module_dim(pi),
        "pair_audit": audit,
    }
    roots = ((node, r) for node, row in enumerate(pi.roots, 1) for r in row)
    if (_root_multiset(chain.factors) != _root_multiset(roots)
            or chain_dim(chain) != body["dimension"]):
        raise RuntimeError("ordered factorization does not reproduce the input module")
    lines = lambda: [
        f"ordered factorization over {chain.lie_type}:",
        *(f"  {k}: node {f['node']}, a = {f['a']}" for k, f in enumerate(body["chain"], 1)),
        f"dimension = {body['dimension']}",
        "pair audit (i < j, difference, in criterion set):",
        *(f"  ({i},{j}) diff {d} -> False"
          for i, row in enumerate(audit, 1) for j, d in enumerate(row, i + 1)),
    ]
    _emit(_report("weyl", body), args.json, lines)
    return 0


def _cmd_check(args) -> int:
    chain = parse_chain_doc(_load_doc(args.document))
    if args.mode == "cyclic":
        verdict = cyclicity_guaranteed(chain)
    else:
        verdict = irreducibility_guaranteed(chain)
    body = {"mode": args.mode, "chain": chain_to_doc(chain), "verdict": _verdict_doc(verdict)}
    lines = lambda: [
        f"{args.mode} guaranteed: {verdict.guaranteed} (exact={verdict.exact})",
        *(
            f"  witness ({w['i']},{w['j']}): difference {w['difference']}"
            for w in body["verdict"]["witnesses"]
        ),
    ]
    _emit(_report("check", body), args.json, lines)
    return 0


def _cmd_sl2(args) -> int:
    spec = parse_sl2_doc(_load_doc(args.document))
    if not 0 <= args.order <= MAX_SL2_ORDER:
        raise SchemaError("--order", f"expected an order in 0..{MAX_SL2_ORDER}")
    dim = math.prod(m + 1 for m, _ in spec)
    if dim > MAX_SL2_DIM:
        raise SchemaError("", f"module dimension {dim} exceeds {MAX_SL2_DIM}")
    body: dict = {"spec": [[m, _scalar_str(a)] for m, a in spec]}
    if args.verify == "closure":
        module = tensor_module(spec)
        dim = sum(lowering_levels(module))
        body.update(dimension=module.dim, closure_dimension=dim, highest_weight=dim == module.dim)
        lines = lambda: [
            f"dimension {module.dim}, closure from the top vector {dim}",
            f"highest weight: {body['highest_weight']}",
        ]
    elif args.verify == "series":
        order = args.order
        ok, series = _series_check(spec, order)
        body.update(order=order, matches=ok, series=[_scalar_str(c) for c in series.coeffs])
        lines = lambda: [
            f"eigenvalue series to order {order}: " + ", ".join(body["series"]),
            f"matrix action matches: {ok}",
        ]
    else:  # identities
        module = tensor_module(spec)
        failures = defining_relation_failures(module, K=2)
        body.update(relations_hold=not failures, failures=failures)
        lines = lambda: [
            f"defining relations hold: {not failures}",
            *(f"  failed: {name}" for name in failures),
        ]
    _emit(_report("sl2", body), args.json, lines)
    return 0


def _cmd_ssets(args) -> int:
    t = _parse_type({"type": args.type, "rank": args.rank})
    table = {
        f"{b_m},{b_n}": [format_triple(s2, 0, 2) for s2 in doubled]
        for b_m in range(1, t.rank + 1)
        for b_n, doubled in enumerate(_doubled_sets(t, b_m), 1)
    }
    body = {"lie_type": {"type": t.family, "rank": t.rank}, "sets": table}
    lines = lambda: [
        f"criterion sets for {t}:",
        *(f"  S({pair}) = {{{', '.join(values)}}}" for pair, values in table.items()),
    ]
    _emit(_report("ssets", body), args.json, lines)
    return 0


def _load_doc(text: str):
    if text == "-":
        text = sys.stdin.read()
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except SchemaError:
        raise
    except ValueError as exc:  # malformed, or an integer with too many digits
        raise SchemaError("", f"invalid JSON: {exc}") from exc


def _unique_keys(pairs) -> dict:
    """A JSON object, refused if a key repeats: json.loads would keep only
    the last value.  The pairs are walked only when a key repeats, to name
    the first one."""
    doc = dict(pairs)
    if len(doc) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError("", f"repeated object key {key!r}")
            seen.add(key)
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yangian-weyl",
        description=(
            "Exact computations with local Weyl modules of Yangians: "
            "ordered factorizations, cyclicity criteria, and a rank-one "
            "brute-force oracle."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="Cartan data, longest word, dimensions")
    p_info.add_argument("--type", required=True, choices=["A", "B", "C", "D", "G2"])
    p_info.add_argument("--rank", type=int, default=None)
    p_info.add_argument("--json", action="store_true")
    p_info.set_defaults(func=_cmd_info)

    p_weyl = sub.add_parser(
        "weyl", help="ordered tensor factorization of a local Weyl module"
    )
    p_weyl.add_argument("document", help="Drinfeld tuple JSON (or - for stdin)")
    p_weyl.add_argument("--json", action="store_true")
    p_weyl.set_defaults(func=_cmd_weyl)

    p_check = sub.add_parser("check", help="cyclicity/irreducibility verdicts")
    p_check.add_argument("document", help="factor chain JSON (or - for stdin)")
    p_check.add_argument(
        "--mode", choices=["cyclic", "irreducible"], default="cyclic"
    )
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    p_sl2 = sub.add_parser("sl2", help="rank-one brute-force oracles")
    p_sl2.add_argument("document", help="[[m, a], ...] JSON (or - for stdin)")
    p_sl2.add_argument(
        "--verify", choices=["series", "closure", "identities"], default="closure"
    )
    p_sl2.add_argument("--order", type=int, default=3)
    p_sl2.add_argument("--json", action="store_true")
    p_sl2.set_defaults(func=_cmd_sl2)

    p_ssets = sub.add_parser("ssets", help="dump all criterion sets for a type")
    p_ssets.add_argument("--type", required=True, choices=["A", "B", "C", "D", "G2"])
    p_ssets.add_argument("--rank", type=int, default=None)
    p_ssets.add_argument("--json", action="store_true")
    p_ssets.set_defaults(func=_cmd_ssets)
    return parser


# One parser per process: parse_args fills a fresh namespace on every call.
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error at {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
