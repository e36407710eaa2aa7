"""Command-line surface: info, weyl, check, sl2, ssets.

JSON documents are the stable contract; every machine report carries the
package version and an "exact": true flag.  Schema violations are reported
with a JSON-pointer path and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import add, mul, sub

from . import __version__
from .criteria import (
    Verdict,
    _doubled_sets,
    criterion_set,  # unused here; bench/spans.py counts calls through this name
    cyclicity_guaranteed,
    irreducibility_guaranteed,
)
from .dims import (
    chain_dim,  # unused here; bench/spans.py wraps this name
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
    FAMILIES,
    LieType,
    all_nodes,
    cartan_datum,
    duality_shift,
    lie_type,
    longest_word,
    node_involution,
)
from .ysl2 import _series_check, defining_relation_failures, lowering_levels, tensor_module

# Largest product dimension prod(m + 1) that `sl2` builds.  On eight
# two-dimensional factors with parameters 0, 7/2, -5/3, 2, 1/7, -9/4, 5, 11/5
# (dimension 256; in-process `main` calls, Python 3.11.7, one shared Xeon
# core; cold is the first call in a fresh process, with `ysl2._shape`
# empty, warm a repeated one) closure takes about 0.07 s cold and
# 0.03-0.04 s warm, identities 0.18-0.20 s, and series 0.005-0.008 s cold
# and 0.002-0.004 s warm at order 5 or 32; on the first seven, closure
# 0.014 s cold and 0.006-0.007 s warm, identities 0.04-0.07 s.  Identities
# sets the bound: with a ninth factor, -7/2, its relation suite takes
# 0.65-0.71 s, of which the ladder is 0.11-0.13 s.
MAX_SL2_DIM = 256
# Largest rank `info`, `ssets`, `weyl` and `check` accept.  The per-type
# tables grow with the rank l (`_tridiagonal` allocates an l x l list, the
# node involution of `info` and of the criterion-set check runs every
# fundamental weight through the longest word, O(l^2) letters, and `ssets`
# derives the ledger of every node), so `ssets` sets the bound.  At rank 64,
# with the per-type caches empty, `ssets --json` takes 0.25 s on A64 and
# 0.7 s on B64, C64 and D64, against 0.03-0.08 s at rank 32 and 0.35-1.4 s
# at rank 80; `info`, and `check` in either mode on two factors that share
# a bucket of the join (so that it reads their sets), take at most 0.04 s
# at rank 64 (in-process `main` calls; Python 3.11, one shared Xeon core).
# The demos and the benchmark use rank 12 at most; the tests reach rank 64.
MAX_RANK = 64
# Largest `sl2 --order`: the series check applies h_0 and h_1 to a vector of
# the second weight space up to `order` times, then runs the x_k^+ ladder as
# about order^2 / 2 products of Gaussian integers; at order 32 it takes
# 0.005-0.008 s cold on the eight factors above.  32 is over six times the order the benchmark uses (5).
MAX_SL2_ORDER = 32
# Largest total degree `weyl` accepts and longest chain `check` accepts.
# `weyl` prints a JSON row for every pair of factors, so it sets the bound:
# at 500 roots on A4 and D5 (acceptance criterion 17), in sixths, it takes
# 0.04-0.05 s (13.7 MB of JSON), of which forming the 124,750 differences
# over the common denominator 6 takes 0.02-0.03 s and writing the audit's
# JSON 0.014-0.017 s; with pairwise-distinct six-digit denominators, where
# each pair is formed over its own denominator, 0.2-0.3 s, and with
# 20-digit ones (criterion 24) 0.4-0.5 s (in-process `main` calls, Python
# 3.11.7, two shared Xeon cores).  Both grow as the square of the degree.
# `check` finds its witnesses by a hash join and takes 0.01-0.13 s at 500
# factors (Python 3.11, one shared Xeon core).
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
    if family not in FAMILIES:
        raise SchemaError("/type", f"expected one of {', '.join(FAMILIES)}")
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
    """Refuse, at the path `at`, a node that `t.check_node` refuses."""
    try:
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
    joined once, a `weyl` pair audit included: four pieces per pair, the
    row's real part, its imaginary suffix and the texts that name i and j,
    so no string is built per pair.  With `indent` set, `json` encodes in
    pure Python: on the 500-root `weyl` reports of criterion 17 it takes
    0.55-1.06 s, against 0.01-0.04 s here.  Nothing is printed before the
    report is whole, so a `weyl` audit refused for a part too long to
    print leaves stdout empty."""
    if as_json:
        print(_json_text(report))
    else:
        for line in lines():
            print(line)


class _PairAudit(list):
    """A `weyl` pair audit: for i = 1 .. n-1, the pair (real texts,
    imaginary suffixes) of the differences a_j - a_i for j = i+1 .. n, two
    lists of n - i strings whose sums are the printed differences (see
    `_pair_audit`).  Written as a list of row objects under a top-level
    key of the report."""


# One `pair_audit` row as `json.dumps(indent=2, sort_keys=True)` prints it in
# a list under a top-level key of the report: the opening of the list and its
# first row up to the difference's opening quote, the difference, the text
# from its closing quote to j (every row reads false, see `_pair_audit`), and
# the text that names j, which also holds the separator and the opening of
# the next row.
_AUDIT_OPEN = '[\n    {\n      "difference": "'
_AUDIT_I = '",\n      "i": %d,\n      "in_criterion_set": false,\n      "j": '
_AUDIT_NEXT = ',\n    {\n      "difference": "'
_AUDIT_J = '%d\n    }' + _AUDIT_NEXT


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
    `json` uses, except the part texts of a _PairAudit: they hold only
    digits, "/", "+", "-" and "i", which the encoder would only quote, so
    the row templates carry the quotes, and a row's difference is its real
    text followed by its imaginary suffix.  Any type but str, int, bool, None,
    a dict with str keys, a list and a _PairAudit raises TypeError."""
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
        # Each i's rows are laid out by slice assignment, so that no
        # bytecode runs per row: the real part, the imaginary suffix, the
        # text that names i and the text that names j, which opens the next
        # row.  The last row, (n-1, n), opens no next row.
        named_j = [_AUDIT_J % j for j in range(len(value) + 2)]
        out.append(_AUDIT_OPEN)
        for i, (reals, imags) in enumerate(value, 1):
            row = [_AUDIT_I % i] * (4 * len(reals))
            row[::4] = reals
            row[1::4] = imags
            row[3::4] = named_j[i + 1:]
            out += row
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
    for i in all_nodes(t):
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
        "involution": {str(i): nu[i - 1] for i in all_nodes(t)},
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
    """The texts of a_j - a_i for every pair i < j of the chain, one row
    per i, each the pair (real texts, imaginary suffixes) over j = i+1 .. n:
    the JSON contract lists every pair.  No join runs, and every row
    reads "in_criterion_set": false: `order_factors` orders the chain by
    descending real part, so Re(a_j - a_i) <= 0 for i < j, and every
    criterion value is a positive half-integer.  (`check` runs the join.)

    Each part is printed in lowest terms, so any common denominator gives
    the same text.  When the least common multiple L of the denominators
    is no longer than the longest pair denominator d_i * d_j could be (in
    bits, twice the longest d_i), every parameter is brought over L and a
    row is two C-level maps over the numerator differences, each text
    formed once per distinct numerator.  Otherwise, as on pairwise coprime
    large denominators, where L would grow with the chain, each pair is
    formatted over d_i * d_j.  A part too long to print is refused at the
    first pair that holds it, the real part before the imaginary one: the
    pairwise form runs in that order, and it runs again when the common
    form meets such a part."""
    triples = [a.triple for _, a in chain.factors]
    dens = [d for _, _, d in triples]
    common = math.lcm(*dens)
    if common.bit_length() <= 2 * max(dens).bit_length():
        try:
            return _common_audit(triples, common)
        except ValueError:  # a part with more digits than str() converts
            pass
    try:
        return _pairwise_audit(triples)
    except ValueError as exc:
        raise _too_long(exc) from exc


class _Texts(dict):
    """Numerator n -> form(n, d), formed on the first lookup of n."""

    __slots__ = ("form", "d")

    def __init__(self, form, d: int):
        self.form = form
        self.d = d

    def __missing__(self, n: int) -> str:
        text = self[n] = self.form(n, self.d)
        return text


def _common_audit(triples, common: int) -> _PairAudit:
    """The audit over the common denominator `common` of every parameter."""
    scale = [common // d for _, _, d in triples]
    reals = list(map(mul, [r for r, _, _ in triples], scale))
    imags = list(map(mul, [m for _, m, _ in triples], scale))
    real = _Texts(rational_text, common).__getitem__
    imag = _Texts(imaginary_suffix, common).__getitem__
    return _PairAudit(
        (list(map(real, map(sub, reals[i:], repeat(reals[i - 1])))),
         list(map(imag, map(sub, imags[i:], repeat(imags[i - 1])))))
        for i in range(1, len(triples))
    )


def _pairwise_audit(triples) -> _PairAudit:
    """The audit with each pair over its own denominator d_i * d_j."""
    audit = _PairAudit()
    for i, (r_i, m_i, d_i) in enumerate(triples[:-1], 1):
        parts = [
            text
            for r_j, m_j, d_j in triples[i:]
            for d in (d_i * d_j,)
            for text in (rational_text(r_j * d_i - r_i * d_j, d),
                         imaginary_suffix(m_j * d_i - m_i * d_j, d))
        ]
        audit.append((parts[::2], parts[1::2]))
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
    if _root_multiset(chain.factors) != _root_multiset(roots):
        raise RuntimeError("ordered factorization does not reproduce the input module")
    lines = lambda: [
        f"ordered factorization over {chain.lie_type}:",
        *(f"  {k}: node {f['node']}, a = {f['a']}" for k, f in enumerate(body["chain"], 1)),
        f"dimension = {body['dimension']}",
        "pair audit (i < j, difference, in criterion set):",
        *(f"  ({i},{j}) diff {d} -> False"
          for i, (reals, imags) in enumerate(audit, 1)
          for j, d in enumerate(map(add, reals, imags), i + 1)),
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
        for b_m in all_nodes(t)
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


# The command-line grammar, each option written once: `build_parser` builds
# argparse's parser from it and `_table_parse` reads argv with it.  Per
# command: its handler, its help, the help of its one positional `document`
# (None when it takes none) and its options.  An option is (flag, kind,
# default, required), where kind is a tuple of choices, `int` for an integer
# or `bool` for a switch; its attribute is the flag without its "--".
_JSON = ("--json", bool, False, False)
_TYPE_OPTIONS = (("--type", FAMILIES, None, True), ("--rank", int, None, False), _JSON)
_COMMANDS = {
    "info": (_cmd_info, "Cartan data, longest word, dimensions", None, _TYPE_OPTIONS),
    "weyl": (
        _cmd_weyl,
        "ordered tensor factorization of a local Weyl module",
        "Drinfeld tuple JSON (or - for stdin)",
        (_JSON,),
    ),
    "check": (
        _cmd_check,
        "cyclicity/irreducibility verdicts",
        "factor chain JSON (or - for stdin)",
        (("--mode", ("cyclic", "irreducible"), "cyclic", False), _JSON),
    ),
    "sl2": (
        _cmd_sl2,
        "rank-one brute-force oracles",
        "[[m, a], ...] JSON (or - for stdin)",
        (
            ("--verify", ("series", "closure", "identities"), "closure", False),
            ("--order", int, 3, False),
            _JSON,
        ),
    ),
    "ssets": (_cmd_ssets, "dump all criterion sets for a type", None, _TYPE_OPTIONS),
}


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
    for name, (func, help_text, document, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        if document is not None:
            command.add_argument("document", help=document)
        for flag, kind, default, required in options:
            if kind is bool:
                how = {"action": "store_true"}
            elif kind is int:
                how = {"type": int}
            else:
                how = {"choices": kind}
            command.add_argument(flag, default=default, required=required, **how)
        command.set_defaults(func=func)
    return parser


# argparse's parser, built once per process when an argv first needs it;
# parse_args fills a fresh namespace on every call.
_parser = cache(build_parser)


def _table_parse(argv):
    """The namespace `_parser().parse_args(argv)` returns, read from the
    table in a few microseconds, or None.  Every token after the command
    name must be an exact long option of that command, with a valid choice
    or a plain ASCII-digit integer as its next token, or `--json`, or the
    command's one positional, which does not start with "-".  Anything else
    (help, abbreviations, "=" forms, "--", "-" as the document, a usage
    error) is None, and argparse, which alone prints help and usage errors,
    parses it."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    func, _, document, options = command
    # Every option but a required one starts at its default.
    values = {"command": argv[0], "func": func}
    kinds = {}
    for flag, kind, default, required in options:
        kinds[flag] = kind
        if not required:
            values[flag[2:]] = default
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            if document is None or "document" in values:
                return None
            values["document"] = token
            continue
        kind = kinds.get(token)
        if kind is None:
            return None
        dest = token[2:]
        if kind is bool:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None:
            return None
        if kind is int:
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # more digits than Python converts
                return None
        elif value not in kind:
            return None
        values[dest] = value
    if document is not None and "document" not in values:
        return None
    if any(flag[2:] not in values for flag, _, _, _ in options):  # a required option unset
        return None
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _table_parse(argv)
    if args is None:
        args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error at {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early.  What is left in the buffer goes
        # to os.devnull, so that the flush at exit raises nothing more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
