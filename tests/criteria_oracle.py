"""The package's former criterion sets, kept as the oracle for the new ones.

`closed_form_set` returns the criterion set S(b_m, b_n) exactly as
`yangian_weyl.criteria.criterion_set` did before it came to read every set
off the parameter ledger: one closed form per classical family, transcribed
per case, and a table for G2.  `tests/test_criteria.py`, `tests/test_cli.py`
and acceptance criterion 7 check the package against it.
"""

from __future__ import annotations

from fractions import Fraction


def _set_a(l: int, b_m: int, b_n: int):
    lo = 1 if b_m <= b_n else b_m - b_n + 1
    hi = min(b_m, l - b_n + 1)
    return {Fraction(b_n - b_m, 2) + k for k in range(lo, hi + 1)}


def _set_d(l: int, b_m: int, b_n: int):
    parity = l % 2  # 0 for even rank, 1 for odd
    spin = {l - 1, l}
    if b_m in spin and b_n in spin:
        if b_m == b_n:
            top = l - 1 - parity
        else:
            top = l - 2 + parity
        start = 1 if b_m == b_n else 2
        return {Fraction(v) for v in range(start, top + 1, 2)}
    if b_m in spin or b_n in spin:
        other = b_n if b_m in spin else b_m
        return {Fraction(l - 1 - other, 2) + 1 + r for r in range(other)}
    out = set()
    for r in range(min(b_m, b_n)):
        out.add(Fraction(abs(b_m - b_n), 2) + 1 + r)
        out.add(Fraction(l + r) - Fraction(b_m + b_n, 2))
    return out


def _set_c(l: int, b_m: int, b_n: int):
    if b_m == l and b_n == l:
        return {Fraction(v) for v in range(2, l + 2)}
    if b_m == l:
        out = set()
        for r in range(b_n):
            out.add(Fraction(l - b_n + 1, 2) + 1 + r)
            out.add(Fraction(l - b_n - 1, 2) + 1 + r)
        return out
    if b_n == l:
        return {Fraction(l - b_m + 1, 2) + 2 + r for r in range(b_m)}
    out = set()
    for r in range(min(b_m, b_n)):
        out.add(Fraction(abs(b_m - b_n), 2) + 1 + r)
        out.add(Fraction(l + 2 + r) - Fraction(b_m + b_n, 2))
    return out


def _set_b(l: int, b_m: int, b_n: int):
    if b_m == l and b_n == l:
        return {Fraction(v) for v in range(1, 2 * l, 2)}
    if b_m == l:
        return {Fraction(l - b_n + 2 + 2 * r) for r in range(b_n)}
    if b_n == l:
        # Both polynomial roots of each spin-node chain step obstruct, and
        # consecutive blocks sit two apart, so the range runs to l + b_m - 1;
        # the shorter variant disagrees with the ledger.
        out = set()
        for r in range(b_m):
            out.add(Fraction(l - b_m + 2 * r))
            out.add(Fraction(l - b_m + 1 + 2 * r))
        return out
    out = set()
    for r in range(min(b_m, b_n)):
        out.add(Fraction(abs(b_m - b_n) + 2 + 2 * r))
        out.add(Fraction(2 * l - (b_m + b_n) + 1 + 2 * r))
    return out


_G2_SETS = {
    (1, 1): (3, 4, 5, 6),
    (1, 2): (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(7, 2), Fraction(9, 2)),
    (2, 1): (Fraction(9, 2), Fraction(13, 2)),
    (2, 2): (1, 3, 4, 6),
}

_FAMILIES = {"A": _set_a, "B": _set_b, "C": _set_c, "D": _set_d}


def closed_form_set(t, b_m: int, b_n: int) -> frozenset:
    """The closed-form criterion set S(b_m, b_n) of the type t."""
    t.check_node(b_m)
    t.check_node(b_n)
    if t.family == "G2":
        return frozenset(Fraction(v) for v in _G2_SETS[(b_m, b_n)])
    return frozenset(_FAMILIES[t.family](t.rank, b_m, b_n))
