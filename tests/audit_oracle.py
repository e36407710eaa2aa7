"""The `weyl` pair audit formed pair by pair on the other test oracles,
with no formatter and no criterion join of the package: the oracle for
`cli._pair_audit`.

Every difference a_j - a_i is formed as a `pair_oracle.PairRational` and
formatted on its own, and a row is a hit when the difference lies in the
closed-form criterion set S(b_i, b_j) of `criteria_oracle`.
`tests/test_cli.py` checks the package's audit, and the `weyl --json`
rows, against it, and checks that the join finds no pair on the ordered
chains that `weyl` prints.
"""

from __future__ import annotations

from itertools import combinations

from criteria_oracle import closed_form_set
from pair_oracle import PairRational, format_scalar


def pair_audit(chain) -> list:
    """The rows (i, j, a_j - a_i as printed, in criterion set) of every
    pair i < j of the chain, in (i, j) order."""
    t = chain.lie_type
    factors = [(b, PairRational(a.re, a.im)) for b, a in chain.factors]
    rows = []
    for (i, (b_i, a_i)), (j, (b_j, a_j)) in combinations(enumerate(factors, 1), 2):
        diff = a_j - a_i
        hit = not diff.im and diff.re in closed_form_set(t, b_i, b_j)
        rows.append((i, j, format_scalar(diff), hit))
    return rows
