"""The `weyl` pair audit as the package built it before it cached part
texts and dropped the criterion join, kept as the oracle for
`cli._pair_audit`.

Every difference a_j - a_i is formed as a whole triple over d_i * d_j and
formatted on its own, and a row is a hit when its (i, j) pair is among the
criterion hits of the chain.  `tests/test_cli.py` checks the package's
audit, and the `weyl --json` rows, against it, and checks that the join
finds no pair on the ordered chains that `weyl` prints.
"""

from __future__ import annotations

from itertools import combinations

from yangian_weyl.cli import _triple_str
from yangian_weyl.criteria import criterion_hits


def pair_audit(chain) -> list:
    """The rows (i, j, a_j - a_i as printed, in criterion set) of every
    pair i < j of the chain, in (i, j) order."""
    hits = {(i, j) for i, j, _ in criterion_hits(chain)}
    return [
        (i, j, _triple_str(r_j * d_i - r_i * d_j, m_j * d_i - m_i * d_j, d_i * d_j),
         (i, j) in hits)
        for (i, (r_i, m_i, d_i)), (j, (r_j, m_j, d_j)) in combinations(
            enumerate((a.triple for _, a in chain.factors), 1), 2
        )
    ]
