"""The `sl2-golden` corpus of the replay digest, one verify mode at a time.

Its recipe, `golden_specs`, lives in tests/test_replay.py with every other
corpus: 36 seeded products (1-4 factors, m <= 3, dimension <= 64, half of
them with Gaussian parameters) under `sl2 --json` in closure, identities
and `series --order 5` modes.  Any change to the exact kernels must leave
every report unchanged.  Its rows are rewritten with the rest of the digest:

    PYTHONPATH=src python tests/test_replay.py --write
"""

from __future__ import annotations

import pytest

from test_replay import MODES, check_golden_rows, check_replay, golden_specs

KEY = "sl2-golden"


def test_corpus_matches_its_recipe():
    check_golden_rows(KEY, 3 * 36)
    assert sum(any("i" in a for _, a in spec) for spec in golden_specs()) == 18


@pytest.mark.parametrize("mode", sorted(MODES))
def test_sl2_reports_replay_byte_for_byte(mode):
    check_replay(KEY, lambda op: op.argv[3] == mode)
