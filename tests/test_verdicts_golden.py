"""The `verdicts-golden` corpus of the replay digest, one type at a time.

Its recipe, `golden_chains`, lives in tests/test_replay.py with every other
corpus: 48 seeded factor chains, eight per type A1, A4, B3, C3, D5 and G2,
with 1-40 factors each, under `weyl` (on the chain's Drinfeld tuple),
`check --mode cyclic` and `check --mode irreducible`, each in JSON and in
human mode.  Parameters are integers, halves, thirds and Gaussian
rationals; most chains sit on half-integer shifts of one base, so many have
criterion witnesses.  Any change to the scalar layer, the criteria or the
report builders must leave every output unchanged.  Its rows are rewritten
with the rest of the digest:

    PYTHONPATH=src python tests/test_replay.py --write
"""

from __future__ import annotations

import json

import pytest

from test_replay import TYPES, _cli, _verdict_argv, check_golden_rows, check_replay, golden_chains

KEY = "verdicts-golden"


def test_corpus_matches_its_recipe():
    check_golden_rows(KEY, 6 * 48)
    chains = golden_chains()
    assert all(1 <= len(factors) <= 40 for _, _, factors in chains)
    assert max(len(factors) for _, _, factors in chains) >= 35
    assert sum(any("i" in a for _, a in factors) for _, _, factors in chains) >= 12
    assert sum(any("/2" in a for _, a in factors) for _, _, factors in chains) >= 12
    reports = [json.loads(_cli(_verdict_argv("irreducible", chain, True))[1]) for chain in chains]
    witnessed = [len(report["verdict"]["witnesses"]) > 0 for report in reports]
    assert sum(witnessed) >= 12 and not all(witnessed)


@pytest.mark.parametrize("family,rank", TYPES)
def test_verdict_reports_replay_byte_for_byte(family, rank):
    def select(op):
        doc = json.loads(op.argv[1])
        return (doc["type"], doc["rank"]) == (family, rank)

    check_replay(KEY, select)
