"""Every call site the benchmark tracer patches still exists.

`bench/spans.py` wraps package functions by looking each one up in its
owner's `__dict__`; a site renamed or removed by a refactor would make
`bench/run.py --trace 1` fail on every workload.
"""

from __future__ import annotations

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_sites_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    missing = []
    for _, sites in spans.SPANS + spans.COUNTS:
        for where, attr in sites:
            head, _, tail = where.partition(".")
            owner = importlib.import_module(f"yangian_weyl.{head}")
            if tail:
                owner = getattr(owner, tail)
            if attr not in owner.__dict__:
                missing.append(f"{where}.{attr}")
    assert not missing
