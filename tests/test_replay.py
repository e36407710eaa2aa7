"""Replay one round of every benchmark workload and compare its outputs
with a stored digest.

The ops are those of `bench/workloads.py`: one round per seed 1-3 of
`spin`, `relations`, `roots` and `verdicts`, on the "timed" stream that
`bench/run.py` times.  Each runs in process.  A CLI op goes through
`cli.main` with stdout and stderr captured and `SystemExit` read as its
status; a `roots` op goes through `series_to_roots` on the series that
`bench/run.py` hands over, and records the sorted `repr`s of the roots or
the exception's type and text.

tests/data/replay_digest.json stores per op a short SHA-256 of its input
and of each of status, stdout and stderr, so a changed generator reads as
a changed input and a changed output names its stream.  Rewrite it, from
the repository root, only when the output is meant to change:

    PYTHONPATH=src python tests/test_replay.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from yangian_weyl.cli import main
from yangian_weyl.drinfeld import series_to_roots
from yangian_weyl.exact import GaussianRational, Series

ROOT = Path(__file__).resolve().parent.parent
DIGEST = Path(__file__).resolve().parent / "data" / "replay_digest.json"
SEEDS = (1, 2, 3)
STREAMS = ("input", "status", "stdout", "stderr")
SHOWN = 5  # mismatching ops named in a failure


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def _short(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _run(workloads, op):
    """(status, stdout, stderr) texts of one op."""
    if op.kind == "roots":
        degree, d = op.argv
        series = Series([GaussianRational(re, im) for re, im in workloads.roots_series(op)])
        try:
            roots = series_to_roots(series, degree, d)
        except Exception as exc:  # a refusal is an output too
            return "raised", "", f"{type(exc).__name__}: {exc}"
        return "0", repr(sorted(repr(r) for r in roots)), ""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(list(op.argv))
        except SystemExit as exc:
            status = exc.code
    return str(status), out.getvalue(), err.getvalue()


def replay():
    """{workload/seed: [[hash per stream] per op]} and the ops, by key."""
    workloads = _workloads()
    digest, ops = {}, {}
    for workload in sorted(workloads.GENERATORS):
        for seed in SEEDS:
            key = f"{workload}/{seed}"
            ops[key] = workloads.generate(workload, seed, 1)
            digest[key] = [
                [_short(repr((op.kind, op.argv, op.data))), *map(_short, _run(workloads, op))]
                for op in ops[key]
            ]
    return digest, ops


def _mismatches(stored, digest, ops) -> list:
    lines = []
    for key in sorted(stored.keys() | digest.keys()):
        old, new = stored.get(key, []), digest.get(key, [])
        if len(old) != len(new):
            lines.append(f"{key}: {len(old)} ops stored, {len(new)} replayed")
        for index, (was, now) in enumerate(zip(old, new)):
            if was != now:
                changed = [s for s, a, b in zip(STREAMS, was, now) if a != b]
                shown = repr(ops[key][index].argv + ops[key][index].data)[:100]
                lines.append(f"{key} op {index} {shown}: {', '.join(changed)} changed")
    return lines


def test_replay_digest_is_unchanged():
    digest, ops = replay()
    stored = json.loads(DIGEST.read_text())
    lines = _mismatches(stored, digest, ops)
    assert not lines, f"{len(lines)} ops differ; first:\n" + "\n".join(lines[:SHOWN])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_replay.py --write")
    digest, _ = replay()
    # One op to a line, so that a rewrite shows in a diff op by op.
    blocks = [
        f"  {json.dumps(key)}: [\n" + ",\n".join(f"    {json.dumps(row)}" for row in rows) + "\n  ]"
        for key, rows in digest.items()
    ]
    DIGEST.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
