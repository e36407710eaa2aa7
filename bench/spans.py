"""Spans and counts recorded from outside the package.

The tracer replaces public functions with wrappers, each under the name
its caller looks it up by (`ysl2` imports `kron` and `row_space_closure`
by name, so those are patched in `ysl2`'s namespace), and restores them
afterwards.  A span records its name, start, end, parent span and op id;
spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# (span name, [(module, attribute), ...]): the call sites to wrap.
SPANS = (
    ("cli.main", [("cli", "main")]),
    ("ysl2.tensor_module", [("cli", "tensor_module"), ("ysl2", "tensor_module")]),
    ("exact.kron", [("ysl2", "kron")]),
    ("exact.row_space_closure", [("ysl2", "row_space_closure")]),
    ("exact.Matrix.matmul", [("exact.Matrix", "__matmul__")]),
    ("ysl2.extend_generators", [("ysl2", "extend_generators")]),
    ("ysl2.defining_relation_failures", [("cli", "defining_relation_failures")]),
    ("ysl2.verify_drinfeld_series", [("ysl2", "verify_drinfeld_series")]),
    ("drinfeld.series_to_roots", [("drinfeld", "series_to_roots")]),
    ("exact.solve_linear", [("drinfeld", "solve_linear")]),
    ("drinfeld.eigenvalue_series", [("drinfeld", "eigenvalue_series")]),
    ("criteria.cyclicity_guaranteed",
     [("cli", "cyclicity_guaranteed"), ("criteria", "cyclicity_guaranteed")]),
    ("criteria.irreducibility_guaranteed", [("cli", "irreducibility_guaranteed")]),
    ("criteria.dual_chain", [("criteria", "dual_chain")]),
    ("drinfeld.order_factors", [("cli", "order_factors")]),
    ("dims", [("cli", "weyl_module_dim"), ("cli", "chain_dim")]),
)

# (count name, [(module, attribute), ...]): calls counted, not timed, so
# their time stays in the enclosing span.
COUNTS = (
    ("exact.Matrix.matvec.calls", [("exact.Matrix", "matvec")]),
    ("exact.Series.mul.calls", [("exact.Series", "__mul__")]),
    ("criteria.criterion_set.calls", [("cli", "criterion_set"), ("criteria", "criterion_set")]),
    ("exact.scalars_created", [("exact.GaussianRational", "__init__")]),
)

CALL_COUNTS = {"exact.Matrix.matmul": "exact.Matrix.matmul.calls"}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, op id)
        self.counts: Counter = Counter()  # (op id, count name) -> calls
        self.op_id = -1
        self._stack: list = []
        self._saved: list = []

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = CALL_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if calls:
                counts[self.op_id, calls] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[self.op_id, name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules: dict):
        """Patch every call site; `modules` maps short names to modules."""
        for table, wrap in ((SPANS, self._span), (COUNTS, self._count)):
            for name, sites in table:
                for where, attr in sites:
                    owner = _resolve(modules, where)
                    original = owner.__dict__[attr]
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_ms(self):
        """{(op id, span name): self time in ms}: each span's duration
        minus the durations of its direct children."""
        child = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            out[op, name] += (end - start - child[index]) * 1e3
        return out

    def dump(self):
        return [list(span) for span in self.spans]


def _resolve(modules: dict, where: str):
    head, _, tail = where.partition(".")
    owner = modules[head]
    return getattr(owner, tail) if tail else owner


def layer_names():
    """Every per-layer metric the traced run reports."""
    spans = [f"{name}.self_ms" for name, _ in SPANS]
    counts = [name for name, _ in COUNTS] + list(CALL_COUNTS.values())
    return spans + counts + ["trace.overhead_ms"]
