"""The package's record types against their `@dataclass(frozen=True)` twins.

Each of the 12 record types was declared with `@dataclass(frozen=True)`
before `yangian_weyl.record.record` replaced it.  A twin here is that old
declaration: the same class body (fields, `__post_init__`, methods) under
the old decorator, so the two can only differ by their decorator.  Every
test builds both from the same arguments and requires the same outcome;
for a call that does not match the fields, a `TypeError` from each.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from yangian_weyl import criteria, drinfeld, rootsys, weylpath, ysl2
from yangian_weyl.exact import GaussianRational as G

SRC = Path(__file__).resolve().parent.parent / "src"

RECORDS = (
    rootsys.LieType,
    rootsys.CartanDatum,
    weylpath.ChainStep,
    weylpath.SigmaChain,
    weylpath.LedgerEntry,
    weylpath.Ledger,
    criteria.CriterionSet,
    criteria.Verdict,
    drinfeld.DrinfeldTuple,
    drinfeld.FactorChain,
    ysl2.SL2Module,
    ysl2.GeneratorLadder,
)

# What `record` adds to a class body, and what `type` adds to any class.
_ADDED = {
    "__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__",
    "__match_args__", "__dict__", "__weakref__",
}


def _twin(cls):
    body = {k: v for k, v in vars(cls).items() if k not in _ADDED}
    return dataclass(frozen=True)(type(cls.__name__, (), body))


TWINS = {cls: _twin(cls) for cls in RECORDS}


def _examples():
    """A few real instances of every record type, by type."""
    types = [rootsys.lie_type(*ft) for ft in (("A", 1), ("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G2", 2))]
    chains = [
        drinfeld.FactorChain(types[1], ((1, G(0)), (2, G(Fraction(3, 2))), (3, G(1, -2)))),
        drinfeld.FactorChain(types[5], ((2, G(0)), (2, G(1)))),
        drinfeld.FactorChain(types[4], ((4, G(Fraction(1, 2), 1)), (1, G(2)))),
    ]
    sigmas = [weylpath.descent_chain(t, b) for t in types for b in (1, t.rank)]
    ledgers = [weylpath.parameter_ledger(t, b) for t in types for b in (1, t.rank)]
    modules = [ysl2.tensor_module(spec) for spec in (((1, 0),), ((1, G(1, 1)), (2, Fraction(-1, 3))))]
    out = {
        rootsys.LieType: types,
        rootsys.CartanDatum: [rootsys.cartan_datum(t) for t in types],
        weylpath.ChainStep: [s for c in sigmas for s in c.steps[:2]],
        weylpath.SigmaChain: sigmas,
        weylpath.LedgerEntry: [e for led in ledgers for e in led.entries[:2]],
        weylpath.Ledger: ledgers,
        criteria.CriterionSet: [criteria.criterion_set(t, 1, t.rank) for t in types],
        criteria.Verdict: [
            v for c in chains
            for v in (criteria.cyclicity_guaranteed(c), criteria.irreducibility_guaranteed(c))
        ],
        drinfeld.DrinfeldTuple: [
            drinfeld.DrinfeldTuple(c.lie_type, tuple(
                tuple(a for n, a in c.factors if n == node) for node in range(1, c.lie_type.rank + 1)
            ))
            for c in chains
        ],
        drinfeld.FactorChain: chains,
        ysl2.SL2Module: modules,
        ysl2.GeneratorLadder: [ysl2.extend_generators(m, 1) for m in modules],
    }
    assert set(out) == set(RECORDS) and all(len(v) >= 2 for v in out.values())
    return out


EXAMPLES = _examples()


def _fields(obj) -> tuple:
    return tuple(getattr(obj, f) for f in type(obj).__match_args__)


def _outcome(make):
    """('ok', value) or (exception type, message)."""
    try:
        return "ok", make()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def _call(draw):
    """A record type and field values for it: those of one real instance,
    some swapped for the values of another.  A swap can make the values
    inconsistent (a tuple of the wrong length for its type, a node out of
    range), which `__post_init__` must refuse in both classes."""
    cls = draw(st.sampled_from(RECORDS))
    first, second = (_fields(x) for x in draw(st.permutations(EXAMPLES[cls]))[:2])
    mask = draw(st.lists(st.booleans(), min_size=len(first), max_size=len(first)))
    return cls, tuple(b if swap else a for a, b, swap in zip(first, second, mask))


def test_no_record_is_a_dataclass():
    for cls in RECORDS:
        assert "__dataclass_fields__" not in vars(cls)
        assert cls.__match_args__ == TWINS[cls].__match_args__


@settings(max_examples=300, deadline=None)
@given(_call(), _call())
def test_records_match_their_dataclass_twins(call, other):
    cls, args = call
    twin = TWINS[cls]
    names = cls.__match_args__
    kwargs = dict(zip(names, args))
    made, expected = _outcome(lambda: cls(*args)), _outcome(lambda: twin(*args))
    if "ok" not in (made[0], expected[0]):
        assert made == expected
        assert _outcome(lambda: cls(**kwargs)) == made
        return
    assert made[0] == expected[0] == "ok"
    record, old = made[1], twin(*args)
    assert repr(record) == repr(old)
    assert hash(record) == hash(old)
    assert vars(record) == vars(old)
    assert cls(**kwargs) == record and twin(**kwargs) == old
    assert cls(*args) == record and hash(cls(*args)) == hash(record)
    assert record != old and record != args
    match record:
        case cls(first):
            assert first == getattr(old, names[0])
        case _:
            pytest.fail("no match on the first field")
    other_cls, other_args = other
    if other_cls is cls:
        again = _outcome(lambda: cls(*other_args))
        if again[0] == "ok":
            assert (again[1] == record) == (twin(*other_args) == old)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bad_arguments_raise_what_the_twin_raises(data):
    cls = data.draw(st.sampled_from(RECORDS))
    twin = TWINS[cls]
    names = cls.__match_args__
    args = _fields(data.draw(st.sampled_from(EXAMPLES[cls])))
    kwargs = dict(zip(names, args))
    kept = data.draw(st.lists(st.sampled_from(names), unique=True, max_size=len(names) - 1))
    k = data.draw(st.integers(0, len(names) - 1))
    calls = {
        "missing": ((), {n: kwargs[n] for n in kept}),
        "extra positional": ((*args, args[0]), {}),
        "extra keyword": ((), {**kwargs, "extra": 1}),
        "repeated": (args[: k + 1], {names[k]: args[k]}),
    }
    # A bad call raises a TypeError that names the fields, not the
    # dataclass's wording.
    for a, kw in calls.values():
        with pytest.raises(TypeError, match=", ".join(names)):
            cls(*a, **kw)
        with pytest.raises(TypeError):
            twin(*a, **kw)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_refuse_assignment_and_deletion(cls):
    record = EXAMPLES[cls][0]
    old = TWINS[cls](*_fields(record))
    for name in (cls.__match_args__[0], "not_a_field"):
        for change in (lambda x: setattr(x, name, 1), lambda x: delattr(x, name)):
            with pytest.raises(AttributeError) as got:
                change(record)
            with pytest.raises(AttributeError) as expected:
                change(old)
            assert str(got.value) == str(expected.value)
    assert _fields(record) == _fields(old)


A2 = rootsys.LieType("A", 2)


@pytest.mark.parametrize("cls, args", [
    (rootsys.LieType, ("E", 6)),
    (rootsys.LieType, ("A", 0)),
    (rootsys.LieType, ("D", 2)),
    (rootsys.LieType, ("G2", 3)),
    (drinfeld.DrinfeldTuple, (A2, ((G(0),),))),
    (drinfeld.DrinfeldTuple, (A2, ((), (), ()))),
    (drinfeld.FactorChain, (A2, ((3, G(0)),))),
    (drinfeld.FactorChain, (A2, ((0, G(0)),))),
    (drinfeld.FactorChain, (A2, ((1, G(0)), (2, G(1)), (4, G(2))))),
], ids=lambda v: getattr(v, "__name__", None) or repr(v))
def test_post_init_still_refuses_bad_input(cls, args):
    with pytest.raises(ValueError) as got:
        cls(*args)
    with pytest.raises(ValueError) as expected:
        TWINS[cls](*args)
    assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # Both are slow to import, and `dataclasses` generates source and runs
    # `exec` on it for every class it decorates: a CLI process pays for
    # both before it does any work.
    code = "import sys, yangian_weyl.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"

