"""The integer-triple scalar against the former two-`Fraction` class.

`pair_oracle.PairRational` is the scalar class the package used before
`GaussianRational` came to store one reduced triple (re, im, d).  Every
operation here must give the value and the text the oracle gives, on
parts with large numerators and denominators, zero parts, and negative
and half-integer parts.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import pair_oracle
from pair_oracle import PairRational as P
from yangian_weyl.exact import (
    GaussianRational as G,
    ScalarParseError,
    as_scalar,
    parse_scalar,
)

_BIG = 10**40
numerators = st.one_of(
    st.just(0), st.integers(-12, 12), st.integers(-_BIG, _BIG)
)
denominators = st.one_of(
    st.just(1), st.just(2), st.integers(1, 12), st.integers(1, 10**30)
)
parts = st.builds(Fraction, numerators, denominators)
pairs = st.tuples(parts, parts)
# Plain ints and Fractions, as the other operand of mixed arithmetic.
rationals = st.one_of(numerators, parts)

OPERATORS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "truediv": operator.truediv,
}


def _reduced(triple) -> bool:
    re, im, d = triple
    return d > 0 and gcd(re, im, d) == 1


def _agrees(new, old) -> bool:
    """Same value, same text, and the new one in its unique form."""
    return (
        type(new) is G
        and (new.re, new.im) == (old.re, old.im)
        and str(new) == str(old)
        and _reduced(new.triple)
    )


@settings(max_examples=300, deadline=None)
@given(pairs, pairs)
def test_arithmetic_matches_oracle(x, y):
    for name, op in OPERATORS.items():
        if name == "truediv" and not any(y):
            with pytest.raises(ZeroDivisionError):
                op(G(*x), G(*y))
            continue
        assert _agrees(op(G(*x), G(*y)), op(P(*x), P(*y))), name


@settings(max_examples=200, deadline=None)
@given(pairs, rationals)
def test_mixed_arithmetic_matches_oracle(x, r):
    for name, op in OPERATORS.items():
        if name != "truediv" or r:
            assert _agrees(op(G(*x), r), op(P(*x), r)), name
    for name in ("add", "sub", "mul"):  # the reflected operators
        assert _agrees(OPERATORS[name](r, G(*x)), OPERATORS[name](r, P(*x))), name
    assert _agrees(as_scalar(r), P(r))
    assert (G(*x) == r) == (P(*x) == r)


@settings(max_examples=200, deadline=None)
@given(pairs, st.integers(0, 6))
def test_pow_neg_and_bool_match_oracle(x, n):
    assert _agrees(G(*x) ** n, P(*x) ** n)
    assert _agrees(-G(*x), -P(*x))
    assert _agrees(+G(*x), +P(*x))
    assert bool(G(*x)) == bool(P(*x))


@settings(max_examples=300, deadline=None)
@given(pairs, pairs)
def test_equality_and_hash_match_oracle(x, y):
    a, b = G(*x), G(*y)
    assert (a == b) == (P(*x) == P(*y))
    assert (a != b) == (P(*x) != P(*y))
    # The same value built another way is equal and hashes equal.
    for same in (G(*x) + 0, parse_scalar(str(P(*x))), G(x[0]) + G(0, x[1])):
        assert same == a and hash(same) == hash(a)
        assert same.triple == a.triple
    assert len({a, b, G(*x)}) == (1 if P(*x) == P(*y) else 2)


@settings(max_examples=300, deadline=None)
@given(pairs)
def test_text_roundtrip_matches_oracle(x):
    text = str(P(*x))
    assert str(G(*x)) == text
    assert _agrees(parse_scalar(text), pair_oracle.parse_scalar(text))
    assert parse_scalar(text) == G(*x)


@settings(max_examples=300, deadline=None)
@given(numerators, denominators, numerators, denominators, st.sampled_from("+-"))
def test_parse_unreduced_text_matches_oracle(n1, d1, n2, d2, sign):
    # Parts in any terms, with and without an imaginary part.
    for text in (f"{n1}/{d1}", f"{n1}/{d1}{sign}{abs(n2)}/{d2}i", f"{n1}{sign}{abs(n2)}i"):
        assert _agrees(parse_scalar(text), pair_oracle.parse_scalar(text)), text


@pytest.mark.parametrize(
    "text",
    ["", "abc", "2i", "1 + 2i", "1+-2i", "--3", "i", "3/0", "1+2/0i", "-0/0",
     "7" * 5000, "1/" + "3" * 5000, "1+" + "9" * 5000 + "i", "4" * 5000 + "/0"],
)
def test_parse_errors_match_oracle(text):
    with pytest.raises(pair_oracle.ScalarParseError) as old:
        pair_oracle.parse_scalar(text)
    with pytest.raises(ScalarParseError) as new:
        parse_scalar(text)
    assert str(new.value) == str(old.value)


@settings(max_examples=200, deadline=None)
@given(st.lists(pairs, min_size=1, max_size=8))
def test_ordering_key_matches_oracle(xs):
    # The oracle key reads only `.re` and `.im`, so it keys the package's
    # scalar as it keyed the former class; `tests/test_drinfeld.py` holds
    # the integer sort keys to it.
    key = pair_oracle.ordering_key
    for x in xs:
        assert key(G(*x)) == key(P(*x))
    new = sorted(range(len(xs)), key=lambda k: key(G(*xs[k])))
    old = sorted(range(len(xs)), key=lambda k: key(P(*xs[k])))
    assert new == old
