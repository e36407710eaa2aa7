"""The package does no floating-point arithmetic: no module under
src/yangian_weyl/ holds a float or complex literal or names `float` or
`complex`."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import yangian_weyl

MODULES = sorted(Path(yangian_weyl.__file__).resolve().parent.glob("*.py"))


def _inexact_sites(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in ("float", "complex"):
            yield node.lineno, node.attr


def test_every_module_is_scanned():
    assert {p.stem for p in MODULES} >= {"cli", "criteria", "drinfeld", "exact", "weylpath"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floating_point(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_inexact_sites(tree)) == []


def test_the_scan_finds_floats_and_complexes():
    source = "x = 0.5\ny = 2j\nz = float(1)\nw = builtins.complex\n"
    assert sorted(line for line, _ in _inexact_sites(ast.parse(source))) == [1, 2, 3, 4]
