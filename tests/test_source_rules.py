"""Rules that every module under src/yangian_weyl/ keeps in its source.

- No floating point: no float or complex literal, and no name `float` or
  `complex`.
- No code generated at runtime: no call of `exec`, `eval` or `compile`,
  bare or as an attribute of `builtins`.
- No dead private helper: every private function or class (a name with
  a leading underscore, dunders aside) is named again in the code of some
  module, as a name or an attribute.  Docstrings and comments do not
  count, and neither does an import.

The package's `__all__` names its API and none of its submodules.
"""

from __future__ import annotations

import ast
from pathlib import Path
from types import ModuleType

import pytest

import yangian_weyl

MODULES = sorted(Path(yangian_weyl.__file__).resolve().parent.glob("*.py"))
INEXACT = {"float", "complex"}
RUNTIME_CODE = {"exec", "eval", "compile"}


def _sites(tree: ast.AST):
    """(line, what) for each site in tree that breaks one of the rules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Name) and node.id in INEXACT:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in INEXACT:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in RUNTIME_CODE:
                yield node.lineno, f.id
            elif (isinstance(f, ast.Attribute) and f.attr in RUNTIME_CODE
                  and isinstance(f.value, ast.Name) and f.value.id == "builtins"):
                yield node.lineno, f.attr


def _unreferenced(trees: dict) -> list:
    """(module, name, line) for each private function or class defined in
    the trees, {module: tree}, that no name or attribute of any tree names."""
    defined, named = [], set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((module, node.name, node.lineno))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return sorted(site for site in defined if site[1] not in named)


def test_every_module_is_scanned():
    assert {p.stem for p in MODULES} >= {
        "cli", "criteria", "drinfeld", "exact", "record", "rootsys", "weylpath", "ysl2"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_keeps_the_source_rules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(_sites(tree)) == []


def test_the_scan_finds_floats_and_complexes():
    source = "x = 0.5\ny = 2j\nz = float(1)\nw = builtins.complex\n"
    assert sorted(_sites(ast.parse(source))) == [
        (1, "0.5"), (2, "2j"), (3, "float"), (4, "complex")]


def test_the_scan_finds_exec_eval_and_compile():
    source = "exec('1')\ny = eval('2')\nz = compile('3', '', 'eval')\nbuiltins.exec('4')\nre.compile('5')\n"
    assert sorted(_sites(ast.parse(source))) == [
        (1, "exec"), (2, "eval"), (3, "compile"), (4, "exec")]


def test_every_private_helper_is_named_again():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    assert _unreferenced(trees) == []


def test_the_scan_finds_an_unreferenced_helper():
    # Named only in a docstring, a comment or an import: still unreferenced.
    helpers = (
        "def _used():\n    return 1\n"
        "def _dead():\n    \"\"\"Not _used.\"\"\"\n"
        "class _Kept:\n    def _method(self):\n        return _used()\n"
        "    def __init__(self):\n        pass\n"
        "# _dead is named here\n"
    )
    caller = "from helpers import _dead\nx = _Kept()._method()\n"
    trees = {"helpers": ast.parse(helpers), "caller": ast.parse(caller)}
    assert _unreferenced(trees) == [("helpers", "_dead", 3)]


def test_the_star_import_binds_no_submodule():
    exported = {name: getattr(yangian_weyl, name) for name in yangian_weyl.__all__}
    assert [name for name, value in exported.items() if isinstance(value, ModuleType)] == []
    assert {"LieType", "criterion_set", "parameter_ledger", "tensor_module"} <= exported.keys()
