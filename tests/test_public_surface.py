"""Every public name of `riskshare` has a reader on a package path.

A reader is a `Name` or `Attribute` node of that name in the package (outside
the name's own definition and `__init__`), in `scripts/` or in `bench/`, or in
`bench/` a string of that name too: the harness looks functions up by name
(`bench/tracing.py`'s `MOMENTS`). An import alone reads nothing. A name that
only tests read is not public.
"""

import ast
from pathlib import Path

import pytest

import riskshare

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "riskshare"


class _Readers(ast.NodeVisitor):
    """The names that modules read, each outside the def or class of that name;
    with `strings` set, string constants count as names."""

    def __init__(self):
        self.names, self.enclosing, self.strings = set(), [], False

    def _scope(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scope

    def _read(self, name):
        if name not in self.enclosing:
            self.names.add(name)

    def visit_Name(self, node):
        self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if self.strings and isinstance(node.value, str):
            self._read(node.value)


def test_every_public_name_has_a_reader():
    readers = _Readers()
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    for paths, strings in ((modules, False), (sorted((ROOT / "scripts").glob("*.py")), False),
                           (sorted((ROOT / "bench").glob("*.py")), True)):
        readers.strings = strings
        for path in paths:
            readers.visit(ast.parse(path.read_text(), str(path)))
    assert sorted(set(riskshare.__all__) - readers.names) == []


@pytest.mark.parametrize("module", ["nash", "pareto", "strategic"])
def test_engines_import_no_rv_moments(module):
    # the engines work on the market's centered rows, not on `Rv` moments
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported.isdisjoint({"mean", "var", "cov"})
