"""Every definition of `riskshare` has a reader on a package path.

The definitions are the module-level functions and classes of
`src/riskshare` and the methods and properties of those classes, dunders
excluded, so every class and function of `riskshare.__all__` among them. A
reader is a `Name` or `Attribute` node of that name in the package (outside
the name's own definition and `__init__`), in `scripts/` or in `bench/`. An
import alone reads nothing, and neither does a string: a definition that
only the tests read belongs in the tests (`tests/moments.py` holds the
textbook moments they compare against). `Rv` is a payoff row on a space with
no arithmetic: moments come from `Market` and `core.cross_cov`.
"""

import ast
from pathlib import Path

from riskshare import core

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "riskshare"
MODULES = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]


class _Readers(ast.NodeVisitor):
    """The names that modules read, each outside the def or class of that name."""

    def __init__(self):
        self.names, self.enclosing = set(), []

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


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(path):
    """`module.name` of each module-level function and class, and
    `module.Class.name` of each of their methods and properties."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, defs):
            yield f"{path.stem}.{node.name}"
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not _is_dunder(member.name):
                    yield f"{path.stem}.{node.name}.{member.name}"


def test_every_definition_has_a_reader():
    readers = _Readers()
    for path in MODULES + [path for folder in ("scripts", "bench")
                           for path in sorted((ROOT / folder).glob("*.py"))]:
        readers.visit(ast.parse(path.read_text(), str(path)))
    definitions = [name for path in MODULES for name in _definitions(path)]
    assert [name for name in definitions if name.rsplit(".", 1)[-1] not in readers.names] == []


def test_rv_has_no_arithmetic():
    binary = ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "pow")
    operators = {f"__{side}{op}__" for op in binary for side in ("", "r", "i")}
    assert (operators | {"__neg__", "__pos__", "__abs__"}).isdisjoint(vars(core.Rv))
