#!/usr/bin/env python3
"""Count the physical and code lines of each module of `src/riskshare`.

Usage: python scripts/source_lines.py

A code line is one that is not blank, not a comment and not part of a
docstring (of the module, a class or a function, as `ast` finds them); a
blank line counts as blank even inside a string. Prints one row per module
and a total.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "riskshare"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def line_counts(source: str) -> tuple[int, int]:
    """The physical and the code lines of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = source.splitlines()
    code = sum(1 for number, line in enumerate(lines, 1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docstrings)
    return len(lines), code


def main() -> None:
    rows = [(path.stem, *line_counts(path.read_text()))
            for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    print(f"{'module':<12} {'physical':>8} {'code':>6}")
    for name, physical, code in rows:
        print(f"{name:<12} {physical:>8} {code:>6}")


if __name__ == "__main__":
    main()
