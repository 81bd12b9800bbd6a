"""One line scanner serves the three text readers (instance, solution and
DIMACS CNF): `graph.content_lines` alone splits a text into lines, so the
blank and comment rule and the 1-based line numbers are written once. A
second caller of `.splitlines()` would be a second copy of that rule."""

import ast
from pathlib import Path

import sdmatch
from conftest import scoped_calls

SCANNERS = [("graph.py", "content_lines")]


def splitlines_callers(tree):
    """The name of every function whose own body (nested functions aside)
    calls `.splitlines()`, once per call; `<module>` for a call outside any
    function."""
    return [name for name, call in scoped_calls(tree)
            if isinstance(call.func, ast.Attribute) and call.func.attr == "splitlines"]


def scanners_in(package):
    return [(path.name, name) for path in sorted(package.glob("*.py"))
            for name in splitlines_callers(ast.parse(path.read_text(), str(path)))]


def test_one_line_scanner_in_src():
    assert scanners_in(Path(sdmatch.__file__).parent) == SCANNERS


def test_guard_sees_every_caller(tmp_path):
    tree = ast.parse(
        "LINES = 'a'.splitlines()\n"
        "def a(text):\n    return text.splitlines(keepends=True)\n"
        "def b(text):\n    def inner():\n        return text.splitlines()\n    return inner\n"
    )
    assert sorted(splitlines_callers(tree)) == ["<module>", "a", "inner"]
    # a reader that splits its own lines beside content_lines fails the guard
    for path in Path(sdmatch.__file__).parent.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "reader.py").write_text(
        "def parse_other(text):\n    return [ln for ln in text.splitlines() if ln.strip()]\n")
    assert scanners_in(tmp_path) == SCANNERS + [("reader.py", "parse_other")]
