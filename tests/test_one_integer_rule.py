"""One integer rule serves every text reader: `graph.int_fields` alone turns
a number field into an int, so an optional "-" and ASCII digits is written
once. `graph._parse_plain` converts the header counts whose digits `_PLAIN`
has already matched. A third function that calls `int(`, or hands `int` to
another call as in `map(int, words)`, would be a second copy of the rule.
The CLI's option table names `int` as argparse's converter of argv values;
that is argv, not a text format, and it calls nothing, so the guard does
not count it."""

import ast
from pathlib import Path

import sdmatch
from conftest import scoped_calls

CONVERTERS = [("graph.py", "_parse_plain"), ("graph.py", "int_fields")]


def is_int(node):
    return isinstance(node, ast.Name) and node.id == "int"


def int_callers(tree):
    """The name of every function whose own body (nested functions aside)
    calls `int` or passes it to a call, once per function; `<module>` for
    code outside any function."""
    return sorted({name for name, call in scoped_calls(tree)
                   if is_int(call.func) or any(map(is_int, call.args))
                   or any(is_int(kw.value) for kw in call.keywords)})


def converters_in(package):
    return [(path.name, name) for path in sorted(package.glob("*.py"))
            for name in int_callers(ast.parse(path.read_text(), str(path)))]


def test_one_integer_rule_in_src():
    assert converters_in(Path(sdmatch.__file__).parent) == CONVERTERS


def test_guard_sees_every_converter(tmp_path):
    tree = ast.parse(
        "N = int('1')\n"
        "def a(words):\n    return list(map(int, words))\n"
        "def b(words):\n    def inner():\n        return sorted(words, key=int)\n    return inner\n"
        "def c(x: int) -> int:\n    OPTIONS = {'-k': ('k', int)}\n    return x\n"
    )
    assert int_callers(tree) == ["<module>", "a", "inner"]
    # a reader that converts its own numbers beside int_fields fails the guard
    for path in Path(sdmatch.__file__).parent.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "reader.py").write_text(
        "def parse_other(line):\n    return [int(tok) for tok in line.split()]\n")
    assert converters_in(tmp_path) == CONVERTERS + [("reader.py", "parse_other")]
