"""One file boundary: `cli._read` and `cli._write_files` are the only
functions in `src/` that call `open`, and each opens its file in binary
mode, so the rules for line ends, the encoding and the error texts sit in
those two functions. A text-mode `open` elsewhere would be a second reader
with its own newline and decoding rules. (`os.open` in `cli.main` opens the
null device as a bare descriptor; it reads and writes no text.)"""

import ast
from pathlib import Path

import sdmatch

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
OPENERS = [("cli.py", "_read", "rb"), ("cli.py", "_write_files", "wb")]


def mode_of(call):
    """The mode literal of an `open` call: its second argument or `mode=`,
    "r" when absent, None when it is no string constant."""
    modes = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    if not modes:
        return "r"
    mode = modes[0]
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else None


def open_calls(tree):
    """(function, mode) for every call of the builtin name `open` in the
    tree, naming the innermost function around it; `<module>` for a call
    outside any function."""
    found = []
    for scope in ast.walk(tree):
        if not isinstance(scope, FUNCTIONS + (ast.Module,)):
            continue
        name = scope.name if isinstance(scope, FUNCTIONS) else "<module>"
        stack = list(scope.body)
        while stack:
            node = stack.pop()
            if isinstance(node, FUNCTIONS):
                continue
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                found.append((name, mode_of(node)))
            stack.extend(ast.iter_child_nodes(node))
    return found


def openers_in(package):
    return [(path.name, name, mode) for path in sorted(package.glob("*.py"))
            for name, mode in open_calls(ast.parse(path.read_text(), str(path)))]


def test_only_the_two_cli_functions_open_files_and_in_binary_mode():
    assert openers_in(Path(sdmatch.__file__).parent) == OPENERS


def test_guard_sees_every_opener(tmp_path):
    tree = ast.parse(
        "DATA = open('x', 'rb').read()\n"
        "def a(path):\n    return open(path)\n"
        "def b(path, mode):\n    def inner():\n        return open(path, mode=mode)\n    return inner\n"
        "def c(path):\n    return open(path, 'w', encoding='ascii')\n"
    )
    assert sorted(open_calls(tree)) == [("<module>", "rb"), ("a", "r"), ("c", "w"),
                                        ("inner", None)]
    # a reader that opens its own file in text mode fails the guard
    for path in Path(sdmatch.__file__).parent.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "reader.py").write_text(
        "def load(path):\n    with open(path, encoding='ascii') as handle:\n"
        "        return handle.read()\n")
    assert openers_in(tmp_path) == OPENERS + [("reader.py", "load", "r")]
