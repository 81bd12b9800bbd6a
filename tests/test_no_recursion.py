"""No function in the package calls itself by name, so no input can hit the
Python recursion limit."""

import ast
from pathlib import Path

import sdmatch

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def self_calls(tree):
    """(function name, line) for every function, nested ones included, whose
    body calls that name or `self.<name>` / `cls.<name>`."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, FUNCTIONS):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name) \
                    and callee.value.id in ("self", "cls"):
                name = callee.attr
            elif isinstance(callee, ast.Name):
                name = callee.id
            else:
                continue
            if name == func.name:
                found.append((func.name, node.lineno))
    return found


def test_no_function_in_src_calls_itself():
    package = Path(sdmatch.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 9
    found = {path.name: self_calls(ast.parse(path.read_text(), str(path)))
             for path in modules}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_guard_sees_a_nested_self_call():
    tree = ast.parse("def outer():\n    def walk(n):\n        return walk(n - 1)\n    return walk\n")
    assert self_calls(tree) == [("walk", 3)]
