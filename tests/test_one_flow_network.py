"""Exactly one function in the package builds a max-flow network, so every
polynomial route shares one degree network instead of keeping a twin."""

import ast
from pathlib import Path

import sdmatch

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def network_builders(tree):
    """The name of every function whose own body (nested functions aside)
    calls `_MaxFlow(...)`, once per call."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, FUNCTIONS):
            continue
        stack = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, FUNCTIONS):
                continue
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
                if name == "_MaxFlow":
                    found.append(func.name)
            stack.extend(ast.iter_child_nodes(node))
    return found


def test_one_function_in_src_builds_a_flow_network():
    package = Path(sdmatch.__file__).parent
    found = [(path.name, name) for path in sorted(package.glob("*.py"))
             for name in network_builders(ast.parse(path.read_text(), str(path)))]
    assert found == [("flow.py", "feasible_flow")]


def test_guard_sees_every_builder():
    tree = ast.parse(
        "def a(g):\n    return _MaxFlow(3)\n"
        "def b(g):\n    def inner():\n        return flow._MaxFlow(2)\n    return inner\n"
    )
    assert network_builders(tree) == ["a", "inner"]
