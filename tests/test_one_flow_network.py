"""Two augmenting kernels live in the package, one per problem: Hopcroft-Karp
for matchings and its per-vertex-cap form for the one degree network that
every other polynomial route shares. A third would be a twin."""

import ast
from pathlib import Path

import sdmatch

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
KERNELS = [("flow.py", "feasible_flow"), ("matching.py", "_hopcroft_karp")]


def is_arc_pointers(node):
    """`[0] * n` or `n * [0]`."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    return any(isinstance(side, ast.List) and len(side.elts) == 1
               and isinstance(side.elts[0], ast.Constant) and side.elts[0].value == 0
               for side in (node.left, node.right))


def augmenting_kernels(tree):
    """The name of every function whose own body (nested functions aside)
    allocates a current-arc array, `ptr = [0] * n`, once per allocation."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, FUNCTIONS):
            continue
        stack = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, FUNCTIONS):
                continue
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(getattr(t, "id", None) == "ptr" for t in targets) and is_arc_pointers(node.value):
                    found.append(func.name)
            stack.extend(ast.iter_child_nodes(node))
    return found


def kernels_in(package):
    return [(path.name, name) for path in sorted(package.glob("*.py"))
            for name in augmenting_kernels(ast.parse(path.read_text(), str(path)))]


def test_two_augmenting_kernels_in_src():
    assert kernels_in(Path(sdmatch.__file__).parent) == KERNELS


def test_guard_sees_every_kernel(tmp_path):
    tree = ast.parse(
        "def a(g):\n    ptr = [0] * g.nx\n    nxt = [0] * g.nx\n"
        "def b(g):\n    def inner():\n        ptr: list = g.ny * [0]\n    return inner\n"
    )
    assert augmenting_kernels(tree) == ["a", "inner"]
    # a third kernel beside the package's two fails the guard
    for path in Path(sdmatch.__file__).parent.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "twin.py").write_text("def degree_flow(graph):\n    ptr = [0] * graph.nx\n")
    assert kernels_in(tmp_path) == KERNELS + [("twin.py", "degree_flow")]
