"""Every public top-level class and function of the package is referenced
elsewhere in the package, not only exported from ``__init__`` or used by
tests, and every public method, property and field of a top-level class is
read as an attribute somewhere in the package."""

import ast
from pathlib import Path

import sdmatch

# (module, qualified name) -> why it stays although nothing in src/ refers to it
ALLOWED = {
    ("reductions.py", "encode_assignment_to_spair"):
        "the paper's certificate translation, assignment to S-pair",
    ("reductions.py", "project_dm_to_spair"):
        "the paper's certificate translation, two-graph pair to S-pair",
    ("reductions.py", "extend_spair_to_dm"):
        "the paper's certificate translation, S-pair to two-graph pair",
}


def fields(node):
    """(name, line) of each field a class body declares: an annotated name
    or a plain assignment (an enum member)."""
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            yield item.target.id, item.lineno
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    yield target.id, item.lineno


def definitions(tree):
    """(qualified name, name, line, is member) of each public top-level class
    and function and of each public method, property and field of a
    top-level class."""
    defs = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name, node.lineno, False
        if isinstance(node, ast.ClassDef):
            members = list(fields(node)) + [(item.name, item.lineno)
                                            for item in node.body if isinstance(item, defs)]
            for name, line in members:
                if not name.startswith("_"):
                    yield node.name + "." + name, name, line, True


def references(tree):
    """Every name the module reads, reads as an attribute, or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def attribute_reads(tree):
    """Every name the module reads as an attribute."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def orphans(package):
    """{(module, qualified name): line} of every public top-level class or
    function that no module of the package but ``__init__`` refers to, and of
    every public member of a top-level class that none of them reads as an
    attribute: a local, parameter or function of the same name does not
    count for a member."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    referenced = set().union(*map(references, trees.values()))
    read = set().union(*map(attribute_reads, trees.values()))
    return {(module, qualified): line
            for module, tree in trees.items()
            for qualified, name, line, is_member in definitions(tree)
            if name not in (read if is_member else referenced)}


def test_every_public_function_in_src_has_a_reference_in_src():
    found = orphans(Path(sdmatch.__file__).parent)
    assert {key: line for key, line in found.items() if key not in ALLOWED} == {}
    # an entry whose function is gone or now referenced is stale
    assert set(ALLOWED) <= set(found)


def test_guard_sees_a_planted_orphan(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import Box, Lonely, lonely, used\n")
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def lonely():\n    return 2\n\n\n"
        "class Box:\n"
        "    size: int = 0\n"
        "    unread: int = 0\n"
        "    _hidden: int = 0\n\n"
        "    def opened(self):\n        return used()\n\n"
        "    def shut(self):\n        return 0\n\n"
        "    def weigh(self):\n        return 0\n\n"
        "    def _private(self):\n        return 0\n\n\n"
        "class Lonely:\n    pass\n\n\n"
        "class _Hidden:\n    pass\n")
    (tmp_path / "b.py").write_text(
        "from .a import Box as Crate\n\n\n"
        "def run():\n    return Crate().opened() + Crate().size\n\n\n"
        "def main():\n    unread = run()\n    Crate().unread = unread\n"
        "    weigh = unread\n    return weigh\n")
    # main has no caller at all; lonely, Lonely and Box.shut only an
    # __init__ export or none; an aliased import and an attribute read count
    # as references, and a private class is never flagged. Box.unread is
    # only written and shares its name with a local, neither of which reads
    # it; a private field is never flagged. Box.weigh shares its name with a
    # local of b.py, which is no attribute read of the method
    assert orphans(tmp_path) == {("a.py", "lonely"): 5, ("a.py", "Box.unread"): 11,
                                 ("a.py", "Box.shut"): 17, ("a.py", "Box.weigh"): 20,
                                 ("a.py", "Lonely"): 27, ("b.py", "main"): 8}
