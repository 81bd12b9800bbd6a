"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import sdmatch

# (module, name) -> why the import stays although the module never uses it
ALLOWED = {
    ("lebensold.py", "gf_factor"):
        "perfbench/test_perfbench.py::test_tracer_wraps_call_sites_and_restores "
        "checks that the tracer rebinds it here too",
}


def unused_imports(tree):
    """(name, line) for every imported name the module never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name, line) for name, line in imported.items() if name not in used)


def test_no_module_in_src_imports_an_unused_name():
    package = Path(sdmatch.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 8
    found = {(path.name, name): line
             for path in modules
             for name, line in unused_imports(ast.parse(path.read_text(), str(path)))}
    assert {key: line for key, line in found.items() if key not in ALLOWED} == {}
    # an exception whose import is gone or now used is stale
    assert set(ALLOWED) <= set(found)


def test_guard_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import IO, Optional as Opt\n"
                     "import os.path\n\ndef f(x: IO) -> None:\n    return None\n")
    assert unused_imports(tree) == [("Opt", 2), ("os", 3)]
