"""One general graph builder in `graph.py`: `BipartiteGraph.from_edges` turns
(x, y) pairs into rows for the line reader, `random_graph` and the library,
and only `_parse_plain`, the bulk reader of the plain form, builds its own
rows beside it. A third caller of `BipartiteGraph(...)` there would be a
third copy of the dedupe, the sort and the slot per X vertex. Other modules
build graphs from rows they computed themselves and are out of scope."""

import ast
from pathlib import Path

import sdmatch
from conftest import scoped_calls

GRAPH_PY = Path(sdmatch.__file__).parent / "graph.py"
BUILDERS = ["_parse_plain", "from_edges"]


def builders_in(source):
    """The name of every function whose own body (nested functions aside)
    calls `BipartiteGraph(...)`, once per call, sorted; `<module>` for a call
    outside any function."""
    return sorted(name for name, call in scoped_calls(ast.parse(source))
                  if isinstance(call.func, ast.Name) and call.func.id == "BipartiteGraph")


def test_one_graph_builder_in_graph_py():
    assert builders_in(GRAPH_PY.read_text()) == BUILDERS


def test_guard_sees_every_builder():
    assert builders_in(
        "EMPTY = BipartiteGraph(0, 0, ())\n"
        "def a():\n    def inner():\n        return BipartiteGraph(1, 1, ((),))\n    return inner\n"
        "def b(pairs):\n    return BipartiteGraph.from_edges(1, 1, pairs)\n"
    ) == ["<module>", "inner"]
    # a reader that builds its own rows beside from_edges fails the guard
    twin = (
        "\n\ndef _parse_twin(nx, ny, pairs):\n"
        "    neigh = defaultdict(set)\n"
        "    for x, y in pairs:\n        neigh[x].add(y)\n"
        "    rows = tuple(tuple(sorted(neigh.get(x, ()))) for x in range(nx))\n"
        "    return SdmInstance.make(BipartiteGraph(nx, ny, rows), [])\n"
    )
    assert builders_in(GRAPH_PY.read_text() + twin) == sorted(BUILDERS + ["_parse_twin"])
