import ast
import itertools
import random
from typing import NamedTuple, Optional

import pytest

from sdmatch import BipartiteGraph, DmInstance, FormatError, Matching, SdmInstance, SPair
from sdmatch import flow, lebensold
from sdmatch.flow import feasible_flow
from sdmatch.graph import MAX_VERTICES
from sdmatch.matching import max_matching
from sdmatch.reductions import CnfFormula
from sdmatch.solve import (
    DEFAULT_BOUNDED_S_CAP,
    BudgetExhausted,
    Method,
    _matchings,
    solve_poly_large_s,
)

DEFAULT_DM_EDGE_LIMIT = 64


def k22() -> BipartiteGraph:
    """The complete bipartite graph K2,2."""
    return BipartiteGraph.from_edges(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])


def chain_graph(n: int) -> BipartiteGraph:
    """x0:{y0}, xi:{y(i-1), yi}: a recursive augmenting-path search goes one
    level deeper per link."""
    edges = [(0, 0)] + [e for i in range(1, n) for e in ((i, i - 1), (i, i))]
    return BipartiteGraph.from_edges(n, n, edges)


def y_adj(graph: BipartiteGraph) -> tuple[tuple[int, ...], ...]:
    """Y-side adjacency lists, sorted ascending."""
    neigh: list[list[int]] = [[] for _ in range(graph.ny)]
    for x in range(graph.nx):
        for y in graph.adj[x]:
            neigh[y].append(x)
    return tuple(tuple(xs) for xs in neigh)


def max_degree(graph: BipartiteGraph) -> int:
    """The largest degree of any vertex, 0 for an edgeless graph."""
    return max(map(len, graph.adj + y_adj(graph)), default=0)


def all_graphs_3x3():
    """All 512 bipartite graphs with nx = ny = 3."""
    for mask in range(1 << 9):
        edges = [(i // 3, i % 3) for i in range(9) if mask >> i & 1]
        yield BipartiteGraph.from_edges(3, 3, edges)


def all_s_subsets(nx: int):
    for r in range(nx + 1):
        yield from itertools.combinations(range(nx), r)


def edge_subset_matchings(graph: BipartiteGraph):
    """Every matching of the graph as (edge frozenset, covered X set), found
    by testing every subset of its edges."""
    edges = graph.edges()
    matchings = []
    for mask in range(1 << len(edges)):
        sub = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        xs = [x for x, _ in sub]
        ys = [y for _, y in sub]
        if len(set(xs)) == len(xs) and len(set(ys)) == len(ys):
            matchings.append((frozenset(sub), set(xs)))
    return matchings


def brute_force_spair_count(graph: BipartiteGraph, s_set) -> int:
    """Independent oracle for `count_spairs_exact`: the pairs of edge-subset
    matchings (M1, M2) with M1 saturating X, M2 covering exactly S on X, and
    no edge in both."""
    matchings = edge_subset_matchings(graph)
    full_x, want_s = set(range(graph.nx)), set(s_set)
    return sum(1 for m1, x1 in matchings if x1 == full_x
               for m2, x2 in matchings if x2 == want_s and not m1 & m2)


def spair_milp(instance: SdmInstance) -> bool:
    """Independent oracle past brute force: whether an S-pair exists, as a
    0/1 program solved by scipy's MILP. Binaries m_e and n_e per edge, with
    m_e + n_e <= 1, one m edge at each X vertex, one n edge at each S vertex
    and none elsewhere on X, and at most one of each at every Y vertex.
    Skips the test without scipy."""
    optimize = pytest.importorskip("scipy.optimize")
    graph = instance.graph
    edges = graph.edges()
    if not edges:
        return graph.nx == 0
    ne, in_s = len(edges), set(instance.s_set)
    rows, low, high = [], [], []

    def row(cols, lo, hi):
        coef = [0] * (2 * ne)
        for c in cols:
            coef[c] = 1
        rows.append(coef)
        low.append(lo)
        high.append(hi)

    for e in range(ne):
        row((e, ne + e), 0, 1)
    for x in range(graph.nx):
        at_x = [e for e, (x2, _) in enumerate(edges) if x2 == x]
        row(at_x, 1, 1)
        row([ne + e for e in at_x], int(x in in_s), int(x in in_s))
    for y in range(graph.ny):
        at_y = [e for e, (_, y2) in enumerate(edges) if y2 == y]
        row(at_y, 0, 1)
        row([ne + e for e in at_y], 0, 1)
    result = optimize.milp([0] * (2 * ne), integrality=[1] * (2 * ne),
                           bounds=optimize.Bounds(0, 1),
                           constraints=optimize.LinearConstraint(rows, low, high))
    assert result.status in (0, 2), result.message  # solved, or infeasible
    return result.status == 0


def lebensold_brute_force(graph: BipartiteGraph, k: int) -> bool:
    """Independent oracle: Lebensold's condition sum_y min(k, |N(y) & W|) >=
    k|W|, checked over all 2^|X| subsets W."""
    neighbors = y_adj(graph)
    for mask in range(1 << graph.nx):
        total = sum(min(k, sum(1 for x in xs if mask >> x & 1)) for xs in neighbors)
        if total < k * bin(mask).count("1"):
            return False
    return True


def without_edges(graph: BipartiteGraph, removed) -> BipartiteGraph:
    """Copy of the graph with the given edges deleted."""
    gone = set(removed)
    return BipartiteGraph.from_edges(graph.nx, graph.ny,
                                     (e for e in graph.edges() if e not in gone))


def solve_dm_exact(instance: DmInstance, size_limit: int = DEFAULT_DM_EDGE_LIMIT
                   ) -> Optional[tuple[Matching, Matching]]:
    """Complete search for disjoint X-saturating matchings M1 in G1, M2 in G2:
    every X-saturating matching of G1, then one maximum matching of G2 less
    its edges."""
    g1, g2 = instance.g1, instance.g2
    if max(g1.num_edges(), g2.num_edges()) > size_limit:
        raise ValueError("instance too large for exact DM search")
    for m1 in _matchings(g1.adj, g1.ny, range(g1.nx)):
        m2 = max_matching(without_edges(g2, m1))
        if len(m2) == g2.nx:
            return Matching.from_edges(m1), m2
    return None


def satisfies(formula: CnfFormula, assignment: dict[int, bool]) -> bool:
    """Whether the assignment makes every clause true."""
    return all(any(assignment[abs(lit)] == (lit > 0) for lit in clause)
               for clause in formula.clauses)


def brute_force_satisfiable(formula: CnfFormula) -> Optional[dict[int, bool]]:
    """First satisfying assignment in lexicographic order, or None."""
    for bits in itertools.product([False, True], repeat=formula.num_vars):
        assignment = {i + 1: bits[i] for i in range(formula.num_vars)}
        if satisfies(formula, assignment):
            return assignment
    return None


def dpll(formula: CnfFormula) -> Optional[dict[int, bool]]:
    """Independent SAT oracle: a satisfying assignment (free variables
    False), or None, by DPLL with unit propagation (Davis, Logemann and
    Loveland 1962). It reads only formula.num_vars and formula.clauses."""
    def assign(clauses, lit):
        # clauses that lit makes true are gone; -lit leaves the others
        return [[other for other in clause if other != -lit] for clause in clauses
                if lit not in clause]

    def search(clauses, values):
        while True:
            if [] in clauses:
                return None
            unit = next((clause[0] for clause in clauses if len(clause) == 1), None)
            if unit is None:
                break
            values = {**values, abs(unit): unit > 0}
            clauses = assign(clauses, unit)
        if not clauses:
            return values
        lit = clauses[0][0]
        for choice in (lit, -lit):
            found = search(assign(clauses, choice), {**values, abs(choice): choice > 0})
            if found is not None:
                return found
        return None

    values = search([list(clause) for clause in formula.clauses], {})
    if values is None:
        return None
    return {v: values.get(v, False) for v in range(1, formula.num_vars + 1)}


def reference_is_matching(graph: BipartiteGraph, edges) -> bool:
    """Reference for `is_matching`: every edge is in the set of all the
    graph's edges, and no two edges share an endpoint."""
    pairs = list(edges)
    edge_set = set(graph.edges())
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    return (all(e in edge_set for e in pairs)
            and len(set(xs)) == len(xs) and len(set(ys)) == len(ys))


def is_proper(edges, classes: tuple[Matching, ...]) -> bool:
    """Independent validation of a split into color classes: each class is a
    matching, no edge is in two classes, and together they hold exactly the
    given edges."""
    for cls in classes:
        xs = [x for x, _ in cls.edges]
        ys = [y for _, y in cls.edges]
        if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
            return False
    union = [e for cls in classes for e in cls.edges]
    return len(set(union)) == len(union) and set(union) == set(edges)


def factor_degrees_ok(graph: BipartiteGraph, cap_x, cap_y, h: BipartiteGraph) -> bool:
    """Re-validate a factor H of the graph vertex by vertex: the graph's
    vertices, each row an ordered subsequence of the graph's row with exactly
    the cap on X, and at most the cap on Y."""
    if (h.nx, h.ny, len(h.adj)) != (graph.nx, graph.ny, graph.nx):
        return False
    dy = [0] * graph.ny
    for x, row in enumerate(h.adj):
        rest = iter(graph.adj[x])
        # each `y in rest` consumes rest through y, so order and repeats count
        if len(row) != cap_x[x] or not all(y in rest for y in row):
            return False
        for y in row:
            dy[y] += 1
    return all(dy[y] <= cap_y[y] for y in range(graph.ny))


def networkx_network(graph: BipartiteGraph, cap_x, cap_y):
    """The degree network s -> x (cap_x[x]), x -> y (1), y -> t (cap_y[y]) in
    networkx. A factor with degree cap_x[x] at every x and at most cap_y[y]
    at every y exists exactly when its maximum flow value is sum(cap_x);
    Lebensold's k-factor has k everywhere. Skips the test without networkx."""
    networkx = pytest.importorskip("networkx")
    net = networkx.DiGraph()
    for x in range(graph.nx):
        net.add_edge("s", ("x", x), capacity=cap_x[x])
    for x, y in graph.edges():
        net.add_edge(("x", x), ("y", y), capacity=1)
    for y in range(graph.ny):
        net.add_edge(("y", y), "t", capacity=cap_y[y])
    return net


def networkx_min_cut_x(graph: BipartiteGraph, cap_x, cap_y) -> tuple[int, ...]:
    """The X side of the minimal minimum cut of the degree network: the X
    vertices reachable from s in the residual network of networkx's own
    Edmonds-Karp flow, ascending. It is empty exactly when the flow value is
    sum(cap_x), that is when a factor exists. Skips the test without networkx."""
    net = networkx_network(graph, cap_x, cap_y)
    net.add_nodes_from(("s", "t"))  # absent when X or Y is empty
    from networkx.algorithms.flow import edmonds_karp

    residual = edmonds_karp(net, "s", "t")
    seen, queue = {"s"}, ["s"]
    for u in queue:
        for v, arc in residual[u].items():
            if arc["capacity"] - arc["flow"] > 0 and v not in seen:
                seen.add(v)
                queue.append(v)
    return tuple(x for x in range(graph.nx) if ("x", x) in seen)


def random_formula(rng: random.Random, max_vars=3, max_clauses=3) -> CnfFormula:
    """A random CNF over 1..max_vars variables with 1..max_clauses clauses of
    1..3 literals each."""
    t = rng.randint(1, max_vars)
    s = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(s):
        clause = []
        for _ in range(rng.randint(1, 3)):
            v = rng.randint(1, t)
            clause.append(v if rng.random() < 0.5 else -v)
        clauses.append(clause)
    return CnfFormula.make(t, clauses)


def random_3cnf(rng: random.Random, num_vars: int, num_clauses: int) -> CnfFormula:
    """A random 3-CNF: each clause takes 3 distinct variables of at least 3,
    with random signs."""
    return CnfFormula.make(num_vars, [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(num_clauses)])


def reference_search(instance: SdmInstance, prune: bool, budget=None):
    """Reference for the exact search: the recursive search that copies the
    residual graph and reruns a full matching at every node. With prune it
    checks every non-root node (ExactBacktrack), without it only the leaves
    (BoundedS). Same pre-checks before the root step, same step count per
    node and same budget rule."""
    g = instance.graph
    s = instance.s_set
    m1 = max_matching(g)
    if len(m1) < g.nx:
        return None
    # an S vertex needs one edge for M1 and another for M2, refuted before the root step
    if any(len(g.adj[x]) < 2 for x in s):
        return None
    if not s:
        return SPair(m1, Matching(()))
    chosen: list[tuple[int, int]] = []
    used_y: set[int] = set()
    steps = [0]

    def recurse(i: int):
        steps[0] += 1
        if budget is not None and steps[0] > budget:
            raise BudgetExhausted(f"step budget {budget} exhausted")
        if prune and chosen:
            if len(max_matching(without_edges(g, chosen))) < g.nx:
                return None
        if i == len(s):
            m1 = max_matching(without_edges(g, chosen))
            if len(m1) == g.nx:
                return SPair(m1, Matching.from_edges(chosen))
            return None
        x = s[i]
        for y in g.adj[x]:
            if y in used_y:
                continue
            chosen.append((x, y))
            used_y.add(y)
            result = recurse(i + 1)
            chosen.pop()
            used_y.discard(y)
            if result is not None:
                return result
        return None

    return recurse(0)


def reference_solve(instance: SdmInstance, budget=None):
    """`solve` dispatch over `reference_search`: (method, spair)."""
    nx, ns = instance.graph.nx, len(instance.s_set)
    if ns >= nx - 1:
        return Method.POLY_LARGE_S, solve_poly_large_s(instance)
    if ns <= DEFAULT_BOUNDED_S_CAP:
        return Method.BOUNDED_S, reference_search(instance, False, budget)
    return Method.EXACT_BACKTRACK, reference_search(instance, True, budget)


def reference_int(word: str) -> int:
    """int(word) for an optional "-" and ASCII digits, else ValueError: the
    line readers' integer-field rule, which int() alone does not keep (it
    also takes "+1", "1_0" and other scripts' digits)."""
    digits = word[1:] if word.startswith("-") else word
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer field: {word!r}")
    return int(word)


def reference_parse_instance(text: str) -> SdmInstance:
    """Reference for `parse_instance`: the two-pass parser that strips every
    line, collects an edge list and hands it to `BipartiteGraph.from_edges`,
    which checks the ranges again and builds the adjacency lists. Every
    integer field is read by `reference_int`."""
    nx = ny = m = -1
    edges: list[tuple[int, int]] = []
    s_line: Optional[list[int]] = None
    seen_p = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "p":
            if seen_p:
                raise FormatError(f"line {lineno}: duplicate problem line")
            if len(tokens) != 5 or tokens[1] != "sdm":
                raise FormatError(f"line {lineno}: malformed problem line {line!r}")
            try:
                nx, ny, m = map(reference_int, tokens[2:])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: non-integer counts") from exc
            if nx > MAX_VERTICES or ny > MAX_VERTICES:
                raise FormatError(f"line {lineno}: more than {MAX_VERTICES} vertices on a side")
            seen_p = True
        elif kind == "e":
            if not seen_p:
                raise FormatError(f"line {lineno}: edge before problem line")
            if len(tokens) != 3:
                raise FormatError(f"line {lineno}: malformed edge line {line!r}")
            try:
                x, y = map(reference_int, tokens[1:])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: non-integer endpoint") from exc
            if not (1 <= x <= nx and 1 <= y <= ny):
                raise FormatError(f"line {lineno}: endpoint out of range in {line!r}")
            edges.append((x - 1, y - 1))
        elif kind == "s":
            if not seen_p:
                raise FormatError(f"line {lineno}: s line before problem line")
            if s_line is not None:
                raise FormatError(f"line {lineno}: duplicate s line")
            try:
                s_line = [reference_int(t) for t in tokens[1:]]
            except ValueError as exc:
                raise FormatError(f"line {lineno}: non-integer S member") from exc
            for x in s_line:
                if not 1 <= x <= nx:
                    raise FormatError(f"line {lineno}: S member {x} out of range")
        else:
            raise FormatError(f"line {lineno}: unknown directive {kind!r}")
    if not seen_p:
        raise FormatError("missing problem line")
    if len(edges) != m:
        raise FormatError(f"edge count mismatch: header says {m}, found {len(edges)}")
    graph = BipartiteGraph.from_edges(nx, ny, edges)
    s_set = [x - 1 for x in s_line] if s_line else []
    return SdmInstance.make(graph, s_set)


class GadgetNumbering(NamedTuple):
    """The paper's per-vertex numbering of the 3-SAT gadget, one method per
    vertex v_{i,j}, w_k, z_k: the reference that the closed form in
    `sdmatch.reductions` must equal."""

    s: int  # clause count
    t: int  # variable count

    def cycle_len(self) -> int:
        return 4 * self.s

    def cycle_x(self, i: int, j: int) -> int:
        # v_{i,j} for even j; X index
        assert j % 2 == 0
        return (i - 1) * 2 * self.s + (j // 2 - 1)

    def cycle_y(self, i: int, j: int) -> int:
        # v_{i,j} for odd j; Y index
        assert j % 2 == 1
        return (i - 1) * 2 * self.s + (j - 1) // 2

    def clause_w(self, k: int) -> int:
        return 2 * self.s * self.t + (k - 1)

    def clause_z(self, k: int) -> int:
        return 2 * self.s * self.t + (k - 1)

    def cycle_edge(self, i: int, j: int) -> tuple[int, int]:
        """Edge v_{i,j} v_{i,j+1} (position wraps) as an (x, y) pair."""
        j2 = j % self.cycle_len() + 1
        if j % 2 == 0:
            return self.cycle_x(i, j), self.cycle_y(i, j2)
        return self.cycle_x(i, j2), self.cycle_y(i, j)

    def literal_y(self, k: int, lit: int) -> int:
        """The Y vertex v_{i,4k-3} (lit = +i) or v_{i,4k-1} (lit = -i)."""
        return self.cycle_y(abs(lit), 4 * k - 3 if lit > 0 else 4 * k - 1)

    def s_set(self) -> list[int]:
        members = [
            self.cycle_x(i, j)
            for i in range(1, self.t + 1)
            for j in range(2, self.cycle_len() + 1, 4)
        ]
        members.extend(self.clause_w(k) for k in range(1, self.s + 1))
        return sorted(members)

    def true_false_edges(self, i: int) -> tuple[tuple[list, list], tuple[list, list]]:
        """The (M1, M2) edge lists of the value-true and the value-false pair
        on cycle i."""
        n = self.cycle_len()
        true_m1 = [self.cycle_edge(i, j) for j in range(1, n + 1, 2)]
        true_m2 = [self.cycle_edge(i, 4 * j - 2) for j in range(1, self.s + 1)]
        false_m1 = [self.cycle_edge(i, j) for j in range(2, n + 1, 2)]
        false_m2 = [self.cycle_edge(i, 4 * j - 3) for j in range(1, self.s + 1)]
        return (true_m1, true_m2), (false_m1, false_m2)


def numbering(formula: CnfFormula) -> GadgetNumbering:
    """The reference numbering of a formula's gadget."""
    return GadgetNumbering(len(formula.clauses), formula.num_vars)


def reference_reduce_3sat(formula: CnfFormula) -> SdmInstance:
    """The gadget instance built edge by edge from the reference numbering."""
    gn = numbering(formula)
    edges = [gn.cycle_edge(i, j)
             for i in range(1, gn.t + 1) for j in range(1, gn.cycle_len() + 1)]
    for k, clause in enumerate(formula.clauses, start=1):
        edges.append((gn.clause_w(k), gn.clause_z(k)))
        edges.extend((gn.clause_w(k), gn.literal_y(k, lit)) for lit in clause)
    n = 2 * gn.s * gn.t + gn.s
    return SdmInstance.make(BipartiteGraph.from_edges(n, n, edges), gn.s_set())


def reference_decode(formula: CnfFormula, spair: SPair) -> dict[int, bool]:
    """The values each cycle's pair gives, read through the reference
    numbering; the same refusals in the same order as the decoder."""
    gn = numbering(formula)
    m1, m2 = spair.m1.edge_set, spair.m2.edge_set
    values: dict[int, bool] = {}
    for i in range(1, gn.t + 1):
        for value, (pair_m1, pair_m2) in zip((True, False), gn.true_false_edges(i)):
            if m1.issuperset(pair_m1) and m2.issuperset(pair_m2):
                values[i] = value
                break
        else:
            raise ValueError(f"cycle {i} carries neither the true nor the false pair")
    for k, clause in enumerate(formula.clauses, start=1):
        if not any(values[abs(lit)] == (lit > 0) for lit in clause):
            raise ValueError(f"decoded assignment does not satisfy clause {k}")
    return values


def three_variable_formulas():
    """Every set of 4-7 distinct clauses over 3 variables, each clause with
    all three variables: the 162 clause sets of the sat-search workload.
    There are 8 such clauses and each rules out one assignment, so every one
    of these sets is satisfiable."""
    clauses = list(itertools.product((1, -1), (2, -2), (3, -3)))
    for size in range(4, 8):
        for chosen in itertools.combinations(clauses, size):
            yield CnfFormula.make(3, chosen)


# two clauses over one variable: the layout whose variable cycle is c8_cycle()
C8_FORMULA = CnfFormula.make(1, [[1], [-1]])


def c8_cycle() -> tuple[SdmInstance, GadgetNumbering]:
    """The length-8 variable cycle with its distinguished vertex set, and the
    numbering that names its vertices."""
    gn = numbering(C8_FORMULA)
    edges = [gn.cycle_edge(1, j) for j in range(1, 9)]
    graph = BipartiteGraph.from_edges(4, 4, edges)
    s_set = [gn.cycle_x(1, j) for j in (2, 6)]
    return SdmInstance.make(graph, s_set), gn


@pytest.fixture
def c8_gadget():
    """c8_cycle() as a fixture."""
    return c8_cycle()


@pytest.fixture
def flow_runs(monkeypatch):
    """The graph of every feasible_flow call, in call order, whether it comes
    through gf_factor or through lebensold_condition."""
    runs = []

    def recording(graph, cap_x, cap_y):
        runs.append(graph)
        return feasible_flow(graph, cap_x, cap_y)

    for module in (flow, lebensold):
        monkeypatch.setattr(module, "feasible_flow", recording)
    return runs


def scoped_calls(tree):
    """(name, call) for every call in the tree, with the name of the
    innermost function around it, or `<module>` outside any function: what
    the guards that keep one copy of a rule in `src/` filter."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for scope in ast.walk(tree):
        if not isinstance(scope, functions + (ast.Module,)):
            continue
        name = scope.name if isinstance(scope, functions) else "<module>"
        stack = list(scope.body)
        while stack:
            node = stack.pop()
            if isinstance(node, functions):
                continue
            if isinstance(node, ast.Call):
                yield name, node
            stack.extend(ast.iter_child_nodes(node))
