"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import io
import random
import time

from sdmatch import (
    SdmInstance,
    konig_color,
    lebensold_condition,
    reduce_3sat_to_sdm,
    reduce_sdm_to_dm,
    true_false_pairs,
    verify_spair,
)
from sdmatch.cli import run
from sdmatch.graph import random_graph
from sdmatch.reductions import (
    decode_spair_to_assignment,
    encode_assignment_to_spair,
    extend_spair_to_dm,
    project_dm_to_spair,
)
from sdmatch.solve import (
    count_spairs_exact,
    solve,
    solve_exact,
    solve_poly_large_s,
)
from conftest import (
    C8_FORMULA,
    all_graphs_3x3,
    all_s_subsets,
    brute_force_satisfiable,
    is_proper,
    lebensold_brute_force,
    max_degree,
    random_formula,
    satisfies,
    solve_dm_exact,
)


def report(name: str, ok: bool, started: float) -> None:
    elapsed = time.time() - started
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.1f}s)")
    assert ok, name


def test_criterion_1_exhaustive_oracle_agreement():
    started = time.time()
    ok = True
    for g in all_graphs_3x3():
        for s_set in all_s_subsets(3):
            inst = SdmInstance.make(g, s_set)
            present = solve(inst).spair is not None
            if present != (count_spairs_exact(inst) > 0):
                ok = False
    ok = ok and time.time() - started < 60
    report("criterion 1: exhaustive oracle agreement (4096 instances)", ok, started)


def test_criterion_2_poly_large_s_equivalence():
    started = time.time()
    ok = True
    for g in all_graphs_3x3():
        for s_set in all_s_subsets(3):
            if len(s_set) < g.nx - 1:
                continue
            inst = SdmInstance.make(g, s_set)
            spair = solve_poly_large_s(inst)
            if (spair is not None) != (count_spairs_exact(inst) > 0):
                ok = False
            if spair is not None and not verify_spair(inst, spair)[0]:
                ok = False
    ok = ok and time.time() - started < 30
    report("criterion 2: factor-route equivalence for |S| >= |X|-1", ok, started)


def test_criterion_3_lebensold_equivalence():
    started = time.time()
    rng = random.Random(1003)
    ok = True
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 5), rng.randint(1, 5), rng.random())
        for k in (1, 2, 3):
            expected = lebensold_brute_force(g, k)
            verdict = lebensold_condition(g, k)
            if verdict.holds != expected:
                ok = False
            if (verdict.matchings is not None) != expected:
                ok = False
    ok = ok and time.time() - started < 30
    report("criterion 3: counting condition and construction match brute force, k=1..3",
           ok, started)


def test_criterion_4_sat_round_trip():
    started = time.time()
    rng = random.Random(1004)
    ok = True
    for _ in range(500):
        formula = random_formula(rng)
        sat = brute_force_satisfiable(formula) is not None
        inst = reduce_3sat_to_sdm(formula)
        spair = solve_exact(inst)
        if (spair is not None) != sat:
            ok = False
            continue
        if spair is not None:
            values = decode_spair_to_assignment(formula, spair)
            if not satisfies(formula, values):
                ok = False
            encoded = encode_assignment_to_spair(formula, values)
            if not verify_spair(inst, encoded)[0]:
                ok = False
    ok = ok and time.time() - started < 300
    report("criterion 4: CNF reduction round trip (500 formulas)", ok, started)


def test_criterion_5_figure_reproduction(c8_gadget):
    started = time.time()
    inst, gn = c8_gadget
    true_pair, false_pair = true_false_pairs(C8_FORMULA, 1)
    e = lambda j: gn.cycle_edge(1, j)
    ok = true_pair.m1.edge_set == {e(1), e(3), e(5), e(7)}
    ok = ok and true_pair.m2.edge_set == {e(2), e(6)}
    ok = ok and false_pair.m1.edge_set == {e(2), e(4), e(6), e(8)}
    ok = ok and false_pair.m2.edge_set == {e(1), e(5)}
    ok = ok and count_spairs_exact(inst) == 2
    report("criterion 5: gadget cycle pair reproduction and count = 2", ok, started)


def test_criterion_6_dm_reduction_equivalence():
    started = time.time()
    rng = random.Random(1006)
    ok = True
    done = 0
    while done < 200:
        nx = rng.randint(2, 5)
        ny = rng.randint(1, 6)
        g = random_graph(rng, nx, ny, rng.random())
        max_s = nx - 2
        s_set = sorted(rng.sample(range(nx), rng.randint(0, max_s)))
        inst = SdmInstance.make(g, s_set)
        done += 1
        present = count_spairs_exact(inst, size_limit=64) > 0
        dm = reduce_sdm_to_dm(inst)
        result = solve_dm_exact(dm)
        if (result is not None) != present:
            ok = False
            continue
        if result is not None:
            projected = project_dm_to_spair(inst, *result)
            if not verify_spair(inst, projected)[0]:
                ok = False
            m1, m2 = extend_spair_to_dm(inst, projected)
            full_x = frozenset(range(nx))
            if m1.covered_x != full_x or m2.covered_x != full_x:
                ok = False
            if m1.edge_set & m2.edge_set:
                ok = False
            if not m2.edge_set <= set(dm.g2.edges()):
                ok = False
    ok = ok and time.time() - started < 120
    report("criterion 6: two-graph reduction equivalence (200 instances)", ok, started)


def test_criterion_7_coloring_tightness():
    started = time.time()
    rng = random.Random(1007)
    ok = True
    done = 0
    while done < 1000:
        g = random_graph(rng, rng.randint(1, 8), rng.randint(1, 8), 0.4)
        delta = max_degree(g)
        if delta > 5:
            continue
        done += 1
        classes = konig_color(g, delta)
        if not is_proper(g.edges(), classes) or sum(1 for c in classes if c) != delta:
            ok = False
        if delta > 0:
            try:
                konig_color(g, delta - 1)
                ok = False
            except ValueError:
                pass
    ok = ok and time.time() - started < 30
    report("criterion 7: max-degree colors split a graph, one fewer is refused (1000 graphs)",
           ok, started)


def test_criterion_8_cli_determinism(tmp_path):
    started = time.time()

    def capture(argv):
        out = io.StringIO()
        code = run(argv, stdout=out)
        return code, out.getvalue()

    inst_path = str(tmp_path / "i.sdm")
    _, gen_out = capture(["gen", "--nx", "5", "--ny", "5", "--density", "0.6",
                          "--s-size", "2", "--seed", "99"])
    with open(inst_path, "w") as handle:
        handle.write("".join(line + "\n" for line in gen_out.splitlines()[1:]))
    cnf_path = str(tmp_path / "f.cnf")
    with open(cnf_path, "w") as handle:
        handle.write("p cnf 2 2\n1 -2 0\n2 0\n")
    map_path = str(tmp_path / "f.map")
    _, red_out = capture(["reduce-3sat", cnf_path, "--map", map_path])
    red_path = str(tmp_path / "f.sdm")
    with open(red_path, "w") as handle:
        handle.write(red_out)
    _, sol_out = capture(["solve", red_path])
    sol_path = str(tmp_path / "f.sol")
    with open(sol_path, "w") as handle:
        handle.write(sol_out)

    commands = [
        ["gen", "--nx", "5", "--ny", "5", "--density", "0.6", "--s-size", "2", "--seed", "99"],
        ["solve", inst_path],
        ["oracle", inst_path, "--limit", "64"],
        ["lebensold", inst_path, "-k", "2"],
        ["reduce-3sat", cnf_path, "--map", map_path],
        ["solve", red_path],
        ["verify", red_path, sol_path],
        ["decode", map_path, sol_path],
        ["reduce-dm", inst_path],
    ]
    ok = True
    for argv in commands:
        code1, out1 = capture(argv)
        code2, out2 = capture(argv)
        if code1 != code2 or out1 != out2:
            ok = False
    report("criterion 8: CLI byte-identical reruns", ok, started)
