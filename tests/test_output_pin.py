"""Byte-for-byte pins of `sdmatch solve` on PolyLargeS instances, on the
exact search (BoundedS and ExactBacktrack), and of `sdmatch lebensold`.

Each case is a seeded graph; the pin is the exit code and a digest of the
whole stdout. Any change to the order in which the flow network is built or
explored, to which color class becomes M1, or to the matching the exact
search starts from and repairs, changes the printed matchings and so the
digest. Rebuild a pin only for a change that means to alter the
output, and say so where the change is described.
"""

import hashlib
import io
import random

from sdmatch import BipartiteGraph, SdmInstance, serialize_instance
from sdmatch.cli import run
from sdmatch.graph import random_graph
from sdmatch.solve import DEFAULT_BOUNDED_S_CAP

# seed -> (exit code, sha256 prefix of stdout); S = X on even seeds, X - 1 on odd
SOLVE_PINS = {
    0: (1, '225cd4cd1b90dd46'),
    1: (0, '3cf246708cf87f55'),
    2: (1, '225cd4cd1b90dd46'),
    3: (0, '4557c5ffcf4444aa'),
    4: (1, '225cd4cd1b90dd46'),
    5: (1, '225cd4cd1b90dd46'),
    6: (0, '971bab4cb2760a62'),
    7: (0, '4fa03b384fbcf830'),
    8: (0, 'dd5750b126af8b4e'),
    9: (0, '6b3679e46a5d1dec'),
    10: (0, '743bf9bd2e31a18d'),
    11: (0, '96abff20a6c9042a'),
    12: (0, 'a2c7ee6449f63b71'),
    13: (1, '225cd4cd1b90dd46'),
    14: (0, '5a3618234b78238a'),
    15: (1, '225cd4cd1b90dd46'),
    16: (0, '77865d0f1d92c8f4'),
    17: (0, '1ffbefc896cd24d2'),
    18: (0, '14d1c09842b5a496'),
    19: (0, '5bcbf2f31fbc3323'),
}

# seed -> (exit code, sha256 prefix of stdout); about 300 vertices and
# |S| <= 1 below seed 12, |X| = 10..14 and |S| = 3..|X|-2 from it
EXACT_PINS = {
    0: (1, '34e5c14224bbd079'),
    1: (0, '75347d570d529351'),
    2: (0, '86ad2b79d3fa3f31'),
    3: (1, '34e5c14224bbd079'),
    4: (0, '1fc11b31589fdf60'),
    5: (0, '8cb05889d63f4eac'),
    6: (1, '34e5c14224bbd079'),
    7: (0, '6d12e998bbc71ae6'),
    8: (0, '78de8bd12ecfff9a'),
    9: (1, '34e5c14224bbd079'),
    10: (0, '20401e1eed3bf748'),
    11: (0, '99a8d9ce4974140e'),
    12: (0, 'c371fdb56f3a0b7a'),
    13: (0, 'd02fc2d83fa94531'),
    14: (0, 'f9f4e49d4bd98300'),
    15: (1, '34e5c14224bbd079'),
    16: (0, '6b150c3b558e7185'),
    17: (0, '1e4743cf03c76afc'),
    18: (1, '34e5c14224bbd079'),
    19: (1, '821253cb40cba1e6'),
}

# seed -> (k, exit code, sha256 prefix of stdout)
LEBENSOLD_PINS = {
    0: (4, 1, '2f9194e98c5d2403'),
    1: (2, 0, '6da39fc47563227b'),
    2: (3, 1, '9b734e4f3d527738'),
    3: (3, 1, '156a5e2671b72887'),
    4: (4, 0, 'd0aac25bc906ebab'),
    5: (4, 1, '32f3424345850724'),
    6: (2, 1, '9a194563cadaffb8'),
    7: (2, 0, '947efebfd6a28519'),
    8: (3, 1, '51d81d3a900b5d55'),
    9: (3, 1, '77fa9c5ca5379bbb'),
    # odd k that holds: the split peels one matching before it halves
    15: (3, 0, 'b3850ed74e469ac7'),
    20: (3, 0, '3939323280507531'),  # |X| = |Y|: the peel's padded graph is two copies
}


def solve_case(seed):
    rng = random.Random(seed)
    nx = rng.randint(8, 40)
    ny = nx + rng.randint(0, 8)
    g = random_graph(rng, nx, ny, rng.choice((3, 5, 7, 9)) / ny)
    outside = rng.randrange(nx) if seed % 2 else -1
    return SdmInstance.make(g, [x for x in range(nx) if x != outside])


def exact_case(seed):
    rng = random.Random(2000 + seed)
    if seed < 12:
        nx, ny, s_size = rng.randint(130, 160), 160, seed % 2
    else:
        nx = rng.randint(10, 14)
        ny, s_size = nx + 2, rng.randint(3, nx - 2)
    g = random_graph(rng, nx, ny, 2 / ny)
    # plant 0, 1 or 2 X-saturating matchings, so that both verdicts occur
    planted = [(x, y) for _ in range(seed % 3) for x, y in enumerate(rng.sample(range(ny), nx))]
    g = BipartiteGraph.from_edges(nx, ny, g.edges() + planted)
    return SdmInstance.make(g, rng.sample(range(nx), s_size))


def lebensold_case(seed):
    rng = random.Random(1000 + seed)
    nx = rng.randint(6, 30)
    ny = nx + rng.randint(0, 10)
    k = rng.randint(2, 4)
    return k, SdmInstance.make(random_graph(rng, nx, ny, (k + rng.choice((1, 3, 6))) / ny), ())


def pin(tmp_path, argv, text):
    path = tmp_path / "case.sdm"
    path.write_text(text)
    out = io.StringIO()
    code = run(argv[:1] + [str(path)] + argv[1:], stdout=out)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


def test_solve_output_pinned(tmp_path):
    got = {seed: pin(tmp_path, ["solve"], serialize_instance(solve_case(seed)))
           for seed in SOLVE_PINS}
    assert got == SOLVE_PINS
    # both verdicts under S = X and under S = X - 1
    assert {(seed % 2, code) for seed, (code, _) in got.items()} == \
        {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_exact_output_pinned(tmp_path):
    cases = {seed: exact_case(seed) for seed in EXACT_PINS}
    got = {seed: pin(tmp_path, ["solve"], serialize_instance(case))
           for seed, case in cases.items()}
    assert got == EXACT_PINS
    # both verdicts with |S| <= 1 and under each label of the exact search
    kinds = {(min(len(case.s_set), 2) if len(case.s_set) <= DEFAULT_BOUNDED_S_CAP else "EB",
              got[seed][0]) for seed, case in cases.items()}
    assert kinds >= {(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), ("EB", 0), ("EB", 1)}


def test_lebensold_output_pinned(tmp_path):
    got = {}
    for seed in LEBENSOLD_PINS:
        k, instance = lebensold_case(seed)
        got[seed] = (k,) + pin(tmp_path, ["lebensold", "-k", str(k)], serialize_instance(instance))
    assert got == LEBENSOLD_PINS
    assert {code for _, code, _ in got.values()} == {0, 1}
