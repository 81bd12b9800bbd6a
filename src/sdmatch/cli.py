"""Command-line entry point.

Exit codes: 0 = yes/valid/holds, 1 = no/invalid/violated, 2 = error,
3 = step budget exhausted.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import traceback
from typing import IO, Optional, Sequence

from . import graph as gmod
from . import lebensold as lmod
from . import reductions as rmod
from .graph import FormatError, SdmInstance
from .solve import (
    DEFAULT_COUNT_EDGE_LIMIT,
    BudgetExhausted,
    count_spairs_exact,
    solve as solve_instance,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sdmatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[], help="solve an SDM instance")
    p.add_argument("instance")
    p.add_argument("--budget", type=int, default=None,
                   help="step budget for the exact search")

    p = sub.add_parser("verify", help="check a solution against an instance")
    p.add_argument("instance")
    p.add_argument("solution")

    p = sub.add_parser("lebensold", help="k disjoint saturating matchings")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)

    p = sub.add_parser("reduce-3sat", help="reduce a DIMACS CNF to SDM")
    p.add_argument("cnf")
    p.add_argument("--map", dest="map_path", default=None,
                   help="write the mapping sidecar here instead of stdout")

    p = sub.add_parser("decode", help="decode a solution into an assignment")
    p.add_argument("mapping")
    p.add_argument("solution")

    p = sub.add_parser("reduce-dm", help="reduce SDM to the two-graph problem")
    p.add_argument("instance")
    p.add_argument("--g1", dest="g1_path", default=None)
    p.add_argument("--g2", dest="g2_path", default=None)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--s-size", type=int, default=0)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("oracle", help="exact S-pair count (size-limited)")
    p.add_argument("instance")
    p.add_argument("--limit", type=int, default=DEFAULT_COUNT_EDGE_LIMIT)
    return parser


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as handle:
            return handle.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc


def _write_files(files: Sequence[tuple[str, str]]) -> None:
    """Write each (path, text) in order, before anything goes to stdout, so a
    failed command prints nothing. With more than one file, each path must be
    a writable file or absent (a dangling symlink is neither) in a writable
    directory before any is opened, so a bad one spares the files that exist;
    one file has nothing to spare. A failure after that removes the files
    this call created."""
    if len(files) > 1:
        for path, _ in files:
            parent = os.path.dirname(path) or "."
            if os.path.isdir(path) or not os.access(parent, os.W_OK | os.X_OK) or \
                    (os.path.lexists(path) and not os.access(path, os.W_OK)):
                raise _CliError(f"cannot write {path}: file or its directory not writable")
    created = []
    for path, text in files:
        existed = os.path.lexists(path)
        try:
            with open(path, "w", encoding="ascii") as handle:
                if not existed:
                    created.append(path)
                handle.write(text)
        except OSError as exc:
            for done in created:
                os.remove(done)
            raise _CliError(f"cannot write {path}: {exc}") from exc


def _load_instance(path: str) -> SdmInstance:
    return gmod.parse_instance(_read(path))


def _cmd_solve(args, out: IO[str]) -> int:
    instance = _load_instance(args.instance)
    try:
        outcome = solve_instance(instance, budget=args.budget)
    except BudgetExhausted as exc:
        out.write(f"c {exc}\n")
        return EXIT_BUDGET
    out.write(f"c method {outcome.method.value}\n")
    out.write(gmod.serialize_solution(outcome.spair))
    return EXIT_YES if outcome.spair is not None else EXIT_NO


def _cmd_verify(args, out: IO[str]) -> int:
    instance = _load_instance(args.instance)
    spair = gmod.parse_solution(_read(args.solution))
    if spair is None:
        out.write("VALID no certificate to verify\n")
        return EXIT_YES
    ok, why = gmod.verify_spair(instance, spair)
    out.write(f"{'VALID' if ok else 'INVALID'} {why}\n")
    return EXIT_YES if ok else EXIT_NO


def _cmd_lebensold(args, out: IO[str]) -> int:
    verdict = lmod.lebensold_condition(_load_instance(args.graph).graph, args.k)
    if not verdict.holds:
        witness = " ".join(str(x + 1) for x in verdict.violating_set)
        out.write(f"VIOLATED {witness}\n")
        return EXIT_NO
    out.write("HOLDS\n")
    for idx, m in enumerate(verdict.matchings, start=1):
        out.write(gmod._format_matching_line(f"M{idx}", m) + "\n")
    return EXIT_YES


def _cmd_reduce_3sat(args, out: IO[str]) -> int:
    formula = rmod.parse_dimacs_cnf(_read(args.cnf))
    if not formula.clauses:
        out.write("c trivially satisfiable (no clauses); nothing to reduce\n")
        return EXIT_YES
    instance, gm = rmod.reduce_3sat_to_sdm(formula)
    text = gmod.serialize_instance(instance)
    mapping = rmod.serialize_gadget_map(gm)
    if args.map_path is None:
        text += mapping
    else:
        _write_files([(args.map_path, mapping)])
    out.write(text)
    return EXIT_YES


def _cmd_decode(args, out: IO[str]) -> int:
    gm = rmod.parse_gadget_map(_read(args.mapping))
    spair = gmod.parse_solution(_read(args.solution))
    if spair is None:
        out.write("c RESULT no: nothing to decode\n")
        return EXIT_NO
    values = rmod.decode_spair_to_assignment(gm, spair)
    lits = [i if values[i] else -i for i in sorted(values)]
    out.write("v " + " ".join(str(l) for l in lits) + " 0\n")
    return EXIT_YES


def _cmd_reduce_dm(args, out: IO[str]) -> int:
    instance = _load_instance(args.instance)
    dm = rmod.reduce_sdm_to_dm(instance)
    parts = [("G1", args.g1_path, gmod.serialize_graph(dm.g1)),
             ("G2", args.g2_path, gmod.serialize_graph(dm.g2))]
    _write_files([(path, text) for _, path, text in parts if path is not None])
    for label, path, text in parts:
        if path is None:
            out.write(f"c {label}\n" + text)
    return EXIT_YES


def generate_instance(nx: int, ny: int, density: float,
                      s_size: int, seed: int) -> SdmInstance:
    """Seeded uniform random instance; reproducible byte-for-byte."""
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    if not 0 <= s_size <= nx:
        raise ValueError("s-size must lie in [0, nx]")
    rng = random.Random(seed)
    graph = gmod.random_graph(rng, nx, ny, density)
    s_set = sorted(rng.sample(range(nx), s_size))
    return SdmInstance.make(graph, s_set)


def _cmd_gen(args, out: IO[str]) -> int:
    instance = generate_instance(args.nx, args.ny, args.density,
                                 args.s_size, args.seed)
    out.write(f"c seed {args.seed}\n")
    out.write(gmod.serialize_instance(instance))
    return EXIT_YES


def _cmd_oracle(args, out: IO[str]) -> int:
    instance = _load_instance(args.instance)
    count = count_spairs_exact(instance, size_limit=args.limit)
    out.write(f"{count}\n")
    return EXIT_YES


_HANDLERS = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "lebensold": _cmd_lebensold,
    "reduce-3sat": _cmd_reduce_3sat,
    "decode": _cmd_decode,
    "reduce-dm": _cmd_reduce_dm,
    "gen": _cmd_gen,
    "oracle": _cmd_oracle,
}


def run(argv: Sequence[str], stdout: Optional[IO[str]] = None,
        stderr: Optional[IO[str]] = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        return _HANDLERS[args.command](args, out)
    except (_CliError, FormatError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_ERROR
    except BrokenPipeError:  # the reader closed stdout, e.g. `| head`
        return EXIT_ERROR
    except Exception as exc:  # a crash must never read as "no"
        err.write(f"error: internal: {type(exc).__name__}: {exc}\n")
        traceback.print_exc(file=err)
        return EXIT_ERROR


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # what is left for the closed pipe would fail again at exit and print
        # "Exception ignored"; hand it to the null device instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_ERROR
    sys.exit(code)


if __name__ == "__main__":
    main()
