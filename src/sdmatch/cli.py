"""Command-line entry point.

Exit codes: 0 = yes/valid/holds, 1 = no/invalid/violated, 2 = error,
3 = step budget exhausted.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace
from typing import IO, Iterable, Optional, Sequence

from . import graph as gmod
from . import lebensold as lmod
from . import reductions as rmod
from .graph import SdmInstance
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


def _read(path: str) -> str:
    """The file's text as text mode reads it with encoding="ascii" and
    universal newlines (CRLF and a lone CR each become LF), in one raw read:
    text mode's buffer and decoder cost more than reading a small file."""
    try:
        with open(path, "rb", buffering=0) as handle:
            data = handle.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from exc
    text = data.decode("ascii")
    if "\r" in text:  # the test is cheaper than two replaces that find nothing
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _write_files(files: Sequence[tuple[str, Iterable[str]]]) -> None:
    """Write each (path, pieces of ASCII text) in order, piece by piece,
    before anything goes to stdout, so a failed command prints nothing. With
    more than one file, each path must be a writable file, or absent (a
    dangling symlink is neither) from a writable directory, and no two may
    name the same file, a hard link included, before any is opened, so a bad
    one spares the files that exist; one file has nothing to spare. A failure
    after that removes the files this call created."""
    if len(files) > 1:
        seen = {}  # (device, inode) of a file, or real path of an absent one -> path given
        for path, _ in files:
            exists = os.path.lexists(path)
            where = path if exists else os.path.dirname(path) or "."
            if os.path.isdir(path) or \
                    not os.access(where, os.W_OK if exists else os.W_OK | os.X_OK):
                raise _CliError(f"cannot write {path}: file or its directory not writable")
            stat = os.stat(path) if exists else None
            key = (stat.st_dev, stat.st_ino) if exists else os.path.realpath(path)
            if key in seen:
                raise _CliError(f"cannot write {path}: same file as {seen[key]}")
            seen[key] = path
    created = []
    for path, pieces in files:
        data = (piece.encode("ascii") for piece in pieces)
        first = next(data, b"")  # encoded before the open truncates the file
        existed = os.path.lexists(path)
        try:
            with open(path, "wb") as handle:  # buffered: a raw write may be partial
                if not existed:
                    created.append(path)
                handle.write(first)
                handle.writelines(data)
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
    cnf = _read(args.cnf)
    formula = rmod.parse_dimacs_cnf(cnf)
    if not formula.clauses:
        out.write("c trivially satisfiable (no clauses); nothing to reduce\n")
        return EXIT_YES
    instance = rmod.reduce_3sat_to_sdm(formula)
    if args.map_path is not None:
        _write_files([(args.map_path, [cnf])])
    out.write(gmod.serialize_instance(instance))
    return EXIT_YES


def _cmd_decode(args, out: IO[str]) -> int:
    formula = rmod.parse_dimacs_cnf(_read(args.cnf))
    spair = gmod.parse_solution(_read(args.solution))
    if spair is None:
        out.write("c RESULT no: nothing to decode\n")
        return EXIT_NO
    values = rmod.decode_spair_to_assignment(formula, spair)
    lits = [i if values[i] else -i for i in sorted(values)]
    out.write("v " + " ".join(str(l) for l in lits) + " 0\n")
    return EXIT_YES


def _cmd_reduce_dm(args, out: IO[str]) -> int:
    instance = _load_instance(args.instance)
    dm = rmod.reduce_sdm_to_dm(instance)
    parts = [("G1", args.g1_path, SdmInstance(dm.g1, ())),
             ("G2", args.g2_path, SdmInstance(dm.g2, ()))]
    _write_files([(path, gmod.instance_chunks(graph)) for _, path, graph in parts
                  if path is not None])
    for label, path, graph in parts:
        if path is None:
            out.write(f"c {label}\n")
            out.writelines(gmod.instance_chunks(graph))
    return EXIT_YES


def generate_instance(nx: int, ny: int, density: float,
                      s_size: int, seed: int) -> SdmInstance:
    """Seeded uniform random instance; reproducible byte-for-byte."""
    if nx < 0 or ny < 0:
        raise ValueError(f"negative vertex count: nx={nx}, ny={ny}")
    if max(nx, ny) > gmod.MAX_VERTICES:  # what neither reader would accept
        raise ValueError(f"more than {gmod.MAX_VERTICES} vertices on a side")
    if nx * ny > 10_000_000:  # one draw per (x, y) pair
        raise ValueError("more than 10000000 vertex pairs to draw")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    if not 0 <= s_size <= nx:
        raise ValueError("s-size must lie in [0, nx]")
    import random  # only gen draws, so no other command loads it

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


_REQUIRED = object()  # the default of an option that must be given

# command -> (handler, positionals, options, help); options map each flag to
# (dest, type, default). A missing argument is named positionals first, then
# options, each in table order.
_COMMANDS = {
    "solve": (_cmd_solve, ("instance",), {"--budget": ("budget", int, None)},
              "solve an SDM instance; --budget caps the steps of the exact search"),
    "verify": (_cmd_verify, ("instance", "solution"), {},
               "check a solution against an instance"),
    "lebensold": (_cmd_lebensold, ("graph",), {"-k": ("k", int, _REQUIRED)},
                  "k disjoint saturating matchings"),
    "reduce-3sat": (_cmd_reduce_3sat, ("cnf",), {"--map": ("map_path", str, None)},
                    "reduce a DIMACS CNF to SDM; --map writes a copy of the CNF, for decode"),
    "decode": (_cmd_decode, ("cnf", "solution"), {},
               "decode a solution into an assignment; cnf is the reduced CNF or its --map copy"),
    "reduce-dm": (_cmd_reduce_dm, ("instance",),
                  {"--g1": ("g1_path", str, None), "--g2": ("g2_path", str, None)},
                  "reduce SDM to the two-graph problem"),
    "gen": (_cmd_gen, (), {"--nx": ("nx", int, _REQUIRED), "--ny": ("ny", int, _REQUIRED),
                           "--density": ("density", float, 0.5),
                           "--s-size": ("s_size", int, 0), "--seed": ("seed", int, _REQUIRED)},
            "generate a seeded random instance"),
    "oracle": (_cmd_oracle, ("instance",),
               {"--limit": ("limit", int, DEFAULT_COUNT_EDGE_LIMIT)},
               "exact S-pair count (size-limited)"),
}


class _Help(Exception):
    """-h or --help was read: the argument is the command whose usage to
    print, or None for all of them."""


def _parse_plain_argv(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """Read argv in the plain form without a parser: a command name, then
    positionals (words that do not start with -) and options, each given as
    its exact flag and the next word, which does not start with -. None for
    any other word, or when an argument is missing or a value does not
    convert: _parse_by_argparse reads or refuses those."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, positionals, options, _ = _COMMANDS[argv[0]]
    args = {dest: default for dest, _, default in options.values()}
    values = []
    words = iter(argv[1:])
    for word in words:
        if word[:1] != "-":
            values.append(word)
            continue
        value = next(words, "-")  # a final flag has no value: refused below
        if word not in options or value[:1] == "-":
            return None
        dest, convert, _ = options[word]
        try:
            args[dest] = convert(value)
        except ValueError:
            return None
    if len(values) != len(positionals) or _REQUIRED in args.values():
        return None
    return SimpleNamespace(command=argv[0], **dict(zip(positionals, values)), **args)


def _parse_by_argparse(argv: Sequence[str]):
    """Read any argv with an argparse parser built from _COMMANDS. A bad
    argv raises _CliError with argparse's message, and -h or --help raises
    _Help, so usage is _help_text's."""
    import argparse  # here, so that a plain argv loads neither it nor gettext

    class Parser(argparse.ArgumentParser):
        command = None

        def error(self, message):
            raise _CliError(message)

        def print_help(self, file=None):
            raise _Help(self.command)

        def _get_values(self, action, arg_strings):
            # argparse 3.11 drops the first -- of every value, so the value
            # -- (--map=--, or a second -- read as a positional) would be []
            if arg_strings == ["--"]:
                return self._get_value(action, "--")
            return super()._get_values(action, arg_strings)

    parser = Parser(prog="sdmatch")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, positionals, options, _) in _COMMANDS.items():
        sub = commands.add_parser(name, prog=f"sdmatch {name}")
        sub.command = name
        for dest in positionals:
            sub.add_argument(dest)
        for flag, (dest, convert, default) in options.items():
            sub.add_argument(flag, dest=dest, type=convert, default=default,
                             required=default is _REQUIRED)
    return parser.parse_args(argv)


def _help_text(name: Optional[str]) -> str:
    """The usage of command `name`, or with None that of every command."""
    lines = [] if name else [__doc__.strip(), "", "usage (sdmatch COMMAND -h for one):"]
    for command, (_, positionals, options, text) in _COMMANDS.items():
        if name in (None, command):
            words = ["sdmatch", command, *positionals]
            for flag, (dest, _, default) in options.items():
                word = f"{flag} {dest.upper()}"
                words.append(word if default is _REQUIRED else f"[{word}]")
            lines += [("usage: " if name else "  ") + " ".join(words), f"      {text}"]
    return "\n".join(lines) + "\n"


def run(argv: Sequence[str], stdout: Optional[IO[str]] = None,
        stderr: Optional[IO[str]] = None) -> int:
    """Run one sdmatch command and return its exit code.

    run may be called many times in one process; each call gives the bytes
    and exit code a fresh `sdmatch` process would. argv is read against the
    command table _COMMANDS on every call, into a fresh attribute object;
    no handler writes to the table. An argv in the plain form is read
    without a parser (_parse_plain_argv); every other one goes to an
    argparse parser built from the table for that call, which gives
    argparse's error line. -h or --help prints usage to stdout and returns 0.

    The cyclic garbage collector is paused while the command runs and put
    back as run found it on every exit. Its passes find no garbage here:
    the commands build no reference cycles (rows, tuples, pairs and
    strings), so reference counting frees all they allocate. Only
    argparse's help and error paths leave a few hundred cyclic objects,
    which the first collection after run returns frees.
    """
    collecting = gc.isenabled()
    gc.disable()
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = _parse_plain_argv(argv) or _parse_by_argparse(argv)
        return _COMMANDS[args.command][0](args, out)
    except _Help as request:
        out.write(_help_text(request.args[0]))
        return EXIT_YES
    except (_CliError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_ERROR
    except BrokenPipeError:  # the reader closed stdout, e.g. `| head`
        return EXIT_ERROR
    except Exception as exc:  # a crash must never read as "no"
        err.write(f"error: internal: {type(exc).__name__}: {exc}\n")
        import traceback  # here, so that only a crash pays for loading it
        traceback.print_exc(file=err)
        return EXIT_ERROR
    finally:
        if collecting:
            gc.enable()


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
