"""Batch front end: check scripts, search goals, run programs.

Exit status is 0 for Proved/ProvedBounded, 1 for Rejected/Stuck, 2 for
usage or parse errors, and 141 (``BROKEN_PIPE``, 128 + SIGPIPE, as a shell
reports a command that SIGPIPE ended) when the reader of standard output
closes it early, as ``head`` does: then the rest of the output is dropped,
without a traceback.  Every verdict is printed together with its oracle
obligation ledger.  Files are read and written as UTF-8; a script, goal or
program that cannot be read or decoded, and a ``--dump`` or ``--emit`` file
that cannot be written (after the report is printed), are usage errors.

Every error the checker raises on its input is a ``terms.Refusal``; any
other exception is a bug and is not caught.  A goal, program or ``--config``
that does not parse is a usage error; later, a refusal ends ``check`` and
``search`` ``Stuck`` with its class in the note, and ``eval`` with
``evaluation error: …`` on stderr and nothing on stdout.  A numeral of more
digits than ``int`` reads (``sys.get_int_max_str_digits()``) is a
ParseError.  The parser's caps refuse deep input whatever the stack, but
symbolic execution builds deeper terms (a store value ``x + 1 + ... + 1``
after 1500 loop steps), over which most term functions recurse: there a
``RecursionError`` ends the run as a refusal does, which is sound because
``Stuck`` never accepts.  Reports, dumps and ``eval``'s lines are built in
full before anything is printed or written, so no half-written output is
left, and a proof graph is dumped only for ``--dump``.  A negative
``check --path-bound`` or ``eval --bound`` and a ``search --depth`` below 1
are usage errors (exit 2).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

from . import parser, script as script_mod
from .oracle import BoundedOracle
from .terms import Refusal
from .whilelang import State, run


BROKEN_PIPE = 141
_ORACLE_FORMS = "bounded, bounded:<lo>..<hi> (integers, lo <= hi) or smt:<command>"
_RANGE = re.compile(r"(-?\d+)\.\.(-?\d+)")


def _make_oracle(spec: str):
    """The oracle ``spec`` names; ``ValueError`` with a usage message naming
    the accepted forms when it is malformed."""
    if spec == "bounded":
        return BoundedOracle(-50, 50)
    kind, _, rest = spec.partition(":")
    if kind == "bounded":
        found = _RANGE.fullmatch(rest.strip())
        if found and int(found[1]) <= int(found[2]):
            return BoundedOracle(int(found[1]), int(found[2]))
    elif kind == "smt" and rest.split():
        from .smt import SmtOracle  # only an smt: run loads the SMT-LIB back end

        return SmtOracle(rest)
    raise ValueError(f"bad oracle spec {spec!r}; use {_ORACLE_FORMS}")


def _add_common(sub):
    sub.add_argument("--oracle", default="bounded:-50..50",
                     help=_ORACLE_FORMS)
    sub.add_argument("--dump", help="write the proof-graph s-expression to a file")


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> bool:
    """Writes ``text`` and a newline to ``path``; False, with a usage message,
    when it cannot."""
    try:
        Path(path).write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _negative(what: str, value: int) -> bool:
    """Whether ``value`` is negative, reported as a usage error when it is."""
    if value < 0:
        print(f"{what} must be at least 0", file=sys.stderr)
    return value < 0


def cmd_check(args) -> int:
    if _negative("path bound", args.path_bound):
        return 2
    try:
        text = _read(args.script)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read script: {exc}", file=sys.stderr)
        return 2
    try:
        oracle = _make_oracle(args.oracle)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        replayer, report = script_mod.replay(
            text, oracle, args.path_bound, base_dir=Path(args.script).parent
        )
        rendered = report.render()
        dump = replayer.graph.dump() if args.dump and replayer.graph is not None else None
    except RecursionError as exc:
        return _stuck_on_overflow(exc)
    print(rendered)
    if dump is not None and not _write(args.dump, dump):
        return 2
    return 0 if report.succeeded else 1


def cmd_search(args) -> int:
    try:
        goal = parser.parse_sequent(_read(args.goal).strip())
    except (OSError, UnicodeDecodeError, parser.ParseError, RecursionError) as exc:
        print(f"cannot load goal: {exc}", file=sys.stderr)
        return 2
    try:
        oracle = _make_oracle(args.oracle)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.depth < 1:
        print("depth must be at least 1", file=sys.stderr)
        return 2
    from . import search as search_mod  # only this command loads the search

    try:
        result = search_mod.search(goal, oracle, args.depth)
        report = script_mod.ledger(result.verdict, result.message, result.graph.obligations())
        dump = result.graph.dump() if args.dump else None
    except RecursionError as exc:
        return _stuck_on_overflow(exc)
    print("\n".join(report))
    if args.emit:
        if not _write(args.emit, result.script):
            return 2
        print(f"script written to {args.emit}")
    else:
        print("script:")
        for line in result.script.splitlines():
            print(f"  {line}")
    if dump is not None and not _write(args.dump, dump):
        return 2
    return 0 if result.proved else 1


def _stuck_on_overflow(exc: RecursionError) -> int:
    print("verdict: Stuck")
    print(f"note: RecursionError: {exc} (a term nests deeper than the stack allows)")
    return 1


def cmd_eval(args) -> int:
    if _negative("bound", args.bound):
        return 2
    try:
        prog = parser.parse_prog(_read(args.program).strip())
        config = parser.parse_config(args.config)
    except (OSError, UnicodeDecodeError, parser.ParseError, RecursionError) as exc:
        print(f"cannot load program: {exc}", file=sys.stderr)
        return 2
    try:
        states, done = run(State(prog, config), args.bound)
        lines = [f"{i}: {s}" for i, s in enumerate(states)]
    except (Refusal, RecursionError) as exc:  # division by zero, open guards, ...
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 1
    if not done:
        lines.append("exit flag: bound")
    print("\n".join(lines))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cycproof",
        description="cyclic sequent proofs over symbolically executed programs",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    p_check = subs.add_parser("check", help="replay a proof script")
    p_check.add_argument("script")
    p_check.add_argument("--path-bound", type=int, default=10_000)
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_search = subs.add_parser("search", help="bounded backward search for a goal")
    p_search.add_argument("goal", help="file holding one sequent")
    p_search.add_argument("--depth", type=int, required=True)
    p_search.add_argument("--emit", help="write the found script to a file")
    _add_common(p_search)
    p_search.set_defaults(func=cmd_search)

    p_eval = subs.add_parser("eval", help="print a program's step sequence")
    p_eval.add_argument("program", help="file holding one program")
    p_eval.add_argument("--config", required=True, help="initial configuration, e.g. '{n -> 3}'")
    p_eval.add_argument("--bound", type=int, default=10_000)
    p_eval.set_defaults(func=cmd_eval)
    return ap


# built once: parsing reads the parser without changing it
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
    except BrokenPipeError:
        # the "Note on SIGPIPE" in the documentation of ``signal``: send the
        # output still buffered to the null device, so that exit flushes it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    return status


if __name__ == "__main__":
    sys.exit(main())
