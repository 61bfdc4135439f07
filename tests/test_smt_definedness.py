"""The SMT-LIB problems ``emit_smtlib`` writes, decided without a solver.

A small evaluator for the subset the emitter uses brute-forces each problem
over a grid; its answer must agree with the bounded oracle on the same grid:
``sat`` exactly where the bounded oracle does not accept (a counterexample,
or a division by zero that no short cut masks).
"""

from __future__ import annotations

import re
import sys
from itertools import product

from test_oracle import _differential_cases
from cycproof import cli
from cycproof.oracle import BoundedOracle, Invalid, Valid, is_accepting
from cycproof.parser import parse_fml
from cycproof.smt import SmtOracle, emit_smtlib
from cycproof.terms import TermError

_TOKEN = re.compile(r"\(|\)|\|[^|]*\||[^\s()|]+")


def _read(text: str) -> list:
    """The problem's commands as nested lists of tokens."""
    stack = [[]]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    return stack[0]


def _value(t, env: dict, funs: dict):
    if isinstance(t, str):
        if t in env:
            return env[t]
        return t == "true" if t in ("true", "false") else int(t)
    head, *args = t
    if head == "ite":
        return _value(args[1] if _value(args[0], env, funs) else args[2], env, funs)
    # and, or and => evaluate left to right and stop early, so a division the
    # emitted guards do not protect raises below instead of being ignored
    if head == "and":
        return all(_value(a, env, funs) for a in args)
    if head == "or":
        return any(_value(a, env, funs) for a in args)
    if head == "=>":
        return not _value(args[0], env, funs) or _value(args[1], env, funs)
    vals = [_value(a, env, funs) for a in args]
    if head in funs:
        params, body = funs[head]
        return _value(body, dict(zip(params, vals)), funs)
    if head == "not":
        return not vals[0]
    if head == "-":
        return -vals[0] if len(vals) == 1 else vals[0] - vals[1]
    if head == "div":  # SMT-LIB's Euclidean division
        a, b = vals
        if b == 0:
            raise ZeroDivisionError("unguarded division by zero")
        return a // b if b > 0 else -(a // -b)
    ops = {"+": lambda a, b: a + b, "*": lambda a, b: a * b, "<=": lambda a, b: a <= b,
           ">=": lambda a, b: a >= b, "=": lambda a, b: a == b}
    return ops[head](*vals)


def brute_force(problem: str, lo: int, hi: int):
    """``("sat", model)`` for the first point of ``lo..hi`` per constant that
    satisfies every assertion, else ``("unsat", None)``."""
    names, funs, asserts = [], {}, []
    for command in _read(problem):
        head = command[0]
        if head == "declare-const":
            names.append(command[1])
        elif head == "define-fun":
            funs[command[1]] = ([p[0] for p in command[2]], command[4])
        elif head == "assert":
            asserts.append(command[1])
        else:
            assert head in ("set-logic", "check-sat", "get-model"), command
    for point in product(range(lo, hi + 1), repeat=len(names)):
        env = dict(zip(names, point))
        if all(_value(a, env, funs) for a in asserts):
            return "sat", env
    return "unsat", None


# divisions that a short cut masks, and the same ones unmasked
_MASKED = [
    ("y == 0 || x / y >= 0", "y != 0"),
    ("y != 0 && x / y >= 1", "x / y >= 1"),
    ("y == 0 && x / y <= 0", ""),
    ("x / y <= 0 && y == 0", ""),
    ("", "y == 0 || x / y <= x / y"),
    ("", "x / y <= x / y || y == 0"),
    ("y != 0", "x / y * y <= x || x < 0"),
    ("x != 0 && y / x != 0", "x / (y / x) <= x * x"),
    ("x != 0", "y / x != 0 && x / (y / x) <= 9"),
]


def _cases():
    for gamma, delta in _differential_cases():
        yield tuple(gamma), tuple(delta)
    for left, right in _MASKED:
        yield ((parse_fml(left),) if left else ()), ((parse_fml(right),) if right else ())


def test_emitted_problem_is_sat_where_the_bounded_oracle_does_not_accept():
    oracle = BoundedOracle(-2, 2)
    decided = {"sat": 0, "unsat": 0}
    limit = sys.getrecursionlimit()
    # the evaluator spends two or three frames per level, and the cases
    # include terms 600 levels deep
    sys.setrecursionlimit(max(limit, 4000))
    try:
        for gamma, delta in _cases():
            try:
                problem = emit_smtlib(gamma, delta)
            except TermError:
                continue  # a quantifier, outside QF_NIA: the SMT oracle answers unknown
            answer, _ = brute_force(problem, -2, 2)
            bounded = oracle.valid_sequent(gamma, delta)
            assert (answer == "sat") == (not is_accepting(bounded)), (gamma, delta, bounded)
            decided[answer] += 1
    finally:
        sys.setrecursionlimit(limit)
    assert min(decided.values()) > 50, decided


def _brute_force_ask(oracle, problem):
    answer, env = brute_force(problem, -3, 3)
    model = " ".join(f"(define-fun {x} () Int {v})" for x, v in (env or {}).items())
    return answer, f"{answer}\n(model {model})\n"


def test_masked_division_is_not_proved_through_the_smt_oracle(monkeypatch, tmp_path, capsys):
    # the old emission asserted every divisor nonzero, so an unsat answer
    # made this Proved; at y = 0 the left side holds and the right fails
    monkeypatch.setattr(SmtOracle, "_ask", _brute_force_ask)
    out = SmtOracle("unused").valid_sequent([parse_fml("y == 0 || x / y >= 0")],
                                           [parse_fml("y != 0")])
    assert isinstance(out, Invalid) and out.witness_map()["y"] == 0, out
    assert isinstance(SmtOracle("unused").valid_sequent(
        [parse_fml("y != 0 && x / y >= 1")], [parse_fml("x / y >= 1")]), Valid)

    goal = tmp_path / "goal.dlp"
    goal.write_text("y == 0 || x / y >= 0 => y != 0\n")
    code = cli.main(["search", str(goal), "--depth", "3", "--oracle", "smt:unused"])
    printed = capsys.readouterr().out
    assert code == 1 and printed.startswith("verdict: Stuck"), printed
