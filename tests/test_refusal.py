"""One refusal class: every error the checker raises on its input derives
from ``terms.Refusal``, and each driver ends its run on it with one clause.

A division by zero met while a closed loop runs (in ``ter_base``, in
``diamond … progress``) or while a lifted rule's witness is sampled ends the
replay ``Stuck`` at its line.  A numeral longer than Python's integer string
limit is a parse error at the numeral, and a value that outgrows the limit
in ``eval`` is an evaluation error with nothing on stdout.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys

import pytest

import cycproof
from cycproof import cli

LOOP = "while n > 0 do x := x / 0 ; n := n - 1 end"
SCRIPTS = {
    "diamond_progress": (
        [f"goal . => {{x -> 1, n -> 1}} : <{LOOP}> (n == 0)",
         "annotate while 1 invariant n >= 0 factor n",
         "apply diamond at 1 with progress", "qed"],
        "note: DivisionByZero: 1 / 0 (script line 3)"),
    "ter_base": (
        [f"goal . => {{x -> 1, n -> 1}} : {LOOP} ⇓ 1",
         "annotate while 1 invariant n >= 0 factor n",
         "apply ter_base at 1", "qed"],
        "note: DivisionByZero: 1 / 0 (script line 3)"),
    "lift_witness": (
        ["goal {x -> x} : x >= 0 => {x -> x} : x >= 0",
         "lift same from same.rule class free witness fwd {x := x / 0} bwd {x := x}",
         "apply same at 1", "qed"],
        "note: DivisionByZero: -1 / 0 (script line 3)"),
}
# the most digits int() and str() convert (4,300 unless the interpreter was
# told otherwise); 0 means no limit, and then nothing here is refused
DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_limit = pytest.mark.skipif(not DIGITS, reason="no integer string limit")


def _main(capsys, *argv: str):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_every_exception_class_of_the_package_is_a_refusal():
    from cycproof.terms import DivisionByZero, Refusal

    classes = []
    for info in pkgutil.iter_modules(cycproof.__path__):
        module = importlib.import_module(f"cycproof.{info.name}")
        classes += [obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__]
    names = {f"{cls.__module__}.{cls.__qualname__}" for cls in classes}
    assert len(names) > 20 and "cycproof.search.DepthExhausted" in names, names
    strays = names - {f"{cls.__module__}.{cls.__qualname__}" for cls in classes
                      if issubclass(cls, Refusal)}
    assert strays == {"cycproof.record.FrozenInstanceError"}
    assert issubclass(DivisionByZero, ArithmeticError)


@pytest.mark.parametrize("name", SCRIPTS)
def test_a_division_by_zero_while_a_line_runs_ends_stuck_at_that_line(name, tmp_path, capsys):
    lines, note = SCRIPTS[name]
    (tmp_path / "same.rule").write_text("conclusion ?a => ?a\n")
    script = tmp_path / f"{name}.dlp"
    script.write_text("\n".join(lines) + "\n")
    code, out, err = _main(capsys, "check", str(script))
    assert (code, out.splitlines()[:2], err) == (1, ["verdict: Stuck", note], "")


@needs_limit
def test_a_numeral_past_the_digit_limit_is_refused_at_the_numeral(tmp_path, capsys):
    big = "7" * (DIGITS + 1)
    goal = tmp_path / "goal.txt"
    goal.write_text(f". => {{x -> 0}} : [x := {big}] x >= 0\n")
    code, out, err = _main(capsys, "search", str(goal), "--depth", "3")
    assert (code, out) == (2, "")
    assert err == (f"cannot load goal: a numeral of more than {DIGITS} digits "
                   "(line 1, column 23)\n")

    prog = tmp_path / "prog.txt"
    prog.write_text("x := x + 1\n")
    code, out, err = _main(capsys, "eval", str(prog), "--config", f"{{x -> {big}}}")
    assert (code, out) == (2, "") and err.startswith("cannot load program: a numeral of")

    script = tmp_path / "big.dlp"
    script.write_text(f"goal {goal.read_text()}qed\n")
    code, out, err = _main(capsys, "check", str(script))
    assert code == 1 and out.splitlines()[:2] == [
        "verdict: Stuck",
        f"note: ParseError: a numeral of more than {DIGITS} digits (line 1, column 23) "
        "(script line 1)"]

    # a numeral of exactly the limit still reads
    goal.write_text(f". => {{x -> 0}} : [x := {big[1:]}] x >= 0\n")
    code, out, _ = _main(capsys, "search", str(goal), "--depth", "3")
    assert code == 0 and out.startswith("verdict: ProvedBounded\n")


@needs_limit
def test_eval_builds_its_lines_before_it_prints_them(tmp_path, capsys):
    # 10 squared 14 times has 16,385 digits: run() computes it, and printing
    # the state that holds it fails
    prog = tmp_path / "square.txt"
    prog.write_text("while n > 0 do x := x * x ; n := n - 1 end\n")
    code, out, err = _main(capsys, "eval", str(prog), "--config", "{x -> 10, n -> 14}")
    assert (code, out) == (1, "")
    assert err == f"evaluation error: cannot print over {DIGITS} digits\n"
    code, out, _ = _main(capsys, "eval", str(prog), "--config", "{x -> 10, n -> 2}")
    assert code == 0 and out.splitlines()[-1] == "5: (ε, {x -> 10000, n -> 0})"
