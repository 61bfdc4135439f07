"""Every input ends in a verdict or a usage error, never in a traceback.

Generated ``check`` scripts, ``search`` goals and ``eval`` programs go
through ``cli.main`` in-process.  Each call returns 0, 1 or 2 and raises
nothing, and a ``check`` or ``search`` that ends in a verdict prints it
first.  The scripts apply every rule of ``kernel.CATALOG`` with arguments in
and out of range, run ``annotate`` then ``ter_base``, and ``diamond … with
progress``, on closed loops whose body divides by zero, and lift rules whose
witness divides by zero.  Goals, programs and stores hold numerals one digit
past Python's integer string limit.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cycproof import cli  # noqa: E402
from cycproof.kernel import CATALOG  # noqa: E402

settings.register_profile("no-traceback", derandomize=True, database=None,
                          max_examples=100, deadline=None)

BIG = "7" * ((getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300) + 1)
# loop bodies and stored values: a division by zero, a value squared past the
# digit limit within 14 steps, a numeral past it
EXPRS = ("x / 0", "x / (n - n)", "x * x", "x + 1", "x", BIG)
VALUES = ("1", "10", "x", "-1", BIG)
COUNTS = ("1", "2", "14", "n", "-1")

exprs = st.sampled_from(EXPRS)


@st.composite
def goals(draw) -> str:
    loop = f"while n > 0 do x := {draw(exprs)} ; n := n - 1 end"
    label = f"{{x -> {draw(st.sampled_from(VALUES))}, n -> {draw(st.sampled_from(COUNTS))}}}"
    return draw(st.sampled_from([
        f". => {label} : <{loop}> (n == 0)",
        f". => {label} : [{loop}] (x >= 0)",
        f". => {label} : {loop} ⇓ 1",
        f". => {label} : {loop} ⇓ n",
        "{x -> x} : x >= 0 => {x -> x} : x >= 0",
        f"x / 0 <= {draw(exprs)} => x / 0 <= x / 0",
        ". => {h -> 0} : [x := cons(1) ; [x] := 2] (x >= 0)",
    ]))


_ARGS = (
    "", " with occ 0", " with occ 1", " with occ 7", " with occ -1", " with choice 0",
    " with choice 3", " with left 0 right 0", " with left 5 right 0", " with side left",
    " with side right", " with side up", " with progress", " with target x <= 0",
    " with factor n", " with factor x / 0", " with 0", " with 0 1", " with h1 0 h2 1",
    f" with occ {BIG}", " with bogus",
)


_AT = ("", " at 0", " at 1", " at 2", " at 9")


def applies(rules=st.sampled_from(sorted(CATALOG))):
    """``apply`` lines of ``rules`` at any node with any argument."""
    return st.builds("apply {}{}{}".format, rules, st.sampled_from(_AT), st.sampled_from(_ARGS))


@st.composite
def closed_runs(draw) -> list:
    """A closed loop, annotated, that ``ter_base`` or ``diamond … with
    progress`` runs to its end."""
    loop = f"while n > 0 do x := {draw(exprs)} ; n := n - 1 end"
    label = f"{{x -> {draw(st.sampled_from(VALUES))}, n -> {draw(st.sampled_from(COUNTS))}}}"
    index = draw(st.sampled_from(["1", "1", "0", "2"]))
    factor = draw(st.sampled_from(["n", "n", "x / 0", BIG]))
    annotate = f"annotate while {index} invariant n >= 0 factor {factor}"
    if draw(st.booleans()):
        return [f"goal . => {label} : {loop} ⇓ 1", annotate, "apply ter_base at 1"]
    return [f"goal . => {label} : <{loop}> (n == 0)", annotate, "apply diamond at 1 with progress"]


@st.composite
def lifts(draw) -> list:
    """A lifted rule whose witness may divide by zero, applied."""
    cls = draw(st.sampled_from(["free", "standard"]))
    return ["goal {x -> x} : x >= 0 => {x -> x} : x >= 0",
            f"lift same from same.rule class {cls} witness fwd {{x := {draw(exprs)}}} "
            "bwd {x := x}", "apply same at 1"]


@st.composite
def commands(draw) -> list:
    """Any goal, then a cut, a substitution or a back-link."""
    expr = draw(exprs)
    return [f"goal {draw(goals())}", draw(st.sampled_from([
        f"cut x / 0 <= {expr}", "backlink at 2 to 1", f"sub at 1 {{x := {expr}}} premise . => x <= 0",
    ]))]


def _run(argv: list, files: dict) -> tuple:
    """``cli.main(argv)`` in a directory holding ``files``, with each
    ``{dir}`` in ``argv`` the directory; returns (status, stdout)."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([arg.replace("{dir}", tmp) for arg in argv])
    assert code in (0, 1, 2), (argv, files, out.getvalue(), err.getvalue())
    return code, out.getvalue()


def _check(lines: list) -> None:
    script = "\n".join(lines)
    code, out = _run(["check", "{dir}/proof.dlp", "--oracle", "bounded:-3..3"],
                     {"proof.dlp": script + "\n", "same.rule": "conclusion ?a => ?a\n"})
    assert code == 2 or out.startswith("verdict: "), (script, out)


@pytest.mark.parametrize("rule", sorted(CATALOG))
@settings(settings.get_profile("no-traceback"), max_examples=8)
@given(goals(), st.data())
def test_each_catalog_rule_ends_in_a_verdict(rule, goal, data):
    first = data.draw(applies(st.just(rule)))
    _check([f"goal {goal}", first, *data.draw(st.lists(applies(), max_size=2)), "qed"])


@settings(settings.get_profile("no-traceback"))
@given(st.one_of(closed_runs(), lifts(), commands()), st.booleans())
def test_generated_scripts_end_in_a_verdict(lines, qed):
    _check(lines + ["qed"] * qed)


@settings(settings.get_profile("no-traceback"), max_examples=60)
@given(goals(), st.integers(1, 6))
def test_generated_goals_end_in_a_verdict_or_a_usage_error(goal, depth):
    code, out = _run(["search", "{dir}/goal.txt", "--depth", str(depth),
                      "--oracle", "bounded:-3..3"], {"goal.txt": goal + "\n"})
    assert code == 2 or out.startswith("verdict: "), (goal, out)


@settings(settings.get_profile("no-traceback"), max_examples=60)
@given(exprs, st.sampled_from(VALUES), st.sampled_from(COUNTS),
       st.sampled_from([
           "while n > 0 do x := {e} ; n := n - 1 end", "x := {e}",
           "if x <= 0 then skip else x := {e} end", "x := cons({e})",
       ]))
def test_generated_programs_end_in_steps_or_an_error(expr, value, count, shape):
    _run(["eval", "{dir}/prog.txt", "--config", f"{{x -> {value}, n -> {count}}}",
          "--bound", "50"], {"prog.txt": shape.format(e=expr) + "\n"})
