"""The parser's two caps on generated trees, and the front ends on mutated input.

Base formulas from the ``conftest`` generators are wrapped in negations,
which nest once printed, or in a chain of conjunctions, which deepens the tree,
until the result lands at MAX_NESTING or MAX_DEPTH or just past it, and
placed in a formula, a label's body or a loop guard.  Each tree is refused, or
its printed form reads back as the same tree, from 100 frames deep.

Scripts and goals are the ``table4`` proof and its goal with lines dropped,
repeated or swapped and characters dropped, inserted or repeated.  Each replay
and each ``search`` ends in a verdict or a usage error, never in an exception.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import FIXTURES, random_fml  # noqa: E402
from cycproof import cli, script  # noqa: E402
from cycproof.formulas import BBase, BBox, DBase, DLabeled, Sequent  # noqa: E402
from cycproof.oracle import BoundedOracle  # noqa: E402
from cycproof.parser import (  # noqa: E402
    MAX_DEPTH,
    MAX_NESTING,
    ParseError,
    _measure,
    _nesting,
    parse_sequent,
    sequent_src,
)
from cycproof.terms import SKIP, TRUE, AndF, Assign, Config, Le, Lit, NotF, Var, While  # noqa: E402
from test_parser import _from_deeper, _same_tree  # noqa: E402

# a fixed sequence of examples, so the tier-1 run is the same every time
settings.register_profile("parser-caps", derandomize=True, database=None,
                          max_examples=40, deadline=None)

NAMES = ["x", "y", "z"]
TABLE4 = (FIXTURES / "table4.dlp").read_text()
VERDICTS = {"Proved", "ProvedBounded", "Rejected", "Stuck"}


def _place(where: str, fml):
    if where == "formula":
        return DBase(fml)
    if where == "body":
        return DLabeled(Config((("x", Lit(0)),)), BBox(Assign("x", Lit(1)), BBase(fml)))
    return DLabeled(Config(()), BBox(While(fml, SKIP), BBase(TRUE)))


@st.composite
def trees_near_the_caps(draw):
    rng = draw(st.randoms(use_true_random=False))
    where = draw(st.sampled_from(["formula", "body", "guard"]))
    past = draw(st.integers(-3, 1))  # how far past the cap it lands
    fml = random_fml(rng, NAMES, rng.randint(0, 3))
    if draw(st.booleans()):  # towards MAX_NESTING
        for _ in range(MAX_NESTING + past - _measure(_place(where, fml))[1]):
            fml = NotF(fml)
    else:  # towards MAX_DEPTH
        for _ in range(MAX_DEPTH + past - _measure(_place(where, fml))[0]):
            fml = AndF(fml, Le(Var("x"), Lit(0)))
    return Sequent((), (_place(where, fml),))


@settings(settings.get_profile("parser-caps"))
@given(trees_near_the_caps())
def test_trees_near_the_caps_read_back_or_are_refused(nu):
    height, nesting = _measure(nu)
    if height > MAX_DEPTH or nesting > MAX_NESTING:
        text = sequent_src(nu)
        with pytest.raises(ParseError) as err:
            _from_deeper(100, lambda: parse_sequent(text))
        assert "nested deeper than" in str(err.value)
        return
    text = _from_deeper(100, lambda: sequent_src(nu))
    assert _nesting(text) == nesting
    assert _same_tree(_from_deeper(100, lambda: parse_sequent(text)), nu)


_PIECES = ["(", ")", "[", "]", "{", "}", "<", ">", "!", "-", "+", "*", "/", ";", ":", ",",
           ".", "|", "?", "@", "=>", "->", "||", "&&", "<=", "==", ":=", "0", "-1", "x", "m",
           "forall q .", "while", "if", "then", "else", "do", "end", "at", "to", "with",
           "premise", "split", "left", "right", "occ", "choice", "x := cons(1)", "dispose(x)",
           "[x] := 1", "y := [x]", "99999999999999999999", "\n", " "]


def _mutate(rng, text: str) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(lines))
        roll = rng.random()
        if roll < 0.15 and len(lines) > 1:
            del lines[i]
        elif roll < 0.3:
            lines.insert(i, lines[rng.randrange(len(lines))])
        elif roll < 0.4:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            line = lines[i]
            a = rng.randrange(len(line) + 1)
            b = min(len(line), a + rng.randint(1, 12))
            edit = rng.randrange(3)
            if edit == 0:
                lines[i] = line[:a] + line[b:]
            elif edit == 1:
                lines[i] = line[:a] + rng.choice(_PIECES) + line[a:]
            else:  # a span repeated, as deep brackets or long runs of "!"
                lines[i] = line[:a] + line[a:b] * rng.randint(2, 40) + line[b:]
    return "\n".join(lines)


@settings(settings.get_profile("parser-caps"))
@given(st.randoms(use_true_random=False))
def test_mutated_scripts_end_in_a_verdict(rng):
    _, report = script.replay(_mutate(rng, TABLE4), BoundedOracle(-3, 3))
    assert report.verdict in VERDICTS


@settings(settings.get_profile("parser-caps"))
@given(st.randoms(use_true_random=False))
def test_mutated_goals_end_in_a_verdict_or_a_usage_error(rng):
    goal = next(line for line in TABLE4.splitlines() if line.startswith("goal "))[5:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "goal.txt"
        path.write_text(_mutate(rng, goal))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(["search", str(path), "--depth", "3", "--oracle", "bounded:-3..3"])
    assert code in (0, 1, 2), out.getvalue()
