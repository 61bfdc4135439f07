"""The parser's two caps on generated trees, and the front ends on mutated input.

Base formulas from the ``conftest`` generators are wrapped in negations,
which nest once printed, or in a chain of conjunctions, which deepens the tree,
until the result lands at MAX_NESTING or MAX_DEPTH or just past it, and
placed in a formula, a label's body or a loop guard.  Each tree is refused, or
its printed form reads back as the same tree, from 100 frames deep.

The parser prints and counts only a tree taller than MAX_NESTING, which is
sound if no printed tree nests deeper than its height.  Towers of every node
kind, each kind repeated in runs, are built bottom-up, and the printed
nesting of each tree on the way is at most its height.

The same towers check ``_height`` against its definition, written here
recursively: 1 plus the tallest of a node's record-field parts.

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

from conftest import FIXTURES, random_expr, random_fml  # noqa: E402
from cycproof import cli, script  # noqa: E402
from cycproof.formulas import (  # noqa: E402
    BAnd,
    BBase,
    BBox,
    BDia,
    BNot,
    DAnd,
    DBase,
    DLabeled,
    DNot,
    DTer,
    Sequent,
)
from cycproof.oracle import BoundedOracle  # noqa: E402
from cycproof.parser import (  # noqa: E402
    MAX_DEPTH,
    MAX_NESTING,
    ParseError,
    _height,
    _nesting,
    _printed,
    dlp_src,
    parse_sequent,
    sequent_src,
)
from cycproof.record import fields  # noqa: E402
from cycproof.sep import Alloc, Dispose, HeapRead, HeapWrite  # noqa: E402
from cycproof.terms import (  # noqa: E402
    EPSILON,
    SKIP,
    TRUE,
    AndF,
    Assign,
    BinOp,
    Config,
    Forall,
    If,
    Le,
    Lit,
    NotF,
    Seq,
    Var,
    While,
)
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
    if draw(st.booleans()):  # towards MAX_NESTING; each negation prints "!(" more
        for _ in range(MAX_NESTING + past - _nesting(dlp_src(_place(where, fml)))):
            fml = NotF(fml)
    else:  # towards MAX_DEPTH
        for _ in range(MAX_DEPTH + past - _height(_place(where, fml))):
            fml = AndF(fml, Le(Var("x"), Lit(0)))
    return Sequent((), (_place(where, fml),))


@settings(settings.get_profile("parser-caps"))
@given(trees_near_the_caps())
def test_trees_near_the_caps_read_back_or_are_refused(nu):
    text = _from_deeper(100, lambda: sequent_src(nu))
    if _height(nu) > MAX_DEPTH or _nesting(text) > MAX_NESTING:
        with pytest.raises(ParseError) as err:
            _from_deeper(100, lambda: parse_sequent(text))
        assert "nested deeper than" in str(err.value)
        return
    assert _same_tree(_from_deeper(100, lambda: parse_sequent(text)), nu)


# Towers: (sort of the child, sort of the result, the node over a child).
# The sides are small trees; ``_side`` gives one of each sort.

def _side(rng, sort: str):
    if sort == "expr":
        return random_expr(rng, NAMES, 1)
    if sort == "fml":
        return random_fml(rng, NAMES, 1)
    if sort == "prog":
        return rng.choice([SKIP, EPSILON, Assign("x", Lit(1)), HeapWrite(Var("y"), Lit(1))])
    if sort == "body":
        return BBase(random_fml(rng, NAMES, 1))
    return DBase(random_fml(rng, NAMES, 1))


_ONE = Config((("n", Var("v")),))
_WRAPPERS = [
    ("expr", "expr", lambda r, c: BinOp(r.choice("+-*/"), c, _side(r, "expr"))),
    ("expr", "expr", lambda r, c: BinOp(r.choice("+-*/"), _side(r, "expr"), c)),
    ("expr", "fml", lambda r, c: Le(c, _side(r, "expr"))),
    ("expr", "fml", lambda r, c: Le(_side(r, "expr"), c)),
    ("expr", "prog", lambda r, c: Assign("x", c)),
    ("expr", "prog", lambda r, c: Alloc("x", c)),
    ("expr", "prog", lambda r, c: HeapRead("x", c)),
    ("expr", "prog", lambda r, c: HeapWrite(c, _side(r, "expr"))),
    ("expr", "prog", lambda r, c: HeapWrite(_side(r, "expr"), c)),
    ("expr", "prog", lambda r, c: Dispose(c)),
    ("expr", "config", lambda r, c: Config((("x", _side(r, "expr")), ("y", c)),
                                           stack=r.random() < 0.5)),
    ("fml", "fml", lambda r, c: NotF(c)),
    ("fml", "fml", lambda r, c: Forall(r.choice(NAMES), c)),
    ("fml", "fml", lambda r, c: AndF(c, _side(r, "fml"))),
    ("fml", "fml", lambda r, c: AndF(_side(r, "fml"), c)),
    ("fml", "fml", lambda r, c: AndF(Forall("q", c), _side(r, "fml"))),  # "(forall"
    ("fml", "fml", lambda r, c: AndF(_side(r, "fml"), Forall("q", c))),
    ("fml", "prog", lambda r, c: If(c, _side(r, "prog"), _side(r, "prog"))),
    ("fml", "prog", lambda r, c: While(c, _side(r, "prog"))),
    ("fml", "body", lambda r, c: BBase(c)),
    ("fml", "dlp", lambda r, c: DBase(c)),
    ("prog", "prog", lambda r, c: Seq(c, _side(r, "prog"))),
    ("prog", "prog", lambda r, c: Seq(_side(r, "prog"), c)),
    ("prog", "prog", lambda r, c: If(_side(r, "fml"), c, _side(r, "prog"))),
    ("prog", "prog", lambda r, c: If(_side(r, "fml"), _side(r, "prog"), c)),
    ("prog", "prog", lambda r, c: While(_side(r, "fml"), c)),
    ("prog", "body", lambda r, c: BBox(c, _side(r, "body"))),
    ("prog", "body", lambda r, c: BDia(c, _side(r, "body"))),
    ("prog", "dlp", lambda r, c: DTer(_ONE, c, Var("v"))),
    ("config", "dlp", lambda r, c: DLabeled(c, _side(r, "body"))),
    ("config", "dlp", lambda r, c: DTer(c, r.choice([SKIP, EPSILON]), c.entries[1][1])),
    ("body", "body", lambda r, c: BNot(c)),
    ("body", "body", lambda r, c: BAnd(c, _side(r, "body"))),
    ("body", "body", lambda r, c: BAnd(_side(r, "body"), c)),
    ("body", "body", lambda r, c: BBox(_side(r, "prog"), c)),
    ("body", "body", lambda r, c: BDia(_side(r, "prog"), c)),
    ("body", "dlp", lambda r, c: DLabeled(_ONE, c)),
    ("dlp", "dlp", lambda r, c: DNot(c)),
    ("dlp", "dlp", lambda r, c: DAnd(c, _side(r, "dlp"))),
    ("dlp", "dlp", lambda r, c: DAnd(_side(r, "dlp"), c)),
]
# the leaves: a bare variable, an address for the heap statements, and a
# negative literal under "*" or "/", printed "(-k)"
_LEAVES = [lambda r: Var(r.choice(NAMES)), lambda r: Lit(r.randint(-3, 3)),
           lambda r: BinOp(r.choice("*/"), _side(r, "expr"), Lit(-r.randint(1, 3)))]


def _towers(rng):
    """The trees of one tower, bottom-up: a leaf, then runs of one kind of
    node over the tree so far, and a sequent over a tower that ends in a
    formula."""
    tree, sort = rng.choice(_LEAVES)(rng), "expr"
    out = [tree]
    for _ in range(rng.randint(1, 12)):
        into, made, wrap = rng.choice([w for w in _WRAPPERS if w[0] == sort])
        for _ in range(rng.randint(1, 12) if made == sort else 1):
            tree, sort = wrap(rng, tree), made
            out.append(tree)
    if sort == "dlp":
        out.append(Sequent((_side(rng, "dlp"),) * rng.randint(0, 1), (tree,)))
    return out


@settings(settings.get_profile("parser-caps"))
@given(st.randoms(use_true_random=False))
def test_no_printed_tree_nests_deeper_than_its_height(rng):
    for tree in _towers(rng):
        assert _nesting(_printed(tree)) <= _height(tree), _printed(tree)


def _reference_height(value) -> int:
    """1 plus the largest height among a node's parts: its record fields,
    and the records in its tuple fields.  A sequent or a tuple adds no
    level, and a name, a number, a flag or an absent factor is no part."""
    if isinstance(value, Sequent):
        value = value.left + value.right
    if isinstance(value, tuple):
        return max(map(_reference_height, value), default=0)
    if value is None or isinstance(value, (str, int)):
        return 0
    return 1 + max((_reference_height(getattr(value, f.name)) for f in fields(value)),
                   default=0)


# a budget of about 2 s: 70 towers, each tree of each tower measured
settings.register_profile("height-reference", derandomize=True, database=None,
                          max_examples=70, deadline=None)


@settings(settings.get_profile("height-reference"))
@given(st.randoms(use_true_random=False))
def test_height_is_one_more_than_the_tallest_part(rng):
    # towers hold formulas, labeled formulas, programs with heap statements,
    # stores and stacks, and end in sequents
    for tree in _towers(rng):
        assert _height(tree) == _reference_height(tree), _printed(tree)
        if not isinstance(tree, Sequent):  # a sequent is read whole, never as a part
            pair = (tree, (_side(rng, "expr"),))
            assert _height(pair) == _reference_height(pair), _printed(tree)


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
