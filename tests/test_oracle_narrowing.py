"""Loop ranges narrowed from linear literals, against the scan's definition.

A literal of a total group that is linear in the variable of the loop it is
tested in (a nonzero integer coefficient, the rest over outer variables)
bounds that loop instead of being tested in it.  The generated groups are
built for that: each literal is a half-line in its innermost variable, with
a coefficient of 1 to 3 either way, written in one of several equal forms,
beside a bound part over outer variables, linear or not, whose constant puts
the bound inside, outside or across the box.  Some Delta literals are ``&&``
of half-lines in one direction or in both, some literals sit under a
``forall``, some are negated (the oracle moves them to the other side), and
some are not linear, so narrowed bounds and tests meet at one level.

Each group is checked two ways: the bounded oracle's verdict and witness
against ``_scalar_bounded`` (``eval_bool`` at every grid point), and the
group's compiled total scan against the ordered scan of the same literals
(``total=False``), which tests everything in the innermost loop.  Settings
are derandomized with a fixed example count (300); the suite takes about
3 s.
"""

from __future__ import annotations

import ast
import copy
from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import FIXTURES, random_expr  # noqa: E402
from cycproof import oracle as oracle_module  # noqa: E402
from cycproof.oracle import BoundedOracle, BoundedValid, _compile_scan  # noqa: E402
from cycproof.parser import parse_fml  # noqa: E402
from cycproof.terms import AndF, BinOp, Forall, Le, Lit, NotF, Var, free_vars, truncated_div  # noqa: E402
from test_oracle import _scalar_bounded  # noqa: E402

settings.register_profile("oracle-narrowing", derandomize=True, database=None,
                          max_examples=300, deadline=None)

POOL = ["a", "b", "c"]
BOX = (-3, 3)
QRANGE = (-2, 2)


def _outer(rng, names):
    """A bound part over ``names`` (maybe none): a constant that may fall
    outside the box, a linear term that moves the bound across it, or a
    product or quotient of outer variables."""
    constant = Lit(rng.randint(-12, 12))
    if not names or rng.random() < 0.25:
        return constant
    y = Var(rng.choice(names))
    roll = rng.random()
    if roll < 0.4:
        return BinOp("+", BinOp("*", Lit(rng.choice([-2, -1, 2])), y), constant)
    if roll < 0.7:
        return BinOp("-", y, constant)
    if roll < 0.85:
        return BinOp("*", y, Var(rng.choice(names)))
    return BinOp("/", random_expr(rng, names, 2), Lit(rng.choice([2, 3, -2])))


def _times(rng, c: int, x: str):
    """``c * x`` in one of several equal forms."""
    v = Var(x)
    forms = [BinOp("*", Lit(c), v), BinOp("*", v, Lit(c))]
    if c == 1:
        forms.append(v)
    if c == 2:
        forms.append(BinOp("+", v, v))
    if c == -1:
        forms.append(BinOp("-", Lit(0), v))
    return rng.choice(forms)


def _half(rng, x: str, outer: list, sign: int | None = None):
    """``Le`` whose ``right - left`` is ``c * x`` plus a part over ``outer``,
    with ``c`` of sign ``sign`` (either when ``None``)."""
    c = rng.choice([1, 2, 3]) * (sign or rng.choice([-1, 1]))
    r1, r2 = _outer(rng, outer), _outer(rng, outer)
    if rng.random() < 0.5:
        return Le(r1, BinOp("+", _times(rng, c, x), r2))
    return Le(BinOp("-", _times(rng, -c, x), r1), r2)


def _literal(rng, x: str, outer: list, side: int):
    roll = rng.random()
    if roll < 0.45:
        return _half(rng, x, outer)
    if roll < 0.7 and side == 1:  # a Delta &&, one direction or mixed
        sign = rng.choice([-1, 1]) if rng.random() < 0.6 else None
        conjuncts = [_half(rng, x, outer, sign) for _ in range(rng.randint(2, 3))]
        phi = conjuncts.pop()
        while conjuncts:
            phi = AndF(conjuncts.pop(), phi)
        return phi
    if roll < 0.8:
        bound = rng.choice(outer + ["k"])  # shadowing an outer variable, or not
        return Forall(bound, _half(rng, x, sorted({*outer, bound})))
    # x times a term that is mostly not constant: mostly not linear
    product = BinOp("*", Var(x), random_expr(rng, [x] + outer, 1))
    return Le(product, random_expr(rng, [x] + outer, 2))


@st.composite
def linear_groups(draw):
    """``(gamma, delta)``: literals as the oracle reads them (``&&`` only on
    the right, no ``!``), each tested at the loop of its greatest name."""
    rng = draw(st.randoms(use_true_random=False))
    pool = POOL[:draw(st.integers(2, 3))]
    sides = ([], [])
    for _ in range(draw(st.integers(1, 5))):
        side = rng.randrange(2)
        level = rng.randrange(len(pool))
        outer = rng.sample(pool[:level], rng.randint(0, level))
        sides[side].append(_literal(rng, pool[level], outer, side))
    return sides


def _negate_some(rng, gamma, delta):
    """The same sequent with some literals moved across as ``!``."""
    left, right = [], []
    for side, formulas in ((0, gamma), (1, delta)):
        for phi in formulas:
            if rng.random() < 0.3:
                (right if side == 0 else left).append(NotF(phi))
            else:
                (left if side == 0 else right).append(phi)
    return left, right


def _scans(gamma, delta):
    names = sorted(set().union(*(free_vars(f) for f in gamma + delta)))
    span, qspan = range(BOX[0], BOX[1] + 1), range(QRANGE[0], QRANGE[1] + 1)
    return (_compile_scan(names, gamma, delta, total=True)(span, qspan),
            _compile_scan(names, gamma, delta)(span, qspan))


@settings(settings.get_profile("oracle-narrowing"))
@given(linear_groups(), st.randoms(use_true_random=False))
def test_narrowed_scans_match_the_scalar_and_the_ordered_scan(group, rng):
    gamma, delta = group
    total, ordered = _scans(gamma, delta)
    assert total == ordered
    oracle = BoundedOracle(*BOX, quantifier_range=QRANGE)
    left, right = _negate_some(rng, gamma, delta)
    assert oracle.valid_sequent(left, right) == _scalar_bounded(oracle, left, right)


# ---------------------------------------------------------------------------
# Fixed cases: where a bound falls, and what is never narrowed
# ---------------------------------------------------------------------------

CASES = [
    # (gamma, delta, the loop ranges of the total scan), ``a`` bound before ``x``
    (["0 <= x - 1"], [], ["range(max(_span[0], 1), _span[-1] + 1)"]),  # inside
    (["x <= 9"], [], ["range(_span[0], min(_span[-1], 9) + 1)"]),  # above the box
    (["x <= -9"], [], ["range(_span[0], min(_span[-1], -9) + 1)"]),  # below: empty
    (["2 * x <= 3"], ["x <= -3"], ["range(max(_span[0], -2), min(_span[-1], 3 // 2) + 1)"]),
    (["a <= 3 * x"], ["3 * x <= a + 1"],  # across the box as a moves, rounded up
     ["_span", "range(max(_span[0], -(-_v0 // 3), -((-_v0 - 2) // 3)), _span[-1] + 1)"]),
    (["-2 * x <= a"], ["-3 * x - 1 <= a"],  # rounded up, and down
     ["_span", "range(max(_span[0], -(_v0 // 2)), min(_span[-1], (-_v0 - 2) // 3) + 1)"]),
    (["x - a <= 0", "1 <= x - a"], [],  # an empty range
     ["_span", "range(max(_span[0], _v0 + 1), min(_span[-1], _v0) + 1)"]),
    ([], ["x <= a - 1 && 2 * x <= a"],  # one direction: fails from the least bound
     ["_span", "range(max(_span[0], min(_v0, -((-_v0 - 1) // 2))), _span[-1] + 1)"]),
    ([], ["a <= x && a + 1 <= 2 * x"],  # ... or up to the greatest
     ["_span", "range(_span[0], min(_span[-1], max(_v0 - 1, _v0 // 2)) + 1)"]),
    ([], ["x <= a && a <= x"], ["_span", "_span"]),  # both directions: a test
    (["forall k. k <= x + 2"], [], ["_span"]),  # a quantifier: a test
    ([], ["x * x <= 3"], ["_span"]),  # not linear: a test
    ([], ["a * x <= 3"], ["_span", "_span"]),  # a coefficient that is not constant
    # x cancels: a test at x's loop; a <= 1 fails from 2
    (["x - x + a <= 0"], ["a <= 1"], ["range(max(_span[0], 2), _span[-1] + 1)", "_span"]),
]


def _spy(monkeypatch) -> list:
    """The trees the oracle module compiles from now on."""
    trees = []

    def spy(tree, *args):
        trees.append(tree)
        return compile(tree, *args)

    monkeypatch.setattr(oracle_module, "compile", spy, raising=False)
    return trees


@pytest.mark.parametrize("gamma, delta, ranges", CASES)
def test_fixed_cases_narrow_where_they_should(monkeypatch, gamma, delta, ranges):
    gamma, delta = [parse_fml(f) for f in gamma], [parse_fml(f) for f in delta]
    trees = _spy(monkeypatch)
    names = sorted(set().union(*(free_vars(f) for f in gamma + delta)))
    _compile_scan(names, gamma, delta, total=True)
    assert [ast.unparse(n.iter) for n in ast.walk(trees[0]) if isinstance(n, ast.For)] == ranges
    total, ordered = _scans(gamma, delta)
    assert total == ordered
    oracle = BoundedOracle(*BOX, quantifier_range=QRANGE)
    assert oracle.valid_sequent(gamma, delta) == _scalar_bounded(oracle, gamma, delta)


# ---------------------------------------------------------------------------
# table4's obligations, point by point
# ---------------------------------------------------------------------------

def _visits(tree, span, qspan) -> list:
    """The points at which the innermost loop of a compiled scan runs its
    body, from a copy of ``tree`` that records each one."""
    tree = copy.deepcopy(tree)
    loops = [n for n in ast.walk(tree) if isinstance(n, ast.For)]
    point = ", ".join(loop.target.id for loop in loops)
    loops[-1].body.insert(0, ast.parse(f"_seen.append(({point},))").body[0])
    ast.fix_missing_locations(tree)
    seen = []
    namespace = {"_tdiv": truncated_div, "_seen": seen}
    exec(compile(tree, "<visits>", "exec"), namespace)
    namespace["_scan"](span, qspan)
    return seen


def test_table4_exit_visits_one_v_per_m_and_its_step_none(monkeypatch):
    trees = _spy(monkeypatch)
    oracle = BoundedOracle(-50, 50)
    span = range(-50, 51)
    exit_ = ([parse_fml("v - m >= 0"), parse_fml("v - m <= 0")],
             [parse_fml("((2 * v - m + 1) * m) / 2 == ((v + 1) * v) / 2")])
    step = ([parse_fml("v - m >= 0"), parse_fml("!(v - m <= 0)")],
            [parse_fml("(v - (m + 1) >= -1) && (v - (m + 1) >= 0)")])
    assert oracle.valid_sequent(*exit_) == BoundedValid()
    seen = _visits(trees.pop(), span, span)
    per_m = Counter(m for m, _ in seen)
    assert len(seen) == 101 and max(per_m.values()) == 1  # 10,201 before
    assert all(v == m for m, v in seen)
    assert oracle.valid_sequent(*step) == BoundedValid()
    assert _visits(trees.pop(), span, span) == []


def test_the_refuted_sum_loop_stops_at_its_first_counterexample(capsys):
    # its exit obligation fails first at m = v = -13, inside the box, where
    # the narrowed scan must stop as the full grid scan does
    from cycproof import cli

    assert cli.main(["check", str(FIXTURES / "sum_refuted.dlp")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("verdict: Stuck\n")
    assert ": invalid [m = -13, v = -13] at node 10 (script line 15)\n" in out
