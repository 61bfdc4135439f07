"""The work of one ``search`` step, against the references it replaced.

Companions come from a dict of sequent keys, not from comparing each new
node with every ancestor; closed literals are decided from values kept on
their nodes, not keyed by ``_literal`` and evaluated by ``eval_bool`` at
each call.  Each is checked here against that older computation, kept in
this file as the reference.
"""

from __future__ import annotations

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import random_fml  # noqa: E402
from cycproof import formulas, kernel  # noqa: E402
from cycproof.formulas import sequents_equal  # noqa: E402
from cycproof.oracle import (  # noqa: E402
    BoundedOracle,
    BoundedValid,
    Invalid,
    Unknown,
    _independent_groups,
    _literal,
)
from cycproof.parser import parse_sequent  # noqa: E402
from cycproof.search import search  # noqa: E402
from cycproof.terms import AndF, BinOp, Forall, Le, Lit, NotF, Var, eval_bool  # noqa: E402

settings.register_profile("closed-literals", derandomize=True, database=None,
                          max_examples=80, deadline=None)


# ---------------------------------------------------------------------------
# Closed literals: decided by the values their nodes keep
# ---------------------------------------------------------------------------

def _reference_valid(oracle, gamma, delta):
    """``valid_sequent`` on a total sequent as it was before closed literals
    kept values: every literal keyed by ``_literal``, the axiom checked on
    the keys, and each closed literal evaluated by ``eval_bool``."""
    names, sides = set(), ({}, {})
    todo = [(f, 1) for f in reversed(delta)] + [(f, 0) for f in reversed(gamma)]
    while todo:
        phi, side = todo.pop()
        if type(phi) is NotF:
            todo.append((phi.body, 1 - side))
        elif type(phi) is AndF and side == 0:
            todo += ((phi.right, 0), (phi.left, 0))
        else:
            key, free = _literal(phi)  # the generated sequents are total
            names |= free
            sides[side].setdefault(key, (phi, free))
    names = sorted(names)
    total = (oracle.hi - oracle.lo + 1) ** len(names)
    if total > oracle.max_points:
        return Unknown(f"{total} grid points exceed the bounded-search cap")
    left, right = sides
    if not left.keys().isdisjoint(right):
        return BoundedValid()
    kept = []
    for side, found in enumerate(sides):
        for key, (phi, free) in found.items():
            if free:
                kept.append((side, key, phi, free))
            elif eval_bool({}, phi, oracle.quantifier_range) == side:
                return BoundedValid()
    span = range(oracle.lo, oracle.hi + 1)
    qspan = range(oracle.quantifier_range[0], oracle.quantifier_range[1] + 1)
    witness = {}
    for group in _independent_groups(kept):
        group_names, scan = oracle._group_scan(group)
        values = scan(span, qspan)
        if values is None:
            return BoundedValid()
        witness.update(zip(group_names, values))
    return Invalid(tuple((x, witness[x]) for x in names))


def _closed_expr(rng: random.Random, depth: int):
    """A closed expression up to ``depth`` deep, dividing only by nonzero
    literals: a chain down one side, with small trees hung off it."""
    e = Lit(rng.randint(-9, 9))
    for _ in range(depth):
        op = rng.choice("+-*/")
        if op == "/":
            other = Lit(rng.choice([1, 2, 3, -2]))
        elif rng.random() < 0.5:
            other = Lit(rng.randint(-5, 5))
        else:
            other = BinOp(rng.choice("+-*"), Lit(rng.randint(-5, 5)), Lit(rng.randint(-5, 5)))
        e = BinOp(op, e, other) if rng.random() < 0.7 or op == "/" else BinOp(op, other, e)
    return e


def _closed_literal(rng: random.Random):
    literal = Le(_closed_expr(rng, rng.randint(0, 30)), _closed_expr(rng, rng.randint(0, 3)))
    roll = rng.random()
    if roll < 0.2:
        return NotF(literal)
    if roll < 0.35:
        return AndF(literal, _closed_literal(rng))
    if roll < 0.45:  # closed, but ranging over the quantifier range: keyed
        return Forall("q", AndF(literal, Le(Var("q"), Lit(rng.randint(-2, 2)))))
    return literal


@st.composite
def mixed_sequents(draw):
    rng = draw(st.randoms(use_true_random=False))
    pool = ["a", "b", "c"]

    def literal():
        if rng.random() < 0.5:
            return _closed_literal(rng)
        return random_fml(rng, rng.sample(pool, rng.randint(1, 2)), 2)

    def side():
        return [literal() for _ in range(rng.randrange(4))]

    gamma, delta = side(), side()
    if gamma and rng.random() < 0.2:  # one literal on both sides
        delta.insert(rng.randrange(len(delta) + 1), rng.choice(gamma))
    return gamma, delta


@settings(settings.get_profile("closed-literals"))
@given(mixed_sequents())
def test_closed_literals_decide_as_eval_bool_does(sequent):
    gamma, delta = sequent
    oracle = BoundedOracle(-2, 2, quantifier_range=(-1, 1))
    reference = BoundedOracle(-2, 2, quantifier_range=(-1, 1))
    assert oracle.valid_sequent(gamma, delta) == _reference_valid(reference, gamma, delta)


def test_a_closed_literal_deeper_than_the_stack_is_decided():
    e = Lit(3000)
    for _ in range(3000):
        e = BinOp("-", e, Lit(1))
    zero = Le(e, Lit(0))  # 0 <= 0, 3000 levels deep, built in one go
    oracle = BoundedOracle(-5, 5)
    assert oracle.valid_sequent([], [zero]) == BoundedValid()  # true on the right
    assert oracle.valid_sequent([NotF(zero)], []) == BoundedValid()  # false on the left
    assert oracle.valid_sequent([zero], []) == Invalid()  # true on the left
    assert oracle.valid_sequent([zero], [Le(Var("x"), Lit(4))]) == Invalid((("x", 5),))


def test_closed_literals_keep_no_value_of_the_oracle():
    # a quantifier's value depends on the quantifier range: two oracles over
    # one node decide it each by its own range
    phi = Forall("q", Le(Var("q"), Lit(1)))
    assert BoundedOracle(-1, 1).valid_sequent([], [phi]) == BoundedValid()
    assert BoundedOracle(-2, 2).valid_sequent([], [phi]) == Invalid()
    assert BoundedOracle(-1, 1).valid_sequent([], [phi]) == BoundedValid()
    # a division by a closed term that is not a literal is not total: the
    # whole sequent is scanned as it stands, and 1 / (1 - 1) faults
    faulty = Le(BinOp("/", Lit(1), BinOp("-", Lit(1), Lit(1))), Lit(0))
    assert BoundedOracle(-1, 1).valid_sequent([], [faulty]) == Unknown(
        "evaluation error: 1 / 0")


# ---------------------------------------------------------------------------
# Companions: found by key, the nearest equal ancestor
# ---------------------------------------------------------------------------

def _nested_ifs(guards) -> str:
    if not guards:
        return "skip"
    inner = _nested_ifs(guards[1:])
    return f"if {guards[0]} then {inner} else {inner} end"


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("modality", ["box", "dia"])
def test_each_companion_is_the_nearest_equal_ancestor(k, modality):
    names = ("x", "y", "z")[:k]
    store = ", ".join(f"{v} -> {v}{i}" for i, v in enumerate(names))
    loop = f"while 3 <= 8 do {_nested_ifs([f'{v} <= 0' for v in names])} end"
    prog = f"[{loop}]" if modality == "box" else f"<{loop}>"
    goal = parse_sequent(f". => {{{store}}} : {prog} (4 <= 4)")
    result = search(goal, BoundedOracle(-2, 2), 6 * k + 10)
    assert result.verdict == ("ProvedBounded" if modality == "box" else "Rejected")
    graph = result.graph
    assert len(graph.backlinks) == 2 ** k
    for bud, companion in graph.backlinks.items():
        nearest = next(a for a in graph.ancestors(bud)
                       if sequents_equal(graph.node(a).sequent, graph.node(bud).sequent))
        assert companion == nearest, (bud, companion, nearest)


def test_a_ground_chain_compares_no_sequents(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return a.key == b.key

    for module in (formulas, kernel):
        monkeypatch.setattr(module, "sequents_equal", counted)
    prog = " ; ".join(f"x := x {'+-'[i % 2]} {i % 7 + 1}" for i in range(200))
    value = 0
    for i in range(200):
        value += (i % 7 + 1) * (1 if i % 2 == 0 else -1)
    goal = parse_sequent(f". => {{x -> 0}} : [{prog}] (x == {value})")
    result = search(goal, BoundedOracle(-50, 50), 205)
    assert result.verdict == "ProvedBounded"
    assert not result.graph.backlinks  # so link_bud, the one caller left, never ran
    assert len(result.graph.nodes) > 200
    assert calls == []
