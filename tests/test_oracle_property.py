"""The bounded oracle against its definition on generated total sequents.

Each literal is drawn over one or two names of a pool of five, so the
sequents fall into groups that share no variable, in every arrangement the
draw gives.  Some literals are drawn over three names from subterms over one
or two of them, so that the compiled scan tests them in an inner loop and
computes their subterms over outer names ahead of it.  The ``conftest``
generators divide only by nonzero constants, so every sequent is total and
takes the oracle's split scan.

One oracle instance keeps each total sequent's verdict under its literal
sets for as long as it lives; a stream of calls that repeat sequents, with
their sides shuffled and their formulas duplicated, is checked call by call
against a fresh instance, which has nothing kept.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import random_expr, random_fml  # noqa: E402
from cycproof.oracle import BoundedOracle, Invalid  # noqa: E402
from cycproof.parser import parse_fml  # noqa: E402
from cycproof.terms import BinOp, Forall, Le, NotF  # noqa: E402
from test_oracle import _scalar_bounded  # noqa: E402

# a fixed sequence of examples, so the tier-1 run is the same every time
settings.register_profile("oracle-split", derandomize=True, database=None,
                          max_examples=60, deadline=None)

POOL = ["a", "b", "c", "d", "e"]


def _three_names(rng, names):
    """A literal over the three ``names``, built from subterms over one or
    two of them, sometimes negated or under a quantifier of one of them."""
    parts = [random_expr(rng, rng.sample(names, rng.randint(1, 2)), 2) for _ in range(3)]
    literal = Le(BinOp(rng.choice("+-*"), parts[0], parts[1]), parts[2])
    roll = rng.random()
    if roll < 0.25:
        return NotF(literal)
    if roll < 0.45:
        return Forall(rng.choice(names), literal)
    return literal


@st.composite
def total_sequents(draw):
    rng = draw(st.randoms(use_true_random=False))
    pool = POOL[:draw(st.integers(4, 5))]

    def literal():
        if rng.random() < 0.3:
            return _three_names(rng, rng.sample(pool, 3))
        return random_fml(rng, rng.sample(pool, rng.randint(1, 2)), 2)

    def side():
        return [literal() for _ in range(rng.randrange(4))]

    return side(), side()


@settings(settings.get_profile("oracle-split"))
@given(total_sequents())
def test_split_scan_matches_the_scalar_definition(sequent):
    gamma, delta = sequent
    oracle = BoundedOracle(-2, 2, quantifier_range=(-1, 1))
    assert oracle.valid_sequent(gamma, delta) == _scalar_bounded(oracle, gamma, delta)


@st.composite
def repeated_calls(draw):
    """A few total sequents, then a stream of calls to them in which each
    side is shuffled and may carry one of its formulas twice."""
    sequents = draw(st.lists(total_sequents(), min_size=1, max_size=4))
    rng = draw(st.randoms(use_true_random=False))
    calls = []
    for _ in range(12):
        gamma, delta = (list(side) for side in rng.choice(sequents))
        for side in (gamma, delta):
            if side and rng.random() < 0.4:
                side.append(rng.choice(side))
            rng.shuffle(side)
        calls.append((gamma, delta))
    return calls


def _fresh():
    return BoundedOracle(-2, 2, quantifier_range=(-1, 1))


@settings(settings.get_profile("oracle-split"))
@given(repeated_calls())
def test_kept_verdicts_equal_a_fresh_instances(calls):
    oracle = _fresh()
    for gamma, delta in calls:
        assert oracle.valid_sequent(gamma, delta) == _fresh().valid_sequent(gamma, delta)


def test_a_repeated_literal_set_is_served_from_the_instance():
    oracle = BoundedOracle(-2, 2)
    x, y = parse_fml("x <= y"), parse_fml("y * y <= x + 1")
    first = oracle.valid_sequent([x], [y])
    assert first == Invalid((("x", -2), ("y", -2)))
    assert oracle.valid_sequent([x, x], [y]) is first
    assert oracle.valid_sequent([parse_fml("x <= y")], [y]) is first  # equal, not the same node


def test_a_sequent_that_is_not_total_is_decided_at_each_call():
    # its first division by zero follows formula order, so no verdict is kept
    oracle = BoundedOracle(0, 1)
    p, q = parse_fml("2 / x <= 5"), parse_fml("1 / y <= 5")
    for gamma, zero in (([p, q], "2 / 0"), ([q, p], "1 / 0"), ([p, q], "2 / 0")):
        assert str(oracle.valid_sequent(gamma, [])) == f"unknown (evaluation error: {zero})"


def test_instances_with_different_boxes_share_nothing():
    narrow = BoundedOracle(-2, 2, quantifier_range=(0, 1))
    wide = BoundedOracle(0, 3, quantifier_range=(0, 2))
    free = [parse_fml("0 <= x")]
    closed = [parse_fml("forall k. k <= 1")]  # ranges over the quantifier range
    for _ in range(2):
        assert narrow.valid_sequent([], free) == Invalid((("x", -2),))
        assert str(wide.valid_sequent([], free)) == "bounded-valid"
        assert str(narrow.valid_sequent([], closed)) == "bounded-valid"
        assert wide.valid_sequent([], closed) == Invalid(())
