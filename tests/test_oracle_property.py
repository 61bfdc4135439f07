"""The bounded oracle against its definition on generated total sequents.

Each literal is drawn over one or two names of a pool of five, so the
sequents fall into groups that share no variable, in every arrangement the
draw gives.  Some literals are drawn over three names from subterms over one
or two of them, so that the compiled scan tests them in an inner loop and
computes their subterms over outer names ahead of it.  The ``conftest``
generators divide only by nonzero constants, so every sequent is total and
takes the oracle's split scan.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import random_expr, random_fml  # noqa: E402
from cycproof.oracle import BoundedOracle  # noqa: E402
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
