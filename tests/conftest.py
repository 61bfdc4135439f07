from __future__ import annotations

import random
from pathlib import Path

import pytest

from cycproof.oracle import BoundedOracle
from cycproof.parser import parse_config, parse_expr, parse_fml, parse_prog
from cycproof.record import walk
from cycproof.terms import (
    AndF,
    BinOp,
    Config,
    Forall,
    Le,
    Lit,
    NotF,
    Var,
    While,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

WP_SRC = "while n > 0 do s := s + n ; n := n - 1 end"
PHI1_SRC = "s == ((v + 1) * v) / 2"
SIGMA1_SRC = "{n -> v, s -> 0}"
SIGMA3_SRC = "{n -> v - m, s -> ((2 * v - m + 1) * m) / 2}"
NU1_SRC = f". => v >= 0 -> {SIGMA1_SRC} : [{WP_SRC}] ({PHI1_SRC})"


@pytest.fixture
def oracle():
    return BoundedOracle(-50, 50)


@pytest.fixture
def wp():
    return parse_prog(WP_SRC)


@pytest.fixture
def sigma1():
    return parse_config(SIGMA1_SRC)


@pytest.fixture
def table4_text():
    return (FIXTURES / "table4.dlp").read_text()


# ---------------------------------------------------------------------------
# Random term generators (seeded; shared by round-trip and property tests)
# ---------------------------------------------------------------------------

def random_expr(rng: random.Random, names, depth: int = 3):
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.5:
            return Lit(rng.randint(-5, 5))
        return Var(rng.choice(names))
    op = rng.choice("+-*+-*/")  # division kept rare
    left = random_expr(rng, names, depth - 1)
    right = random_expr(rng, names, depth - 1)
    if op == "/":
        right = Lit(rng.choice([1, 2, 3, -2]))  # nonzero constant divisors
    return BinOp(op, left, right)


def random_fml(rng: random.Random, names, depth: int = 2):
    if depth == 0 or rng.random() < 0.4:
        return Le(random_expr(rng, names, 2), random_expr(rng, names, 2))
    kind = rng.randrange(3)
    if kind == 0:
        return NotF(random_fml(rng, names, depth - 1))
    if kind == 1:
        return AndF(random_fml(rng, names, depth - 1), random_fml(rng, names, depth - 1))
    return Forall(rng.choice(names), random_fml(rng, names, depth - 1))


def random_config(rng: random.Random, names):
    chosen = rng.sample(names, rng.randint(0, len(names)))
    return Config(tuple((x, random_expr(rng, names, 2)) for x in chosen))


# ---------------------------------------------------------------------------
# The loop-program termination script for the cyclic prover
# ---------------------------------------------------------------------------

def wp_cyclic_script() -> str:
    """The summation loop's cyclic termination proof, as `.dlp` text."""
    return (FIXTURES / "sum_terminates.dlp").read_text()


def termination_script(prog: str, config: str, factor: str, *lines: str) -> str:
    """A script proving ``config : prog ⇓ factor`` from no assumptions."""
    return "\n".join((f"goal . => {config} : {prog} ⇓ {factor}",) + lines)


def annotate_loops(annotations, term, invariant: str, factor: str):
    """``annotations`` with the invariant and factor given to every while
    loop in ``term``; returns ``annotations``."""
    for node in walk(term):
        if isinstance(node, While):
            annotations.annotate(node, parse_fml(invariant), parse_expr(factor))
    return annotations
