"""Canonical keys order themselves.

Keys are built from strs, ints and tuples only, and every variant of a key
starts with its own tag, so any two keys of one kind compare natively: the
sorts inside ``canon`` and ``formulas.sequent_key`` need no ``key=repr``.
Keys are collected here from the benchmark corpus (only read), the random
term generators, and the store-heap programs and labels.
"""

from __future__ import annotations

import random
import sys
from itertools import combinations
from pathlib import Path

from conftest import random_config, random_expr, random_fml
from cycproof import canon, cli, script
from cycproof.formulas import (
    BBox,
    BDia,
    BNot,
    BAnd,
    BBase,
    DLabeled,
    body_key,
    formula_key,
    sequents_equal,
)
from cycproof.parser import parse_fml, parse_prog, parse_sequent
from cycproof.search import search
from cycproof.sep import Alloc, Dispose, HeapRead, HeapWrite, SepState
from cycproof.terms import BinOp, Config, Lit, Var

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import corpus  # noqa: E402


def _graph(inp):
    """The proof graph ``cycproof check`` or ``search`` builds for an input."""
    oracle = cli._make_oracle(inp.oracle)
    if inp.command == "check":
        replayer, _ = script.replay(inp.text, oracle)
        return replayer.graph
    return search(parse_sequent(inp.text), oracle, inp.depth).graph


def _corpus_graphs(workloads, variants=range(2)):
    for workload in workloads:
        for slot in corpus.WORKLOADS[workload]:
            for index in variants:
                yield _graph(corpus.variant(workload, slot, index))


class _Keys:
    """Keys of one kind each, collected from formulas and their parts."""

    def __init__(self):
        self.by_kind = {name: [] for name in (
            "formula", "body", "program", "label", "expr", "base", "term")}

    def formula(self, f):
        self.by_kind["formula"].append(formula_key(f))
        if isinstance(f, DLabeled):
            label = f.label
            self.by_kind["label"].append(
                canon.config_key(label) if isinstance(label, Config) else label.canon_key())
            self.body(f.body)
        for part in ("arg", "left", "right"):
            if hasattr(f, part):
                self.formula(getattr(f, part))
        if hasattr(f, "fml"):
            self.base(f.fml)

    def body(self, b):
        self.by_kind["body"].append(body_key(b))
        if isinstance(b, (BBox, BDia)):
            self.by_kind["program"].append(canon.program_key(b.prog))
            self.body(b.body)
        elif isinstance(b, BNot):
            self.body(b.body)
        elif isinstance(b, BAnd):
            self.body(b.left)
            self.body(b.right)
        else:
            self.base(b.fml)

    def base(self, phi):
        self.by_kind["base"].append(canon.formula_key(phi))
        self.by_kind["term"].append(canon.term_key(phi))

    def expr(self, e):
        self.by_kind["expr"].append(canon.expr_key(e))
        self.by_kind["term"].append(canon.term_key(e))


def _sep_formulas():
    rng = random.Random(6)
    programs = [Alloc("x", Lit(1)), HeapRead("y", BinOp("+", Var("x"), Lit(1))),
                HeapWrite(Var("y"), Lit(37)), Dispose(Var("x")), parse_prog("x := 1 ; y := x")]
    for _ in range(40):
        store = {name: rng.randint(-3, 3) for name in rng.sample("xyz", rng.randint(0, 3))}
        heap = {rng.randint(0, 5): rng.randint(-3, 3) for _ in range(rng.randint(0, 3))}
        body = BBase(parse_fml(rng.choice(["x <= y", "true", "y == 1"])))
        for prog in rng.sample(programs, rng.randint(1, 3)):
            body = rng.choice((BBox, BDia))(prog, body)
        yield DLabeled(SepState.make(store, heap), body)


def test_every_key_sorts_natively():
    keys = _Keys()
    for graph in _corpus_graphs(sorted(corpus.WORKLOADS)):
        for node in graph.nodes.values():
            for f in node.sequent.left + node.sequent.right:
                keys.formula(f)
    rng = random.Random(20261018)
    for _ in range(300):
        names = rng.choice([["x"], ["x", "y"], ["x", "y", "z"]])
        keys.expr(random_expr(rng, names, 3))
        keys.base(random_fml(rng, names, 3))
        keys.by_kind["label"].append(canon.config_key(random_config(rng, names)))
        keys.by_kind["term"].append(canon.term_key(random_config(rng, names)))
    for f in _sep_formulas():
        keys.formula(f)
    for kind, found in keys.by_kind.items():
        assert len(found) > 100, kind
        # a total order sorts the same list the same way from any start
        assert sorted(found) == sorted(found[::-1]), kind
    # labels of both kinds, in one sort
    assert {k[0] for k in keys.by_kind["label"]} == {"store", "sepstate"}


def _reference_key(nu):
    """The sequent's identity with each side ordered by ``repr``."""
    return tuple(tuple(sorted((formula_key(f) for f in side), key=repr))
                 for side in (nu.left, nu.right))


def test_sequent_identity_matches_repr_sorted_keys():
    equal_pairs = 0
    for graph in _corpus_graphs(["search-concrete", "search-branching"]):
        nodes = list(graph.nodes.values())
        refs = [_reference_key(node.sequent) for node in nodes]
        for (a, ref_a), (b, ref_b) in combinations(zip(nodes, refs), 2):
            same = sequents_equal(a.sequent, b.sequent)
            assert same == (ref_a == ref_b), (a.id, b.id)
            equal_pairs += same
    assert equal_pairs > 10  # each backlink is one
