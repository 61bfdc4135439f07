"""Local soundness by sampling: premises true implies conclusion true.

Every rule instance created while replaying the main derivations is sampled
over 200 evaluations in -10..10.  Unknown verdicts (path-bound hits) skip a
sample; a definite premise-true/conclusion-false evaluation fails the test.
"""

from __future__ import annotations

import pytest

from conftest import FIXTURES
from cycproof import script as script_mod
from cycproof.oracle import BoundedOracle
from cycproof.semantics import soundness_sample


def _instances(graph):
    for node in sorted(graph.nodes.values(), key=lambda n: n.id):
        if node.rule_instance is not None:
            yield node.id, node.rule_instance


def _check_graph(graph, samples=200):
    failures = []
    for node_id, inst in _instances(graph):
        out = soundness_sample(inst.premises, inst.conclusion, samples=samples)
        if out.failures:
            failures.append((node_id, inst.rule, out.failures[0]))
    assert not failures, failures


@pytest.fixture(scope="module")
def oracle_m():
    return BoundedOracle(-50, 50)


def test_table4_instances_are_locally_sound(oracle_m):
    replayer, report = script_mod.replay(
        (FIXTURES / "table4.dlp").read_text(), oracle_m
    )
    assert report.succeeded
    _check_graph(replayer.graph)


def test_forged_diamond_instances_are_locally_sound(oracle_m):
    # the graph is rejected as a cyclic proof, but each single rule instance
    # is still a sound inference
    replayer, report = script_mod.replay(
        (FIXTURES / "diamond_forged.dlp").read_text(), oracle_m
    )
    _check_graph(replayer.graph)


def test_diamond_progress_instances_are_locally_sound(oracle_m):
    text = """
goal . => {n -> 2} : <while n > 0 do n := n - 1 end> (n == 0)
annotate while 1 invariant n >= 0 factor n
apply diamond at 1 with progress
apply diamond at 2 with progress
apply diamond at 3 with progress
apply box_eps at 4
apply int at 5
apply ter at 6
qed
"""
    replayer, report = script_mod.replay(text, oracle_m)
    assert report.succeeded, report.message
    _check_graph(replayer.graph)


def test_lifted_rule_instances_are_locally_sound(oracle_m):
    text = """
goal v >= 0 => {x -> v} : [x := x + 1 ; x := x * 2] (x >= 2)
apply sigma_seq at 1
apply box at 2
apply box_eps at 3
apply box at 4
apply box_eps at 5
apply int at 6
apply ter at 7
qed
"""
    replayer, report = script_mod.replay(text, oracle_m)
    assert report.succeeded, report.message
    _check_graph(replayer.graph)


def test_sep_rule_instances_are_locally_sound(oracle_m):
    from cycproof.formulas import BBase, DLabeled, Sequent
    from cycproof.kernel import ProofGraph
    from cycproof.parser import parse_fml
    from cycproof.sep import PointsTo, SBase, SepState, Star
    from cycproof.terms import Lit, Var

    st = SepState.make({"x": 37, "y": 38}, {37: 1, 38: 1})
    phi = Star(PointsTo(Var("x"), Lit(1)), PointsTo(Var("y"), Lit(1)))
    g = ProofGraph(Sequent((), (DLabeled(st, BBase(phi)),)), oracle=oracle_m)
    kids = g.apply_rule(1, "sigma_star", h1_addrs=[37], h2_addrs=[38])
    g.apply_rule(kids[0], "ter")
    for kid in kids[1:]:
        (n,) = g.apply_rule(kid, "int")
        g.apply_rule(n, "ter")

    st2 = SepState.make({"x": 37, "y": 4}, {37: 1})
    frame = Star(PointsTo(Var("x"), Lit(1)), SBase(parse_fml("y <= 4")))
    g2 = ProofGraph(Sequent((), (DLabeled(st2, BBase(frame)),)), oracle=oracle_m)
    g2.apply_rule(1, "sigma_frm")

    _check_graph(g, samples=50)
    _check_graph(g2, samples=50)
