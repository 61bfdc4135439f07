from __future__ import annotations

import pytest

from conftest import FIXTURES
from cycproof import script as script_mod
from cycproof.cyclic import OpenGoals, check_cyclic
from cycproof.kernel import new_proof
from cycproof.oracle import BoundedOracle
from cycproof.parser import parse_dlp, parse_sequent
from cycproof.semantics import lemma1_probe, revalidate


@pytest.fixture
def table4_graph(oracle, table4_text):
    replayer, report = script_mod.replay(table4_text, oracle)
    assert report.succeeded, report.message
    return replayer.graph


def test_open_goals_are_rejected(oracle):
    g = new_proof(parse_sequent(". => x <= 0"), oracle=oracle)
    with pytest.raises(OpenGoals):
        check_cyclic(g)


def test_finite_tree_accepts_vacuously(oracle):
    g = new_proof(parse_sequent(". => 0 <= 0"), oracle=oracle)
    g.apply_rule(1, "ter")
    cert = check_cyclic(g)
    assert cert.accepted and not cert.witnesses


def test_table4_accepts_with_progressing_witness(table4_graph):
    cert = check_cyclic(table4_graph)
    assert cert.accepted
    (witness,) = cert.witnesses
    assert witness.companion == 3 and witness.bud == 18
    assert witness.cycle_nodes[0] == 3 and witness.cycle_nodes[-1] == 3
    assert witness.progress_at[0] in (6, 11)
    assert revalidate(table4_graph, cert)
    assert "cycle 3: progress via occurrence" in cert.report()


def test_cut_weaken_cycle_is_rejected(oracle):
    # a cycle forged out of cut and weakening alone has no target pairs,
    # hence no progress edge
    g = new_proof(parse_sequent("a <= 0 => {x -> 1} : [x := 1 ; skip] (x == 1)"), oracle=oracle)
    right, left = g.apply_rule(1, "cut", fml=parse_dlp("a <= 0"))
    (back,) = g.apply_rule(left, "wk_l", occs=[1])
    g.link_bud(back, 1)
    (other,) = g.apply_rule(right, "wk_r", occs=[0])
    g.apply_rule(other, "ax")
    cert = check_cyclic(g)
    assert not cert.accepted
    assert back in cert.reject_cycle and 1 in cert.reject_cycle
    assert revalidate(g, cert)


def test_forged_diamond_cycle_is_rejected(oracle):
    text = (FIXTURES / "diamond_forged.dlp").read_text()
    replayer, report = script_mod.replay(text, oracle)
    assert report.verdict == "Rejected"
    cert = replayer.certificate
    assert cert is not None and not cert.accepted
    assert revalidate(replayer.graph, cert)


def test_diamond_with_certificate_closes_and_accepts(oracle):
    # the same kind of loop claim, discharged by concrete unrolling with a
    # termination judgment on every step
    from cycproof.parser import parse_expr, parse_fml
    from cycproof.whilelang import LoopAnnotations

    goal = parse_sequent(". => {n -> 1} : <while n > 0 do n := n - 1 end> (n == 0)")
    g = new_proof(goal, oracle=oracle)
    ann = LoopAnnotations((parse_fml("n >= 0"), parse_expr("n")))
    (n2,) = g.apply_rule(1, "diamond", progress=True, annotations=ann)
    (n3,) = g.apply_rule(n2, "diamond", progress=True, annotations=ann)
    (n4,) = g.apply_rule(n3, "box_eps")  # the diamond of the terminal program
    (n5,) = g.apply_rule(n4, "int")
    g.apply_rule(n5, "ter")
    cert = check_cyclic(g)
    assert cert.accepted


RELABELED_TABLE4 = """
goal . => v >= 0 -> {n -> v, s -> 0} : [while n > 0 do s := s + n ; n := n - 1 end] (s == ((v + 1) * v) / 2)
apply imp_r at 1
sub at 2 {m := 0} premise v - m >= 0 => {n -> v - m, s -> ((2 * v - m + 1) * m) / 2} : [while n > 0 do s := s + n ; n := n - 1 end] (s == ((v + 1) * v) / 2)
cut at 3 v - m > 0 || v - m <= 0
apply or_l at 5 with occ 1
apply box at 6
apply box at 8
cut at 9 (v - (m + 1) >= -1) && (v - (m + 1) >= 0) split
apply wk_r at 10 with 0
apply ter at 12
apply wk_l at 11 with 0 1
sub at 13 {m := m + 1} premise v - m >= -1, v - m >= 0 => {n -> v - m, s -> ((2 * v - m + 1) * m) / 2} : [while n > 0 do s := s + n ; n := n - 1 end] (s == ((v + 1) * v) / 2)
apply wk_l at 14 with 0
backlink at 15 to 3
apply box at 7
apply box_eps at 16
apply int at 17
apply ter at 18
apply wk_r at 4 with 0
apply ter at 19
qed
"""


def test_checker_is_insensitive_to_node_relabeling(oracle):
    # the same proof built in a different command order: node ids permute,
    # the verdict and cycle structure do not
    r2, rep2 = script_mod.replay(RELABELED_TABLE4, BoundedOracle(-50, 50))
    assert rep2.verdict == "ProvedBounded", rep2.message
    cert = check_cyclic(r2.graph)
    assert cert.accepted
    (witness,) = cert.witnesses
    assert witness.companion == 3 and witness.bud == 15


TWO_CYCLE_SCRIPT = """
# countdown loop whose body branches on an unrelated, undecidable guard:
# both branches generalize back to the same companion, giving two cycles
goal . => {x -> w, y -> u} : [while x > 0 do if y > 0 then x := x - 1 else x := x - 2 end end] (x <= 0)
sub at 1 {m := 0} premise . => {x -> w - m, y -> u} : [while x > 0 do if y > 0 then x := x - 1 else x := x - 2 end end] (x <= 0)
cut at 2 w - m > 0 || w - m <= 0
apply wk_r at 3 with 0
apply ter at 5
apply or_l at 4 with occ 0
cut at 6 u > 0 || u <= 0
apply wk_r at 8 with 0
apply ter at 10
apply or_l at 9 with occ 1
apply box at 11
apply wk_l at 13 with 0 1
sub at 14 {m := m + 1} premise . => {x -> w - m, y -> u} : [while x > 0 do if y > 0 then x := x - 1 else x := x - 2 end end] (x <= 0)
backlink at 15 to 2
apply box at 12
apply wk_l at 16 with 0 1
sub at 17 {m := m + 2} premise . => {x -> w - m, y -> u} : [while x > 0 do if y > 0 then x := x - 1 else x := x - 2 end end] (x <= 0)
backlink at 18 to 2
apply box at 7
apply box_eps at 19
apply int at 20
apply ter at 21
qed
"""


def test_two_backlinks_to_one_companion():
    # three free variables per obligation: keep the bounded grid small
    replayer, report = script_mod.replay(TWO_CYCLE_SCRIPT, BoundedOracle(-10, 10))
    assert report.verdict == "ProvedBounded", report.message
    assert replayer.graph.backlinks == {15: 2, 18: 2}
    cert = replayer.certificate
    assert cert.accepted and len(cert.witnesses) == 2
    assert report.trace_report.count("cycle 2:") == 2


def test_lemma1_probe_requires_rule_edge(table4_graph):
    with pytest.raises(OpenGoals):
        lemma1_probe(table4_graph, 19, 3, 0, {"v": 3, "m": 0})


def test_lemma1_probe_on_the_valid_goal_sees_empty_sets(table4_graph):
    # the proved goal has no counter examples anywhere: equal empty sets,
    # never strict
    probe = lemma1_probe(table4_graph, 6, 11, 0, {"v": 3, "m": 0})
    assert probe.applicable and probe.holds and not probe.strict
    assert probe.parent_paths == frozenset() and probe.child_paths == frozenset()


def test_backlink_to_the_ungeneralized_node_is_refused(oracle, table4_text):
    # node 2 lacks the generalized counter, so linking 18 there must fail
    from cycproof.kernel import SequentMismatch

    lines = [
        line
        for line in table4_text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    prefix = lines[: lines.index("backlink at 18 to 3")]
    replayer = script_mod.Replayer(oracle)
    replayer.replay("\n".join(prefix))
    with pytest.raises(SequentMismatch):
        replayer.graph.link_bud(18, 2)
