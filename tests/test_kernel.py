from __future__ import annotations

import pytest

from conftest import NU1_SRC, PHI1_SRC, SIGMA3_SRC, WP_SRC, annotate_loops
from cycproof.formulas import BBox, DBase, DLabeled, Sequent, formulas_equal
from cycproof.kernel import (
    KernelError,
    NotAncestor,
    OccurrenceAmbiguous,
    ProofGraph,
    SequentMismatch,
    SideConditionFailed,
    new_proof,
)
from cycproof.parser import (
    parse_config,
    parse_dlp,
    parse_expr,
    parse_fml,
    parse_sequent,
)
from cycproof.terms import TermError
from cycproof.whilelang import ObligationFailed


NODE3_SRC = f"v - m >= 0 => {SIGMA3_SRC} : [{WP_SRC}] ({PHI1_SRC})"


def test_new_proof_single_open_root(oracle):
    g = new_proof(parse_sequent(NU1_SRC), oracle=oracle)
    assert g.open_goals() == [1]


def test_empty_sequent_is_openable(oracle):
    g = new_proof(parse_sequent(". => ."), oracle=oracle)
    assert g.open_goals() == [1]
    with pytest.raises(ObligationFailed):
        g.apply_rule(1, "ter")


def test_malformed_sequent_member_rejected():
    with pytest.raises(TermError):
        Sequent((parse_fml("x <= 0"),), ())  # base formula without wrapper


def test_box_step_on_generalized_loop(oracle):
    g = new_proof(parse_sequent(f"v - m >= 0, v - m > 0 => {SIGMA3_SRC} : [{WP_SRC}] ({PHI1_SRC})"),
                  oracle=oracle)
    (child,) = g.apply_rule(1, "box")
    seq = g.node(child).sequent
    target = seq.right[0]
    assert isinstance(target, DLabeled) and isinstance(target.body, BBox)
    from cycproof.parser import parse_prog

    assert target.body.prog == parse_prog(f"n := n - 1 ; {WP_SRC}")
    assert target.label.get("n") == parse_expr("v - m")
    # trace pair on the target is a progress edge
    inst = g.node(1).rule_instance
    (pairs,) = inst.trace_pairs
    assert any(p.src == 0 and p.dst == 0 and p.progress for p in pairs)


def test_box_requires_nonterminal_program(oracle):
    g = new_proof(parse_sequent(". => {x -> 1} : [ε] (x == 1)"), oracle=oracle)
    with pytest.raises(SideConditionFailed):
        g.apply_rule(1, "box")


def test_int_applies_the_configuration(oracle):
    g = new_proof(
        parse_sequent(f"v - m >= 0, v - m <= 0 => {SIGMA3_SRC} : ({PHI1_SRC})"),
        oracle=oracle,
    )
    (child,) = g.apply_rule(1, "int")
    out = g.node(child).sequent.right[0]
    assert formulas_equal(
        out,
        DBase(parse_fml("((2 * v - m + 1) * m) / 2 == ((v + 1) * v) / 2")),
    )


def test_sub_checks_the_substituted_premise(oracle):
    g = new_proof(parse_sequent(f"v >= 0 => {{n -> v, s -> 0}} : [{WP_SRC}] ({PHI1_SRC})"),
                  oracle=oracle)
    premise = parse_sequent(NODE3_SRC)
    (child,) = g.apply_rule(1, "sub", bindings={"m": parse_expr("0")}, premise=premise)
    assert g.node(child).sequent == premise
    # wrong bindings are rejected
    g2 = new_proof(parse_sequent(f"v >= 0 => {{n -> v, s -> 0}} : [{WP_SRC}] ({PHI1_SRC})"),
                   oracle=oracle)
    with pytest.raises(SideConditionFailed):
        g2.apply_rule(1, "sub", bindings={"m": parse_expr("1")}, premise=premise)


def test_imp_r_or_l_le(oracle):
    g = new_proof(parse_sequent(". => a <= 0 -> b <= 0"), oracle=oracle)
    (child,) = g.apply_rule(1, "imp_r")
    assert g.node(child).sequent == parse_sequent("a <= 0 => b <= 0")

    g2 = new_proof(parse_sequent("a <= 0 || b <= 0 => c <= 0"), oracle=oracle)
    kids = g2.apply_rule(1, "or_l")
    assert g2.node(kids[0]).sequent == parse_sequent("a <= 0 => c <= 0")
    assert g2.node(kids[1]).sequent == parse_sequent("b <= 0 => c <= 0")

    g3 = new_proof(parse_sequent("(v - 1) + 1 > 0 => v >= 1"), oracle=oracle)
    (child3,) = g3.apply_rule(1, "le", target=parse_fml("v > 0"))
    assert g3.node(child3).sequent == parse_sequent("v > 0 => v >= 1")
    # le records its oracle obligation
    assert g3.node(1).rule_instance.obligations


def test_le_rejects_non_consequence(oracle):
    g = new_proof(parse_sequent("v > 0 => v >= 1"), oracle=oracle)
    with pytest.raises(ObligationFailed):
        g.apply_rule(1, "le", target=parse_fml("v > 5"))


def test_occurrence_disambiguation(oracle):
    g = new_proof(parse_sequent("x <= 0 -> y <= 0, x <= 1 -> y <= 1 => z <= 0"), oracle=oracle)
    with pytest.raises(OccurrenceAmbiguous):
        g.apply_rule(1, "not_l")


def test_contraction_and_weakening(oracle):
    g = new_proof(parse_sequent("a <= 0 => b <= 0"), oracle=oracle)
    (child,) = g.apply_rule(1, "con_l", occ=0)
    assert len(g.node(child).sequent.left) == 2
    (child2,) = g.apply_rule(child, "wk_l", occs=[1])
    assert g.node(child2).sequent == parse_sequent("a <= 0 => b <= 0")


def test_cut_split_flattens_conjunction(oracle):
    g = new_proof(parse_sequent("a <= 0 => b <= 0"), oracle=oracle)
    fml = parse_dlp("(c <= 0) && (d <= 0)")
    right, left = g.apply_rule(1, "cut", fml=fml, split=True)
    assert len(g.node(right).sequent.right) == 2
    assert len(g.node(left).sequent.left) == 3  # a<=0, c<=0, d<=0


def test_backlink_accepts_identical_ancestor(oracle):
    g = new_proof(parse_sequent(NODE3_SRC), oracle=oracle)
    fml = parse_dlp("v - m > 0 || v - m <= 0")
    _, left = g.apply_rule(1, "cut", fml=fml)
    (dropped,) = g.apply_rule(left, "wk_l", occs=[1])
    assert g.node(dropped).sequent.left == g.node(1).sequent.left
    g.link_bud(dropped, 1)
    assert g.backlinks == {dropped: 1}


def test_backlink_rejects_mismatch_and_non_ancestor(oracle):
    g = new_proof(parse_sequent(NODE3_SRC), oracle=oracle)
    fml = parse_dlp("v - m > 0")
    right, left = g.apply_rule(1, "cut", fml=fml)
    with pytest.raises(SequentMismatch) as err:
        g.link_bud(left, 1)
    assert "v - m" in str(err.value) or "0" in str(err.value)
    with pytest.raises(NotAncestor):
        g.link_bud(right, left)


def test_diamond_progress_attaches_termination(oracle):
    goal = parse_sequent(". => {n -> 2} : <while n > 0 do n := n - 1 end> (n == 0)")
    g = new_proof(goal, oracle=oracle)
    annotate_loops(g.annotations, goal, "n >= 0", "n")
    (child,) = g.apply_rule(1, "diamond", progress=True)
    inst = g.node(1).rule_instance
    assert inst.args["progress"] is True
    (pairs,) = inst.trace_pairs
    assert any(p.progress for p in pairs)
    # without the certificate the edge stays non-progressive
    g2 = new_proof(goal, oracle=oracle)
    g2.apply_rule(1, "diamond")
    (pairs2,) = g2.node(1).rule_instance.trace_pairs
    assert not any(p.progress for p in pairs2)
    # the termination judgment's obligations join the step's
    step = g2.node(1).rule_instance.obligations
    assert inst.obligations[:len(step)] == step and len(inst.obligations) > len(step)


def test_dump_is_deterministic(oracle):
    def build():
        g = new_proof(parse_sequent(". => {x -> 0} : [x := x + 1] (x == 1)"), oracle=oracle)
        g.apply_rule(1, "box")
        g.apply_rule(2, "box_eps")
        g.apply_rule(3, "int")
        g.apply_rule(4, "ter")
        return g

    a = build()
    b = build()
    assert a.dump() == b.dump()
    assert a.open_goals() == []
    assert '(node 1 "' in a.dump() and "(backlinks )" in a.dump()


def test_validator_runs_after_mutations(oracle):
    g = new_proof(parse_sequent(NU1_SRC), oracle=oracle)
    g.apply_rule(1, "imp_r")
    g.validate()


def test_rule_catalog_is_closed(oracle):
    from cycproof.kernel import CATALOG, KernelError

    g = new_proof(parse_sequent(". => 0 <= 0"), oracle=oracle)
    with pytest.raises(KernelError):
        g.apply_rule(1, "made_up_rule")
    for rule in CATALOG:  # every catalog name resolves to a handler
        assert getattr(g, f"_rule_{rule}") is not None


def test_only_open_goals_take_a_rule(oracle):
    from cycproof.kernel import CATALOG, KernelError

    g = ProofGraph(parse_sequent("x <= 0 => x <= 0"), oracle=oracle)
    g.apply_rule(1, "wk_l", occs=[])  # the premise repeats the conclusion
    g.link_bud(2, 1)
    for node_id in (1, 2):  # a closed node and a back-linked bud
        for rule in sorted(CATALOG):
            with pytest.raises(KernelError, match=f"node {node_id} is not an open goal"):
                g.apply_rule(node_id, rule)
        with pytest.raises(KernelError, match="unknown rule"):
            g.apply_rule(node_id, "made_up_rule")
    assert len(g.nodes) == 2


def test_pre_registered_lifts_refuse_arguments_they_do_not_take(oracle):
    from cycproof.kernel import KernelError

    goal = parse_sequent(". => {x -> 0} : [x := 1 ; x := 2] (x >= 2)")
    g = ProofGraph(goal, oracle=oracle)
    with pytest.raises(KernelError, match="rule sigma_gen: got an unexpected keyword"):
        g.apply_rule(1, "sigma_gen", occ=0)
    with pytest.raises(KernelError, match="rule sigma_seq: got an unexpected keyword"):
        g.apply_rule(1, "sigma_seq", side="right")
    assert len(g.apply_rule(1, "sigma_seq", occ=0)) == 1


def test_loop_annotations_are_read_from_the_graph_only(oracle):
    from cycproof.kernel import KernelError
    from cycproof.whilelang import LoopAnnotations

    goal = parse_sequent(". => {n -> 2} : <while n > 0 do n := n - 1 end> (n == 0)")
    g = ProofGraph(goal, oracle=oracle)
    with pytest.raises(KernelError, match="rule diamond: got an unexpected keyword"):
        g.apply_rule(1, "diamond", progress=True, annotations=LoopAnnotations())
    judgment = parse_sequent(". => {n -> 2} : while n > 0 do n := n - 1 end ⇓ 2")
    with pytest.raises(KernelError, match="rule ter_base: got an unexpected keyword"):
        ProofGraph(judgment, oracle=oracle).apply_rule(1, "ter_base", annotations=LoopAnnotations())
    assert len(g.nodes) == 1


def test_validate_refuses_a_backlink_that_forgets_a_division(oracle):
    # 0 <= 0 and x / y - x / y <= 0 share a key; a back-link between them
    # is refused by link_bud, and validate refuses one put in by hand
    g = ProofGraph(parse_sequent("0 <= 0 => 1 <= 2"), oracle=oracle)
    _, left = g.apply_rule(1, "cut", fml=parse_dlp("x / y - x / y <= 0"))
    (bud,) = g.apply_rule(left, "wk_l", occs=[0])
    with pytest.raises(SequentMismatch, match="on the left side: x / y may divide by zero"):
        g.link_bud(bud, 1)
    g.backlinks[bud] = 1
    with pytest.raises(SequentMismatch, match="on the left side: x / y may divide by zero"):
        g.validate()


def test_dump_golden():
    from cycproof.oracle import BoundedOracle

    g = new_proof(parse_sequent(". => {x -> 0} : [x := x + 1] (x >= 1)"),
                  oracle=BoundedOracle(-5, 5))
    g.apply_rule(1, "box")
    g.apply_rule(2, "box_eps")
    expected = (
        "(proof\n"
        '  (node 1 ". => {x -> 0} : [x := x + 1] 1 <= x" (rule box occ 0) (children 2))\n'
        '  (node 2 ". => {x -> 0 + 1} : [ε] 1 <= x" (rule box_eps occ 0 side right) (children 3))\n'
        '  (node 3 ". => {x -> 0 + 1} : 1 <= x" (open) (children ))\n'
        "  (backlinks )\n"
        ")"
    )
    assert g.dump() == expected


def test_ax_keeps_an_occurrence_given_alone(oracle):
    # only the side not given is searched for an equal formula
    g = new_proof(parse_sequent("x <= 0, y <= 0 => y <= 0"), oracle=oracle)
    with pytest.raises(SideConditionFailed, match="no matching formula pair"):
        g.apply_rule(1, "ax", left=0)
    with pytest.raises(SideConditionFailed, match="out of range"):
        g.apply_rule(1, "ax", right=1)
    g.apply_rule(1, "ax", left=1)
    assert '(rule ax left 1 right 0)' in g.dump()
    g = new_proof(parse_sequent("y <= 0 => x <= 0, y <= 0"), oracle=oracle)
    g.apply_rule(1, "ax", right=1)
    assert '(rule ax left 0 right 1)' in g.dump()


def test_and_r_and_con_r_map_their_trace_pairs(oracle):
    from cycproof.kernel import TracePair

    g = new_proof(parse_sequent("a <= 0 => b <= 0, (c <= 0) && (d <= 0)"), oracle=oracle)
    first, second = g.apply_rule(1, "and_r")
    assert g.node(first).sequent == parse_sequent("a <= 0 => b <= 0, c <= 0")
    assert g.node(second).sequent == parse_sequent("a <= 0 => b <= 0, d <= 0")
    # the context maps to itself, and each conjunct continues the conjunction
    assert g.node(1).rule_instance.trace_pairs == ((TracePair(0, 0), TracePair(1, 1)),) * 2
    (copy,) = g.apply_rule(first, "con_r", occ=1)
    assert g.node(copy).sequent == parse_sequent("a <= 0 => b <= 0, c <= 0, c <= 0")
    assert g.node(first).rule_instance.trace_pairs == (
        (TracePair(0, 0), TracePair(1, 1), TracePair(1, 2)),)
    with pytest.raises(SideConditionFailed, match="out of range"):
        g.apply_rule(second, "con_r", occ=2)
