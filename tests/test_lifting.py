from __future__ import annotations

import pytest

from cycproof.formulas import BBase, BBox, Sequent
from cycproof.kernel import ProofGraph, SideConditionFailed, default_registry
from cycproof.lifting import (
    ClassMismatch,
    FreenessNotEstablished,
    LiftedRule,
    MBody,
    MProg,
    check_freeness,
    lift_rule,
    se_sample,
    soundness_sample,
    transformer_from_updates,
)
from cycproof.parser import (
    parse_config,
    parse_dlp,
    parse_expr,
    parse_fml,
    parse_sequent,
    parse_template_sequent,
)
from cycproof.terms import Seq


SHIFT = parse_config("{x -> x + 1}")
GATE = parse_fml("x + y + 1 > 7")
FWD = transformer_from_updates({"x": parse_expr("x + 1")})
BWD = transformer_from_updates({"x": parse_expr("x - 1")})


def test_same_effect_example():
    rho = {"x": 5, "y": 1}
    rho2 = {"x": 6, "y": 1}
    assert se_sample(rho, SHIFT, rho2, [GATE])  # both sides read 8 > 7
    assert se_sample(rho, parse_config("{}"), rho, [GATE])
    assert not se_sample(rho, SHIFT, {"x": 0, "y": 1}, [GATE])


def test_shift_configuration_is_free():
    report = check_freeness(SHIFT, [GATE], FWD, BWD, samples=200)
    assert report.passed
    assert "passed" in str(report)


def test_constant_configuration_fails_condition_two():
    sigma = parse_config("{x -> 0, y -> 0}")
    constant = transformer_from_updates({"x": parse_expr("0"), "y": parse_expr("0")})
    report = check_freeness(sigma, [GATE], constant, BWD, samples=200)
    assert not report.cond1_failures  # the constant transformer mirrors it
    assert report.cond2_failures      # but nothing can reverse the effect
    text = str(report)
    assert "condition 2" in text and "=" in text  # witness evaluation printed


def test_empty_configuration_passes_for_any_formulas():
    identity = transformer_from_updates({})
    report = check_freeness(parse_config("{}"), [GATE, parse_fml("y <= 2")],
                            identity, identity, samples=100)
    assert report.passed


def test_freeness_is_monotone_in_the_formula_set():
    formulas = [GATE, parse_fml("x >= 0 -> x + 1 >= 1")]
    full = check_freeness(SHIFT, formulas, FWD, BWD, samples=150)
    assert full.passed
    for subset in ([formulas[0]], [formulas[1]], []):
        assert check_freeness(SHIFT, subset, FWD, BWD, samples=150).passed


def test_standard_lift_rejects_premised_rules():
    with pytest.raises(ClassMismatch):
        LiftedRule(
            "bad",
            (parse_template_sequent(". => ?a"),),
            parse_template_sequent(". => ?a"),
            "standard",
        )


def test_lifted_axiom_registration_and_use(oracle):
    # unlabeled axiom: phi && psi => phi, lifted over a standard sigma
    template = parse_template_sequent("?a && ?b => ?a")
    rule = LiftedRule("sigma_proj", (), template, "standard", witness=(FWD, BWD))
    registry = lift_rule(rule, default_registry())
    goal = parse_sequent("{x -> x + 1} : (x <= 3 && x >= 0) => {x -> x + 1} : x <= 3")
    g = ProofGraph(goal, oracle=oracle, extra_rules=registry)
    g.apply_rule(1, "sigma_proj")
    assert g.open_goals() == []


def test_lifted_rule_without_witness_is_refused(oracle):
    template = parse_template_sequent("?a && ?b => ?a")
    rule = LiftedRule("no_witness", (), template, "standard", witness=None)
    registry = lift_rule(rule, default_registry())
    goal = parse_sequent("{x -> x + 1} : (x <= 3 && x >= 0) => {x -> x + 1} : x <= 3")
    g = ProofGraph(goal, oracle=oracle, extra_rules=registry)
    with pytest.raises(FreenessNotEstablished):
        g.apply_rule(1, "no_witness")


def test_lifted_rule_with_failing_witness_is_refused(oracle):
    template = parse_template_sequent("?a && ?b => ?a")
    rule = LiftedRule("bad_witness", (), template, "standard",
                      witness=(transformer_from_updates({"x": parse_expr("0")}),) * 2)
    registry = lift_rule(rule, default_registry())
    goal = parse_sequent("{x -> x + 1} : (x <= 3 && x >= 0) => {x -> x + 1} : x <= 3")
    g = ProofGraph(goal, oracle=oracle, extra_rules=registry)
    with pytest.raises(FreenessNotEstablished):
        g.apply_rule(1, "bad_witness")


# ---------------------------------------------------------------------------
# The two built-in lifts
# ---------------------------------------------------------------------------

def test_sigma_seq_rewrites_the_box(oracle):
    goal = parse_sequent("v >= 0 => {x -> v} : [x := x + 1 ; x := x * 2] (x >= 2)")
    g = ProofGraph(goal, oracle=oracle, extra_rules=default_registry())
    (child,) = g.apply_rule(1, "sigma_seq")
    out = g.node(child).sequent.right[0]
    assert isinstance(out.body, BBox) and isinstance(out.body.body, BBox)
    assert not isinstance(out.body.prog, Seq)


def test_sigma_gen_drops_the_shared_box(oracle):
    goal = parse_sequent(
        "{x -> v} : [x := x + 1] (x >= 1) => {x -> v} : [x := x + 1] (x >= 0)"
    )
    g = ProofGraph(goal, oracle=oracle, extra_rules=default_registry())
    (child,) = g.apply_rule(1, "sigma_gen")
    assert g.node(child).sequent == parse_sequent("{x -> v} : x >= 1 => {x -> v} : x >= 0")


def test_sigma_gen_requires_matching_programs(oracle):
    goal = parse_sequent(
        "{x -> v} : [x := x + 1] (x >= 1) => {x -> v} : [x := x + 2] (x >= 0)"
    )
    g = ProofGraph(goal, oracle=oracle, extra_rules=default_registry())
    with pytest.raises(SideConditionFailed):
        g.apply_rule(1, "sigma_gen")


def test_builtin_instances_pass_soundness_sampling():
    # premises-imply-conclusion over 200 evaluations, per instance
    seq_conclusion = parse_sequent("v >= 0 => {x -> v} : [x := x + 1 ; x := x * 2] (x >= 2)")
    seq_premise = parse_sequent("v >= 0 => {x -> v} : [x := x + 1] [x := x * 2] (x >= 2)")
    out = soundness_sample([seq_premise], seq_conclusion, samples=200)
    assert out.checked > 0 and not out.failures

    gen_conclusion = parse_sequent(
        "{x -> v} : [x := x - 1] (x >= 1) => {x -> v} : [x := x - 1] (x >= 0)"
    )
    gen_premise = parse_sequent("{x -> v} : x >= 1 => {x -> v} : x >= 0")
    out2 = soundness_sample([gen_premise], gen_conclusion, samples=200)
    assert out2.checked > 0 and not out2.failures


def test_sigma_seq_semantic_check_sampled():
    # bounded truth of sigma:[a][b]phi implies bounded truth of sigma:[a;b]phi
    import random

    from cycproof.semantics import Verdict, models

    rng = random.Random(3)
    nested = parse_dlp("{x -> w} : [x := x + 1] [while x > 0 do x := x - 2 end] (x <= 0)")
    flat = parse_dlp("{x -> w} : [x := x + 1 ; while x > 0 do x := x - 2 end] (x <= 0)")
    for _ in range(80):
        rho = {"w": rng.randint(-6, 6)}
        a = models(rho, nested, 500)
        b = models(rho, flat, 500)
        if a is Verdict.TRUE:
            assert b is Verdict.TRUE


def test_free_lift_with_premises_replays_end_to_end(tmp_path, oracle):
    # conjunction on the right, lifted over a free configuration: each
    # premise keeps the shared label and is closed on its own
    from cycproof import script as script_mod
    from cycproof.kernel import TracePair

    (tmp_path / "and.rule").write_text(
        "premise ?c => ?a\npremise ?c => ?b\nconclusion ?c => ?a && ?b\n")
    text = """
goal {x -> x + 1} : x >= 1 => {x -> x + 1} : (x >= 1 && x >= -1)
lift and_lift from and.rule class free witness fwd {x := x + 1} bwd {x := x - 1}
apply and_lift at 1
apply int at 2
apply int at 4 with side left
apply ter at 5
apply int at 3
apply int at 6 with side left
apply ter at 7
qed
"""
    replayer, report = script_mod.replay(text, oracle, base_dir=tmp_path)
    assert report.verdict == "ProvedBounded", report.message
    root = replayer.graph.node(1)
    assert root.children == (2, 3)
    assert replayer.graph.node(3).sequent == parse_sequent(
        "{x -> x + 1} : x >= 1 => {x -> x + 1} : x >= -1")
    assert root.rule_instance.trace_pairs == ((TracePair(0, 0),),) * 2
    assert root.rule_instance.args == {"lifted": "and_lift", "evidence": "sampled-witness"}
    # a witness that does not mirror the label refuses the premised rule too
    broken = text.replace("bwd {x := x - 1}", "bwd {x := 0}")
    _, report = script_mod.replay(broken, oracle, base_dir=tmp_path)
    assert report.verdict == "Stuck" and "FreenessNotEstablished" in report.message
