from __future__ import annotations

import pytest

from cycproof.formulas import BBase, BBox, Sequent
from cycproof.kernel import ProofGraph, SideConditionFailed
from cycproof.lifting import (
    ClassMismatch,
    FreenessNotEstablished,
    LiftedRule,
    MBody,
    MProg,
    check_freeness,
    lift_rule,
    se_sample,
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
from cycproof.semantics import soundness_sample
from cycproof.terms import NotF, Seq


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
    registry = lift_rule(rule, {})
    goal = parse_sequent("{x -> x + 1} : (x <= 3 && x >= 0) => {x -> x + 1} : x <= 3")
    g = ProofGraph(goal, oracle=oracle, extra_rules=registry)
    g.apply_rule(1, "sigma_proj")
    assert g.open_goals() == []


def test_lifted_rule_without_witness_is_refused(oracle):
    template = parse_template_sequent("?a && ?b => ?a")
    rule = LiftedRule("no_witness", (), template, "standard", witness=None)
    registry = lift_rule(rule, {})
    goal = parse_sequent("{x -> x + 1} : (x <= 3 && x >= 0) => {x -> x + 1} : x <= 3")
    g = ProofGraph(goal, oracle=oracle, extra_rules=registry)
    with pytest.raises(FreenessNotEstablished):
        g.apply_rule(1, "no_witness")


def test_lifted_rule_with_failing_witness_is_refused(oracle):
    template = parse_template_sequent("?a && ?b => ?a")
    rule = LiftedRule("bad_witness", (), template, "standard",
                      witness=(transformer_from_updates({"x": parse_expr("0")}),) * 2)
    registry = lift_rule(rule, {})
    goal = parse_sequent("{x -> x + 1} : (x <= 3 && x >= 0) => {x -> x + 1} : x <= 3")
    g = ProofGraph(goal, oracle=oracle, extra_rules=registry)
    with pytest.raises(FreenessNotEstablished):
        g.apply_rule(1, "bad_witness")


# ---------------------------------------------------------------------------
# The two built-in lifts
# ---------------------------------------------------------------------------

def test_sigma_seq_rewrites_the_box(oracle):
    goal = parse_sequent("v >= 0 => {x -> v} : [x := x + 1 ; x := x * 2] (x >= 2)")
    g = ProofGraph(goal, oracle=oracle)
    (child,) = g.apply_rule(1, "sigma_seq")
    out = g.node(child).sequent.right[0]
    assert isinstance(out.body, BBox) and isinstance(out.body.body, BBox)
    assert not isinstance(out.body.prog, Seq)


def test_sigma_gen_drops_the_shared_box(oracle):
    goal = parse_sequent(
        "{x -> v} : [x := x + 1] (x >= 1) => {x -> v} : [x := x + 1] (x >= 0)"
    )
    g = ProofGraph(goal, oracle=oracle)
    (child,) = g.apply_rule(1, "sigma_gen")
    assert g.node(child).sequent == parse_sequent("{x -> v} : x >= 1 => {x -> v} : x >= 0")


def test_sigma_gen_requires_matching_programs(oracle):
    goal = parse_sequent(
        "{x -> v} : [x := x + 1] (x >= 1) => {x -> v} : [x := x + 2] (x >= 0)"
    )
    g = ProofGraph(goal, oracle=oracle)
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

    # sigma_gen under random store labels.  Generalization preserves
    # validity, not truth at one point, so an instance is sampled only when
    # its premise holds at every sample
    import random

    rng = random.Random(11)
    values = ("v", "w", "x", "y", "0", "1", "v + 1")
    programs = ("x := 1", "x := x + 1", "y := x")
    bodies = ("x >= 1", "0 >= 1", "x <= y", "y <= x", "x >= 0")
    applied = refused = 0
    for _ in range(400):
        names = rng.sample(("x", "y"), rng.randint(1, 2))
        label = "{" + ", ".join(f"{x} -> {rng.choice(values)}" for x in names) + "}"
        prog = rng.choice(programs)
        phi, psi = rng.choice(bodies), rng.choice(bodies)
        goal = parse_sequent(f"{label} : [{prog}] ({phi}) => {label} : [{prog}] ({psi})")
        g = ProofGraph(goal)
        try:
            (child,) = g.apply_rule(1, "sigma_gen")
        except SideConditionFailed:
            refused += 1
            continue
        premise = g.node(child).sequent
        if soundness_sample([], premise, samples=60).failures:
            continue
        applied += 1
        out3 = soundness_sample([premise], goal, samples=60)
        assert not out3.failures, (str(goal), out3.failures[:3])
    assert applied > 10 and refused > 10, (applied, refused)


SIGMA_GEN_COUNTEREXAMPLE = """
goal {x -> 0} : [x := 1] (x >= 1) => {x -> 0} : [x := 1] (0 >= 1)
apply sigma_gen at 1
apply int at 2 with occ 0 side left
apply int at 3 with occ 0 side right
apply ax at 4
qed
"""


def test_sigma_gen_needs_a_label_that_renames_variables_apart(oracle):
    # the premise {x -> 0} : x >= 1 => {x -> 0} : 0 >= 1 is valid, the goal is
    # false: generalization needs the premise at every state, not at x = 0
    from cycproof import script as script_mod
    from cycproof.semantics import Verdict, sequent_truth

    goal = parse_sequent(SIGMA_GEN_COUNTEREXAMPLE.split("\n")[1][len("goal "):])
    assert sequent_truth({}, goal) is Verdict.FALSE
    _, report = script_mod.replay(SIGMA_GEN_COUNTEREXAMPLE, oracle)
    assert report.verdict == "Stuck"
    assert report.message.startswith("SideConditionFailed: sigma_gen")
    assert report.message.endswith("(script line 3)")
    for label, body in (
        ("{x -> y}", "x <= y"),          # y is free outside the store's domain
        ("{x -> v, y -> v}", "x <= y"),  # two variables renamed to one
        ("{x -> v + 1}", "x >= 1"),      # a value that is no variable
        ("{x -> v | y -> w}", "x >= 1"),  # a stack
    ):
        g = ProofGraph(parse_sequent(f"{label} : [x := 1] ({body}) => {label} : [x := 1] ({body})"))
        with pytest.raises(SideConditionFailed, match="sigma_gen"):
            g.apply_rule(1, "sigma_gen")
    # a swap renames apart
    g = ProofGraph(parse_sequent("{x -> y, y -> x} : [x := 1] (x <= y) => "
                                 "{x -> y, y -> x} : [x := 1] (x <= y)"))
    assert len(g.apply_rule(1, "sigma_gen")) == 1


def test_sigma_gen_needs_a_box_on_both_sides(oracle):
    from cycproof import script as script_mod

    for goal in ("{x -> v} : [x := x + 1] (x >= 1) => {x -> v} : (x >= 0)",
                 "{x -> v} : (x >= 1) => {x -> v} : [x := x + 1] (x >= 0)"):
        _, report = script_mod.replay(f"goal {goal}\napply sigma_gen at 1", oracle)
        assert report.verdict == "Stuck"
        assert report.message == ("SideConditionFailed: sigma_gen expects boxed formulas "
                                  "on both sides (script line 2)")


def test_sigma_gen_over_a_heap_program_is_refused_by_the_walk(oracle):
    # the heap statements are no terms of the While domain: the free-variable
    # walk of the boxed bodies refuses the allocation
    from cycproof import script as script_mod

    goal = ("{x -> v} : [x := cons(1)] (x >= 1) => {x -> v} : [x := cons(1)] (x >= 0)")
    _, report = script_mod.replay(f"goal {goal}\napply sigma_gen at 1", oracle)
    assert report.verdict == "Stuck"
    assert report.message == ("TermError: free_vars: not a term: "
                              "Alloc(target='x', expr=Lit(value=1)) (script line 2)")


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


# ---------------------------------------------------------------------------
# Holes under every construct
# ---------------------------------------------------------------------------

def _lift_and_apply(tmp_path, oracle, rule: str, goal: str, fwd: str = "x"):
    """Replays ``goal``, a lift of the template ``rule`` over a free label
    with the witness ``fwd {x := <fwd>} bwd {x := x}``, and its application."""
    (tmp_path / "t.rule").write_text(rule)
    from cycproof import script as script_mod

    text = (f"goal {goal}\nlift t from t.rule class free witness "
            f"fwd {{x := {fwd}}} bwd {{x := x}}\napply t at 1\n")
    return script_mod.replay(text, oracle, base_dir=tmp_path)


@pytest.mark.parametrize("template, body", [
    ("?a && ?b", "(x >= 1 && x >= -1)"),
    ("!?b", "!(x <= 2)"),
    ("!(?a && [@p] ?b)", "!(x <= 0 && [x := 1] x >= 1)"),
    ("[@p] ?a", "[x := x + 1] x >= 1"),
    ("<@p> ?a", "<x := x + 1> x >= 1"),
    ("[@p ; @q] ?a", "[x := x + 1 ; x := x - 1] x >= 1"),
    ("[if x <= 0 then @p else @q end] ?a", "[if x <= 0 then x := 1 else skip end] x >= 1"),
    ("[while x <= 0 do @p end] ?a", "[while x <= 0 do x := x + 1 end] x >= 1"),
], ids=["and", "not", "not-and-box", "box", "diamond", "seq", "if", "while"])
def test_holes_match_and_instantiate_under_every_construct(template, body, tmp_path, oracle):
    # the premise repeats the conclusion, so it is the goal, built as parsed
    goal = f"{{x -> x}} : x >= 1 => {{x -> x}} : {body}"
    replayer, report = _lift_and_apply(
        tmp_path, oracle, f"premise ?c => {template}\nconclusion ?c => {template}\n", goal)
    assert report.message == "script ended without qed"
    assert replayer.graph.node(2).sequent == parse_sequent(goal)
    dump = replayer.graph.dump()
    assert "?" not in dump and "@" not in dump
    args = replayer.graph.node(1).rule_instance.args
    assert args == {"lifted": "t", "evidence": "sampled-witness"}


def test_a_negated_hole_is_instantiated_as_parsed_and_sampled(tmp_path, oracle):
    rule = "premise ?a => !?b\nconclusion ?a => !?b\n"
    goal = "{x -> x} : x <= 3 => {x -> x} : !(x <= 2)"
    replayer, report = _lift_and_apply(tmp_path, oracle, rule, goal)
    premise = replayer.graph.node(2).sequent
    assert premise.right[0].body == BBase(NotF(parse_fml("x <= 2")))
    assert "?" not in replayer.graph.dump()
    # freeness sampling reads the negation: a witness that moves x breaks
    # condition 1 on it alone, since y <= 3 does not read x
    _, report = _lift_and_apply(tmp_path, oracle, rule, goal.replace("x <= 3", "y <= 3"),
                                fwd="x + 5")
    assert report.verdict == "Stuck" and "FreenessNotEstablished" in report.message
    assert "on !(x <= 2)" in report.message


def test_a_hole_bound_twice_matches_equal_parts_only(tmp_path, oracle):
    rule = "conclusion ?c => [@p ; @p] ?a\n"
    same = "{x -> x} : x >= 1 => {x -> x} : [x := x + 1 ; x := 1 + x] x >= 1"
    _, report = _lift_and_apply(tmp_path, oracle, rule, same)
    assert report.message == "script ended without qed"  # equal modulo arithmetic
    _, report = _lift_and_apply(tmp_path, oracle, rule, same.replace("1 + x", "x + 2"))
    assert report.verdict == "Stuck" and "template does not match" in report.message
    _, report = _lift_and_apply(tmp_path, oracle, rule, same.replace("[", "<").replace("]", ">"))
    assert report.verdict == "Stuck" and "template does not match" in report.message


def test_a_refused_instance_leaves_the_goal_open(tmp_path, oracle):
    # the template drops the right formula without a trace pair for it: the
    # kernel refuses the instance before it creates a child or closes a node
    replayer, report = _lift_and_apply(
        tmp_path, oracle, "premise ?a => .\nconclusion ?a => ?b\n",
        "{x -> x} : x <= 3 => {x -> x} : x <= 5")
    assert report.verdict == "Stuck"
    assert "right occurrences [0] have no trace pair" in report.message
    graph = replayer.graph
    assert list(graph.nodes) == [1] and report.nodes == 1
    assert graph.open_goals() == [1] and graph.node(1).rule_instance is None
    assert '(node 1 "{x -> x} : x <= 3 => {x -> x} : x <= 5" (open) (children ))' in graph.dump()
