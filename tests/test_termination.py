from __future__ import annotations

import pytest

from conftest import SIGMA1_SRC, WP_SRC, annotate_loops, termination_script, wp_cyclic_script
from cycproof.formulas import DTer
from cycproof.kernel import KernelError
from cycproof.parser import ParseError, parse_config, parse_expr, parse_fml, parse_prog
from cycproof.terms import TermError, is_subexpression
from cycproof.whilelang import (
    LoopAnnotations,
    MissingAnnotation,
    NoProgressOnCycle,
    ObligationFailed,
    State,
    derive_termination_cyclic,
    derive_termination_structural,
    run,
)


def test_assignment_base_case(oracle):
    j = derive_termination_structural(
        [], State(parse_prog("x := 5"), parse_config("{x -> 0}")), [], oracle,
        LoopAnnotations(),
    )
    assert j.result == parse_config("{x -> 5}")


def test_countdown_loop(oracle):
    prog = parse_prog("while n > 0 do n := n - 1 end")
    j = derive_termination_structural(
        [],
        State(prog, parse_config("{n -> 3}")),
        [],
        oracle,
        annotate_loops(LoopAnnotations(), prog, "n >= 0", "n"),
    )
    assert j.result == parse_config("{n -> 0}")
    assert len(j.obligations) >= 3


def test_wp_loop_structural(oracle, wp):
    j = derive_termination_structural(
        [],
        State(wp, parse_config("{n -> 5, s -> 0}")),
        [],
        oracle,
        annotate_loops(LoopAnnotations(), wp, "n >= 0", "n"),
    )
    assert j.result == parse_config("{n -> 0, s -> 15}")


def test_skip_loop_decrease_fails(oracle):
    prog = parse_prog("while 1 <= 1 do skip end")
    with pytest.raises(ObligationFailed) as err:
        derive_termination_structural(
            [],
            State(prog, parse_config("{n -> 0}")),
            [],
            oracle,
            annotate_loops(LoopAnnotations(), prog, "0 <= 0", "1"),
        )
    assert "decrease" in str(err.value)


def test_missing_annotation(oracle, wp):
    with pytest.raises(MissingAnnotation):
        derive_termination_structural(
            [], State(wp, parse_config("{n -> 2, s -> 0}")), [], oracle, LoopAnnotations()
        )


def test_annotations_by_loop(oracle):
    prog = parse_prog("x := 3 ; while x > 0 do x := x - 1 end")
    loop = prog.second
    ann = LoopAnnotations()
    ann.annotate(loop, parse_fml("x >= 0"), parse_expr("x"))
    j = derive_termination_structural(
        [], State(prog, parse_config("{x -> 9}")), [], oracle, ann
    )
    assert j.result == parse_config("{x -> 0}")


def test_structural_acceptance_implies_real_termination(oracle):
    # whenever the prover accepts a closed state, bounded enumeration
    # reaches the terminal program
    cases = [
        ("while n > 0 do n := n - 1 end", "{n -> 7}", "n >= 0", "n"),
        ("while n > 1 do n := n - 2 end", "{n -> 9}", "n >= 0", "n"),
        ("if n <= 0 then n := 1 else n := 2 end", "{n -> 4}", None, None),
    ]
    for prog_src, cfg_src, inv, fac in cases:
        state = State(parse_prog(prog_src), parse_config(cfg_src))
        ann = annotate_loops(LoopAnnotations(), state.program, inv, fac) if inv else LoopAnnotations()
        j = derive_termination_structural([], state, [], oracle, ann)
        states, done = run(state, 10_000)
        assert done
        assert j.result == states[-1].config


# ---------------------------------------------------------------------------
# Cyclic termination proofs, replayed through the kernel
# ---------------------------------------------------------------------------

def test_factor_must_occur_in_configuration(oracle):
    state = State(parse_prog(WP_SRC), parse_config(SIGMA1_SRC))
    with pytest.raises(TermError, match="factor must occur"):
        DTer(state.config, state.program, parse_expr("q + 1"))
    with pytest.raises(ParseError, match="factor must occur"):
        derive_termination_cyclic(termination_script(WP_SRC, SIGMA1_SRC, "q + 1"), oracle)
    assert is_subexpression(parse_expr("v"), state.config)
    assert not is_subexpression(parse_expr("v + v"), state.config)


def test_wp_cyclic_script_is_accepted(oracle):
    j = derive_termination_cyclic(wp_cyclic_script(), oracle)
    assert j.justification[0] == "cyclic"
    assert dict(j.justification[1]) == {18: 2}
    assert j.gamma == (parse_fml("v >= 0"),) and j.delta == ()
    assert j.state == State(parse_prog(WP_SRC), parse_config(SIGMA1_SRC))


def test_skip_loop_has_no_progress(oracle):
    script = termination_script(*_SKIP_LOOP, "apply ter_step at 1", "backlink at 2 to 1")
    with pytest.raises(NoProgressOnCycle) as err:
        derive_termination_cyclic(script, oracle)
    assert err.value.cycle == [1, 2, 1]


def test_single_assignment_accepted_via_base(oracle):
    script = termination_script("x := 1", "{x -> 5}", "5", "apply ter_base at 1")
    j = derive_termination_cyclic(script, oracle)
    assert j.justification[0] == "cyclic"


def test_ter_base_reads_annotate_lines(oracle):
    # the structural prover closes the loop with the script's annotation
    lines = ("annotate while 1 invariant n >= 0 factor n", "apply ter_base at 1", "qed")
    j = derive_termination_cyclic(termination_script(*_COUNTDOWN, *lines), oracle)
    assert j.justification[0] == "cyclic"
    with pytest.raises(MissingAnnotation):
        derive_termination_cyclic(termination_script(*_COUNTDOWN, *lines[1:]), oracle)


def test_cyclic_acceptance_implies_real_termination(oracle):
    # instantiate the accepted symbolic claim at closed entries: bounded
    # enumeration must reach the terminal program every time
    from cycproof.semantics import close_state

    state = derive_termination_cyclic(wp_cyclic_script(), oracle).state
    for v in range(0, 7):
        closed = close_state({"v": v}, state.program, state.config)
        states, done = run(closed, 10_000)
        assert done, v


def test_transitions_require_an_oracle():
    from cycproof.oracle import OracleUnavailable
    from cycproof.whilelang import derive_transitions

    loop = parse_prog("while n > 0 do n := n - 1 end")
    with pytest.raises(OracleUnavailable):
        derive_transitions([], State(loop, parse_config("{n -> 1}")), [], None)


def test_factor_may_not_grow(oracle):
    # stepping to a strictly larger factor fails the bound obligation
    script = "\n".join((
        "goal x0 >= 0 => {x -> x0} : x := x + 1 ; x := x + 2 ⇓ x0",
        "apply ter_step at 1 with factor x0 + 1",
    ))
    with pytest.raises(ObligationFailed) as err:
        derive_termination_cyclic(script, oracle)
    assert "grow" in str(err.value)


def test_node_ids_outside_the_prover_are_refused(oracle):
    for bad in (0, -1, 3):  # 0 and -1 must not address the last nodes
        script = termination_script(
            *_SKIP_LOOP, "apply ter_step at 1", f"apply ter_step at {bad}")
        with pytest.raises(KernelError, match="no node"):
            derive_termination_cyclic(script, oracle)


_COUNTDOWN = ("while n > 0 do n := n - 1 end", "{n -> 2}", "2")
_SKIP_LOOP = ("while 1 <= 1 do skip end", "{n -> 0}", "0")

_FORGED_SCRIPTS = {
    "backlink_to_non_ancestor": (_SKIP_LOOP, "cut at 1 0 <= 0", "backlink at 3 to 2"),
    "bud_differs_from_companion": (_COUNTDOWN, "apply ter_step at 1", "backlink at 2 to 1"),
    "ter_while_judgment_kept": (_SKIP_LOOP, "apply ter at 1"),
    "eps_on_non_terminal_program": (_SKIP_LOOP, "apply ter_eps at 1"),
    "sub_premise_does_not_match": (
        _SKIP_LOOP, "sub at 1 {m := 0} premise . => {n -> m} : skip ⇓ m"),
    "node_left_open": (_SKIP_LOOP, "apply ter_step at 1"),
    "step_on_closed_node": (
        _SKIP_LOOP, "apply ter_step at 1", "backlink at 2 to 1", "apply ter_step at 2"),
    "invalid_ter": (_SKIP_LOOP, "apply wk_r at 1 with 0", "apply ter at 2"),
}


@pytest.mark.parametrize("name", sorted(_FORGED_SCRIPTS))
def test_forged_termination_scripts_are_refused(oracle, name):
    goal, *lines = _FORGED_SCRIPTS[name]
    with pytest.raises((TermError, KernelError, ObligationFailed, NoProgressOnCycle)):
        derive_termination_cyclic(termination_script(*goal, *lines), oracle)


def test_termination_judgment_is_a_kernel_formula(oracle):
    from cycproof.formulas import DTer, Sequent, formula_key, free_vars, substitute
    from cycproof.kernel import ProofGraph

    # the label binds the program's variables, not the factor's
    judgment = DTer(parse_config("{n -> n}"), parse_prog("n := n - 1"), parse_expr("n"))
    assert free_vars(judgment) == frozenset({"n"})
    image = substitute(judgment, {"n": parse_expr("2")})
    assert image == DTer(parse_config("{n -> 2}"), parse_prog("n := n - 1"), parse_expr("2"))
    assert formula_key(image) != formula_key(judgment)

    graph = ProofGraph(Sequent((), (image,)), oracle=oracle)
    (child,) = graph.apply_rule(1, "ter_step")
    graph.apply_rule(child, "ter_eps")
    assert graph.open_goals() == []
    assert '". => {n -> 2} : n := n - 1 ⇓ 2" (rule ter_step occ 0 progress False)' in graph.dump()
    assert '". => {n -> 2 - 1} : ε ⇓" (rule ter_eps occ 0)' in graph.dump()
