from __future__ import annotations

import pytest

from conftest import wp_cyclic_goal, wp_cyclic_script
from cycproof.parser import parse_config, parse_expr, parse_fml, parse_prog
from cycproof.terms import TermError
from cycproof.whilelang import (
    LoopAnnotations,
    MissingAnnotation,
    NoProgressOnCycle,
    ObligationFailed,
    State,
    derive_termination_cyclic,
    derive_termination_structural,
    is_subexpression,
    run,
)


def test_assignment_base_case(oracle):
    j = derive_termination_structural(
        [], State(parse_prog("x := 5"), parse_config("{x -> 0}")), [], oracle
    )
    assert j.result == parse_config("{x -> 5}")


def test_countdown_loop(oracle):
    j = derive_termination_structural(
        [],
        State(parse_prog("while n > 0 do n := n - 1 end"), parse_config("{n -> 3}")),
        [],
        oracle,
        invariant=parse_fml("n >= 0"),
        factor=parse_expr("n"),
    )
    assert j.result == parse_config("{n -> 0}")
    assert len(j.obligations) >= 3


def test_wp_loop_structural(oracle, wp):
    j = derive_termination_structural(
        [],
        State(wp, parse_config("{n -> 5, s -> 0}")),
        [],
        oracle,
        invariant=parse_fml("n >= 0"),
        factor=parse_expr("n"),
    )
    assert j.result == parse_config("{n -> 0, s -> 15}")


def test_skip_loop_decrease_fails(oracle):
    with pytest.raises(ObligationFailed) as err:
        derive_termination_structural(
            [],
            State(parse_prog("while 1 <= 1 do skip end"), parse_config("{n -> 0}")),
            [],
            oracle,
            invariant=parse_fml("0 <= 0"),
            factor=parse_expr("1"),
        )
    assert "decrease" in str(err.value)


def test_missing_annotation(oracle, wp):
    with pytest.raises(MissingAnnotation):
        derive_termination_structural(
            [], State(wp, parse_config("{n -> 2, s -> 0}")), [], oracle
        )


def test_annotations_by_loop(oracle):
    prog = parse_prog("x := 3 ; while x > 0 do x := x - 1 end")
    loop = prog.second
    ann = LoopAnnotations()
    ann.annotate(loop, parse_fml("x >= 0"), parse_expr("x"))
    j = derive_termination_structural(
        [], State(prog, parse_config("{x -> 9}")), [], oracle, annotations=ann
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
        j = derive_termination_structural(
            [], state, [], oracle,
            invariant=parse_fml(inv) if inv else None,
            factor=parse_expr(fac) if fac else None,
        )
        states, done = run(state, 10_000)
        assert done
        assert j.result == states[-1].config


# ---------------------------------------------------------------------------
# The cyclic termination prover
# ---------------------------------------------------------------------------

def test_factor_must_occur_in_configuration(oracle):
    goal_gamma, state, _, delta = wp_cyclic_goal()
    with pytest.raises(TermError):
        derive_termination_cyclic(
            goal_gamma, state, parse_expr("q + 1"), delta, oracle, []
        )
    assert is_subexpression(parse_expr("v"), state.config)
    assert not is_subexpression(parse_expr("v + v"), state.config)


def test_wp_cyclic_script_is_accepted(oracle):
    gamma, state, factor, delta = wp_cyclic_goal()
    j = derive_termination_cyclic(gamma, state, factor, delta, oracle, wp_cyclic_script())
    assert j.justification[0] == "cyclic"
    assert dict(j.justification[1]) == {18: 2}


def test_skip_loop_has_no_progress(oracle):
    state = State(parse_prog("while 1 <= 1 do skip end"), parse_config("{n -> 0}"))
    with pytest.raises(NoProgressOnCycle) as err:
        derive_termination_cyclic(
            [], state, parse_expr("0"), [], oracle,
            [("step", 1), ("backlink", 2, 1)],
        )
    assert err.value.cycle == [1, 2, 1]


def test_single_assignment_accepted_via_base(oracle):
    state = State(parse_prog("x := 1"), parse_config("{x -> 5}"))
    j = derive_termination_cyclic(
        [], state, parse_expr("5"), [], oracle, [("base", 1)]
    )
    assert j.justification[0] == "cyclic"


def test_cyclic_acceptance_implies_real_termination(oracle):
    # instantiate the accepted symbolic claim at closed entries: bounded
    # enumeration must reach the terminal program every time
    from cycproof.semantics import close_state

    gamma, state, factor, delta = wp_cyclic_goal()
    derive_termination_cyclic(gamma, state, factor, delta, oracle, wp_cyclic_script())
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
    state = State(parse_prog("x := x + 1 ; x := x + 2"), parse_config("{x -> x0}"))
    with pytest.raises(ObligationFailed) as err:
        derive_termination_cyclic(
            [parse_fml("x0 >= 0")], state, parse_expr("x0"), [], oracle,
            [("step", 1, parse_expr("x0 + 1"))],
        )
    assert "grow" in str(err.value)
