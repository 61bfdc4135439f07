from __future__ import annotations

import random

import pytest

from cycproof.oracle import BoundedOracle
from cycproof.parser import parse_config, parse_expr, parse_fml, parse_prog
from cycproof.semantics import close_state
from cycproof.terms import EPSILON, Lit
from cycproof.whilelang import (
    CaseSplitNeeded,
    State,
    WellDefinednessError,
    derive_transitions,
    run,
    step,
)


def test_step_assignment_keeps_symbolic_store():
    s = step(State(parse_prog("x := x + 1"), parse_config("{x -> t}")))
    assert s.program is EPSILON
    assert s.config == parse_config("{x -> t + 1}")


def test_step_loop_performs_first_body_step(wp):
    s = step(State(wp, parse_config("{n -> 5, s -> 0}")))
    assert s == State(parse_prog("n := n - 1 ; " + "while n > 0 do s := s + n ; n := n - 1 end"),
                      parse_config("{n -> 5, s -> 5}"))


def test_step_false_guard_terminates():
    sigma = parse_config("{x -> 9}")
    s = step(State(parse_prog("while 0 > 0 do x := 1 end"), sigma))
    assert s == State(EPSILON, sigma)


def test_no_transition_from_terminal():
    with pytest.raises(WellDefinednessError):
        step(State(EPSILON, parse_config("{}")))
    with pytest.raises(WellDefinednessError):
        derive_transitions([], State(EPSILON, parse_config("{}")), [], BoundedOracle())


def test_run_counts_loop_states(wp):
    states, done = run(State(wp, parse_config("{n -> 3, s -> 0}")))
    assert done and len(states) == 8
    assert states[-1].config == parse_config("{n -> 0, s -> 6}")


def test_derive_transitions_assignment(oracle):
    sigma = parse_config("{x -> 2}")
    out = derive_transitions([], State(parse_prog("x := x * 3"), sigma), [], oracle)
    assert len(out) == 1
    assert out[0].target == State(EPSILON, parse_config("{x -> 2 * 3}"))


def test_derive_transitions_loop_chain(oracle, wp):
    # the loop-unrolling chain used in the replayed derivation
    gamma = [parse_fml("v - m >= 0"), parse_fml("v - m > 0")]
    sigma3 = parse_config("{n -> v - m, s -> ((2 * v - m + 1) * m) / 2}")
    first = derive_transitions(gamma, State(wp, sigma3), [], oracle)
    assert len(first) == 1 and first[0].rule == "wh1"
    mid = first[0].target
    assert mid.program == parse_prog("n := n - 1 ; while n > 0 do s := s + n ; n := n - 1 end")
    second = derive_transitions(gamma, mid, [], oracle)
    assert len(second) == 1 and second[0].rule == ";ε"
    assert second[0].target.program == wp


def test_derive_transitions_case_split(oracle):
    loop = parse_prog("while n > 0 do n := n - 1 end")
    with pytest.raises(CaseSplitNeeded) as err:
        derive_transitions([], State(loop, parse_config("{n -> v}")), [], oracle)
    assert err.value.guard == parse_fml("v > 0")


def test_determinism_matches_step(oracle):
    # on sampled closed states the derived successor set is exactly {step(s)}
    rng = random.Random(3)
    progs = [
        parse_prog("x := x + 1 ; y := x * 2"),
        parse_prog("if x <= 0 then y := 1 else y := 2 end"),
        parse_prog("while x > 0 do x := x - 1 end"),
        parse_prog("skip ; x := 4"),
    ]
    for prog in progs:
        for _ in range(25):
            sigma = parse_config(
                "{x -> %d, y -> %d}" % (rng.randint(-4, 4), rng.randint(-4, 4))
            )
            out = derive_transitions([], State(prog, sigma), [], oracle)
            assert len(out) == 1
            assert out[0].target.key() == close_state({}, *_pair(step(State(prog, sigma)))).key()


def _pair(state: State):
    return state.program, state.config


def test_transition_soundness_under_context(oracle, wp):
    # whenever rho satisfies the context, the concrete run follows the
    # justified transition
    gamma = [parse_fml("v - m >= 0"), parse_fml("v - m > 0")]
    sigma3 = parse_config("{n -> v - m, s -> ((2 * v - m + 1) * m) / 2}")
    out = derive_transitions(gamma, State(wp, sigma3), [], oracle)
    assert len(out) == 1
    rng = random.Random(4)
    checked = 0
    for _ in range(200):
        rho = {"v": rng.randint(-10, 10), "m": rng.randint(-10, 10)}
        from cycproof.terms import eval_bool

        if not all(eval_bool(rho, g) for g in gamma):
            continue
        checked += 1
        concrete = close_state(rho, wp, sigma3)
        target = close_state(rho, out[0].target.program, out[0].target.config)
        assert step(concrete) == target
    assert checked > 20
