"""Acceptance suite: one test per criterion, each with its stated budget.

Run ``pytest tests/test_acceptance.py -s`` to see the PASS line per
criterion; any assertion failure marks the criterion failed.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

import pytest

from conftest import (
    FIXTURES,
    NU1_SRC,
    SIGMA1_SRC,
    WP_SRC,
    random_expr,
    random_fml,
    termination_script,
    wp_cyclic_script,
)
from cycproof import script as script_mod
from cycproof.cyclic import TraceGraph, check_cyclic
from cycproof.formulas import Sequent
from cycproof.lifting import check_freeness, transformer_from_updates
from cycproof.oracle import BoundedOracle
from cycproof.parser import (
    parse_config,
    parse_dlp,
    parse_expr,
    parse_fml,
    parse_prog,
    parse_sequent,
)
from cycproof.semantics import (
    Verdict,
    counter_example,
    eval_term,
    lemma1_probe,
    models,
    mult_le,
    mult_lt,
    proper_suffix,
    soundness_sample,
)
from cycproof.sep import Allocator, PointsTo, SAnd, SepState, Star, sep_app, sep_run
from cycproof.terms import DivisionByZero, Lit, Var, evaluate, substitute
from cycproof.whilelang import (
    CaseSplitNeeded,
    NoProgressOnCycle,
    State,
    derive_termination_cyclic,
    derive_termination_structural,
    derive_transitions,
)
from test_ordering import _brute_force_le, _universe


def _note(n: int, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS — {detail}")


class _Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"budget exceeded: {self.elapsed:.2f}s >= {self.seconds}s"
            )


def test_criterion_1_table4_replay(oracle):
    with _Budget(2.0) as budget:
        replayer, report = script_mod.replay(
            (FIXTURES / "table4.dlp").read_text(), BoundedOracle(-50, 50)
        )
        assert report.verdict == "ProvedBounded", report.message
        assert report.nodes == 19
        assert replayer.graph.backlinks == {18: 3}
        cert = replayer.certificate
        assert cert.accepted
        (witness,) = cert.witnesses
        assert witness.companion == 3
        # both box edges are progress edges and lie on the witness cycle
        rel = {
            (u, v): r for u, v, r, _ in TraceGraph.of(replayer.graph).edges
        }
        assert any(p for (_, _, p) in rel[(6, 11)])
        assert any(p for (_, _, p) in rel[(11, 12)])
        assert {6, 11, 12} <= set(witness.cycle_nodes)
        obligation_nodes = {ob.node for ob in report.obligations}
        assert {10, 15, 19} <= obligation_nodes
    _note(1, f"replayed 19 nodes, backlink 18->3, in {budget.elapsed:.2f}s")


def test_criterion_2_semantics_agreement():
    with _Budget(1.0) as budget:
        good = parse_dlp(NU1_SRC.split("=>", 1)[1])
        bad_tau_src = f"{SIGMA1_SRC} : [{WP_SRC}] (s == ((v + 1) * v) / 2 + 1)"
        bad_tau = parse_dlp(bad_tau_src)
        bad = parse_dlp(f"v >= 0 -> {bad_tau_src}")
        nu = parse_sequent(f"v >= 0 => {bad_tau_src}")
        for v in range(0, 9):
            rho = {"v": v}
            assert models(rho, good, 10_000) is Verdict.TRUE
            assert models(rho, bad, 10_000) is Verdict.FALSE
            ct = counter_example(rho, bad_tau, nu, 10_000)
            assert not ct.is_empty()
    _note(2, f"v in 0..8 agreed in {budget.elapsed:.2f}s")


def test_criterion_3_soundness_negatives(oracle):
    _, report = script_mod.replay(
        (FIXTURES / "diamond_forged.dlp").read_text(), oracle
    )
    assert report.verdict == "Rejected"
    loop = parse_prog("while n > 0 do n := n - 1 end")
    with pytest.raises(CaseSplitNeeded):
        derive_transitions([], State(loop, parse_config("{n -> v}")), [], oracle)
    _note(3, "forged diamond rejected; undecided guard raises a case split")


def test_criterion_4_heap_table_replay():
    with _Budget(0.1) as budget:
        stmts = [
            parse_prog("x := cons(1)"),
            parse_prog("y := cons(1)"),
            parse_prog("[y] := 37"),
            parse_prog("y := [x + 1]"),
            parse_prog("dispose(x + 1)"),
        ]
        states = sep_run(SepState.make({"x": 3, "y": 4}), stmts, Allocator(base=37))
        expected = [
            ({"x": 3, "y": 4}, {}),
            ({"x": 37, "y": 4}, {37: 1}),
            ({"x": 37, "y": 38}, {37: 1, 38: 1}),
            ({"x": 37, "y": 38}, {37: 1, 38: 37}),
            ({"x": 37, "y": 37}, {37: 1, 38: 37}),
            ({"x": 37, "y": 37}, {37: 1}),
        ]
        assert [(s.store_map(), s.heap_map()) for s in states] == expected
        phi = Star(PointsTo(Var("x"), Lit(1)), PointsTo(Var("y"), Lit(1)))
        psi = SAnd(PointsTo(Var("x"), Lit(1)), PointsTo(Var("y"), Lit(1)))
        assert sep_app(states[2], phi) and sep_app(states[2], psi)
        assert sep_app(states[5], psi) and not sep_app(states[5], phi)
    _note(4, f"all 12 store/heap cells and 4 verdicts in {budget.elapsed*1000:.0f}ms")


def test_criterion_5_ordering_meta_theory():
    with _Budget(10.0) as budget:
        universe = _universe()
        rng = random.Random(1)

        def pick():
            return frozenset(rng.sample(universe, rng.randint(0, 4)))

        for _ in range(1000):
            c1, c2, c3 = pick(), pick(), pick()
            assert mult_le(c1, c1)
            if mult_le(c1, c2) and mult_le(c2, c1):
                assert c1 == c2
            if mult_le(c1, c2) and mult_le(c2, c3):
                assert mult_le(c1, c3)

        sets = [frozenset()]
        for k in (1, 2, 3, 4):
            sets.extend(frozenset(c) for c in combinations(universe, k))
        for c1 in sets:
            for c2 in sets:
                assert mult_le(c1, c2) == _brute_force_le(c1, c2)

        for _ in range(200):
            current = set()
            for _ in range(rng.randint(1, 4)):
                current.add(tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 5))))
            k = sum(len(tr) for tr in current)
            steps = 0
            while current:
                victim = rng.choice(sorted(current))
                nxt = set(current)
                nxt.remove(victim)
                if len(victim) > 1 and rng.random() < 0.7:
                    nxt.add(victim[rng.randint(1, len(victim) - 1):])
                if nxt == current:
                    break
                assert mult_lt(nxt, current)
                current = nxt
                steps += 1
            assert steps <= k
    _note(5, f"partial order, oracle equivalence, chain bound in {budget.elapsed:.2f}s")


def test_criterion_6_counterexample_descent():
    with _Budget(2.0) as budget:
        text = (FIXTURES / "table4.dlp").read_text().replace(
            "((v + 1) * v) / 2", "((v + 1) * v) / 2 + 1"
        )
        kept = [
            line
            for line in text.splitlines()
            if line.strip()
            and not line.strip().startswith("#")
            and not line.startswith("apply ter")
            and not line.startswith("backlink")
            and line.strip() != "qed"
        ]
        replayer = script_mod.Replayer(BoundedOracle(-50, 50))
        replayer.replay("\n".join(kept))
        g = replayer.graph
        rho = {"v": 3, "m": 0}
        box_edges = [(6, 11), (11, 12)]
        flat_edges = [(3, 5), (5, 6), (12, 14), (14, 16), (16, 17), (17, 18)]
        for parent, child in box_edges:
            probe = lemma1_probe(g, parent, child, 0, rho)
            assert probe.applicable and probe.holds and probe.strict, (parent, child)
        for parent, child in flat_edges:
            probe = lemma1_probe(g, parent, child, 0, rho)
            assert probe.applicable and probe.holds and not probe.strict, (parent, child)
    _note(6, f"strict descent on box steps, equality elsewhere, in {budget.elapsed:.2f}s")


def test_criterion_7_substitution_lemma():
    names = ["x", "y", "z"]
    rng = random.Random(1234)
    checked = 0
    from cycproof.canon import terms_equal

    for _ in range(5000):
        t = random_expr(rng, names) if rng.random() < 0.5 else random_fml(rng, names, 2)
        e = random_expr(rng, names, 2)
        x = rng.choice(names)
        rho = {n: rng.randint(-5, 5) for n in names}
        try:
            image = eval_term(rho, substitute(t, {x: e}))
            shifted = dict(rho)
            shifted[x] = evaluate(rho, e)
            direct = eval_term(shifted, t)
        except DivisionByZero:
            continue
        assert terms_equal(image, direct), (t, e, x, rho)
        checked += 1
    assert checked >= 4000
    _note(7, f"{checked} of 5000 samples checked (rest hit division errors), zero failures")


def test_criterion_8_lifting():
    seq_premise = parse_sequent(
        "v >= 0 => {x -> v} : [x := x + 1] [x := x * 2] (x >= 2)"
    )
    seq_conclusion = parse_sequent(
        "v >= 0 => {x -> v} : [x := x + 1 ; x := x * 2] (x >= 2)"
    )
    out = soundness_sample([seq_premise], seq_conclusion, samples=200)
    assert out.checked > 0 and not out.failures

    gen_premise = parse_sequent("{x -> v} : x >= 1 => {x -> v} : x >= 0")
    gen_conclusion = parse_sequent(
        "{x -> v} : [x := x - 1] (x >= 1) => {x -> v} : [x := x - 1] (x >= 0)"
    )
    out2 = soundness_sample([gen_premise], gen_conclusion, samples=200)
    assert out2.checked > 0 and not out2.failures

    shift = parse_config("{x -> x + 1}")
    gate = [parse_fml("x + y + 1 > 7")]
    fwd = transformer_from_updates({"x": parse_expr("x + 1")})
    bwd = transformer_from_updates({"x": parse_expr("x - 1")})
    assert check_freeness(shift, gate, fwd, bwd, samples=200).passed
    # the constant configuration satisfies the one-directional condition via
    # the constant transformer, but no transformer can satisfy condition 2
    constant = transformer_from_updates(
        {"x": parse_expr("0"), "y": parse_expr("0")}
    )
    negative = check_freeness(
        parse_config("{x -> 0, y -> 0}"), gate, constant, bwd, samples=200
    )
    assert not negative.cond1_failures and negative.cond2_failures
    witness_text = str(negative)
    print("\n" + witness_text)
    assert "condition 2" in witness_text and "=" in witness_text
    _note(8, "both lifts sampled sound; freeness example and counterexample reproduced")


def test_criterion_9_termination_provers(oracle, wp):
    structural = derive_termination_structural(
        [],
        State(wp, parse_config("{n -> 5, s -> 0}")),
        [],
        oracle,
        invariant=parse_fml("n >= 0"),
        factor=parse_expr("n"),
    )
    assert structural.result == parse_config("{n -> 0, s -> 15}")

    cyclic_j = derive_termination_cyclic(wp_cyclic_script(), oracle)
    assert cyclic_j.justification[0] == "cyclic"

    skip_loop = termination_script(
        "while 1 <= 1 do skip end", "{n -> 0}", "0",
        "apply ter_step at 1", "backlink at 2 to 1",
    )
    with pytest.raises(NoProgressOnCycle):
        derive_termination_cyclic(skip_loop, oracle)
    _note(9, "structural and cyclic provers accept the loop; the skip loop is refused")
