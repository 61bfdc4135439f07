"""The benchmark's own tests.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
from cycproof import cli  # noqa: E402


@pytest.fixture
def space_for(tmp_path):
    return lambda inputs: harness.Workspace(tmp_path, inputs)


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_gives_byte_identical_corpus(workload):
    first = corpus.corpus(workload, 7)
    again = corpus.corpus(workload, 7)
    assert [(i.name, i.text, i.oracle) for i in first] == \
        [(i.name, i.text, i.oracle) for i in again]
    others = [corpus.corpus(workload, seed) for seed in range(8, 12)]
    assert any([i.name for i in o] != [i.name for i in first] for o in others)


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_every_seed_draws_recorded_inputs(workload):
    golden = harness.load_golden()
    for inp in corpus.all_variants(workload):
        assert golden[inp.name]["input"] == harness.digest(inp.text), inp.name
        assert golden[inp.name]["verdict"] == inp.verdict, inp.name


def test_sum_closed_form_matches_the_loop():
    for a in range(1, 10):
        for s0 in (-9, 0, 9):
            for v in range(0, 51):
                assert corpus.sum_closed_form(a, s0, v) == s0 + a * ((v + 1) * v // 2)


def _tdiv(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b > 0) else -q


@pytest.mark.parametrize("slot", [s for s in corpus.WORKLOADS["replay-refute"]
                                  if s.startswith("refute")])
def test_refute_witness_is_the_first_failing_grid_point(slot):
    """The construction's witness, found by scanning the exit-branch
    obligation (v == m) in the oracle's lexicographic order."""
    for index in range(corpus.VARIANTS):
        inp = corpus.variant("replay-refute", slot, index)
        box = int(inp.oracle.split("..")[1])
        d = int(inp.text.split(f"(v + {box}) / ")[1].split(")")[0])
        names = ("m", "v", "w") if slot.startswith("refute3") else ("m", "v")
        first = None
        for m in range(-box, box + 1):
            if _tdiv(m + box, d) != 0:  # v == m on the exit branch
                first = [m, m] + ([-box] if len(names) == 3 else [])
                break
        shown = ", ".join(f"{n} = {x}" for n, x in zip(names, first))
        assert inp.witness == f"invalid [{shown}]"


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_expected_verdicts_hold_at_tiny_size(workload, space_for):
    inputs = corpus.warmup(workload)
    space = space_for(inputs)
    golden = harness.load_golden()
    for inp in inputs:
        outcome = harness.execute(cli.main, inp, space)
        assert harness.problems(inp, outcome, golden) == [], inp.name
        if inp.command == "search":
            assert harness.replay_problems(cli.main, inp, outcome, space) == []


def test_gate_flags_a_tampered_dump(space_for):
    inp = corpus.warmup("search-concrete")[0]
    space = space_for([inp])
    golden = harness.load_golden()
    outcome = harness.execute(cli.main, inp, space)
    assert harness.problems(inp, outcome, golden) == []

    outcome.dump = outcome.dump.replace("(rule ter)", "(rule ax)", 1)
    assert "dump digest differs from the recorded one" in \
        harness.problems(inp, outcome, golden)
    assert "replayed script gives a different dump" in \
        harness.replay_problems(cli.main, inp, outcome, space)


def test_gate_flags_a_wrong_verdict_and_ledger(space_for):
    inp = corpus.warmup("replay-refute")[1]  # a forged loop, Rejected
    space = space_for([inp])
    golden = harness.load_golden()
    outcome = harness.execute(cli.main, inp, space)
    outcome.stdout = outcome.stdout.replace("verdict: Rejected", "verdict: Proved")
    outcome.verdict = harness.verdict_of(outcome.stdout)
    found = harness.problems(inp, outcome, golden)
    assert "verdict Proved, expected Rejected" in found
    assert "ledger digest differs from the recorded one" in found


def test_tracing_keeps_outcomes_and_restores_the_package(space_for):
    import cycproof.formulas
    import cycproof.kernel

    inp = corpus.warmup("search-branching")[0]
    space = space_for([inp])
    plain = harness.execute(cli.main, inp, space)
    before = (cycproof.kernel.sequents_equal, cycproof.formulas.sequents_equal,
              cycproof.kernel.ProofGraph.__dict__["apply_rule"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cycproof.kernel.sequents_equal is not before[0]
        traced = harness.execute(
            lambda argv: tracer.root(inp.name, cli.main, argv), inp, space)
    finally:
        tracer.uninstall()
    after = (cycproof.kernel.sequents_equal, cycproof.formulas.sequents_equal,
             cycproof.kernel.ProofGraph.__dict__["apply_rule"])
    assert after == before
    assert (traced.verdict, traced.dump, traced.script) == \
        (plain.verdict, plain.dump, plain.script)

    layers = {s.layer for s in tracer.spans}
    assert {"driver", "oracle", "canon", "whilelang", "kernel", "cyclic",
            "parser"} <= layers
    own = tracer.self_times()
    assert all(t >= 0 for t in own)
    root = tracer.spans[0]
    assert sum(own) == pytest.approx(root.end - root.start)

    counts = tracing.LayerCounts()
    counts.add_input(tracer.spans)
    assert counts.counts["kernel.backlinks"] == inp.backlinks
    assert counts.counts["whilelang.case_splits"] > 0


def test_reference_scale_and_collector():
    import gc

    import reference

    unit = reference.REFERENCE_MS / 1000
    assert reference.scale(0.5, 0.002, 0.004) == pytest.approx(0.5 * unit / 0.003)
    assert reference.scale(0.003, 0.003, 0.003) == pytest.approx(unit)
    assert gc.isenabled()
    assert reference.reference_seconds() > 0
    assert gc.isenabled()


def test_pacer_splits_a_call_around_the_timings_inside():
    import reference

    pacer = reference.Pacer()
    # timings (start, end, reference seconds): one before, two inside, one after
    pacer.marks = [(0.0, 1.0, 2.0), (3.0, 4.0, 4.0), (6.0, 7.0, 2.0), (9.0, 10.0, 2.0)]
    pacer.starts = [m[0] for m in pacer.marks]
    raw, scaled = pacer.split(1.5, 8.0)
    assert raw == pytest.approx((3.0 - 1.5) + (6.0 - 4.0) + (8.0 - 7.0))
    unit = reference.REFERENCE_MS / 1000
    assert scaled == pytest.approx(unit * (1.5 / 3.0 + 2.0 / 3.0 + 1.0 / 2.0))
    assert pacer.split(1.5, 2.5) == pytest.approx((1.0, unit * 1.0 / 3.0))
