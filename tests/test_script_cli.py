from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, NU1_SRC
from cycproof import script as script_mod
from cycproof.oracle import BoundedOracle
from cycproof.parser import parse_sequent
from cycproof.search import search


def _replay(text: str):
    return script_mod.replay(text, BoundedOracle(-50, 50), base_dir=FIXTURES)


def test_table4_replay_report(table4_text):
    replayer, report = _replay(table4_text)
    assert report.verdict == "ProvedBounded"
    assert report.nodes == 19 and report.backlinks == 1
    assert replayer.graph.backlinks == {18: 3}
    obligation_nodes = {ob.node for ob in report.obligations}
    assert {10, 15, 19} <= obligation_nodes
    assert "cycle 3" in report.trace_report


def test_replay_is_deterministic(table4_text):
    ra, a = _replay(table4_text)
    rb, b = _replay(table4_text)
    assert a.dump == b.dump and a.dump
    # trace-pair flags reproduce too, not only sequents and rule names
    from cycproof.cyclic import TraceGraph

    assert TraceGraph.of(ra.graph).edges == TraceGraph.of(rb.graph).edges
    assert a.trace_report == b.trace_report


def test_missing_backlink_leaves_an_open_goal(table4_text):
    text = "\n".join(
        line for line in table4_text.splitlines() if not line.startswith("backlink")
    )
    _, report = _replay(text)
    assert report.verdict == "Stuck"
    assert "open goals" in report.message


def test_forged_diamond_is_rejected():
    text = (FIXTURES / "diamond_forged.dlp").read_text()
    _, report = _replay(text)
    assert report.verdict == "Rejected"


def test_false_postcondition_cannot_be_pushed_through(table4_text):
    # the same derivation against a broken postcondition dies at the first
    # arithmetic obligation; nothing downgrades silently
    text = table4_text.replace("((v + 1) * v) / 2", "((v + 1) * v) / 2 + 1")
    _, report = _replay(text)
    assert report.verdict == "Stuck"
    assert "ObligationFailed" in report.message


def test_script_error_reports_line(table4_text):
    text = table4_text.replace("apply ter at 10", "apply nonsense at 10")
    _, report = _replay(text)
    assert report.verdict == "Stuck"
    assert "unknown rule" in report.message or "nonsense" in report.message


def test_lift_command_registers_and_applies(tmp_path):
    (tmp_path / "proj.rule").write_text("conclusion ?a && ?b => ?a\n")
    text = """
goal {x -> x + 1} : (x <= 3 && x >= 0) => {x -> x + 1} : x <= 3
lift sigma_proj from proj.rule class standard witness fwd {x := x + 1} bwd {x := x - 1}
apply sigma_proj at 1
qed
"""
    replayer, report = script_mod.replay(text, BoundedOracle(-50, 50), base_dir=tmp_path)
    assert report.verdict in ("Proved", "ProvedBounded"), report.message


def test_annotate_feeds_diamond_progress():
    text = """
goal . => {n -> 1} : <while n > 0 do n := n - 1 end> (n == 0)
annotate while 1 invariant n >= 0 factor n
apply diamond at 1 with progress
apply diamond at 2 with progress
apply box_eps at 3
apply int at 4
apply ter at 5
qed
"""
    _, report = _replay(text)
    assert report.succeeded, report.message


_BOX_GOAL = "goal . => {x -> 0} : [x := x + 1] x == 1"
_LOOP_GOAL = "goal . => {n -> 1} : <while n > 0 do n := n - 1 end> (n == 0)"


@pytest.mark.parametrize("text", [
    f"{_BOX_GOAL}\nbacklink at 2 to x",
    f"{_LOOP_GOAL}\napply diamond at 1 with occ x",
    f"{_LOOP_GOAL}\napply diamond at 1 with occ",
    f"{_LOOP_GOAL}\nannotate while x invariant n >= 0 factor n",
    f"{_LOOP_GOAL}\nannotate while 1 factor n invariant n >= 0",
    f"{_BOX_GOAL}\napply box at 1 with progress",
    f"{_BOX_GOAL}\napply ter at 1 with occ 0",
    f"{_BOX_GOAL}\napply le at 1 with occ",
    "goal {x -> 0} : x == 0 => 0 <= 0\napply int at 1 with side middle",
    f"{_BOX_GOAL}\nlift p from missing.rule class standard",
    "# no goal yet\napply ter at 1",
])
def test_malformed_script_line_is_stuck_at_its_line(text):
    _, report = _replay(text + "\nqed\n")
    assert report.verdict == "Stuck"
    assert report.message.endswith("(script line 2)"), report.message


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

def test_search_two_assignments(oracle):
    goal = parse_sequent(". => {x -> 0} : [x := x + 1 ; x := x + 1] (x == 2)")
    result = search(goal, oracle, depth=8)
    assert result.proved
    # the emitted script replays to the same verdict
    _, report = _replay(result.script)
    assert report.verdict == result.verdict


def test_search_closes_terminal_diamonds(oracle):
    goal = parse_sequent(". => {x -> 0} : <x := x + 1> x == 1")
    result = search(goal, oracle, depth=3)
    assert result.verdict == "ProvedBounded", result.message
    _, report = _replay(result.script)
    assert report.verdict == result.verdict
    assert report.dump == result.graph.dump()


def test_search_trivial_base_goal(oracle):
    goal = parse_sequent(". => {} : (0 <= 0)")
    result = search(goal, oracle, depth=1)
    assert result.proved


def test_search_does_not_invent_generalizations(oracle):
    goal = parse_sequent(NU1_SRC)
    result = search(goal, oracle, depth=3)
    assert not result.proved
    assert "DepthExhausted" in result.message


def test_search_cuts_on_undecided_guards(oracle):
    goal = parse_sequent(
        ". => {x -> x0} : [if x > 0 then x := 1 else x := 2 end] (x >= 1)"
    )
    result = search(goal, oracle, depth=6)
    assert result.proved, result.message
    assert any(line.startswith("cut") for line in result.script.splitlines())
    _, report = _replay(result.script)
    assert report.verdict == result.verdict


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "cycproof.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_check_exit_codes(tmp_path):
    ok = _cli("check", str(FIXTURES / "table4.dlp"), "--oracle", "bounded:-50..50")
    assert ok.returncode == 0 and "ProvedBounded" in ok.stdout
    bad = _cli("check", str(FIXTURES / "diamond_forged.dlp"))
    assert bad.returncode == 1 and "Rejected" in bad.stdout
    missing = _cli("check", str(tmp_path / "nope.dlp"))
    assert missing.returncode == 2


def test_cli_check_dump(tmp_path):
    out = tmp_path / "proof.sexp"
    run = _cli("check", str(FIXTURES / "table4.dlp"), "--dump", str(out))
    assert run.returncode == 0
    text = out.read_text()
    assert text.startswith("(proof") and "(backlinks (18 3))" in text


def test_cli_verdict_always_with_ledger():
    run = _cli("check", str(FIXTURES / "diamond_forged.dlp"))
    assert "oracle obligations:" in run.stdout


def test_cli_search_and_eval(tmp_path):
    goal = tmp_path / "goal.txt"
    goal.write_text(". => {x -> 0} : [x := x + 1 ; x := x + 1] (x == 2)\n")
    emitted = tmp_path / "found.dlp"
    run = _cli("search", str(goal), "--depth", "8", "--emit", str(emitted))
    assert run.returncode == 0
    check = _cli("check", str(emitted))
    assert check.returncode == 0

    prog = tmp_path / "prog.txt"
    prog.write_text("while n > 0 do s := s + n ; n := n - 1 end\n")
    ev = _cli("eval", str(prog), "--config", "{n -> 3, s -> 0}")
    assert ev.returncode == 0
    assert "{n -> 0, s -> 6}" in ev.stdout.replace("ε, ", "")
    diverging = tmp_path / "loop.txt"
    diverging.write_text("while 1 <= 1 do skip end\n")
    ev2 = _cli("eval", str(diverging), "--config", "{n -> 0}", "--bound", "10")
    assert "exit flag: bound" in ev2.stdout


def test_cli_bad_oracle_spec_is_usage_error():
    run = _cli("check", str(FIXTURES / "table4.dlp"), "--oracle", "magic")
    assert run.returncode == 2
