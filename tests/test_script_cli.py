from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, NU1_SRC
from cycproof import cli, script as script_mod
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
    assert ra.graph.dump() == rb.graph.dump()
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
_AX_GOAL = "goal x <= 0 => x <= 0"
_PROJ_GOAL = "goal {x -> x + 1} : (x <= 3 && x >= 0) => {x -> x + 1} : x <= 3"
_SAME_GOAL = "goal {x -> x + 1} : x <= 3 => {x -> x + 1} : x <= 3"
_TEMPLATES = {
    "proj.rule": "conclusion ?a && ?b => ?a\n",
    "premised.rule": "premise . => ?a\nconclusion . => ?a\n",
    "same.rule": "conclusion ?a => ?a\n",
}


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
    f"{_AX_GOAL}\napply ax at 1 with left 5 right 0",
    f"{_AX_GOAL}\napply ax at 1 with left -1 right -1",
    f"{_PROJ_GOAL}\nlift p from proj.rule class bogus",
    f"{_PROJ_GOAL}\nlift p from premised.rule class standard",
    f"{_PROJ_GOAL}\nlift p from proj.rule class standard\napply p at 1",
    f"{_SAME_GOAL}\nlift p from same.rule class free witness fwd {{x := 0}} bwd {{x := 0}}"
    "\napply p at 1",
])
def test_malformed_script_line_is_stuck_at_its_line(text, tmp_path):
    for name, template in _TEMPLATES.items():
        (tmp_path / name).write_text(template)
    _, report = script_mod.replay(text + "\nqed\n", BoundedOracle(-50, 50), base_dir=tmp_path)
    assert report.verdict == "Stuck"
    # the failing line is the last one before qed
    assert report.message.endswith(f"(script line {text.count(chr(10)) + 1})"), report.message


@pytest.mark.parametrize("line, bad", [
    ("sub at 1 {m := } premise . => x <= 0", "}"),
    ("cut at 1 (x <= 0 split", "split"),
    ("annotate while 1 invariant n >= 0 factor )", ")"),
    ("lift p from proj.rule class standard witness fwd {x := ]}", "]"),
    ("apply le at 1 with target x <= )", ")"),
    ("apply ter_step at 1 with factor * 2", "*"),
])
def test_parse_error_column_counts_from_the_start_of_the_script_line(line, bad, tmp_path):
    # the line is indented: its leading blanks count too
    (tmp_path / "proj.rule").write_text(_TEMPLATES["proj.rule"])
    text = f"{_LOOP_GOAL}\n  {line}\nqed\n"
    _, report = script_mod.replay(text, BoundedOracle(-50, 50), base_dir=tmp_path)
    column = 2 + line.index(bad) + 1
    assert report.message.startswith("ParseError: "), report.message
    assert report.message.endswith(f"(line 1, column {column}) (script line 2)"), report.message


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
    replayer, report = _replay(result.script)
    assert report.verdict == result.verdict
    assert replayer.graph.dump() == result.graph.dump()


@pytest.mark.parametrize("program", ["x := cons(1)", "dispose(x)"])
def test_search_on_a_heap_goal_is_stuck(program, tmp_path, capsys):
    # the search's box step derives While-domain transitions only
    goal = tmp_path / "goal.txt"
    goal.write_text(f". => {{x -> 0}} : [{program}] x >= 0")
    assert cli.main(["search", str(goal), "--depth", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "verdict: Stuck"
    assert out[1].startswith("note: TermError: "), out[1]


def test_search_trivial_base_goal(oracle):
    goal = parse_sequent(". => {} : (0 <= 0)")
    result = search(goal, oracle, depth=1)
    assert result.proved


def test_search_does_not_invent_generalizations(oracle):
    goal = parse_sequent(NU1_SRC)
    result = search(goal, oracle, depth=3)
    assert not result.proved
    assert "DepthExhausted" in result.message


def test_search_names_why_ter_did_not_close_an_exhausted_node(oracle):
    # ter is tried first and refused (the grid is too large to scan); the
    # node then has no step to take, and the note says why ter failed
    wide = " + ".join(f"x{i}" for i in range(21))
    result = search(parse_sequent(f". => {wide} <= 0 -> x0 <= 1"), oracle, depth=8)
    assert result.verdict == "Stuck"
    assert result.message.startswith("DepthExhausted at node 2; ter obligation failed: "), \
        result.message
    assert ": unknown (" in result.message
    assert result.message.endswith("grid points exceed the bounded-search cap) at node 2")


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
    # a guard deeper than the parser's stack is a usage error, not a traceback
    deep = tmp_path / "deep.txt"
    deep.write_text("while " + "forall y . " * 400 + "x <= 0 do skip end\n")
    ev3 = _cli("eval", str(deep), "--config", "{x -> 0}")
    assert ev3.returncode == 2 and "Traceback" not in ev3.stderr, ev3.stderr[-300:]
    assert ev3.stderr.startswith("cannot load program:"), ev3.stderr


def test_cli_bad_oracle_spec_is_usage_error(tmp_path, capsys):
    run = _cli("check", str(FIXTURES / "table4.dlp"), "--oracle", "magic")
    assert run.returncode == 2
    # an empty solver command and a malformed range are usage errors too,
    # with the one message that names the accepted forms
    goal = tmp_path / "goal.txt"
    goal.write_text(". => {x -> 0} : [x := x + 1] (x == 1)\n")
    for command, target in (("check", [str(FIXTURES / "table4.dlp")]),
                            ("search", [str(goal), "--depth", "5"])):
        for spec in ("smt:", "smt:   ", "bounded:abc", "bounded:3..1"):
            assert cli.main([command, *target, "--oracle", spec]) == 2, (command, spec)
            err = capsys.readouterr().err
            assert err == (f"bad oracle spec {spec!r}; use bounded, bounded:<lo>..<hi> "
                           "(integers, lo <= hi) or smt:<command>\n"), err


def _deep_box_script(depth: int) -> str:
    nested = "(" * depth + "x" + " + 1)" * depth  # an expression ``depth`` deep
    return (f"goal . => {{x -> 0}} : [x := {nested}] x >= 0\n"
            "apply box at 1\napply box_eps at 2\napply int at 3\napply ter at 4\nqed\n")


def test_cli_deep_nesting_checks_or_is_refused_without_traceback(tmp_path):
    # 150 levels: parsed, stepped, discharged and dumped as usual
    ok = tmp_path / "ok.dlp"
    ok.write_text(_deep_box_script(150))
    run = _cli("check", str(ok))
    assert run.returncode == 0 and "ProvedBounded" in run.stdout, run.stderr
    # 300 levels overflowed the parser's stack; now a parse error
    deep = tmp_path / "deep.dlp"
    deep.write_text(_deep_box_script(300))
    run = _cli("check", str(deep))
    assert run.returncode == 1 and "Traceback" not in run.stderr
    assert "nested deeper than" in run.stdout and "(script line 1)" in run.stdout
    goal = tmp_path / "deep-goal.txt"
    goal.write_text(_deep_box_script(300).split("\n", 1)[0][len("goal "):])
    run = _cli("search", str(goal), "--depth", "4")
    assert run.returncode == 2 and "Traceback" not in run.stderr
    assert "nested deeper than" in run.stderr


def test_cli_long_prefix_and_sequence_chains_end_without_traceback(tmp_path):
    def search_goal(name: str, text: str, depth: int):
        path = tmp_path / name
        path.write_text(text)
        return _cli("search", str(path), "--depth", str(depth))

    def chain(n: int) -> str:
        return ". => {x -> 0} : [" + " ; ".join(["x := x + 1"] * n) + f"] x == {n}"

    # 200 statements: searched and proved as before
    run = search_goal("seq200.txt", chain(200), 205)
    assert run.returncode == 0 and "ProvedBounded" in run.stdout, run.stderr
    # 1000 statements, or 1200 "!", overflowed the stack; now a usage error
    for name, text in (("seq1000.txt", chain(1000)),
                       ("not1200.txt", ". => " + "!" * 1200 + "(x <= 0)")):
        run = search_goal(name, text, 3)
        assert run.returncode == 2 and "Traceback" not in run.stderr
        assert len(run.stderr.splitlines()) == 1, run.stderr
        assert run.stderr.startswith("cannot load goal:"), run.stderr


def test_cli_long_operator_chains_end_without_traceback(tmp_path):
    def plus(n: int) -> str:
        return ". => {x -> 0} : [x := x" + " + 1" * n + f"] x == {n}"

    def conj(n: int) -> str:
        return ". => {x -> 0} : [x := 1] (" + " && ".join(["x >= 1"] * n) + ")"

    # 300 terms: searched and proved as before
    for name, text in (("plus300.txt", plus(300)), ("and300.txt", conj(300))):
        path = tmp_path / name
        path.write_text(text)
        run = _cli("search", str(path), "--depth", "4")
        assert run.returncode == 0 and "ProvedBounded" in run.stdout, run.stderr
    # 1200 terms overflowed the stack in the printers; now a parse error
    for name, text in (("plus1200", plus(1200)), ("and1200", conj(1200))):
        goal = tmp_path / f"{name}.txt"
        goal.write_text(text)
        run = _cli("search", str(goal), "--depth", "4")
        assert run.returncode == 2 and "Traceback" not in run.stderr
        assert len(run.stderr.splitlines()) == 1, run.stderr
        assert run.stderr.startswith("cannot load goal:"), run.stderr
        assert "terms nested deeper than" in run.stderr
        script = tmp_path / f"{name}.dlp"
        script.write_text(f"goal {text}\nqed\n")
        run = _cli("check", str(script))
        assert run.returncode == 1 and "Traceback" not in run.stderr
        assert run.stdout.startswith("verdict: Stuck")
        assert "terms nested deeper than" in run.stdout
        assert "(script line 1)" in run.stdout


def test_goal_mapping_a_variable_twice_is_a_usage_error(tmp_path):
    goal = tmp_path / "twice.txt"
    goal.write_text(". => {x -> 1, x -> 2} : [x := 1] x >= 0")
    run = _cli("search", str(goal), "--depth", "3")
    assert run.returncode == 2 and "Traceback" not in run.stderr, run.stderr[-300:]
    assert run.stderr.startswith("cannot load goal: store configuration maps a variable twice")


def test_inputs_deeper_than_the_stack_end_in_a_verdict(tmp_path):
    # each overflowed the stack with a RecursionError traceback: a program
    # of 499 statements whose last one holds a 499-term sum, 300 quantifiers,
    # 1200 boxes in a row, runs of 150 "!" between boxes, and a store value
    # 1500 levels deep built by symbolic execution over a free variable; all
    # but the last are refused as they are parsed
    seq = " ; ".join(["x := 1"] * 499 + ["x := x" + " + 1" * 499])
    goals = {
        "seq_and_sum": (f". => {{x -> 0}} : [{seq}] x >= 0", 3),
        "foralls": (". => " + "forall y . " * 300 + "x <= 0", 3),
        "boxes": (". => {x -> 0} : " + "[x := 1] " * 1200 + "x >= 0", 3),
        "negated_boxes": (". => {x -> 0} : " + ("!" * 150 + "[x := 1] ") * 8 + "x <= 0", 3),
        "deep_store": (". => {n -> 1500, s -> x} : "
                       "[while n > 0 do s := s + 1 ; n := n - 1 end] (s == x + 1500)", 4000),
    }
    codes = {}
    for name, (text, depth) in goals.items():
        goal = tmp_path / f"{name}.txt"
        goal.write_text(text)
        dump = tmp_path / f"{name}.dump"
        run = _cli("search", str(goal), "--depth", str(depth), "--dump", str(dump))
        assert "Traceback" not in run.stderr, (name, run.stderr[-300:])
        codes[name] = run.returncode
        if run.returncode == 2:  # the goal itself: a usage error
            assert run.stderr.startswith("cannot load goal:"), (name, run.stderr)
            assert not run.stdout
        else:  # later: Stuck, with nothing half written
            assert run.returncode == 1, (name, run.returncode)
            verdict, note = run.stdout.splitlines()[:2]
            assert verdict == "verdict: Stuck", (name, run.stdout)
            assert note.startswith("note: RecursionError: "), (name, run.stdout)
            assert not dump.exists()
    assert codes == {"seq_and_sum": 2, "foralls": 2, "boxes": 2, "negated_boxes": 2,
                     "deep_store": 1}

    # a script whose goal is too deep ends Stuck at its line
    script = tmp_path / "foralls.dlp"
    script.write_text(f"goal {goals['foralls'][0]}\nqed\n")
    run = _cli("check", str(script))
    assert run.returncode == 1 and "Traceback" not in run.stderr, run.stderr[-300:]
    assert run.stdout.startswith("verdict: Stuck\nnote: ParseError:"), run.stdout
    assert "nested deeper than 160" in run.stdout.splitlines()[1]
    assert "(script line 1)" in run.stdout.splitlines()[1]

    # a ground store value n - 1 - ... - 1 as deep occurs only in closed
    # guards, each decided from the values its nodes keep, so nothing
    # recurses over the whole term (this ended Stuck with a RecursionError)
    dump = tmp_path / "ground_store.dump"
    emitted = tmp_path / "ground_store.dlp"
    run = _cli("search", str(FIXTURES / "deep_store.goal"), "--depth", "4000",
               "--dump", str(dump), "--emit", str(emitted))
    assert run.returncode == 0 and "Traceback" not in run.stderr, run.stderr[-300:]
    assert run.stdout.startswith("verdict: ProvedBounded\n")
    assert dump.read_text().count("(node ") == 1504
    replay = _cli("check", str(emitted))
    assert replay.returncode == 0, replay.stderr[-300:]
    assert replay.stdout.startswith("verdict: ProvedBounded\nnodes: 1504  backlinks: 0\n")


def test_emitted_script_for_the_longest_printable_chain_replays(tmp_path, capsys):
    # "a || b" prints two levels deeper than it is written; the longest chain
    # the parser accepts is the longest whose printed form it reads back
    from cycproof.parser import MAX_NESTING

    def goal(n: int) -> Path:
        path = tmp_path / f"or{n}.txt"
        path.write_text(". => " + " || ".join((["x <= 0", "0 <= x"] * n)[:n]))
        return path

    longest = MAX_NESTING // 2 + 1
    emitted = tmp_path / "found.dlp"
    assert cli.main(["search", str(goal(longest)), "--depth", "4", "--emit", str(emitted)]) == 0
    searched = capsys.readouterr().out
    assert searched.startswith("verdict: ProvedBounded"), searched[:200]
    assert cli.main(["check", str(emitted)]) == 0
    assert capsys.readouterr().out.startswith("verdict: ProvedBounded")
    # one disjunct more is refused before the search, as its script would be
    assert cli.main(["search", str(goal(longest + 1)), "--depth", "4"]) == 2
    assert f"nested deeper than {MAX_NESTING}" in capsys.readouterr().err


def test_emitted_script_for_the_deepest_negated_relation_replays(tmp_path, capsys):
    # "<" prints as "!(...)", a level deeper than written; the most "!" the
    # parser accepts before "(x + 1 < x)" is the most whose script reads back
    from cycproof.parser import MAX_NESTING, ParseError, parse_fml

    def accepted(n: int) -> bool:
        try:
            parse_fml("!" * n + "(x + 1 < x)")
        except ParseError:
            return False
        return True

    deepest = max(n for n in range(MAX_NESTING + 2) if accepted(n))
    assert deepest == MAX_NESTING - 1
    # an odd run of "!" before a false relation: the goal is valid
    goal = tmp_path / "deep.txt"
    goal.write_text(". => " + "!" * deepest + "(x + 1 < x)")
    emitted = tmp_path / "found.dlp"
    assert cli.main(["search", str(goal), "--depth", "4", "--emit", str(emitted)]) == 0
    searched = capsys.readouterr().out
    assert searched.startswith("verdict: ProvedBounded"), searched[:200]
    assert cli.main(["check", str(emitted)]) == 0
    assert capsys.readouterr().out.startswith("verdict: ProvedBounded")
    # one "!" more is refused before the search, as its script would be
    goal.write_text(". => " + "!" * (deepest + 1) + "(x + 1 < x)")
    assert cli.main(["search", str(goal), "--depth", "4"]) == 2
    assert f"nested deeper than {MAX_NESTING}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Terms inside script lines
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("word, text", [
    ("premise", "goal p <= 0 => p <= 0\n"
                "sub at 1 {VAR := p} premise VAR <= 0 => VAR <= 0\napply ax at 2"),
    ("split", "goal x <= VAR => x <= VAR\ncut at 1 x <= VAR\napply ax at 2\napply ax at 3"),
    ("factor", "goal . => {VAR -> 2} : <while VAR > 0 do VAR := VAR - 1 end> (VAR == 0)\n"
               "annotate while 1 invariant VAR >= 0 factor VAR\n"
               + "".join(f"apply diamond at {i} with progress\n" for i in (1, 2, 3))
               + "apply box_eps at 4\napply int at 5\napply ter at 6"),
], ids=["premise", "split", "factor"])
def test_a_variable_named_like_a_script_word_is_a_variable(word, text):
    # the parser reads each term to its end, so the name changes nothing
    named_run, named = _replay(text.replace("VAR", word) + "\nqed")
    renamed_run, renamed = _replay(text.replace("VAR", "zz9") + "\nqed")
    assert named.succeeded, named.message
    assert named.verdict == renamed.verdict
    assert named_run.graph.dump() == renamed_run.graph.dump().replace("zz9", word)


def test_ax_with_one_occurrence_searches_only_the_other_side():
    goal = "goal x <= 0, y <= 0 => y <= 0\n"
    _, report = _replay(goal + "apply ax at 1 with left 0\nqed")
    assert report.verdict == "Stuck" and "no matching formula pair" in report.message
    replayer, report = _replay(goal + "apply ax at 1 with left 1\nqed")
    assert report.verdict == "Proved" and "(rule ax left 1 right 0)" in replayer.graph.dump()


# each ended Proved while ax compared canonical keys alone: a key forgets a
# division that may fault, and both oracles read these sequents as not valid
@pytest.mark.parametrize("goal", [
    "0 <= 0 => x / y <= x / y",                 # x / y - x / y cancels
    "1 <= x / y => 1 <= x / y + 0 * (z / w)",   # a zero factor drops z / w
    "x / y >= 0 => x / y >= 0",                 # the same formula on each side
])
def test_ax_refuses_a_formula_that_may_divide_by_zero(goal, oracle):
    _, report = _replay(f"goal {goal}\napply ax\nqed")
    assert report.verdict == "Stuck"
    # the note names the division that refused the pair of equal keys
    assert report.message == ("SideConditionFailed: no matching formula pair for ax: "
                              "x / y may divide by zero (script line 2)")
    # a pair whose keys differ is refused without one
    _, report = _replay(f"goal {goal} + 1\napply ax\nqed")
    assert report.message == "SideConditionFailed: no matching formula pair for ax (script line 2)"
    assert search(parse_sequent(goal), oracle, depth=2).verdict == "Stuck"
    # a division by a nonzero literal cannot fault
    literal = goal.replace("/ y", "/ 2").replace("/ w", "/ -3")
    _, report = _replay(f"goal {literal}\napply ax\nqed")
    assert report.verdict == "Proved", report.message


# each ended Proved or ProvedBounded while sub and back-links compared
# canonical keys alone: x / y - x / y keys as 0, so 0 <= 0 stood for a
# formula that divides by zero
_FORGETS_A_DIVISION = {
    "sub": ("goal 0 <= 0 => x / y <= x / y\nsub at 1 {} premise 0 <= 0 => 0 <= 0\n"
            "apply ax at 2\nqed",
            "SideConditionFailed: sub: substituted premise differs at right[0]: "
            "x / y may divide by zero (script line 2)"),
    "backlink": ("goal 0 <= 0 => {n -> n} : [while 0 <= 0 do skip end] (1 <= 0)\n"
                 "apply box at 1\ncut at 2 x / y - x / y <= 0\napply wk_r at 3 with 1\n"
                 "backlink at 5 to 1\napply wk_l at 4 with 0\nbacklink at 6 to 1\nqed",
                 "SequentMismatch: bud 6 differs from companion 1 on the left side: "
                 "x / y may divide by zero (script line 7)"),
}


@pytest.mark.parametrize("command", sorted(_FORGETS_A_DIVISION))
def test_sub_and_backlinks_refuse_a_division_the_key_forgets(command):
    text, note = _FORGETS_A_DIVISION[command]
    _, report = _replay(text)
    assert (report.verdict, report.message) == ("Stuck", note)


def test_sub_keeps_a_division_both_sides_hold():
    replayer, report = _replay("goal 1 <= x / y => 1 <= x / y\n"
                               "sub at 1 {} premise 1 <= x / y + 0 => 1 <= x / y")
    assert report.message == "script ended without qed"
    assert replayer.graph.node(1).rule_instance.rule == "sub"


def test_check_dumps_the_graph_only_when_asked(tmp_path, monkeypatch, capsys):
    import hashlib

    from cycproof.kernel import ProofGraph

    calls = []
    dump = ProofGraph.dump
    monkeypatch.setattr(ProofGraph, "dump", lambda graph: calls.append(graph) or dump(graph))
    monkeypatch.chdir(tmp_path)
    for script, status in (("table4.dlp", 0), ("diamond_forged.dlp", 1)):
        assert cli.main(["check", str(FIXTURES / script)]) == status
    assert calls == [] and list(tmp_path.iterdir()) == []
    assert cli.main(["check", str(FIXTURES / "table4.dlp"), "--dump", "proof.sexp"]) == 0
    assert len(calls) == 1
    # the bytes the dump had while every replay built it
    written = (tmp_path / "proof.sexp").read_bytes()
    assert hashlib.sha256(written).hexdigest() == (
        "81007f0348e8dc4c8870c247df27ded51971fd3f09596860de66a340ab8b6450")


# each ledger is the one the parent gave, when the replayer passed its
# annotations to the rule in place of the graph holding them
_ANNOTATED = {
    "ter_base": (
        "goal . => {n -> 3} : while n > 0 do n := n - 1 end ⇓ 3\n"
        "annotate while 1 invariant n >= 0 factor n\napply ter_base at 1\nqed",
        [". => !(3 <= 0) : bounded-valid at node 1",
         ". => !(3 <= 0) && ((0 <= 3) && !(3 <= 0)) : bounded-valid at node 1",
         "(n' <= bound') && (bound' <= n'), 0 <= n', !(n' <= 0) => "
         "!(bound' <= n' - 1) && (0 <= n' - 1) : bounded-valid at node 1",
         "n' <= 0, 0 <= n' => !(!(n' <= 0)) : bounded-valid at node 1"]),
    "diamond": (
        "goal . => {n -> 2} : <while n > 0 do n := n - 1 end> (n == 0)\n"
        "annotate while 1 invariant n >= 0 factor n\n"
        + "".join(f"apply diamond at {i} with progress\n" for i in (1, 2, 3))
        + "apply box_eps at 4\napply int at 5\napply ter at 6\nqed",
        [". => !(2 <= 0) : bounded-valid at node 1",
         ". => !(2 - 1 <= 0) : bounded-valid at node 1",
         ". => !(2 - 1 <= 0) && ((0 <= 2 - 1) && !(2 - 1 <= 0)) : bounded-valid at node 1",
         "(n' <= bound') && (bound' <= n'), 0 <= n', !(n' <= 0) => "
         "!(bound' <= n' - 1) && (0 <= n' - 1) : bounded-valid at node 1",
         "n' <= 0, 0 <= n' => !(!(n' <= 0)) : bounded-valid at node 1",
         ". => !(2 - 1 <= 0) : bounded-valid at node 2",
         ". => !(!(2 - 1 - 1 <= 0)) : bounded-valid at node 2",
         ". => !(!(2 - 1 - 1 <= 0)) : bounded-valid at node 3",
         ". => (2 - 1 - 1 <= 0) && (0 <= 2 - 1 - 1) : bounded-valid at node 6"]),
}


@pytest.mark.parametrize("rule", sorted(_ANNOTATED))
def test_annotate_lines_keep_their_ledgers(rule):
    text, ledger = _ANNOTATED[rule]
    _, report = _replay(text)
    assert report.verdict == "ProvedBounded", report.message
    assert [ob.describe() for ob in report.obligations] == [f"[bounded] {ob}" for ob in ledger]


def test_termination_fixture_dump_reads_back(tmp_path, capsys):
    import re

    dump = tmp_path / "d.sexp"
    script = FIXTURES / "sum_terminates.dlp"
    assert cli.main(["check", str(script), "--dump", str(dump)]) == 0
    assert capsys.readouterr().out.startswith("verdict: ProvedBounded")
    replayer, _ = _replay(script.read_text())
    nodes = re.findall(r'\(node (\d+) "(.*)" \(rule', dump.read_text())
    assert len(nodes) == 19 and replayer.graph.backlinks == {18: 2}
    for node_id, text in nodes:
        assert parse_sequent(text).key == replayer.graph.node(int(node_id)).sequent.key


_LOADS_LIFTING = """
import contextlib, io, sys
from cycproof.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(code, " ".join(sorted(m for m in sys.modules if m.split(".")[0] in ("ast", "cycproof"))))
print(out.getvalue(), end="")
"""

# the trusted base: what a verdict of `check` runs (semantics, lifting,
# search, the heap domain and the SMT back end stay out, and so does `ast`)
_TRUSTED = ["cycproof"] + [f"cycproof.{name}" for name in (
    "canon", "cli", "cyclic", "formulas", "kernel", "oracle", "parser", "record",
    "script", "terms", "whilelang")]


def test_a_run_without_lifts_does_not_load_lifting(tmp_path):
    goal = tmp_path / "goal.txt"
    goal.write_text(". => {x -> 0} : [x := x + 1 ; x := x + 1] (x >= 2)")
    script = tmp_path / "seq.dlp"
    script.write_text(f"goal {goal.read_text()}\napply sigma_seq at 1\n")
    (tmp_path / "proj.rule").write_text("conclusion ?a && ?b => ?a\n")
    lifted = tmp_path / "lift.dlp"
    lifted.write_text(
        "goal {x -> x + 1} : (x <= 3 && x >= 0) => {x -> x + 1} : x <= 3\n"
        "lift proj from proj.rule class standard witness fwd {x := x + 1}\n"
        "apply proj at 1\nqed\n")
    heap = tmp_path / "heap.txt"
    heap.write_text(". => {h -> 0} : [x := cons(1) ; [x] := 2] (x >= 0)")
    for argv, code, extra, report in (
        # compiles three scans, without `ast`
        (["check", str(FIXTURES / "table4.dlp")], "0", [], None),
        (["search", str(goal), "--depth", "4"], "0", ["cycproof.search"], None),
        # the built-in lifts are kernel rules
        (["check", str(script)], "1", [], None),
        # a lift line loads it
        (["check", str(lifted)], "0", ["cycproof.lifting"], None),
        # a heap statement loads the heap domain
        (["search", str(heap), "--depth", "4"], "1", ["cycproof.search", "cycproof.sep"],
         ["verdict: Stuck",
          "note: TermError: derive_transitions: not a While-domain program: "
          "Alloc(target='x', expr=Lit(value=1))",
          "oracle obligations:", "  none", "script:",
          "  goal . => {h -> 0} : [x := cons(1) ; [x] := 2] 0 <= x"]),
        # an smt: oracle loads the SMT-LIB back end
        (["check", str(FIXTURES / "table4.dlp"),
          "--oracle", f"smt:{sys.executable} -c print('unknown')"], "1", ["cycproof.smt"],
         ["verdict: Stuck",
          "note: CaseSplitNeeded: undecided guard: !(v - m <= 0) (script line 12)",
          "nodes: 7  backlinks: 0", "oracle obligations:", "  none"]),
    ):
        done = subprocess.run([sys.executable, "-c", _LOADS_LIFTING, *argv],
                              capture_output=True, text=True, timeout=120)
        loaded, _, printed = done.stdout.partition("\n")
        assert loaded.split() == [code, *sorted(_TRUSTED + extra)], \
            (argv, done.stdout, done.stderr[-300:])
        if report is not None:
            assert printed.splitlines()[:len(report)] == report, (argv, printed)


def test_negative_bounds_are_usage_errors(tmp_path, capsys):
    goal = tmp_path / "goal.txt"
    goal.write_text(". => {x -> 0} : [x := x + 1] (x >= 1)")
    prog = tmp_path / "prog.txt"
    prog.write_text("x := x + 1")
    script = str(FIXTURES / "table4.dlp")
    for argv, message in (
        (["check", script, "--path-bound", "-3"], "path bound must be at least 0"),
        (["search", str(goal), "--depth", "0"], "depth must be at least 1"),
        (["eval", str(prog), "--config", "{x -> 0}", "--bound", "-1"],
         "bound must be at least 0"),
    ):
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert not out and err == message + "\n", (argv, out, err)
    # zero is a bound: eval stops at the first state
    assert cli.main(["eval", str(prog), "--config", "{x -> 0}", "--bound", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0: (x := x + 1, {x -> 0})",
                                                    "exit flag: bound"]


def test_cli_eval_prints_steps_and_exit_status(tmp_path, capsys):
    def run(program: str, *args: str) -> int:
        (tmp_path / "prog.txt").write_text(program + "\n")
        return cli.main(["eval", str(tmp_path / "prog.txt"), *args])

    assert run("n := n - 1 ; n := n - 1", "--config", "{n -> 2}") == 0
    assert capsys.readouterr().out.splitlines() == [
        "0: (n := n - 1 ; n := n - 1, {n -> 2})",
        "1: (n := n - 1, {n -> 1})",
        "2: (ε, {n -> 0})",
    ]
    assert run("while 1 <= 1 do skip end", "--config", "{n -> 0}", "--bound", "2") == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4 and out[-1] == "exit flag: bound"
    assert run("x := 1 / n", "--config", "{n -> 0}") == 1
    assert capsys.readouterr().err.startswith("evaluation error:")
    assert run("x := ", "--config", "{n -> 0}") == 2
    assert capsys.readouterr().err.startswith("cannot load program:")


@pytest.mark.parametrize("name", ["box", "sigma_gen"])
def test_a_lift_named_after_a_kernel_rule_is_stuck_at_its_line(name, tmp_path):
    # `apply <name>` would run the kernel's rule, not the lifted one
    (tmp_path / "proj.rule").write_text(_TEMPLATES["proj.rule"])
    text = (f"{_PROJ_GOAL}\nlift {name} from proj.rule class standard witness fwd {{x := x}}\n"
            f"apply {name} at 1\nqed\n")
    _, report = script_mod.replay(text, BoundedOracle(-50, 50), base_dir=tmp_path)
    assert report.verdict == "Stuck"
    assert report.message == (f"lift: {name!r} names a kernel rule, which `apply {name}` "
                              "would run (script line 2)"), report.message


def test_a_reader_that_closes_the_pipe_early_ends_the_run_quietly(tmp_path):
    goal = tmp_path / "goal.txt"
    goal.write_text(". => {x -> 0} : [x := x + 1 ; x := x + 1] (x == 2)\n")
    for args in (["check", str(FIXTURES / "table4.dlp")], ["search", str(goal), "--depth", "8"]):
        run = subprocess.Popen([sys.executable, "-m", "cycproof.cli", *args],
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        run.stdout.close()  # before the report is written
        err = run.stderr.read().decode()
        assert run.wait(timeout=120) == cli.BROKEN_PIPE, (args, err[-300:])
        assert "Traceback" not in err and "Error" not in err, (args, err[-300:])


@pytest.mark.parametrize("command, message", [
    (["check"], "cannot read script: "),
    (["search", "--depth", "3"], "cannot load goal: "),
    (["eval", "--config", "{x -> 0}"], "cannot load program: "),
])
def test_an_input_file_that_is_not_utf8_is_a_usage_error(command, message, tmp_path):
    undecodable = tmp_path / "latin.txt"
    undecodable.write_bytes(b"\xff\xfe\x00goal")
    run = _cli(command[0], str(undecodable), *command[1:])
    assert run.returncode == 2 and not run.stdout, run.stdout
    assert run.stderr.startswith(message) and "Traceback" not in run.stderr, run.stderr


def test_a_template_that_is_not_utf8_is_stuck_at_its_lift_line(tmp_path):
    (tmp_path / "latin.rule").write_bytes(b"conclusion ?a => ?a \xe9\n")
    _, report = script_mod.replay(f"{_PROJ_GOAL}\nlift p from latin.rule class standard\nqed\n",
                                  BoundedOracle(-50, 50), base_dir=tmp_path)
    assert report.verdict == "Stuck"
    assert report.message.startswith("cannot read template 'latin.rule': 'utf-8' codec")
    assert report.message.endswith("(script line 2)"), report.message


@pytest.mark.parametrize("command, option, name", [
    ("check", "--dump", "d.txt"), ("search", "--emit", "e.dlp"), ("search", "--dump", "d.txt"),
])
def test_an_output_file_that_cannot_be_written_is_a_usage_error(command, option, name, tmp_path):
    # after the report is printed
    goal = tmp_path / "goal.txt"
    goal.write_text(". => {x -> 0} : [x := x + 1] (x == 1)\n")
    target = tmp_path / "no-such-dir" / name
    args = [str(FIXTURES / "table4.dlp")] if command == "check" else [str(goal), "--depth", "5"]
    run = _cli(command, *args, option, str(target))
    assert run.returncode == 2 and run.stdout.startswith("verdict: "), run.stdout
    assert run.stderr == f"cannot write {target}: No such file or directory\n", run.stderr
