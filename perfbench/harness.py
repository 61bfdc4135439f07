"""Running one corpus input through the cycproof command line, in-process.

The benchmark calls ``cycproof.cli.main`` with the same argument list a user
would type, captures what it prints and reads back the files it writes, and
compares the outcome with the construction's expected verdict and with the
golden digests recorded in ``digests.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def ledger_text(stdout: str) -> str:
    """The printed verdict, notes and obligation ledger, without the lines
    that legitimately differ between runs (wall time, output file names)."""
    keep = [line for line in stdout.splitlines()
            if not line.startswith(("elapsed:", "script written to"))]
    return "\n".join(keep)


def verdict_of(stdout: str) -> str:
    first = stdout.split("\n", 1)[0]
    return first[len("verdict: "):] if first.startswith("verdict: ") else ""


@dataclass
class Outcome:
    seconds: float  # from the CLI call to its return
    verdict: str = ""
    stdout: str = ""
    dump: str = ""
    script: str = ""  # what `search --emit` wrote
    error: str = ""  # a traceback that escaped the CLI
    started: float = 0.0  # perf_counter() at the call


class Workspace:
    """Input files of one run, written once, under a directory of the run."""

    def __init__(self, directory: Path, inputs: list):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)
        self.dump_path = directory / "dump.txt"
        self.sources = {}
        self.scripts = {}
        for i, inp in enumerate(inputs):
            source = directory / f"{i:03d}.in"
            source.write_text(inp.text)
            self.sources[inp.name] = source
            self.scripts[inp.name] = directory / f"{i:03d}.script"

    def argv(self, inp) -> list:
        return inp.argv(self.sources[inp.name], self.dump_path, self.scripts[inp.name])


def run_cli(cli_main, argv: list) -> tuple:
    """(start, seconds, stdout, traceback text) of one call, the start as
    ``time.perf_counter()`` gives it; stderr is discarded."""
    out = io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        try:
            cli_main(argv)
        except Exception:  # a traceback is a failed input, not a crashed run
            error = traceback.format_exc()
        seconds = time.perf_counter() - started
    return started, seconds, out.getvalue(), error


def execute(cli_main, inp, space: Workspace) -> Outcome:
    if space.dump_path.exists():
        space.dump_path.unlink()
    started, seconds, stdout, error = run_cli(cli_main, space.argv(inp))
    outcome = Outcome(seconds, verdict_of(stdout), stdout, error=error, started=started)
    if space.dump_path.exists():
        outcome.dump = space.dump_path.read_text()
    script = space.scripts[inp.name]
    if inp.command == "search" and script.exists():
        outcome.script = script.read_text()
    return outcome


def record_of(inp, outcome: Outcome) -> dict:
    """The golden entry for an input: what a correct run must reproduce."""
    return {
        "input": digest(inp.text),
        "verdict": outcome.verdict,
        "dump": digest(outcome.dump),
        "ledger": digest(ledger_text(outcome.stdout)),
        "script": digest(outcome.script) if inp.command == "search" else None,
    }


def load_golden() -> dict:
    return json.loads(DIGESTS.read_text())


def construction_problems(inp, outcome: Outcome) -> list:
    """Where an outcome contradicts the corpus construction: a traceback, or
    a verdict, first counterexample or backlink count other than expected."""
    if outcome.error:
        return [f"traceback: {outcome.error.strip().splitlines()[-1]}"]
    out = []
    if outcome.verdict != inp.verdict:
        out.append(f"verdict {outcome.verdict or '(none)'}, expected {inp.verdict}")
    if inp.witness and inp.witness not in outcome.stdout:
        out.append(f"first counterexample is not {inp.witness}")
    if inp.backlinks >= 0:
        links = outcome.dump.rsplit("(backlinks", 1)[-1].count("(")
        if links != inp.backlinks:
            out.append(f"{links} backlinks, expected {inp.backlinks}")
    return out


def problems(inp, outcome: Outcome, golden: dict) -> list:
    """Why an outcome is wrong; empty when it is right."""
    out = construction_problems(inp, outcome)
    if outcome.error:
        return out
    entry = golden.get(inp.name)
    if entry is None or entry["input"] != digest(inp.text):
        return out + ["no golden digest for this input text (re-record digests.json)"]
    actual = record_of(inp, outcome)
    for key in ("dump", "ledger", "script"):
        if actual[key] != entry[key]:
            out.append(f"{key} digest differs from the recorded one")
    return out


def replay_problems(cli_main, inp, outcome: Outcome, space: Workspace) -> list:
    """Replays the script a search emitted: same verdict, byte-identical dump."""
    script = space.scripts[inp.name]
    argv = ["check", str(script), "--oracle", inp.oracle, "--dump", str(space.dump_path)]
    if space.dump_path.exists():
        space.dump_path.unlink()
    _, _, stdout, error = run_cli(cli_main, argv)
    if error:
        return [f"replay traceback: {error.strip().splitlines()[-1]}"]
    dump = space.dump_path.read_text() if space.dump_path.exists() else ""
    out = []
    if verdict_of(stdout) != outcome.verdict:
        out.append(f"replayed script gives {verdict_of(stdout)}, search gave {outcome.verdict}")
    if dump != outcome.dump:
        out.append("replayed script gives a different dump")
    return out
