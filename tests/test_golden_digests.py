"""Every benchmark input against its golden digests.

``perfbench/digests.json`` records, for each input any benchmark seed can
draw, the verdict and the digests of the proof-graph dump, the printed
ledger and the emitted search script.  Running each input through
``cycproof.cli.main`` must reproduce them byte for byte, and a script that
``search`` emitted must replay to the same verdict and dump.  The benchmark's
corpus and harness are only read here.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import corpus  # noqa: E402
import harness  # noqa: E402
from cycproof import cli  # noqa: E402


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_every_input_reproduces_its_golden_digests(workload, tmp_path):
    golden = harness.load_golden()
    inputs = corpus.all_variants(workload)
    space = harness.Workspace(tmp_path, inputs)
    wrong = []
    for inp in inputs:
        outcome = harness.execute(cli.main, inp, space)
        problems = harness.problems(inp, outcome, golden)
        if inp.command == "search" and not problems:
            problems = harness.replay_problems(cli.main, inp, outcome, space)
        wrong += [f"{inp.name}: {problem}" for problem in problems]
    assert not wrong, "\n".join(wrong)
