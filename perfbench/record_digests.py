"""Record the golden digests of every input any seed can produce.

    python3 perfbench/record_digests.py [workload ...]

Runs every variant of every slot once through ``cycproof.cli.main`` and
writes ``perfbench/digests.json``: per input, the digest of its text, its
verdict, and the digests of its proof-graph dump, its printed ledger and (for
``search``) the script it emitted.  An input whose verdict, witness or
backlink count disagrees with the construction is reported and not
recorded, so the table only ever encodes correct verdicts.  Re-record only
when the corpus changes; a change to cycproof must reproduce these digests.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import harness  # noqa: E402
from cycproof import cli  # noqa: E402


def main(argv: list) -> int:
    workloads = argv or list(corpus.WORKLOADS)
    table = harness.load_golden() if harness.DIGESTS.exists() else {}
    bad = 0
    for workload in workloads:
        inputs = corpus.all_variants(workload)
        space = harness.Workspace(HERE / "out" / f"record-{workload}", inputs)
        try:
            for inp in inputs:
                outcome = harness.execute(cli.main, inp, space)
                wrong = harness.construction_problems(inp, outcome)
                if inp.command == "search" and not wrong:
                    wrong = harness.replay_problems(cli.main, inp, outcome, space)
                if wrong:
                    bad += 1
                    print(f"{inp.name}: {'; '.join(wrong)}", file=sys.stderr)
                    continue
                table[inp.name] = harness.record_of(inp, outcome)
                print(f"{workload:17s} {inp.name:22s} {outcome.verdict:14s} "
                      f"{outcome.seconds:7.3f}s")
        finally:
            shutil.rmtree(space.directory, ignore_errors=True)
    current = {inp.name for w in corpus.WORKLOADS for inp in corpus.all_variants(w)}
    table = {name: entry for name, entry in table.items() if name in current}
    harness.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
