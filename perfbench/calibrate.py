"""Re-measure the baselines the benchmark was calibrated against.

    python3 perfbench/calibrate.py

Measures, outside the workloads and once per invocation:

* the ``table4`` fixture replayed with ``check``: wall time, oracle calls and
  the oracle's share of the time (median of five replays);
* one 3-variable bounded obligation over the default box ``-50..50``
  (101^3 grid points), the case the workloads leave out for its cost;
* ``search`` on the ground sum loop at n = 5, 10, 20 (median of three).

Writes ``perfbench/calibration.json`` with the figures, the reference
figures they are compared with, and the machine they were taken on.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
from cycproof import cli  # noqa: E402
from cycproof.oracle import BoundedOracle  # noqa: E402
from cycproof.parser import parse_fml  # noqa: E402

# Figures from the project roadmap (item 1), for comparison.
REFERENCE = {
    "table4_s": 0.34,
    "table4_oracle_calls": 6,
    "obligation_3var_s": 5.5,
    "search_sum_s": {"5": 0.05, "10": 0.21, "20": 1.70},
}


def table4() -> dict:
    inp = corpus.table4("table4", None)
    space = harness.Workspace(HERE / "out" / "calibrate", [inp])
    walls, calls, oracle_share = [], [], []
    for _ in range(5):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            outcome = harness.execute(
                lambda argv: tracer.root(inp.name, cli.main, argv), inp, space)
        finally:
            tracer.uninstall()
        walls.append(outcome.seconds)
        oracle = [s for s in tracer.spans if s.layer == "oracle"]
        calls.append(len(oracle))
        oracle_share.append(sum(s.end - s.start for s in oracle) / outcome.seconds)
    return {"table4_s": statistics.median(walls),
            "table4_oracle_calls": statistics.median(calls),
            "table4_oracle_share": statistics.median(oracle_share)}


def obligation_3var() -> dict:
    """The exit-branch obligation of the sum proof with a symbolic start w."""
    gamma = [parse_fml("0 <= v - m"), parse_fml("v - m <= 0")]
    delta = [parse_fml("w + 3 * ((2 * v - m + 1) * m / 2) == w + 3 * ((v + 1) * v / 2)")]
    started = time.perf_counter()
    verdict = BoundedOracle(-50, 50).valid_sequent(gamma, delta)
    return {"obligation_3var_s": time.perf_counter() - started,
            "obligation_3var_verdict": str(verdict)}


def search_sum() -> dict:
    out = {}
    for n in (5, 10, 20):
        goal = (f". => {{n -> {n}, s -> 0}} : [while n > 0 do s := s + n ; n := n - 1 end] "
                f"(s == {n * (n + 1) // 2})")
        inp = corpus.Input(f"sum-{n}", "search", goal, "bounded:-50..50",
                           "ProvedBounded", depth=4 * n + 8)
        space = harness.Workspace(HERE / "out" / "calibrate", [inp])
        runs = [harness.execute(cli.main, inp, space) for _ in range(3)]
        if any(r.verdict != inp.verdict for r in runs):
            raise RuntimeError(f"search on n = {n} did not prove: {runs[0].stdout}")
        out[str(n)] = statistics.median(r.seconds for r in runs)
    return {"search_sum_s": out}


def main() -> int:
    measured = {}
    for step in (table4, obligation_3var, search_sum):
        measured.update(step())
    report = {
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "measured": measured,
        "reference": REFERENCE,
    }
    (HERE / "calibration.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
