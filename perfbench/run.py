"""Verdict benchmark for `cycproof check` and `cycproof search`.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Generates the seeded corpus of one workload
(``corpus.py``), calls ``cycproof.cli.main`` in-process on each input, as a
user would call the command line, in whole passes over the corpus until
``--seconds`` have elapsed, and checks every verdict against the
construction and every dump, ledger and emitted script against the golden
digests (``digests.json``).  Single process, no threads.

``--trace 0`` reports the end-to-end metrics, each call's time scaled by a
fixed reference work timed beside it (``reference.py``); ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (``tracing.py``),
writing the spans to ``perfbench/out/``.  Every metric is printed with its
unit; the last line of standard output is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import harness
import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_ROUNDS = 7

# the import is timed in a fresh interpreter, which may run on the other core,
# so it times the reference work there too
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import reference; "
    "before = reference.reference_seconds(); t = time.perf_counter(); "
    "import cycproof.cli; t = time.perf_counter() - t; "
    "print(reference.scale(t, before, reference.reference_seconds()))"
)


def fail_usage(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_seconds() -> float:
    """Import time of the command line in a fresh interpreter, at the
    reference speed."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip())


class Run:
    """One benchmark run: its corpus, workspace and failure tally."""

    def __init__(self, workload: str, seed: int, cli_main):
        self.cli_main = cli_main
        self.workload = workload
        self.seed = seed
        self.golden = harness.load_golden()
        self.inputs = corpus.corpus(workload, seed)
        self.dir = OUT / f"run-{workload}-{seed}"
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.last: dict = {}  # input name -> last Outcome
        self.dumps: dict = {}  # input name -> set of dump digests seen

    def setup_round(self) -> float:
        """Import, corpus generation and warm-up, timed; returns seconds at
        the reference speed."""
        imported = import_seconds()
        before = reference.reference_seconds()
        started = time.perf_counter()
        inputs = corpus.corpus(self.workload, self.seed)
        shutil.rmtree(self.dir, ignore_errors=True)
        self.space = harness.Workspace(self.dir, inputs)
        warm = corpus.warmup(self.workload)
        warm_space = harness.Workspace(self.dir / "warmup", warm)
        for inp in warm:
            self.judge(inp, harness.execute(self.cli_main, inp, warm_space))
        seconds = time.perf_counter() - started
        return imported + reference.scale(seconds, before, reference.reference_seconds())

    def judge(self, inp, outcome) -> None:
        self.attempted += 1
        self.fail(inp, harness.problems(inp, outcome, self.golden))
        self.last[inp.name] = outcome
        self.dumps.setdefault(inp.name, set()).add(harness.digest(outcome.dump))

    def fail(self, inp, problems: list) -> None:
        self.failed += bool(problems)
        self.failures += [f"{inp.name}: {problem}" for problem in problems]

    def one_pass(self, main_for=None) -> float:
        """Runs the corpus once; returns its wall seconds.

        ``main_for(inp)``, when given, supplies the CLI entry point to call.
        """
        started = time.perf_counter()
        for inp in self.inputs:
            main = main_for(inp) if main_for else self.cli_main
            self.judge(inp, harness.execute(main, inp, self.space))
        return time.perf_counter() - started

    def referenced_pass(self, pacer) -> tuple:
        """Runs the corpus once with the reference work timed before and
        after each call and, by ``pacer``, within it; returns (raw, scaled)
        per-input latencies without the reference timings, the scaled ones
        in seconds at the reference speed."""
        raw, scaled = [], []
        pacer.mark()
        for inp in self.inputs:
            outcome = harness.execute(self.cli_main, inp, self.space)
            pacer.mark()
            seconds, at_reference = pacer.split(outcome.started,
                                                outcome.started + outcome.seconds)
            raw.append(seconds)
            scaled.append(at_reference)
            self.judge(inp, outcome)
        return raw, scaled

    def gate(self) -> None:
        """Checks run after the measured passes: every emitted script replays
        to its search's verdict and dump, and each input gave one dump."""
        for inp in self.inputs:
            if len(self.dumps[inp.name]) != 1:
                self.fail(inp, ["dumps differ between passes"])
            if inp.command == "search":
                self.attempted += 1
                self.fail(inp, harness.replay_problems(
                    self.cli_main, inp, self.last[inp.name], self.space))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def latency_metrics(per_pass: list) -> tuple:
    """(verdicts_per_s, p50 ms, tail ms) from each input's median latency
    over the passes."""
    typical = [statistics.median(times) for times in zip(*per_pass)]
    return (len(typical) / sum(typical), 1000 * statistics.median(typical),
            1000 * max(typical))


def end_to_end(run: Run, seconds: float) -> tuple:
    setup = statistics.median(run.setup_round() for _ in range(SETUP_ROUNDS))
    raw_passes: list = []
    scaled_passes: list = []
    started = time.perf_counter()
    with reference.Pacer() as pacer:
        while not raw_passes or time.perf_counter() - started < seconds:
            raw, scaled = run.referenced_pass(pacer)
            raw_passes.append(raw)
            scaled_passes.append(scaled)
    passes = len(raw_passes)
    # at the reference speed: see reference.py
    per_s, p50, tail = latency_metrics(scaled_passes)
    metrics = {
        "verdicts_per_s": (per_s, "1/s"),
        "verdict_p50_ms": (p50, "ms"),
        "verdict_tail_ms": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup, "s"),
    }
    raw_per_s, raw_p50, raw_tail = latency_metrics(raw_passes)
    notes = [f"passes {passes}, {len(run.inputs)} inputs; each input's median over "
             f"the passes, at the reference speed ({reference.REFERENCE_MS} ms reference)",
             f"as timed, without scaling: verdicts_per_s {raw_per_s:.6g} 1/s, "
             f"verdict_p50_ms {raw_p50:.6g} ms, verdict_tail_ms {raw_tail:.6g} ms"]
    return metrics, notes


def per_layer(run: Run, seconds: float) -> tuple:
    run.setup_round()
    tracer = tracing.Tracer()
    counts = tracing.LayerCounts()

    def traced(inp):
        return lambda argv: tracer.root(inp.name, run.cli_main, argv)

    walls = {False: 0.0, True: 0.0}
    passes = 0
    started = time.perf_counter()
    while passes < 2 or time.perf_counter() - started < seconds:
        with_trace = passes % 2 == 1
        if with_trace:
            first = len(tracer.spans)
            tracer.install()
            try:
                wall = run.one_pass(traced)
            finally:
                tracer.uninstall()
            group: list = []
            for span in tracer.spans[first:]:
                if span.parent == -1 and group:
                    counts.add_input(group)
                    group = []
                group.append(span)
            counts.add_input(group)
        else:
            wall = run.one_pass()
        walls[with_trace] += wall
        passes += 1
    traced_passes = passes // 2
    untraced_passes = passes - traced_passes
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{run.workload}-seed{run.seed}.csv"
    tracer.write(spans_file)

    own = tracing.self_seconds(tracer)
    c = counts.counts
    per = 1 / traced_passes
    traced_wall = walls[True] / traced_passes
    metrics = {
        "oracle.calls": (c["oracle.calls"] * per, "count"),
        "oracle.s": (own["oracle"] * per, "s"),
        "oracle.grid_points": (c["oracle.grid_points"] * per, "count"),
        "oracle.points_to_witness": (c["oracle.points_to_witness"] * per, "count"),
        "oracle.invalid": (c["oracle.invalid"] * per, "count"),
        "oracle.unknown": (c["oracle.unknown"] * per, "count"),
        "oracle.repeat_share": (c["oracle.repeats"] / max(1, c["oracle.calls"]), "ratio"),
        "canon.calls": (c["canon.calls"] * per, "count"),
        "canon.s": (own["canon"] * per, "s"),
        "whilelang.calls": (c["whilelang.calls"] * per, "count"),
        "whilelang.case_splits": (c["whilelang.case_splits"] * per, "count"),
        "whilelang.self_s": (own["whilelang"] * per, "s"),
        "kernel.rule_calls": (c["kernel.rule_calls"] * per, "count"),
        "kernel.self_s": (own["kernel"] * per, "s"),
        "kernel.nodes": (c["kernel.nodes"] * per, "count"),
        "kernel.backlinks": (c["kernel.backlinks"] * per, "count"),
        "kernel.dump_s": (own["kernel.dump"] * per, "s"),
        "cyclic.s": (own["cyclic"] * per, "s"),
        "cyclic.companions": (c["cyclic.companions"] * per, "count"),
        "cyclic.trace_edges": (c["cyclic.trace_edges"] * per, "count"),
        "parser.calls": (c["parser.calls"] * per, "count"),
        "parser.s": (own["parser"] * per, "s"),
        "driver.self_s": (own[tracing.DRIVER] * per, "s"),
        "trace_overhead": (traced_wall / (walls[False] / untraced_passes), "ratio"),
        "phase_coverage": (sum(v for k, v in own.items() if k != "kernel.dump")
                           * per / traced_wall, "ratio"),
    }
    notes = [f"passes {untraced_passes} untraced + {traced_passes} traced; layer "
             f"counts and times are per traced pass of {len(run.inputs)} inputs; "
             f"spans in {spans_file.relative_to(ROOT)}"]
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cycproof" / "__init__.py").is_file():
        return fail_usage(f"no cycproof sources under {SRC}; run from a checkout")
    if not corpus.TABLE4.is_file():
        return fail_usage(f"missing {corpus.TABLE4}")
    sys.path.insert(0, str(SRC))
    from cycproof import cli

    run = Run(args.workload, args.seed, cli.main)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, notes = measure(run, args.seconds)
        run.gate()
    finally:
        run.close()

    failed = run.failed
    for failure in run.failures:
        print(f"FAIL {failure}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:26s} {value:14.6g} {unit}")
    print(f"  {'failed_share':26s} {failed / run.attempted:14.6g} ratio "
          f"({failed} of {run.attempted} attempted)")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
