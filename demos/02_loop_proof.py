"""Replay the summation-loop proof and inspect its cyclic certificate.

The script generalizes the goal with a loop counter, symbolically executes
one iteration, and closes the cycle with a backlink.  The checker accepts
because the cycle's trace crosses two box steps, then the same claim with a
broken postcondition shows the counter-example sets shrinking along the
very same edges, which is the well-foundedness argument in executable form.
"""

from pathlib import Path

from cycproof import script as script_mod
from cycproof.oracle import BoundedOracle
from cycproof.semantics import lemma1_probe

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "table4.dlp"

text = FIXTURE.read_text()
replayer, report = script_mod.replay(text, BoundedOracle(-50, 50))
print(report.render())

print("\n== counter-example descent on the falsified variant ==")
broken = text.replace("((v + 1) * v) / 2", "((v + 1) * v) / 2 + 1")
kept = [
    line
    for line in broken.splitlines()
    if line.strip()
    and not line.strip().startswith("#")
    and not line.startswith("apply ter")
    and not line.startswith("backlink")
    and line.strip() != "qed"
]
partial = script_mod.Replayer(BoundedOracle(-50, 50))
partial.replay("\n".join(kept))
rho = {"v": 3, "m": 0}
for parent, child in [(3, 5), (5, 6), (6, 11), (11, 12), (16, 17)]:
    probe = lemma1_probe(partial.graph, parent, child, 0, rho)
    kind = "strictly shrinks" if probe.strict else "stays equal"
    print(f"  edge {parent} -> {child}: counter-example set {kind}")
