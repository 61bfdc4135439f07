"""Seeded input corpus for the verdict benchmark.

Every workload is a fixed list of *slots*; a slot fixes the shape and size of
one input (loop, grid box, chain length, nesting depth) and has ``VARIANTS``
variants that differ only in constants.  The seed picks one variant per slot
and the order of the slots, so runs with different seeds do the same amount of
work on different inputs, and every input that any seed can produce has a
golden digest in ``digests.json``.

Expected verdicts come from the construction, never from cycproof: the sum
loops are checked against closed forms computed here, a broken postcondition
is wrong exactly where its extra division term is nonzero (which also fixes
the first counterexample in the oracle's lexicographic grid order), a
forged diamond loop has no progress edge, and a loop of k nested undecidable
ifs has 2^k paths back to its head.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 8

ROOT = Path(__file__).resolve().parent.parent
TABLE4 = ROOT / "fixtures" / "table4.dlp"


@dataclass(frozen=True)
class Input:
    name: str  # "<slot>/v<variant>", the key into digests.json
    command: str  # "check" or "search"
    text: str  # script (check) or goal sequent (search)
    oracle: str
    verdict: str  # expected verdict
    depth: int = 0  # search depth
    witness: str = ""  # expected first counterexample, as the ledger prints it
    backlinks: int = -1  # expected backlink count, -1 when not fixed

    def argv(self, source: Path, dump: Path, script: Path) -> list:
        if self.command == "check":
            return ["check", str(source), "--oracle", self.oracle, "--dump", str(dump)]
        return ["search", str(source), "--depth", str(self.depth), "--oracle",
                self.oracle, "--dump", str(dump), "--emit", str(script)]


# ---------------------------------------------------------------------------
# Family 1: generalised sum loops, replayed with `check`
# ---------------------------------------------------------------------------

def sum_loop(a: int) -> str:
    return f"while n > 0 do s := s + {a} * n ; n := n - 1 end"


def sum_closed_form(a: int, s0: int, v: int) -> int:
    """What the loop leaves in s from {n -> v, s -> s0}, by running it."""
    n, s = v, s0
    while n > 0:
        s, n = s + a * n, n - 1
    return s


def sum_script(a: int, s0: str, extra: str = "") -> str:
    """The table4 proof of ``s == s0 + a * (v + 1) * v / 2`` for any a, s0.

    After m iterations n holds v - m and s holds s0 + a * (2v - m + 1) * m / 2;
    ``extra`` is added to the postcondition only, so the proof's single
    ``ter`` on the exit branch (node 10) is where a broken postcondition shows.
    """
    loop = sum_loop(a)
    post = f"s == {s0} + {a} * (((v + 1) * v) / 2){extra}"
    inv = f"{s0} + {a} * (((2 * v - m + 1) * m) / 2)"
    box = f"[{loop}] ({post})"
    return "\n".join([
        f"goal . => v >= 0 -> {{n -> v, s -> {s0}}} : {box}",
        "apply imp_r at 1",
        f"sub at 2 {{m := 0}} premise v - m >= 0 => {{n -> v - m, s -> {inv}}} : {box}",
        "cut at 3 v - m > 0 || v - m <= 0",
        "apply or_l at 5 with occ 1",
        "apply box at 7",
        "apply box_eps at 8",
        "apply int at 9",
        "apply ter at 10",
        "apply box at 6",
        "apply box at 11",
        "cut at 12 (v - (m + 1) >= -1) && (v - (m + 1) >= 0) split",
        "apply wk_r at 13 with 0",
        "apply ter at 15",
        "apply wk_l at 14 with 0 1",
        f"sub at 16 {{m := m + 1}} premise v - m >= -1, v - m >= 0 => "
        f"{{n -> v - m, s -> {inv}}} : {box}",
        "apply wk_l at 17 with 0",
        "backlink at 18 to 3",
        "apply wk_r at 4 with 0",
        "apply ter at 19",
        "qed",
    ]) + "\n"


def _sum_params(rng: random.Random) -> tuple:
    return rng.randint(1, 9), rng.randint(-9, 9)


def sum2(slot: str, rng: random.Random, box: int) -> Input:
    """Two grid variables (m, v); s starts at a constant."""
    a, c = _sum_params(rng)
    return Input(slot, "check", sum_script(a, str(c)),
                 f"bounded:-{box}..{box}", "ProvedBounded")


def sum3(slot: str, rng: random.Random, box: int) -> Input:
    """Three grid variables (m, v, w); s starts at the symbol w plus a constant."""
    a, c = _sum_params(rng)
    return Input(slot, "check", sum_script(a, f"(w + {c})"),
                 f"bounded:-{box}..{box}", "ProvedBounded")


def table4(slot: str, rng: random.Random) -> Input:
    return Input(slot, "check", TABLE4.read_text(), "bounded:-50..50",
                 "ProvedBounded")


# ---------------------------------------------------------------------------
# Family 2: broken postconditions and forged diamond loops
# ---------------------------------------------------------------------------

def refute(slot: str, rng: random.Random, box: int, symbolic: bool, d: int) -> Input:
    """The sum proof with ``+ (v + box) / d`` added to the postcondition.

    On the exit branch v == m, so the obligation fails exactly where
    (v + box) / d is nonzero: first at m = v = d - box (and w at the low
    end of the box), which sits ``d / (2 box + 1)`` of the way into the grid.
    ``d`` is fixed per slot, so that every variant scans as far.
    """
    a, c = _sum_params(rng)
    s0 = f"(w + {c})" if symbolic else str(c)
    first = d - box
    witness = f"m = {first}, v = {first}" + (f", w = {-box}" if symbolic else "")
    return Input(slot, "check",
                 sum_script(a, s0, f" + (v + {box}) / {d}"),
                 f"bounded:-{box}..{box}", "Stuck", witness=f"invalid [{witness}]")


FORGED_BODIES = (
    "skip",
    "n := n + ({c} - {c})",
    "n := (n * {c}) / {c}",
)


def forged(slot: str, rng: random.Random, body: str) -> Input:
    """A divergent diamond loop closed by a backlink with no progress edge.

    The body leaves the store unchanged up to arithmetic, so the backlink
    is accepted by the kernel and only the trace condition rejects it.
    """
    k, c, g = rng.randint(-9, 9), rng.randint(2, 9), rng.randint(-9, 9)
    script = "\n".join([
        f"goal . => {{n -> {k}}} : <while {g} <= {g} do {body.format(c=c)} end> true",
        "apply diamond at 1",
        "backlink at 2 to 1",
        "qed",
    ]) + "\n"
    return Input(slot, "check", script, "bounded:-50..50", "Rejected",
                 backlinks=1)


# ---------------------------------------------------------------------------
# Family 3: ground programs searched with `search`
# ---------------------------------------------------------------------------

def ground_sum(slot: str, rng: random.Random, n: int) -> Input:
    a, c = rng.randint(2, 9), rng.randint(1, 9)
    goal = (f". => {{n -> {n}, s -> {c}}} : [{sum_loop(a)}] "
            f"(s == {sum_closed_form(a, c, n)})")
    return Input(slot, "search", goal, "bounded:-50..50", "ProvedBounded",
                 depth=4 * n + 8, backlinks=0)


CHAIN_OPS = "+*-"


def chain_value(x0: int, steps) -> int:
    x = x0
    for op, c in steps:
        x = x + c if op == "+" else x * c if op == "*" else x - c
    return x


def chain(slot: str, rng: random.Random, length: int) -> Input:
    """Straight-line x := x op c.  The op pattern and the multiplier are
    fixed, so every variant computes numbers of the same size; the added and
    subtracted constants vary."""
    x0 = rng.randint(1, 9)
    steps = [(op, 2 if op == "*" else rng.randint(1, 9))
             for op in (CHAIN_OPS[i % 3] for i in range(length))]
    prog = " ; ".join(f"x := x {op} {c}" for op, c in steps)
    goal = f". => {{x -> {x0}}} : [{prog}] (x == {chain_value(x0, steps)})"
    return Input(slot, "search", goal, "bounded:-50..50", "ProvedBounded",
                 depth=length + 5, backlinks=0)


# ---------------------------------------------------------------------------
# Family 4: branching loops searched with `search`
# ---------------------------------------------------------------------------

BRANCH_VARS = ("x", "y", "z", "u")
BRANCH_BOX = 2


def nested_ifs(guards) -> str:
    if not guards:
        return "skip"
    inner = nested_ifs(guards[1:])
    return f"if {guards[0]} then {inner} else {inner} end"


def branching(slot: str, rng: random.Random, k: int, modality: str) -> Input:
    """``while g <= h do <k nested ifs> end`` (g <= h) over a symbolic store.

    Each guard ``x <= 0`` tests its own variable, whose symbolic value ranges
    over the oracle box on both sides of 0, so the oracle can decide none of
    them and every one of the 2^k paths through the body returns to the loop
    head: 2^k backlinks.  The box goal holds (partial correctness of a
    divergent loop); the diamond goal is rejected by the trace condition.
    Variants differ in constants and symbol names that leave the oracle's
    grid order, and so its work, unchanged.
    """
    guards = [f"{var} <= 0" for var in BRANCH_VARS[:k]]
    store = ", ".join(f"{v} -> {v}{rng.randint(0, 9)}" for v in BRANCH_VARS[:k])
    g = rng.randint(-9, 9)
    loop = f"while {g} <= {g + rng.randint(0, 9)} do {nested_ifs(guards)} end"
    prog = f"[{loop}]" if modality == "box" else f"<{loop}>"
    p = rng.randint(-9, 9)
    goal = f". => {{{store}}} : {prog} ({p} <= {p})"
    verdict = "ProvedBounded" if modality == "box" else "Rejected"
    return Input(slot, "search", goal,
                 f"bounded:-{BRANCH_BOX}..{BRANCH_BOX}", verdict,
                 depth=6 * k + 10, backlinks=2 ** k)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# slot name -> maker(slot, rng) of its inputs; a slot's inputs share shape and size
WORKLOADS = {
    "replay-symbolic": {
        "table4": table4,
        "sum2-b50": lambda s, r: sum2(s, r, 50),
        "sum2-b30": lambda s, r: sum2(s, r, 30),
        "sum2-b10": lambda s, r: sum2(s, r, 10),
        "sum3-b10": lambda s, r: sum3(s, r, 10),
        "sum3-b15": lambda s, r: sum3(s, r, 15),
        "sum3-b20": lambda s, r: sum3(s, r, 20),
    },
    "replay-refute": {
        "refute2-early": lambda s, r: refute(s, r, 50, False, 10),
        "refute2-mid": lambda s, r: refute(s, r, 50, False, 50),
        "refute2-late": lambda s, r: refute(s, r, 50, False, 90),
        "refute3-early": lambda s, r: refute(s, r, 15, True, 5),
        "refute3-mid": lambda s, r: refute(s, r, 15, True, 15),
        "refute3-late": lambda s, r: refute(s, r, 15, True, 26),
        "forged-skip": lambda s, r: forged(s, r, FORGED_BODIES[0]),
        "forged-add": lambda s, r: forged(s, r, FORGED_BODIES[1]),
        "forged-div": lambda s, r: forged(s, r, FORGED_BODIES[2]),
    },
    "search-concrete": {
        "sum-n5": lambda s, r: ground_sum(s, r, 5),
        "sum-n10": lambda s, r: ground_sum(s, r, 10),
        "sum-n15": lambda s, r: ground_sum(s, r, 15),
        "sum-n20": lambda s, r: ground_sum(s, r, 20),
        "chain-10": lambda s, r: chain(s, r, 10),
        "chain-20": lambda s, r: chain(s, r, 20),
        "chain-25": lambda s, r: chain(s, r, 25),
        "chain-30": lambda s, r: chain(s, r, 30),
        "chain-40": lambda s, r: chain(s, r, 40),
    },
    "search-branching": {
        "box-k1": lambda s, r: branching(s, r, 1, "box"),
        "box-k2": lambda s, r: branching(s, r, 2, "box"),
        "box-k3": lambda s, r: branching(s, r, 3, "box"),
        "box-k4": lambda s, r: branching(s, r, 4, "box"),
        "dia-k2": lambda s, r: branching(s, r, 2, "dia"),
        "dia-k3": lambda s, r: branching(s, r, 3, "dia"),
        "dia-k4": lambda s, r: branching(s, r, 4, "dia"),
    },
}

# the cheap slots each set-up round runs once, so lazy set-up is paid there
WARMUP = {
    "replay-symbolic": ("sum2-b10",),
    "replay-refute": ("refute3-early", "forged-skip"),
    "search-concrete": ("sum-n5", "chain-10"),
    "search-branching": ("box-k2", "dia-k2"),
}


def variant(workload: str, slot: str, index: int) -> Input:
    """The ``index``-th variant of a slot; independent of any run seed."""
    rng = random.Random(f"{workload}/{slot}/{index}")
    return WORKLOADS[workload][slot](f"{slot}/v{index}", rng)


def corpus(workload: str, seed: int) -> list:
    """The inputs of one run: one variant per slot, in a seeded order."""
    rng = random.Random(seed)
    slots = list(WORKLOADS[workload])
    chosen = [variant(workload, slot, rng.randrange(VARIANTS)) for slot in slots]
    rng.shuffle(chosen)
    return chosen


def all_variants(workload: str) -> list:
    return [variant(workload, slot, i)
            for slot in WORKLOADS[workload] for i in range(VARIANTS)]


def warmup(workload: str) -> list:
    return [variant(workload, slot, 0) for slot in WARMUP[workload]]
