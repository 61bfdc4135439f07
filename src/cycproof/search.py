"""Bounded backward proof search that emits a replayable script.

The strategy is deliberately plain: saturate each open goal with closure
attempts (ter, ax, backlinks against ancestors) and deterministic
normalizations (label elimination, propositional decomposition, terminal
boxes), then spend depth on symbolic execution steps.  An undecidable guard
reported by the transition derivation is handled by cutting on it.  The
search never invents generalizations, so goals that need one exhaust their
depth instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cyclic, lifting, parser
from .formulas import DBase, Sequent, formulas_equal, sequents_equal
from .kernel import LABEL_REWRITES, MATCHERS, KernelError, ProofGraph
from .oracle import BoundedValid
from .terms import TermError
from .whilelang import CaseSplitNeeded, ObligationFailed


class DepthExhausted(Exception):
    def __init__(self, node_id: int):
        super().__init__(f"depth exhausted at node {node_id}")
        self.node_id = node_id


@dataclass
class SearchResult:
    graph: ProofGraph
    script: str
    verdict: str
    message: str = ""

    @property
    def proved(self) -> bool:
        return self.verdict in ("Proved", "ProvedBounded")


# rewrites applied without consuming depth, in fixed priority order: each
# (side, rules) group scans its side's occurrences in order and applies the
# first of its rules whose shape matches
_NORMALIZERS = (
    ("right", ("box_eps",)),
    ("left", ("box_eps",)),
    ("right", ("int",)),
    ("left", ("int",)),
    ("right", ("sigma_not",)),
    ("left", ("sigma_not",)),
    ("right", ("sigma_and",)),
    ("left", ("sigma_and",)),
    ("right", ("imp_r", "and_r", "not_r")),
    ("left", ("or_l", "and_l", "not_l")),
)


def search(goal: Sequent, oracle, depth: int, path_bound: int = 10_000) -> SearchResult:
    """Prove ``goal`` within ``depth`` symbolic steps per branch."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    graph = ProofGraph(goal, oracle=oracle, extra_rules=lifting.default_registry(),
                       path_bound=path_bound)
    lines = [f"goal {parser.sequent_src(goal)}"]
    budget = {graph.root: depth}

    while True:
        goals = graph.open_goals()
        if not goals:
            break
        node_id = goals[0]
        try:
            _close_or_step(graph, node_id, budget, lines)
        except DepthExhausted as exc:
            return SearchResult(
                graph, "\n".join(lines), "Stuck", f"DepthExhausted at node {exc.node_id}"
            )
        except (KernelError, TermError) as exc:
            # a rule the goal's shape selected cannot apply (a heap command
            # under a While-domain step, say): the search ends without a proof
            return SearchResult(
                graph, "\n".join(lines), "Stuck", f"{type(exc).__name__}: {exc}"
            )

    lines.append("qed")
    certificate = cyclic.check_cyclic(graph)
    if not certificate.accepted:
        return SearchResult(graph, "\n".join(lines), "Rejected", certificate.report())
    bounded = any(isinstance(ob.verdict, BoundedValid) for ob in graph.obligations())
    return SearchResult(graph, "\n".join(lines), "ProvedBounded" if bounded else "Proved")


def _inherit(budget, node_id, children, cost=0):
    for child in children:
        budget[child] = budget[node_id] - cost


def _apply(graph: ProofGraph, node_id: int, rule: str, lines: list, **args) -> list:
    """Apply ``rule`` and record the script line that replays it."""
    children = graph.apply_rule(node_id, rule, **args)
    words = " ".join(f"{key} {value}" for key, value in args.items())
    lines.append(f"apply {rule} at {node_id}" + (f" with {words}" if words else ""))
    return children


def _close_or_step(graph: ProofGraph, node_id: int, budget: dict, lines: list) -> None:
    nu = graph.node(node_id).sequent

    # 1. closure: ter on base-only sequents
    if nu.is_base_only():
        try:
            _apply(graph, node_id, "ter", lines)
            return
        except ObligationFailed:
            pass

    # 2. closure: axiom
    for i, f in enumerate(nu.left):
        for j, g in enumerate(nu.right):
            if formulas_equal(f, g):
                graph.apply_rule(node_id, "ax", left_occ=i, right_occ=j)
                lines.append(f"apply ax at {node_id} with left {i} right {j}")
                return

    # 3. closure: backlink to an identical ancestor
    for ancestor in graph.ancestors(node_id):
        if sequents_equal(nu, graph.node(ancestor).sequent):
            graph.link_bud(node_id, ancestor)
            lines.append(f"backlink at {node_id} to {ancestor}")
            return

    # 4. label and propositional normalization (free)
    for side, rules in _NORMALIZERS:
        for occ, f in enumerate(getattr(nu, side)):
            rule = next((r for r in rules if MATCHERS[r](f)), None)
            if rule is not None:
                args = {"occ": occ, "side": side} if rule in LABEL_REWRITES else {"occ": occ}
                _inherit(budget, node_id, _apply(graph, node_id, rule, lines, **args))
                return

    # 5. symbolic execution (consumes depth); terminal programs were
    # rewritten by box_eps above
    if budget.get(node_id, 0) <= 0:
        raise DepthExhausted(node_id)
    for occ, f in enumerate(nu.right):
        rule = next((r for r in ("box", "diamond") if MATCHERS[r](f)), None)
        if rule is None:
            continue
        try:
            children = _apply(graph, node_id, rule, lines, occ=occ)
        except CaseSplitNeeded as exc:
            children = graph.apply_rule(node_id, "cut", fml=DBase(exc.guard), split=False)
            lines.append(f"cut at {node_id} {parser.fml_src(exc.guard)}")
        _inherit(budget, node_id, children, cost=1)
        return
    raise DepthExhausted(node_id)
