"""Bounded backward proof search that emits a replayable script.

The strategy is deliberately plain: saturate each open goal with closure
attempts (ter, ax, backlinks against ancestors) and deterministic
normalizations (label elimination, propositional decomposition, terminal
boxes), then spend depth on symbolic execution steps.  An undecidable guard
reported by the transition derivation is handled by cutting on it.  The
search never invents generalizations, so goals that need one exhaust their
depth instead.

Only a step whose sequent key was seen before walks up its branch, so the
work of every other step does not grow with the depth of its branch.  The
open goals are a heap of node ids, taken lowest first.  A backlink's
companion is the nearest ancestor with the same sequent key, found through
a dict from each key to the nodes stepped with it: a node whose key is new
needs no ancestor at all, and the walk up from one whose key was seen stops
at the first ancestor in that key's set (see ``_companion``).  Closed guards
are decided from values kept on the term nodes (see
``oracle._closed_value``).
"""

from __future__ import annotations

from heapq import heappop, heappush

from . import cyclic, parser
from .formulas import DBase, Sequent
from .kernel import LABEL_REWRITES, MATCHERS, KernelError, ProofGraph, ax_pair
from .record import dataclass
from .terms import TermError
from .whilelang import CaseSplitNeeded, ObligationFailed


class DepthExhausted(Exception):
    def __init__(self, node_id: int, ter_failure: str = ""):
        super().__init__(f"depth exhausted at node {node_id}")
        self.node_id = node_id
        self.ter_failure = ter_failure  # why ter did not close the node, if tried


@dataclass
class SearchResult:
    graph: ProofGraph
    script: str
    verdict: str
    message: str = ""

    @property
    def proved(self) -> bool:
        return cyclic.succeeded(self.verdict)


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


def search(goal: Sequent, oracle, depth: int) -> SearchResult:
    """Prove ``goal`` within ``depth`` symbolic steps per branch."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    graph = ProofGraph(goal, oracle=oracle)
    lines = [f"goal {parser.sequent_src(goal)}"]
    budget = {graph.root: depth}
    seen: dict = {}  # a sequent key -> the ids of the nodes stepped with it
    frontier = [graph.root]  # the open goals, as a heap of ids

    while frontier:
        node_id = heappop(frontier)
        try:
            _close_or_step(graph, node_id, budget, lines, seen)
        except DepthExhausted as exc:
            note = f"DepthExhausted at node {exc.node_id}"
            if exc.ter_failure:
                note += f"; {exc.ter_failure}"
            return SearchResult(graph, "\n".join(lines), "Stuck", note)
        except (KernelError, TermError) as exc:
            # a rule the goal's shape selected cannot apply (a heap command
            # under a While-domain step, say): the search ends without a proof
            return SearchResult(
                graph, "\n".join(lines), "Stuck", f"{type(exc).__name__}: {exc}"
            )
        for child in graph.nodes[node_id].children:
            heappush(frontier, child)

    lines.append("qed")
    certificate = cyclic.check_cyclic(graph)
    message = "" if certificate.accepted else certificate.report()
    return SearchResult(graph, "\n".join(lines), cyclic.verdict(graph, certificate), message)


def _inherit(budget, node_id, children, cost=0):
    for child in children:
        budget[child] = budget[node_id] - cost


def _apply(graph: ProofGraph, node_id: int, rule: str, lines: list, **args) -> list:
    """Apply ``rule`` and record the script line that replays it."""
    children = graph.apply_rule(node_id, rule, **args)
    words = " ".join(f"{key} {value}" for key, value in args.items())
    lines.append(f"apply {rule} at {node_id}" + (f" with {words}" if words else ""))
    return children


def _companion(graph: ProofGraph, node_id: int, same: set):
    """The nearest ancestor of ``node_id`` in ``same``, the nodes stepped so
    far with its sequent key, or ``None``.  Every ancestor reached the
    backlink check, so only a key seen before needs the walk; and since such
    an ancestor would have closed any later node of its key on its branch,
    the first ancestor found in ``same`` is the one an ancestor-by-ancestor
    comparison finds."""
    if not same:
        return None
    return next((a for a in graph.ancestors(node_id) if a in same), None)


def _close_or_step(graph: ProofGraph, node_id: int, budget: dict, lines: list,
                   seen: dict) -> None:
    nu = graph.node(node_id).sequent

    # 1. closure: ter on base-only sequents; a refusal is reported if the
    # node later exhausts its depth
    ter_failure = ""
    if nu.is_base_only():
        try:
            _apply(graph, node_id, "ter", lines)
            return
        except ObligationFailed as exc:
            ter_failure = str(exc)

    # 2. closure: axiom
    pair = ax_pair(nu)
    if pair is not None:
        _apply(graph, node_id, "ax", lines, left=pair[0], right=pair[1])
        return

    # 3. closure: backlink to the nearest identical ancestor (a key is
    # hashed once: a tuple does not keep its hash)
    same = seen.setdefault(nu.key, set())
    ancestor = _companion(graph, node_id, same)
    if ancestor is not None:
        graph.link_bud(node_id, ancestor)
        lines.append(f"backlink at {node_id} to {ancestor}")
        return
    same.add(node_id)

    # 4. label and propositional normalization (free)
    for side, rules in _NORMALIZERS:
        for occ, f in enumerate(getattr(nu, side)):
            for rule in rules:
                if MATCHERS[rule](f):
                    args = {"occ": occ, "side": side} if rule in LABEL_REWRITES else {"occ": occ}
                    _inherit(budget, node_id, _apply(graph, node_id, rule, lines, **args))
                    return

    # 5. symbolic execution (consumes depth); terminal programs were
    # rewritten by box_eps above
    if budget.get(node_id, 0) <= 0:
        raise DepthExhausted(node_id, ter_failure)
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
    raise DepthExhausted(node_id, ter_failure)
