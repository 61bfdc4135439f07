"""Cyclic-preproof acceptance and the path-multiset ordering.

Acceptance asks whether every infinite derivation path through a closed
proof graph carries a trace with infinitely many progress edges.  On a
finite annotated graph this is the size-change condition, decided by
closing the set of edge relations under composition and inspecting the
idempotent self-loop summaries: the graph is accepted exactly when each of
them relates some occurrence to itself with progress.  Composition keeps,
per occurrence pair, whether some interleaving path progresses, which is
the usual max composition of size-change graphs.

The module also houses the well-founded machinery the soundness story rests
on: the proper-suffix relation on finite paths, the multiset suffix ordering
on finite path sets, and a probe that materializes counter-example sets on
both ends of a proof edge and compares them.
"""

from __future__ import annotations

from . import parser
from .kernel import ProofGraph
from .record import dataclass, field
from .terms import evaluate


class OpenGoals(Exception):
    pass


# ---------------------------------------------------------------------------
# Trace graph and relations
# ---------------------------------------------------------------------------

Relation = frozenset  # of (src_occ, dst_occ, progress)


def _normalize(pairs) -> Relation:
    best: dict = {}
    for src, dst, progress in pairs:
        best[(src, dst)] = best.get((src, dst), False) or progress
    return frozenset((s, d, p) for (s, d), p in best.items())


def compose(r1: Relation, r2: Relation) -> Relation:
    by_src: dict = {}
    for s, d, p in r2:
        by_src.setdefault(s, []).append((d, p))
    out = []
    for s, mid, p1 in r1:
        for d, p2 in by_src.get(mid, ()):
            out.append((s, d, p1 or p2))
    return _normalize(out)


@dataclass
class TraceGraph:
    """Node-level edges carrying occurrence relations."""

    edges: list  # (src_node, dst_node, Relation, kind)

    @staticmethod
    def of(graph: ProofGraph) -> "TraceGraph":
        edges = []
        for node in graph.nodes.values():
            inst = node.rule_instance
            if inst is not None:
                for child, pairs in zip(node.children, inst.trace_pairs):
                    rel = _normalize((p.src, p.dst, p.progress) for p in pairs)
                    edges.append((node.id, child, rel, inst.rule))
            elif node.backlink is not None:
                pairs = graph.backlink_pairs(node.id)
                rel = _normalize((p.src, p.dst, False) for p in pairs)
                edges.append((node.id, node.backlink, rel, "backlink"))
        return TraceGraph(edges)


@dataclass
class CycleWitness:
    companion: int
    bud: int
    cycle_nodes: list
    laps: int
    occurrence: int
    progress_at: tuple  # (node_id, occurrence) where a progress edge fires

    def report_line(self) -> str:
        node, occ = self.progress_at
        return f"cycle {self.companion}: progress via occurrence {occ} at node {node}"


@dataclass
class TraceCertificate:
    accepted: bool
    witnesses: list = field(default_factory=list)
    reject_path: list = field(default_factory=list)  # finite prefix + cycle nodes
    reject_cycle: list = field(default_factory=list)
    reject_relation: Relation = frozenset()

    def report(self) -> str:
        if self.accepted:
            lines = [w.report_line() for w in self.witnesses]
            return "\n".join(lines) if lines else "no cycles: finite proof tree"
        cyc = " -> ".join(str(n) for n in self.reject_cycle)
        return f"rejected: cycle {cyc} admits no progressive trace"


def check_cyclic(graph: ProofGraph) -> TraceCertificate:
    """Decide the cyclic-preproof condition on a closed proof graph.

    Every infinite derivation path eventually runs segment after segment,
    where a segment descends the tree from a companion to a bud and jumps
    back to that bud's companion.  Composing each segment's occurrence
    relation and closing the segment graph over the (few) companion nodes
    is therefore equivalent to closing over all nodes, and exponentially
    smaller.
    """
    if graph.open_goals():
        raise OpenGoals(f"open goals remain: {graph.open_goals()}")
    tg = TraceGraph.of(graph)
    edge_lookup: dict = {}
    for u, v, rel, _ in tg.edges:
        edge_lookup[(u, v)] = rel

    companions, segments = companion_segments(graph.backlinks, graph.ancestors, edge_lookup)
    failure = closure_reject(segments, companions)
    if failure is not None:
        node, rel, path = failure
        return TraceCertificate(
            accepted=False,
            reject_path=_tree_path(graph, node),
            reject_cycle=path,
            reject_relation=rel,
        )

    witnesses = [
        _cycle_witness(graph, edge_lookup, bud, companion)
        for bud, companion in sorted(graph.backlinks.items())
    ]
    return TraceCertificate(accepted=True, witnesses=witnesses)


def companion_segments(backlinks: dict, ancestors, edge_lookup: dict):
    """The companions of a tree with back-links, and the segments between them.

    ``backlinks`` maps each bud to its companion, ``ancestors(node)`` walks
    from a node's parent up to the root, and ``edge_lookup`` maps each tree
    edge and back-link ``(u, v)`` to its relation.  A segment descends the
    tree from a companion to a bud below it and jumps back to that bud's
    companion; it is returned as (from, to, composed relation, node path).
    """
    companions = sorted(set(backlinks.values()))
    segments = []
    for bud in sorted(backlinks):
        companion = backlinks[bud]
        lineage = [bud] + list(ancestors(bud))  # bud upward to root
        for start in companions:
            if start not in lineage:
                continue
            nodes = list(reversed(lineage[: lineage.index(start) + 1]))  # start..bud
            rel = edge_lookup[(nodes[0], nodes[1])] if len(nodes) > 1 else None
            for i in range(1, len(nodes) - 1):
                rel = compose(rel, edge_lookup[(nodes[i], nodes[i + 1])])
            jump = edge_lookup[(bud, companion)]
            rel = jump if rel is None else compose(rel, jump)
            segments.append((start, companion, rel, nodes + [companion]))
    return companions, segments


def closure_reject(segments, companions):
    """The composition-closure test on a segment graph.

    ``segments`` are edges (from, to, relation, node path).  Returns None on
    acceptance, else (node, idempotent relation, witness path) for a cycle
    summary without a progressive self-pair.
    """
    summaries: dict = {}
    work: list = []

    def _add(a, b, rel, path):
        bucket = summaries.setdefault((a, b), {})
        if rel not in bucket:
            bucket[rel] = path
            work.append((a, b, rel))

    for a, b, rel, path in segments:
        _add(a, b, rel, path)
    while work:
        a, b, rel = work.pop()
        path_ab = summaries[(a, b)][rel]
        for c in companions:
            for rel2, path2 in list(summaries.get((b, c), {}).items()):
                _add(a, c, compose(rel, rel2), path_ab + path2[1:])
            for rel2, path2 in list(summaries.get((c, a), {}).items()):
                _add(c, b, compose(rel2, rel), path2 + path_ab[1:])

    for (a, b), bucket in summaries.items():
        if a != b:
            continue
        for rel, path in bucket.items():
            if compose(rel, rel) != rel:
                continue
            if not any(s == d and p for s, d, p in rel):
                return a, rel, path
    return None


def _tree_path(graph: ProofGraph, node_id: int) -> list:
    out = [node_id]
    for ancestor in graph.ancestors(node_id):
        out.append(ancestor)
    return list(reversed(out))


def _cycle_of(graph: ProofGraph, bud: int, companion: int) -> list:
    down = _tree_path(graph, bud)
    start = down.index(companion)
    return down[start:] + [companion]


def _cycle_witness(graph: ProofGraph, edge_lookup, bud: int, companion: int) -> CycleWitness:
    cycle = _cycle_of(graph, bud, companion)
    rels = [edge_lookup[(cycle[i], cycle[i + 1])] for i in range(len(cycle) - 1)]
    loop = rels[0]
    for rel in rels[1:]:
        loop = compose(loop, rel)
    # Find the least number of laps whose composition shows a progressive
    # self-pair; bounded because relation powers eventually repeat.
    seen = []
    power = loop
    laps = 1
    while True:
        hit = next((s for s, d, p in power if s == d and p), None)
        if hit is not None:
            break
        if power in seen:
            raise OpenGoals(
                f"accepted graph lacks a progressive thread around backlink {bud}->{companion}"
            )
        seen.append(power)
        power = compose(power, loop)
        laps += 1
    progress_at = _locate_progress(rels, cycle, laps, hit)
    return CycleWitness(companion, bud, cycle, laps, hit, progress_at)


def _locate_progress(rels, cycle, laps, occurrence) -> tuple:
    """Walk a progressing thread around ``laps`` laps; report one progress edge."""
    full_rels = rels * laps
    full_nodes = []
    for _ in range(laps):
        full_nodes.extend(cycle[:-1])
    full_nodes.append(cycle[0])
    # predecessor search: states are (position, occurrence, seen_progress)
    start = (0, occurrence, False)
    frontier = {start: None}
    order = [start]
    idx = 0
    goal = None
    while idx < len(order):
        pos, occ, seen = order[idx]
        idx += 1
        if pos == len(full_rels):
            if occ == occurrence and seen:
                goal = (pos, occ, seen)
                break
            continue
        for s, d, p in full_rels[pos]:
            if s != occ:
                continue
            nxt = (pos + 1, d, seen or p)
            if nxt not in frontier:
                frontier[nxt] = ((pos, occ, seen), p)
                order.append(nxt)
    if goal is None:
        return (cycle[0], occurrence)
    # walk back to the first progress edge
    state = goal
    progress_at = (cycle[0], occurrence)
    while frontier[state] is not None:
        prev, was_progress = frontier[state]
        if was_progress:
            progress_at = (full_nodes[prev[0]], prev[1])
        state = prev
    return progress_at


def revalidate(graph: ProofGraph, certificate: TraceCertificate) -> bool:
    """Re-check a certificate by direct edge traversal."""
    tg = TraceGraph.of(graph)
    lookup = {(u, v): rel for u, v, rel, _ in tg.edges}
    if certificate.accepted:
        for w in certificate.witnesses:
            rels = [
                lookup[(w.cycle_nodes[i], w.cycle_nodes[i + 1])]
                for i in range(len(w.cycle_nodes) - 1)
            ]
            loop = rels[0]
            for rel in rels[1:]:
                loop = compose(loop, rel)
            power = loop
            for _ in range(w.laps - 1):
                power = compose(power, loop)
            if not any(s == d and p and s == w.occurrence for s, d, p in power):
                return False
        return True
    rels = [
        lookup[(certificate.reject_cycle[i], certificate.reject_cycle[i + 1])]
        for i in range(len(certificate.reject_cycle) - 1)
    ]
    loop = rels[0]
    for rel in rels[1:]:
        loop = compose(loop, rel)
    # certificate stores an idempotent composition of this cycle
    power = loop
    seen = set()
    while power not in seen:
        seen.add(power)
        if power == certificate.reject_relation:
            return not any(s == d and p for s, d, p in certificate.reject_relation)
        power = compose(power, loop)
    return False


# ---------------------------------------------------------------------------
# Path orderings
# ---------------------------------------------------------------------------
# These helpers and the probe below are the only users of ``semantics`` here;
# they import it when called, so a run that never probes does not load it.

def _states_of(tr) -> tuple:
    from .semantics import Path

    if isinstance(tr, Path):
        return tr.states
    return tuple(tr)


def proper_suffix(tr1, tr2) -> bool:
    """True when ``tr2`` is a proper suffix of ``tr1``, state for state."""
    s1 = _states_of(tr1)
    s2 = _states_of(tr2)
    return len(s2) < len(s1) and s1[len(s1) - len(s2):] == s2


def mult_le(c1, c2) -> bool:
    """The multiset suffix ordering on finite sets of finite paths.

    Reflexive closure included: true when the sets are equal, or when the
    first set arises from the second by replacing (or removing) one or more
    members, each replacement being a proper suffix of the member it
    replaces.  With sets this is exactly: something was removed, and every
    element only in the first set is a proper suffix of some element only
    in the second.
    """
    s1 = frozenset(_states_of(t) for t in c1)
    s2 = frozenset(_states_of(t) for t in c2)
    if s1 == s2:
        return True
    removed = s2 - s1
    added = s1 - s2
    if not removed:
        return False
    return all(any(proper_suffix(old, new) for old in removed) for new in added)


def mult_lt(c1, c2) -> bool:
    s1 = frozenset(_states_of(t) for t in c1)
    s2 = frozenset(_states_of(t) for t in c2)
    return s1 != s2 and mult_le(c1, c2)


# ---------------------------------------------------------------------------
# Counter-example ordering probe
# ---------------------------------------------------------------------------

@dataclass
class OrderingReport:
    applicable: bool
    holds: bool = False
    strict: bool = False
    parent_paths: frozenset = frozenset()
    child_paths: frozenset = frozenset()
    reason: str = ""


def lemma1_probe(
    graph: ProofGraph,
    parent_id: int,
    child_id: int,
    occurrence: int,
    rho: dict,
    path_bound: int = 10_000,
) -> OrderingReport:
    """Compare counter-example sets across one proof edge.

    Follows the trace pair starting at ``occurrence`` in the parent node and
    reports whether the child's counter-example set sits at-or-below the
    parent's in the multiset suffix ordering (and whether strictly).  Across
    a generalization edge the evaluation is composed with the recorded
    bindings.
    """
    from .semantics import NotApplicable, counter_example

    parent = graph.node(parent_id)
    inst = parent.rule_instance
    if inst is None or child_id not in parent.children:
        raise OpenGoals(f"{parent_id} -> {child_id} is not a rule edge")
    premise_index = parent.children.index(child_id)
    pair = next(
        (p for p in inst.trace_pairs[premise_index] if p.src == occurrence), None
    )
    if pair is None:
        return OrderingReport(False, reason="occurrence has no trace pair on this edge")
    child = graph.node(child_id)
    tau = parent.sequent.right[occurrence]
    tau_child = child.sequent.right[pair.dst]

    rho_child = dict(rho)
    if inst.rule == "sub":
        bindings = {
            name: parser.parse_expr(src) for name, src in inst.args["bindings"].items()
        }
        for name, expr in bindings.items():
            rho_child[name] = evaluate(rho, expr)

    ct_parent = counter_example(rho, tau, parent.sequent, path_bound)
    ct_child = counter_example(rho_child, tau_child, child.sequent, path_bound)
    if isinstance(ct_parent, NotApplicable) or isinstance(ct_child, NotApplicable):
        return OrderingReport(False, reason="evaluation fails a left side")
    holds = mult_le(ct_child.paths, ct_parent.paths)
    strict = mult_lt(ct_child.paths, ct_parent.paths)
    return OrderingReport(
        True, holds, strict, ct_parent.paths, ct_child.paths
    )
