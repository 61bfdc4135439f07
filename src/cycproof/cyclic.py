"""Cyclic-preproof acceptance.

Acceptance asks whether every infinite derivation path through a closed
proof graph carries a trace with infinitely many progress edges.  On a
finite annotated graph this is the size-change condition, decided by
closing the set of edge relations under composition and inspecting the
idempotent self-loop summaries: the graph is accepted exactly when each of
them relates some occurrence to itself with progress.  Composition keeps,
per occurrence pair, whether some interleaving path progresses, which is
the usual max composition of size-change graphs.
"""

from __future__ import annotations

from .kernel import ProofGraph
from .oracle import BoundedValid
from .record import dataclass, field
from .terms import Refusal


class OpenGoals(Refusal):
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
            elif node.id in graph.backlinks:
                pairs = graph.backlink_pairs(node.id)
                rel = _normalize((p.src, p.dst, False) for p in pairs)
                edges.append((node.id, graph.backlinks[node.id], rel, "backlink"))
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
    reject_cycle: list = field(default_factory=list)
    reject_relation: Relation = frozenset()

    def report(self) -> str:
        if self.accepted:
            lines = [w.report_line() for w in self.witnesses]
            return "\n".join(lines) if lines else "no cycles: finite proof tree"
        cyc = " -> ".join(str(n) for n in self.reject_cycle)
        return f"rejected: cycle {cyc} admits no progressive trace"


def succeeded(verdict: str) -> bool:
    """Whether ``verdict`` accepts the goal: ``Proved`` or ``ProvedBounded``."""
    return verdict in ("Proved", "ProvedBounded")


def verdict(graph: ProofGraph, certificate: TraceCertificate) -> str:
    """The verdict on a closed graph: ``Rejected`` unless the certificate
    accepts it; then ``ProvedBounded`` when an obligation was decided only
    on the oracle's bounded box, else ``Proved``."""
    if not certificate.accepted:
        return "Rejected"
    if any(isinstance(ob.verdict, BoundedValid) for ob in graph.obligations()):
        return "ProvedBounded"
    return "Proved"


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
        _, rel, path = failure
        return TraceCertificate(accepted=False, reject_cycle=path, reject_relation=rel)

    # a back-link's cycle is the segment that starts at the bud's own companion
    witnesses = [
        _cycle_witness(edge_lookup, rel, path)
        for start, companion, rel, path in segments if start == companion
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


def _cycle_witness(edge_lookup, loop: Relation, cycle: list) -> CycleWitness:
    """The witness of the cycle ``cycle`` (companion .. bud, companion),
    whose composed relation is ``loop``."""
    companion, bud = cycle[0], cycle[-2]
    rels = [edge_lookup[(cycle[i], cycle[i + 1])] for i in range(len(cycle) - 1)]
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
