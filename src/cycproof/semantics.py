"""Bounded denotational oracle: truth of labeled dynamic formulas by running.

``models`` evaluates a formula under an evaluation by exhaustively unrolling
program paths (While programs are deterministic, so there is exactly one).
A box holds when every terminal path lands in a configuration satisfying the
continuation; a diamond when some terminal path does.  If unrolling hits the
path bound before the terminal program, the verdict is ``UNKNOWN`` rather
than a guess, so divergence is never misread as (in)validity.

``counter_example`` materializes the set of minimum terminal paths that
falsify the continuation, the quantity the cyclic soundness argument orders
by the multiset suffix relation.

This module is the reference side of the checker, and no verdict runs it:
the multiset suffix ordering and a probe that compares counter-example sets
across one proof edge (``lemma1_probe``), sampled local soundness of rule
instances (``soundness_sample``), a re-check of trace certificates by direct
edge traversal (``revalidate``), and ground term evaluation (``eval_term``).
"""

from __future__ import annotations

import enum
import random

from . import parser
from .cyclic import OpenGoals, TraceCertificate, TraceGraph, compose
from .formulas import (
    BAnd,
    BBase,
    BBox,
    BDia,
    BNot,
    Body,
    DAnd,
    DBase,
    DLabeled,
    DNot,
    DlpFormula,
    Sequent,
    formula_key,
    free_vars,
)
from .kernel import ProofGraph
from .record import dataclass
from .terms import (
    Config,
    Epsilon,
    Evaluation,
    Lit,
    Term,
    TermError,
    bound_vars,
    eval_bool,
    evaluate,
    fold,
    substitute,
)
from .whilelang import State, run


class Verdict(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def negate(self) -> "Verdict":
        if self is Verdict.TRUE:
            return Verdict.FALSE
        if self is Verdict.FALSE:
            return Verdict.TRUE
        return Verdict.UNKNOWN


def _kleene_and(a: Verdict, b: Verdict) -> Verdict:
    if Verdict.FALSE in (a, b):
        return Verdict.FALSE
    if Verdict.UNKNOWN in (a, b):
        return Verdict.UNKNOWN
    return Verdict.TRUE


class BoundExceeded(Exception):
    pass


@dataclass(frozen=True)
class NotApplicable:
    reason: str = ""


@dataclass(frozen=True)
class Path:
    """Nonempty state sequence; adjacent states are true transitions."""

    states: tuple

    def __post_init__(self) -> None:
        if not self.states:
            raise TermError("a path has at least one state")

    def is_terminal(self) -> bool:
        return isinstance(self.states[-1].program, Epsilon)

    def is_minimum(self) -> bool:
        return len(set(s.key() for s in self.states)) == len(self.states)

    def __len__(self) -> int:
        return len(self.states)


def close_state(rho, prog, sigma: Config) -> State:
    """rho applied to a program state: literals in, entries sorted, folded."""
    bindings = {x: Lit(v) for x, v in rho.items()}
    sigma_closed = substitute(sigma, bindings, frozenset(bindings))
    sigma_closed = Config(
        tuple(sorted(((x, fold(e)) for x, e in sigma_closed.entries))),
        stack=sigma_closed.stack,
    )
    scope = frozenset(bindings) - bound_vars(sigma)
    prog_closed = fold(substitute(prog, bindings, scope))
    return State(prog_closed, sigma_closed)


def eval_term(rho: Evaluation, t: Term) -> Term:
    """rho(t): substitute integer literals for free variables, then fold."""
    bindings = {x: Lit(v) for x, v in rho.items()}
    return fold(substitute(t, bindings, frozenset(bindings)))


def terminal_paths(state: State, path_bound: int):
    """All minimum terminal paths from a closed state, or None at the bound.

    While programs are deterministic, so the result has at most one path;
    a diverging run is reported as None (bound reached before the terminal
    program).
    """
    states, done = run(state, path_bound)
    if not done:
        return None
    return [Path(tuple(states))]


DEFAULT_PATH_BOUND = 10_000


def models(
    rho,
    phi: DlpFormula,
    path_bound: int = DEFAULT_PATH_BOUND,
    quantifier_range=(-50, 50),
) -> Verdict:
    """Three-valued truth of ``phi`` under ``rho`` by path enumeration."""
    if path_bound < 1:
        raise ValueError("path bound must be at least 1")
    if isinstance(phi, DBase):
        return Verdict.TRUE if eval_bool(rho, phi.fml, quantifier_range).value else Verdict.FALSE
    if isinstance(phi, DNot):
        return models(rho, phi.arg, path_bound, quantifier_range).negate()
    if isinstance(phi, DAnd):
        return _kleene_and(
            models(rho, phi.left, path_bound, quantifier_range),
            models(rho, phi.right, path_bound, quantifier_range),
        )
    if isinstance(phi, DLabeled):
        if isinstance(phi.label, Config) and not phi.label.stack:
            return _labeled(rho, phi.label, phi.body, path_bound, quantifier_range)
        if isinstance(phi.body, BBase):
            from . import sep as sepmod

            if isinstance(phi.label, sepmod.SepState):
                fml = phi.body.fml
                if not isinstance(fml, sepmod.SepFormula):
                    fml = sepmod.SBase(fml)
                return Verdict.TRUE if sepmod.sep_app(phi.label, fml) else Verdict.FALSE
        raise TermError("the bounded oracle runs store-labeled formulas only")
    raise TermError(f"models: not a formula: {phi!r}")


def _labeled(rho, sigma: Config, body: Body, path_bound, quantifier_range) -> Verdict:
    if isinstance(body, BBase):
        from .terms import apply_config

        value = eval_bool(rho, apply_config(sigma, body.fml), quantifier_range).value
        return Verdict.TRUE if value else Verdict.FALSE
    if isinstance(body, BNot):
        return _labeled(rho, sigma, body.body, path_bound, quantifier_range).negate()
    if isinstance(body, BAnd):
        return _kleene_and(
            _labeled(rho, sigma, body.left, path_bound, quantifier_range),
            _labeled(rho, sigma, body.right, path_bound, quantifier_range),
        )
    if isinstance(body, (BBox, BDia)):
        start = close_state(rho, body.prog, sigma)
        paths = terminal_paths(start, path_bound)
        if paths is None:
            return Verdict.UNKNOWN
        verdicts = [
            _labeled(rho, p.states[-1].config, body.body, path_bound, quantifier_range)
            for p in paths
        ]
        if isinstance(body, BBox):
            out = Verdict.TRUE
            for v in verdicts:
                out = _kleene_and(out, v)
            return out
        out = Verdict.FALSE
        for v in verdicts:
            out = _kleene_and(out.negate(), v.negate()).negate()
        return out
    raise TermError(f"models: not a body: {body!r}")


@dataclass(frozen=True)
class CounterExample:
    """The defining triple plus the computed set of falsifying paths."""

    rho: tuple
    formula: DlpFormula
    sequent: Sequent
    paths: frozenset

    def is_empty(self) -> bool:
        return not self.paths


def counter_example(
    rho,
    tau: DlpFormula,
    nu: Sequent,
    path_bound: int = DEFAULT_PATH_BOUND,
    quantifier_range=(-50, 50),
):
    """The finite set of minimum terminal paths witnessing failure of tau.

    Requires tau to be a boxed or diamond formula on the right side of nu;
    returns ``NotApplicable`` when the evaluation fails a left-side member.
    """
    if not isinstance(tau, DLabeled) or not isinstance(tau.body, (BBox, BDia)):
        raise TermError("counter examples are defined for modal formulas")
    key = formula_key(tau)
    if key not in [formula_key(f) for f in nu.right]:
        raise TermError("the formula must occur on the right side of the sequent")
    for member in nu.left:
        if models(rho, member, path_bound, quantifier_range) is not Verdict.TRUE:
            return NotApplicable(f"evaluation fails left member: {member!r}")
    start = close_state(rho, tau.body.prog, tau.label)
    paths = terminal_paths(start, path_bound)
    if paths is None:
        raise BoundExceeded(f"no terminal path within {path_bound} states")
    failing = []
    for p in paths:
        final = p.states[-1].config
        verdict = _labeled(rho, final, tau.body.body, path_bound, quantifier_range)
        if verdict is Verdict.UNKNOWN:
            raise BoundExceeded("continuation verdict hit the path bound")
        if verdict is Verdict.FALSE:
            if not p.is_minimum():
                continue
            failing.append(p)
    return CounterExample(tuple(sorted(rho.items())), tau, nu, frozenset(failing))


# ---------------------------------------------------------------------------
# Path orderings
# ---------------------------------------------------------------------------

def _states_of(tr) -> tuple:
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


# ---------------------------------------------------------------------------
# Premises-imply-conclusion sampling
# ---------------------------------------------------------------------------

def sequent_truth(rho: dict, nu: Sequent, path_bound: int = 2_000) -> Verdict:
    """Three-valued truth of a sequent's formula reading under rho."""
    right = Verdict.FALSE
    for f in nu.left:
        v = models(rho, f, path_bound)
        if v is Verdict.FALSE:
            return Verdict.TRUE
        if v is Verdict.UNKNOWN:
            return Verdict.UNKNOWN
    for f in nu.right:
        v = models(rho, f, path_bound)
        if v is Verdict.TRUE:
            return Verdict.TRUE
        if v is Verdict.UNKNOWN:
            right = Verdict.UNKNOWN
    return right


@dataclass
class SoundnessSample:
    checked: int
    skipped: int
    failures: list


def soundness_sample(
    premises,
    conclusion: Sequent,
    samples: int = 200,
    seed: int = 0,
    value_range=(-10, 10),
    path_bound: int = 2_000,
) -> SoundnessSample:
    """Sample evaluations: whenever every premise holds, the conclusion must.

    Unknown verdicts (path bound hit) skip the sample rather than deciding
    it.  Failures carry the offending evaluation.
    """
    names = sorted(
        set().union(
            *(free_vars(f) for nu in list(premises) + [conclusion] for f in nu.left + nu.right)
        )
        if (list(premises) or conclusion.left or conclusion.right)
        else set()
    )
    rng = random.Random(seed)
    lo, hi = value_range
    checked = skipped = 0
    failures = []
    for _ in range(samples):
        rho = {x: rng.randint(lo, hi) for x in names}
        verdicts = [sequent_truth(rho, p, path_bound) for p in premises]
        if any(v is Verdict.UNKNOWN for v in verdicts):
            skipped += 1
            continue
        if any(v is Verdict.FALSE for v in verdicts):
            checked += 1
            continue
        conclusion_v = sequent_truth(rho, conclusion, path_bound)
        if conclusion_v is Verdict.UNKNOWN:
            skipped += 1
            continue
        checked += 1
        if conclusion_v is Verdict.FALSE:
            failures.append(rho)
    return SoundnessSample(checked, skipped, failures)


# ---------------------------------------------------------------------------
# Trace certificates
# ---------------------------------------------------------------------------

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
