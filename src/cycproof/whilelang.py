"""The While-program instantiation of a program domain.

Three layers live here:

  * ``step``: the closed small-step semantics.  A transition of a loop or
    conditional performs the first step of its body in the same transition,
    so ``while g do a ; b end`` steps straight to ``b ; while g do a ; b end``.
  * ``derive_transitions``: the sequent-style side-prover that justifies
    transitions under a context.  Every branch guard it meets must be decided
    by the validity oracle, in either direction; an undecidable guard aborts
    with ``CaseSplitNeeded`` so the caller can cut on it, because an unknown
    guard must never silently shrink the successor set.
  * two termination provers: a structural one driven by loop annotations
    (invariant plus a decreasing factor), and a cyclic one that replays a
    user script of steps, generalizations, and backlinks, accepting only
    when every cycle crosses a strict factor decrease.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import parser
from .oracle import Obligation, OracleUnavailable, check_obligation, is_accepting
from .terms import (
    EPSILON,
    AndF,
    Assign,
    BaseFormula,
    BinOp,
    Config,
    Epsilon,
    Expr,
    If,
    Le,
    Lit,
    NotF,
    Program,
    Seq,
    Skip,
    TermError,
    Var,
    While,
    apply_config,
    bound_vars,
    eval_bool,
    fold,
    free_vars,
    fresh_name,
    ge,
    gt,
    lt,
    substitute,
)
from .canon import config_key, expr_key, formula_key, program_key


class WellDefinednessError(TermError):
    """No transition may leave the terminal program."""


class CaseSplitNeeded(Exception):
    """A branch guard was decidable in neither direction.

    Carries the undecided guard so the caller can insert a cut on it.
    """

    def __init__(self, guard: BaseFormula):
        super().__init__(f"undecided guard: {parser.fml_src(guard)}")
        self.guard = guard


class ObligationFailed(Exception):
    def __init__(self, message: str, obligation: Obligation | None = None):
        super().__init__(message)
        self.obligation = obligation


class MissingAnnotation(Exception):
    pass


class NoProgressOnCycle(Exception):
    def __init__(self, cycle):
        super().__init__(f"cycle without strict factor decrease: {list(cycle)}")
        self.cycle = list(cycle)


@dataclass(frozen=True)
class State:
    program: Program
    config: Config

    def key(self) -> tuple:
        return (program_key(self.program), config_key(self.config))

    def __str__(self) -> str:
        return f"({parser.prog_src(self.program)}, {parser.config_src(self.config)})"


def state_free_vars(s: State) -> frozenset:
    return free_vars(s.config) | (free_vars(s.program) - bound_vars(s.config))


def substitute_state(s: State, bindings, scope=None) -> State:
    if scope is None:
        scope = frozenset(bindings)
    scope = frozenset(scope)
    inner = scope - bound_vars(s.config)
    return State(
        substitute(s.program, bindings, inner),
        substitute(s.config, bindings, scope),
    )


# ---------------------------------------------------------------------------
# Closed small-step semantics
# ---------------------------------------------------------------------------

def _guard_value(sigma: Config, phi: BaseFormula) -> bool:
    closed = apply_config(sigma, phi)
    if free_vars(closed):
        raise TermError(
            f"guard {parser.fml_src(phi)} is not closed by the configuration"
        )
    return eval_bool({}, closed).value


def step(s: State) -> State:
    """The unique successor of a closed state under the operational rules."""
    p = s.program
    sigma = s.config
    if isinstance(p, Epsilon):
        raise WellDefinednessError("no transitions leave the terminal program")
    if isinstance(p, Assign):
        return State(EPSILON, sigma.set(p.target, fold(apply_config(sigma, p.expr))))
    if isinstance(p, Skip):
        return State(EPSILON, sigma)
    if isinstance(p, Seq):
        inner = step(State(p.first, sigma))
        if isinstance(inner.program, Epsilon):
            return State(p.second, inner.config)
        return State(Seq(inner.program, p.second), inner.config)
    if isinstance(p, If):
        branch = p.then if _guard_value(sigma, p.guard) else p.orelse
        return step(State(branch, sigma))
    if isinstance(p, While):
        if not _guard_value(sigma, p.guard):
            return State(EPSILON, sigma)
        inner = step(State(p.body, sigma))
        return State(
            p if isinstance(inner.program, Epsilon) else Seq(inner.program, p),
            inner.config,
        )
    raise TermError(f"step: not a While-domain program: {p!r}")


def run(s: State, bound: int = 10_000):
    """Step until the terminal program or the bound; returns (states, done)."""
    states = [s]
    while not isinstance(states[-1].program, Epsilon):
        if len(states) > bound:
            return states, False
        states.append(step(states[-1]))
    return states, True


# ---------------------------------------------------------------------------
# Transition derivation under a context
# ---------------------------------------------------------------------------

@dataclass
class Transition:
    source: State
    target: State
    rule: str
    justification: tuple
    obligations: list = field(default_factory=list)

    def describe(self) -> str:
        return f"{self.source} ~> {self.target} by ({self.rule})"


def _decide_guard(gamma, guard_applied, delta, oracle):
    """True/False plus the discharging obligation, or CaseSplitNeeded."""
    if oracle is None:
        raise OracleUnavailable("guard decisions need a validity oracle")
    ob = check_obligation(oracle, gamma, [guard_applied] + list(delta))
    if is_accepting(ob.verdict):
        return True, ob
    ob_neg = check_obligation(oracle, gamma, [NotF(guard_applied)] + list(delta))
    if is_accepting(ob_neg.verdict):
        return False, ob_neg
    raise CaseSplitNeeded(guard_applied)


def derive_transitions(gamma, state: State, delta, oracle) -> list:
    """The complete successor set of ``state`` derivable under the context.

    ``gamma``/``delta`` are base formulas.  The returned list is exhaustive:
    a guard the oracle cannot decide raises ``CaseSplitNeeded`` instead of
    dropping a branch.  While programs are deterministic, so at most one
    transition comes back.
    """
    gamma = list(gamma)
    delta = list(delta)
    p = state.program
    sigma = state.config
    if isinstance(p, Epsilon):
        raise WellDefinednessError("no transitions leave the terminal program")
    if isinstance(p, Assign):
        target = State(EPSILON, sigma.set(p.target, apply_config(sigma, p.expr)))
        return [Transition(state, target, "x:=e", ("x:=e",))]
    if isinstance(p, Skip):
        return [Transition(state, State(EPSILON, sigma), "skip", ("skip",))]
    if isinstance(p, Seq):
        out = []
        for t in derive_transitions(gamma, State(p.first, sigma), delta, oracle):
            if isinstance(t.target.program, Epsilon):
                tgt = State(p.second, t.target.config)
                out.append(Transition(state, tgt, ";ε", (";ε", t.justification), t.obligations))
            else:
                tgt = State(Seq(t.target.program, p.second), t.target.config)
                out.append(Transition(state, tgt, ";", (";", t.justification), t.obligations))
        return out
    if isinstance(p, If):
        applied = apply_config(sigma, p.guard)
        value, ob = _decide_guard(gamma, applied, delta, oracle)
        branch = p.then if value else p.orelse
        rule = "ite-1" if value else "ite-2"
        out = []
        for t in derive_transitions(gamma, State(branch, sigma), delta, oracle):
            out.append(
                Transition(state, t.target, rule, (rule, t.justification), [ob] + t.obligations)
            )
        return out
    if isinstance(p, While):
        applied = apply_config(sigma, p.guard)
        value, ob = _decide_guard(gamma, applied, delta, oracle)
        if not value:
            return [Transition(state, State(EPSILON, sigma), "wh2", ("wh2",), [ob])]
        out = []
        for t in derive_transitions(gamma, State(p.body, sigma), delta, oracle):
            if isinstance(t.target.program, Epsilon):
                tgt = State(p, t.target.config)
                out.append(
                    Transition(state, tgt, "wh1ε", ("wh1ε", t.justification), [ob] + t.obligations)
                )
            else:
                tgt = State(Seq(t.target.program, p), t.target.config)
                out.append(
                    Transition(state, tgt, "wh1", ("wh1", t.justification), [ob] + t.obligations)
                )
        return out
    raise TermError(f"derive_transitions: not a While-domain program: {p!r}")


# ---------------------------------------------------------------------------
# Structural termination prover (annotation-driven)
# ---------------------------------------------------------------------------

@dataclass
class TerminationJudgment:
    gamma: tuple
    state: State
    delta: tuple
    result: Config | None
    justification: tuple
    obligations: list


def _require(ob: Obligation, message: str):
    if not is_accepting(ob.verdict):
        raise ObligationFailed(f"{message}: {ob.describe()}", ob)
    return ob


class LoopAnnotations:
    """Invariant/factor pairs per loop, keyed by the loop's canonical form."""

    def __init__(self, default=None):
        self._by_key: dict = {}
        self.default = default  # (invariant, factor) applied to any loop

    def annotate(self, loop: While, invariant: BaseFormula, factor: Expr) -> None:
        self._by_key[program_key(loop)] = (invariant, factor)

    def lookup(self, loop: While):
        key = program_key(loop)
        if key in self._by_key:
            return self._by_key[key]
        if self.default is not None:
            return self.default
        raise MissingAnnotation(
            f"no invariant/factor for loop {parser.prog_src(loop)}"
        )


def derive_termination_structural(
    gamma,
    state: State,
    delta,
    oracle,
    invariant: BaseFormula | None = None,
    factor: Expr | None = None,
    annotations: LoopAnnotations | None = None,
    path_bound: int = 10_000,
) -> TerminationJudgment:
    """Syntax-directed termination derivation with annotated loops.

    Every while statement needs an invariant and a factor, either through
    ``annotations`` or the single ``invariant``/``factor`` pair.  Side
    obligations are discharged by the oracle; the result configuration is
    computed only when the starting state is closed.
    """
    if annotations is None:
        default = (invariant, factor) if invariant is not None and factor is not None else None
        annotations = LoopAnnotations(default)
    gamma = tuple(gamma)
    delta = tuple(delta)
    obligations: list = []
    result, justification = _terminate(
        gamma, state, delta, oracle, annotations, obligations, path_bound
    )
    if result is not None:
        result = fold(result)
    return TerminationJudgment(gamma, state, delta, result, justification, obligations)


def _terminate(gamma, state, delta, oracle, annotations, obligations, path_bound):
    p = state.program
    sigma = state.config
    if isinstance(p, Epsilon):
        return sigma, ("↓ε",)
    if isinstance(p, Skip):
        return sigma, ("↓skip",)
    if isinstance(p, Assign):
        return sigma.set(p.target, apply_config(sigma, p.expr)), ("↓x:=e",)
    if isinstance(p, Seq):
        mid, j1 = _terminate(gamma, State(p.first, sigma), delta, oracle,
                             annotations, obligations, path_bound)
        if mid is None:
            raise ObligationFailed("sequencing requires an intermediate configuration")
        end, j2 = _terminate(gamma, State(p.second, mid), delta, oracle,
                             annotations, obligations, path_bound)
        return end, ("↓;", j1, j2)
    if isinstance(p, If):
        applied = apply_config(sigma, p.guard)
        try:
            value, ob = _decide_guard(gamma, applied, delta, oracle)
        except CaseSplitNeeded as exc:
            raise ObligationFailed(f"conditional guard undecided: {exc}") from exc
        obligations.append(ob)
        branch = p.then if value else p.orelse
        end, j = _terminate(gamma, State(branch, sigma), delta, oracle,
                            annotations, obligations, path_bound)
        return end, ("↓ite-1" if value else "↓ite-2", j)
    if isinstance(p, While):
        return _terminate_while(gamma, state, delta, oracle, annotations,
                                obligations, path_bound)
    raise TermError(f"termination: not a While-domain program: {p!r}")


def _generic_config(loop: While, invariant, factor):
    names = sorted(
        free_vars(loop)
        | bound_vars(loop.body)
        | free_vars(invariant)
        | free_vars(factor)
    )
    taken = frozenset(names)
    mapping = {}
    for x in names:
        fresh = fresh_name(x, taken)
        taken |= {fresh}
        mapping[x] = fresh
    sigma_g = Config(tuple((x, Var(mapping[x])) for x in names))
    bound_var = fresh_name("bound", taken)
    return sigma_g, Var(bound_var)


def _terminate_while(gamma, state, delta, oracle, annotations, obligations, path_bound):
    loop: While = state.program
    sigma = state.config
    invariant, factor = annotations.lookup(loop)
    if invariant is None or factor is None:
        raise MissingAnnotation(f"loop {parser.prog_src(loop)} lacks invariant or factor")
    applied_guard = apply_config(sigma, loop.guard)
    try:
        value, guard_ob = _decide_guard(gamma, applied_guard, delta, oracle)
    except CaseSplitNeeded as exc:
        raise ObligationFailed(f"loop entry guard undecided: {exc}") from exc
    obligations.append(guard_ob)
    if not value:
        return sigma, ("↓wh2",)

    # Entry obligation: factor positive, invariant holds, guard true.
    entry = AndF(gt(factor, Lit(0)), AndF(invariant, loop.guard))
    ob1 = check_obligation(oracle, gamma, [apply_config(sigma, entry)] + list(delta))
    obligations.append(_require(ob1, "loop entry obligation failed"))

    # Inductive obligation on a generic configuration: one body pass from any
    # state on the invariant with the guard true strictly shrinks the factor.
    sigma_g, bound = _generic_config(loop, invariant, factor)
    body_obs: list = []
    end, body_just = _terminate((), State(loop.body, sigma_g), (), oracle,
                                annotations, body_obs, path_bound)
    obligations.extend(body_obs)
    if end is None:
        raise ObligationFailed("loop body termination yielded no configuration")
    lhs = [
        apply_config(sigma_g, AndF(Le(factor, bound), Le(bound, factor))),
        apply_config(sigma_g, invariant),
        apply_config(sigma_g, loop.guard),
    ]
    rhs = apply_config(end, AndF(lt(factor, bound), invariant))
    ob2 = check_obligation(oracle, lhs, [rhs])
    obligations.append(_require(ob2, "loop decrease obligation failed"))

    # Exit obligation: a non-positive factor forces the guard off.
    ob3 = check_obligation(
        oracle,
        [apply_config(sigma_g, Le(factor, Lit(0))), apply_config(sigma_g, invariant)],
        [apply_config(sigma_g, NotF(loop.guard))],
    )
    obligations.append(_require(ob3, "loop exit obligation failed"))

    result = None
    if not state_free_vars(State(loop, sigma)):
        states, done = run(State(loop, sigma), path_bound)
        if not done:
            raise ObligationFailed("closed loop exceeded the path bound despite obligations")
        result = states[-1].config
    return result, ("↓wh1", body_just)


# ---------------------------------------------------------------------------
# Cyclic termination prover (factor-annotated, script-replayed)
# ---------------------------------------------------------------------------

def is_subexpression(e: Expr, sigma: Config) -> bool:
    """Syntactic check that ``e`` occurs within some mapping of ``sigma``."""

    def occurs(inside: Expr) -> bool:
        if inside == e:
            return True
        if isinstance(inside, BinOp):
            return occurs(inside.left) or occurs(inside.right)
        return False

    return any(occurs(expr) for _, expr in sigma.entries)


@dataclass
class TermNode:
    id: int
    gamma: tuple
    state: State | None  # None once the judgment has been weakened away
    factor: Expr | None
    delta: tuple
    parent: int | None
    closed: bool = False
    children: list = field(default_factory=list)

    def key(self) -> tuple:
        state_key = self.state.key() if self.state is not None else None
        factor = expr_key(self.factor) if self.factor is not None else None
        return (
            tuple(sorted((formula_key(f) for f in self.gamma), key=repr)),
            state_key,
            factor,
            tuple(sorted((formula_key(f) for f in self.delta), key=repr)),
        )


class CyclicTerminationProver:
    """Replays a termination script and checks its cycles for progress.

    Nodes carry a base-formula context, one termination judgment with a
    designated factor expression, and a base-formula residue.  A ``step``
    follows the unique program transition and discharges the factor
    obligations (new factor nonnegative, and bounded by, or strictly below,
    the old one); backlinked cycles must contain a strict decrease.
    """

    def __init__(self, gamma, state: State, factor: Expr, delta, oracle):
        if not is_subexpression(factor, state.config):
            raise TermError("factor must occur inside the configuration")
        self.oracle = oracle
        self.nodes = [TermNode(1, tuple(gamma), state, factor, tuple(delta), None)]
        self.backlinks: dict = {}
        self.edges: list = []  # (parent, child, progress)
        self.obligations: list = []

    # -- bookkeeping --------------------------------------------------------

    def node(self, node_id: int) -> TermNode:
        return self.nodes[node_id - 1]

    def _new_node(self, parent: TermNode, gamma, state, factor, delta, progress=False) -> TermNode:
        child = TermNode(
            len(self.nodes) + 1, tuple(gamma), state, factor, tuple(delta), parent.id
        )
        self.nodes.append(child)
        parent.children.append(child.id)
        self.edges.append((parent.id, child.id, progress))
        return child

    def _ancestors(self, node_id: int):
        walk = self.node(node_id).parent
        while walk is not None:
            yield walk
            walk = self.node(walk).parent

    def open_nodes(self) -> list:
        return [n.id for n in self.nodes if not n.children and not n.closed]

    def _open(self, node_id: int) -> TermNode:
        n = self.node(node_id)
        if n.closed or n.children:
            raise TermError(f"node {node_id} is not open")
        return n

    # -- script operations ---------------------------------------------------

    def step(self, node_id: int, new_factor: Expr | None = None):
        n = self._open(node_id)
        if n.state is None:
            raise TermError("no termination judgment at this node")
        transitions = derive_transitions(n.gamma, n.state, n.delta, self.oracle)
        if len(transitions) != 1:
            raise TermError(f"expected one transition, got {len(transitions)}")
        t = transitions[0]
        self.obligations.extend(t.obligations)
        successor = t.target
        if isinstance(successor.program, Epsilon):
            factor = None
            progress = False
        else:
            factor = new_factor if new_factor is not None else n.factor
            if not is_subexpression(factor, successor.config):
                raise TermError("successor factor must occur inside the configuration")
            ob_nonneg = check_obligation(
                self.oracle, n.gamma, [ge(factor, Lit(0))] + list(n.delta), node=n.id
            )
            self.obligations.append(_require(ob_nonneg, "factor nonnegativity failed"))
            ob_strict = check_obligation(
                self.oracle, n.gamma, [lt(factor, n.factor)] + list(n.delta), node=n.id
            )
            if is_accepting(ob_strict.verdict):
                self.obligations.append(ob_strict)
                progress = True
            else:
                ob_weak = check_obligation(
                    self.oracle, n.gamma, [Le(factor, n.factor)] + list(n.delta), node=n.id
                )
                self.obligations.append(_require(ob_weak, "factor may grow across the step"))
                progress = False
        return self._new_node(n, n.gamma, successor, factor, n.delta, progress)

    def eps(self, node_id: int):
        n = self._open(node_id)
        if n.state is None or not isinstance(n.state.program, Epsilon):
            raise TermError("eps closes terminal-program nodes only")
        n.closed = True

    def base(self, node_id: int, annotations: LoopAnnotations | None = None):
        """Close a node by the structural prover (loop-free, or annotated)."""
        n = self._open(node_id)
        if n.state is None:
            raise TermError("no termination judgment at this node")
        judgment = derive_termination_structural(
            n.gamma, n.state, n.delta, self.oracle, annotations=annotations or LoopAnnotations()
        )
        self.obligations.extend(judgment.obligations)
        n.closed = True

    def sub(self, node_id: int, bindings: dict, premise: TermNode | tuple):
        """Generalization: the substituted premise must equal this node."""
        n = self._open(node_id)
        gamma, state, factor, delta = premise
        inst_gamma = tuple(substitute(f, bindings) for f in gamma)
        inst_delta = tuple(substitute(f, bindings) for f in delta)
        inst_state = substitute_state(state, bindings)
        inst_factor = substitute(factor, bindings)
        candidate = TermNode(0, inst_gamma, inst_state, inst_factor, inst_delta, None)
        if candidate.key() != n.key():
            raise TermError("substituted premise does not match the node")
        return self._new_node(n, tuple(gamma), state, factor, tuple(delta))

    def cut(self, node_id: int, fml: BaseFormula):
        n = self._open(node_id)
        right = self._new_node(n, n.gamma, n.state, n.factor, n.delta + (fml,))
        left = self._new_node(n, n.gamma + (fml,), n.state, n.factor, n.delta)
        return right, left

    def or_l(self, node_id: int, occ: int):
        n = self._open(node_id)
        phi = n.gamma[occ]
        shape = phi
        if not (
            isinstance(shape, NotF)
            and isinstance(shape.body, AndF)
            and isinstance(shape.body.left, NotF)
            and isinstance(shape.body.right, NotF)
        ):
            raise TermError("or_l expects a disjunction at the occurrence")
        a = shape.body.left.body
        b = shape.body.right.body
        out = []
        for disjunct in (a, b):
            gamma = list(n.gamma)
            gamma[occ] = disjunct
            out.append(self._new_node(n, tuple(gamma), n.state, n.factor, n.delta))
        return tuple(out)

    def wk_l(self, node_id: int, occs):
        n = self._open(node_id)
        keep = [f for i, f in enumerate(n.gamma) if i not in set(occs)]
        return self._new_node(n, tuple(keep), n.state, n.factor, n.delta)

    def wk_r(self, node_id: int, occs=(), drop_judgment: bool = False):
        n = self._open(node_id)
        keep = [f for i, f in enumerate(n.delta) if i not in set(occs)]
        state = None if drop_judgment else n.state
        factor = None if drop_judgment else n.factor
        return self._new_node(n, n.gamma, state, factor, tuple(keep))

    def ter(self, node_id: int):
        n = self._open(node_id)
        if n.state is not None:
            raise TermError("ter closes base-only nodes; weaken the judgment first")
        ob = check_obligation(self.oracle, n.gamma, n.delta, node=n.id)
        self.obligations.append(_require(ob, "terminal sequent not valid"))
        n.closed = True

    def backlink(self, node_id: int, companion_id: int):
        n = self._open(node_id)
        companion = self.node(companion_id)
        if companion_id not in set(self._ancestors(node_id)):
            raise TermError(f"node {companion_id} is not an ancestor of {node_id}")
        if companion.key() != n.key():
            raise TermError("bud and companion differ")
        self.backlinks[n.id] = companion_id
        self.edges.append((n.id, companion_id, False))
        n.closed = True

    # -- acceptance ----------------------------------------------------------

    def check(self) -> TerminationJudgment:
        """Accept when every cycle crosses a strict factor decrease.

        This is the trace closure over one occurrence, the judgment, whose
        edges progress exactly where the factor strictly decreases.
        """
        from . import cyclic  # cyclic imports kernel, which imports this module

        if self.open_nodes():
            raise TermError(f"open nodes remain: {self.open_nodes()}")
        edge_lookup = {(u, v): frozenset({(0, 0, progress)}) for u, v, progress in self.edges}
        companions, segments = cyclic.companion_segments(
            self.backlinks, self._ancestors, edge_lookup
        )
        failure = cyclic.closure_reject(segments, companions)
        if failure is not None:
            raise NoProgressOnCycle(failure[2])
        root = self.nodes[0]
        return TerminationJudgment(
            root.gamma,
            root.state,
            root.delta,
            None,
            ("cyclic", tuple(self.backlinks.items())),
            self.obligations,
        )


def derive_termination_cyclic(gamma, state: State, factor: Expr, delta, oracle, script):
    """Replay a list of ``(op, args...)`` operations and check the result.

    Operations: ``("step", node, [factor])``, ``("eps", node)``,
    ``("base", node, [annotations])``, ``("sub", node, bindings, premise)``,
    ``("cut", node, fml)``, ``("or_l", node, occ)``, ``("wk_l", node, occs)``,
    ``("wk_r", node, occs, drop_judgment)``, ``("ter", node)``,
    ``("backlink", node, companion)``.
    """
    prover = CyclicTerminationProver(gamma, state, factor, delta, oracle)
    for op in script:
        name, node_id, *args = op
        getattr(prover, name)(node_id, *args)
    return prover.check()
