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
  * ``derive_termination_structural``: the termination prover driven by
    loop annotations (invariant plus a decreasing factor), which the
    proof graph holds.  It returns the end configuration and the
    obligations it discharged, and builds no proof tree of its own.

Cyclic termination proofs have no engine of their own:
``derive_termination_cyclic`` replays a ``.dlp`` script of steps,
generalizations and backlinks as a kernel proof of the judgment
``σ : α ⇓ e`` and accepts it through the kernel's trace closure, so every
cycle must cross a strict decrease of the factor ``e``.
"""

from __future__ import annotations

from . import parser
from .formulas import DTer, Sequent, base_formulas
from .oracle import Obligation, OracleUnavailable, check_obligation, is_accepting
from .record import dataclass, field
from .terms import (
    EPSILON,
    AndF,
    Assign,
    BaseFormula,
    Config,
    Epsilon,
    Expr,
    If,
    Le,
    Lit,
    NotF,
    Program,
    Refusal,
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
    gt,
    lt,
)
from .canon import config_key, program_key


class WellDefinednessError(TermError):
    """No transition may leave the terminal program."""


class CaseSplitNeeded(Refusal):
    """A branch guard was decidable in neither direction.

    Carries the undecided guard so the caller can insert a cut on it.
    """

    def __init__(self, guard: BaseFormula):
        super().__init__(f"undecided guard: {parser.fml_src(guard)}")
        self.guard = guard


class ObligationFailed(Refusal):
    def __init__(self, message: str, obligation: Obligation | None = None):
        super().__init__(message)
        self.obligation = obligation


class MissingAnnotation(Refusal):
    pass


class NoProgressOnCycle(Refusal):
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


# ---------------------------------------------------------------------------
# Closed small-step semantics
# ---------------------------------------------------------------------------

def _guard_value(sigma: Config, phi: BaseFormula) -> bool:
    closed = apply_config(sigma, phi)
    if free_vars(closed):
        raise TermError(
            f"guard {parser.fml_src(phi)} is not closed by the configuration"
        )
    return eval_bool({}, closed)


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
        return [Transition(state, target, "x:=e")]
    if isinstance(p, Skip):
        return [Transition(state, State(EPSILON, sigma), "skip")]
    if isinstance(p, Seq):
        out = []
        for t in derive_transitions(gamma, State(p.first, sigma), delta, oracle):
            if isinstance(t.target.program, Epsilon):
                tgt = State(p.second, t.target.config)
                out.append(Transition(state, tgt, ";ε", t.obligations))
            else:
                tgt = State(Seq(t.target.program, p.second), t.target.config)
                out.append(Transition(state, tgt, ";", t.obligations))
        return out
    if isinstance(p, If):
        applied = apply_config(sigma, p.guard)
        value, ob = _decide_guard(gamma, applied, delta, oracle)
        branch = p.then if value else p.orelse
        rule = "ite-1" if value else "ite-2"
        out = []
        for t in derive_transitions(gamma, State(branch, sigma), delta, oracle):
            out.append(Transition(state, t.target, rule, [ob] + t.obligations))
        return out
    if isinstance(p, While):
        applied = apply_config(sigma, p.guard)
        value, ob = _decide_guard(gamma, applied, delta, oracle)
        if not value:
            return [Transition(state, State(EPSILON, sigma), "wh2", [ob])]
        out = []
        for t in derive_transitions(gamma, State(p.body, sigma), delta, oracle):
            if isinstance(t.target.program, Epsilon):
                tgt = State(p, t.target.config)
                out.append(Transition(state, tgt, "wh1ε", [ob] + t.obligations))
            else:
                tgt = State(Seq(t.target.program, p), t.target.config)
                out.append(Transition(state, tgt, "wh1", [ob] + t.obligations))
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


def require_accepted(ob: Obligation, message: str) -> Obligation:
    """``ob``, or ``ObligationFailed`` when its verdict does not accept."""
    if not is_accepting(ob.verdict):
        raise ObligationFailed(f"{message}: {ob.describe()}", ob)
    return ob


class LoopAnnotations:
    """Invariant/factor pairs per loop, keyed by the loop's canonical form."""

    def __init__(self):
        self._by_key: dict = {}

    def annotate(self, loop: While, invariant: BaseFormula, factor: Expr) -> None:
        self._by_key[program_key(loop)] = (invariant, factor)

    def lookup(self, loop: While):
        key = program_key(loop)
        if key in self._by_key:
            return self._by_key[key]
        raise MissingAnnotation(
            f"no invariant/factor for loop {parser.prog_src(loop)}"
        )


def derive_termination_structural(
    gamma,
    state: State,
    delta,
    oracle,
    annotations: LoopAnnotations,
    path_bound: int = 10_000,
) -> TerminationJudgment:
    """Syntax-directed termination derivation with annotated loops.

    Every while statement needs an invariant and a factor in
    ``annotations``.  Side obligations are discharged by the oracle; the
    result configuration is computed only when the starting state is
    closed.  The judgment's ``justification`` is empty: its obligations
    are its evidence.
    """
    gamma = tuple(gamma)
    delta = tuple(delta)
    obligations: list = []
    result = _terminate(gamma, state, delta, oracle, annotations, obligations, path_bound)
    if result is not None:
        result = fold(result)
    return TerminationJudgment(gamma, state, delta, result, (), obligations)


def _terminate(gamma, state, delta, oracle, annotations, obligations, path_bound):
    p = state.program
    sigma = state.config
    if isinstance(p, (Epsilon, Skip)):
        return sigma
    if isinstance(p, Assign):
        return sigma.set(p.target, apply_config(sigma, p.expr))
    if isinstance(p, Seq):
        mid = _terminate(gamma, State(p.first, sigma), delta, oracle,
                         annotations, obligations, path_bound)
        if mid is None:
            raise ObligationFailed("sequencing requires an intermediate configuration")
        return _terminate(gamma, State(p.second, mid), delta, oracle,
                          annotations, obligations, path_bound)
    if isinstance(p, If):
        applied = apply_config(sigma, p.guard)
        try:
            value, ob = _decide_guard(gamma, applied, delta, oracle)
        except CaseSplitNeeded as exc:
            raise ObligationFailed(f"conditional guard undecided: {exc}") from exc
        obligations.append(ob)
        branch = p.then if value else p.orelse
        return _terminate(gamma, State(branch, sigma), delta, oracle,
                          annotations, obligations, path_bound)
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
    applied_guard = apply_config(sigma, loop.guard)
    try:
        value, guard_ob = _decide_guard(gamma, applied_guard, delta, oracle)
    except CaseSplitNeeded as exc:
        raise ObligationFailed(f"loop entry guard undecided: {exc}") from exc
    obligations.append(guard_ob)
    if not value:
        return sigma

    # Entry obligation: factor positive, invariant holds, guard true.
    entry = AndF(gt(factor, Lit(0)), AndF(invariant, loop.guard))
    ob1 = check_obligation(oracle, gamma, [apply_config(sigma, entry)] + list(delta))
    obligations.append(require_accepted(ob1, "loop entry obligation failed"))

    # Inductive obligation on a generic configuration: one body pass from any
    # state on the invariant with the guard true strictly shrinks the factor.
    sigma_g, bound = _generic_config(loop, invariant, factor)
    body_obs: list = []
    end = _terminate((), State(loop.body, sigma_g), (), oracle,
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
    obligations.append(require_accepted(ob2, "loop decrease obligation failed"))

    # Exit obligation: a non-positive factor forces the guard off.
    ob3 = check_obligation(
        oracle,
        [apply_config(sigma_g, Le(factor, Lit(0))), apply_config(sigma_g, invariant)],
        [apply_config(sigma_g, NotF(loop.guard))],
    )
    obligations.append(require_accepted(ob3, "loop exit obligation failed"))

    result = None
    if not state_free_vars(State(loop, sigma)):
        states, done = run(State(loop, sigma), path_bound)
        if not done:
            raise ObligationFailed("closed loop exceeded the path bound despite obligations")
        result = states[-1].config
    return result


# ---------------------------------------------------------------------------
# Cyclic termination proofs: .dlp scripts replayed as kernel proofs
# ---------------------------------------------------------------------------

def derive_termination_cyclic(script: str, oracle) -> TerminationJudgment:
    """Replay a ``.dlp`` script whose goal holds a judgment ``σ : α ⇓ e`` on
    its right, as a kernel proof, through ``script.Replayer`` line by line.

    Each failure raises a ``terms.Refusal``: the error of the line that the
    kernel, parser, prover or script language refuses, without the line
    number a replay's note adds; ``KernelError`` for open goals, and
    ``NoProgressOnCycle`` for a cycle without a strict factor decrease.  The
    judgment's ``gamma`` and ``delta`` are the goal's other base formulas.
    """
    from . import cyclic, kernel, script as script_mod  # all import this module

    replayer = script_mod.Replayer(oracle)
    for _, line in script_mod.script_lines(script):
        replayer.step(line)
        if replayer.qed_seen:
            break
    graph = replayer.graph
    goal = graph.node(graph.root).sequent if graph is not None else Sequent()
    judgment = next((f for f in goal.right if isinstance(f, DTer)), None)
    if judgment is None:
        raise TermError("the script's goal holds no termination judgment")
    if graph.open_goals():
        raise kernel.KernelError(f"open goals remain: {graph.open_goals()}")
    certificate = cyclic.check_cyclic(graph)
    if not certificate.accepted:
        raise NoProgressOnCycle(certificate.reject_cycle)
    return TerminationJudgment(
        tuple(base_formulas(goal.left)),
        State(judgment.prog, judgment.label),
        tuple(base_formulas(goal.right)),
        None,
        ("cyclic", tuple(graph.backlinks.items())),
        graph.obligations(),
    )
