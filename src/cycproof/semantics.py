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
"""

from __future__ import annotations

import enum

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
)
from .record import dataclass
from .terms import (
    Config,
    Epsilon,
    Lit,
    TermError,
    bound_vars,
    eval_bool,
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
