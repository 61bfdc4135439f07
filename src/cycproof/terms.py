"""Core term syntax for the While verification domain.

Four term families share one substitution and free-variable theory:

  * arithmetic expressions over the integers,
  * base formulas built from ``<=``, negation, conjunction and ``forall``
    (everything else is parser sugar),
  * While programs with the distinguished terminal program ``EPSILON``,
  * configurations: either a variable store (each variable mapped at most
    once) or a variable stack (duplicates allowed, rightmost entry wins).

Substitution is capture-avoiding for quantifiers.  Assignment targets and
configuration mappings also bind, but they are not alpha-renamable (renaming
an assignment target changes which cell of the store is written), so a
substitution that would smuggle a free variable under such a binder raises
``CaptureError`` instead of silently capturing.
"""

from __future__ import annotations

from typing import Mapping, Union

from .record import dataclass


class TermError(Exception):
    """Malformed term or unsupported operation on a term."""


class DivisionByZero(ArithmeticError):
    """Raised when evaluation divides by zero."""


class CaptureError(TermError):
    """Substitution cannot be made admissible at a non-renamable binder."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Lit(Expr):
    value: int


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*", "/"):
            raise TermError(f"unknown operator {self.op!r}")


def add(a: Expr, b: Expr) -> Expr:
    return BinOp("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    return BinOp("-", a, b)


def div(a: Expr, b: Expr) -> Expr:
    return BinOp("/", a, b)


# ---------------------------------------------------------------------------
# Base formulas
# ---------------------------------------------------------------------------

class BaseFormula:
    __slots__ = ()


@dataclass(frozen=True)
class Le(BaseFormula):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class NotF(BaseFormula):
    body: BaseFormula


@dataclass(frozen=True)
class AndF(BaseFormula):
    left: BaseFormula
    right: BaseFormula


@dataclass(frozen=True)
class Forall(BaseFormula):
    var: str
    body: BaseFormula


# Derived connectives normalize into the {<=, !, &&, forall} core.

def lt(a: Expr, b: Expr) -> BaseFormula:
    return NotF(Le(b, a))


def gt(a: Expr, b: Expr) -> BaseFormula:
    return NotF(Le(a, b))


def ge(a: Expr, b: Expr) -> BaseFormula:
    return Le(b, a)


def eq(a: Expr, b: Expr) -> BaseFormula:
    return AndF(Le(a, b), Le(b, a))


def ne(a: Expr, b: Expr) -> BaseFormula:
    return NotF(eq(a, b))


def or_f(a: BaseFormula, b: BaseFormula) -> BaseFormula:
    return NotF(AndF(NotF(a), NotF(b)))


def imp_f(a: BaseFormula, b: BaseFormula) -> BaseFormula:
    return NotF(AndF(a, NotF(b)))


TRUE = Le(Lit(0), Lit(0))
FALSE = NotF(TRUE)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

class Program:
    __slots__ = ()


@dataclass(frozen=True)
class Assign(Program):
    target: str
    expr: Expr


@dataclass(frozen=True)
class Seq(Program):
    first: Program
    second: Program


@dataclass(frozen=True)
class If(Program):
    guard: BaseFormula
    then: Program
    orelse: Program


@dataclass(frozen=True)
class While(Program):
    guard: BaseFormula
    body: Program


@dataclass(frozen=True)
class Skip(Program):
    """No-op statement; steps to the terminal program in one transition."""


@dataclass(frozen=True)
class Epsilon(Program):
    """The distinguished terminal program.

    It only arises as the whole program of a stepped state and never as a
    proper subterm of another program.
    """


SKIP = Skip()
EPSILON = Epsilon()


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Config:
    """Variable store (default) or variable stack (``stack=True``).

    Store entries map each variable at most once; stack entries may repeat a
    variable, and the rightmost entry is the top of the stack.  Mapped
    expressions may themselves contain free variables (symbolic stores), and
    a variable inside a mapped expression is always free.
    """

    entries: tuple = ()
    stack: bool = False

    def __post_init__(self) -> None:
        if not self.stack:
            names = [x for x, _ in self.entries]
            if len(names) != len(set(names)):
                raise TermError("store configuration maps a variable twice")

    @staticmethod
    def store(*entries) -> "Config":
        return Config(tuple(entries), stack=False)

    def domain(self) -> frozenset:
        return frozenset(x for x, _ in self.entries)

    def get(self, name: str):
        """Mapped expression for ``name``: unique (store) or topmost (stack)."""
        if self.stack:
            for x, e in reversed(self.entries):
                if x == name:
                    return e
            return None
        for x, e in self.entries:
            if x == name:
                return e
        return None

    def set(self, name: str, expr: Expr) -> "Config":
        """The update written sigma^x_e: rebind ``name``, keep the rest."""
        if self.stack:
            raise TermError("update is defined on store configurations")
        if name in self.domain():
            return Config(tuple((x, expr if x == name else e) for x, e in self.entries))
        return Config(self.entries + ((name, expr),))


def is_subexpression(e: Expr, sigma: Config) -> bool:
    """Whether ``e`` occurs, syntactically, within some mapping of ``sigma``."""
    stack = [expr for _, expr in sigma.entries]
    while stack:
        inside = stack.pop()
        if inside == e:
            return True
        if isinstance(inside, BinOp):
            stack += (inside.left, inside.right)
    return False


Term = Union[Expr, BaseFormula, Program, Config]


# ---------------------------------------------------------------------------
# Free and binding variables
# ---------------------------------------------------------------------------

def free_vars(t: Term) -> frozenset:
    if isinstance(t, Lit):
        return frozenset()
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, BinOp):
        return free_vars(t.left) | free_vars(t.right)
    if isinstance(t, Le):
        return free_vars(t.left) | free_vars(t.right)
    if isinstance(t, NotF):
        return free_vars(t.body)
    if isinstance(t, AndF):
        return free_vars(t.left) | free_vars(t.right)
    if isinstance(t, Forall):
        return free_vars(t.body) - {t.var}
    if isinstance(t, Assign):
        return free_vars(t.expr) - {t.target}
    if isinstance(t, Seq):
        return free_vars(t.first) | (free_vars(t.second) - bound_vars(t.first))
    if isinstance(t, If):
        return free_vars(t.guard) | free_vars(t.then) | free_vars(t.orelse)
    if isinstance(t, While):
        return free_vars(t.guard) | free_vars(t.body)
    if isinstance(t, (Skip, Epsilon)):
        return frozenset()
    if isinstance(t, Config):
        out: frozenset = frozenset()
        for _, e in t.entries:
            out |= free_vars(e)
        return out
    raise TermError(f"free_vars: not a term: {t!r}")


def bound_vars(t: Term) -> frozenset:
    if isinstance(t, Assign):
        return frozenset((t.target,))
    if isinstance(t, Seq):
        return bound_vars(t.first) | bound_vars(t.second)
    if isinstance(t, If):
        return bound_vars(t.then) | bound_vars(t.orelse)
    if isinstance(t, While):
        return bound_vars(t.body)
    if isinstance(t, (Skip, Epsilon)):
        return frozenset()
    if isinstance(t, Config):
        return frozenset(x for x, _ in t.entries)
    raise TermError(f"bound_vars: defined on programs and configurations, got {t!r}")


def all_vars(t: Term) -> frozenset:
    """Every variable name occurring anywhere in ``t`` (free or bound)."""
    if isinstance(t, Lit):
        return frozenset()
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, BinOp):
        return all_vars(t.left) | all_vars(t.right)
    if isinstance(t, Le):
        return all_vars(t.left) | all_vars(t.right)
    if isinstance(t, NotF):
        return all_vars(t.body)
    if isinstance(t, AndF):
        return all_vars(t.left) | all_vars(t.right)
    if isinstance(t, Forall):
        return all_vars(t.body) | {t.var}
    if isinstance(t, Assign):
        return all_vars(t.expr) | {t.target}
    if isinstance(t, Seq):
        return all_vars(t.first) | all_vars(t.second)
    if isinstance(t, If):
        return all_vars(t.guard) | all_vars(t.then) | all_vars(t.orelse)
    if isinstance(t, While):
        return all_vars(t.guard) | all_vars(t.body)
    if isinstance(t, (Skip, Epsilon)):
        return frozenset()
    if isinstance(t, Config):
        out: frozenset = frozenset()
        for x, e in t.entries:
            out |= all_vars(e) | {x}
        return out
    raise TermError(f"all_vars: not a term: {t!r}")


def fresh_name(base: str, taken: frozenset) -> str:
    """Deterministic fresh variant: the base name plus the fewest primes."""
    candidate = base + "'"
    while candidate in taken:
        candidate += "'"
    return candidate


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def substitute(t: Term, bindings: Mapping[str, Expr], scope: frozenset | None = None) -> Term:
    """Replace each free occurrence of a scope variable by its binding.

    ``scope`` defaults to the domain of ``bindings``.  Quantified variables
    are renamed (name + primes) exactly when a replacing expression would be
    captured; capture at an assignment or configuration binder raises
    ``CaptureError`` because those binders cannot be renamed.
    """
    if scope is None:
        scope = frozenset(bindings)
    return _subst(t, dict(bindings), frozenset(scope))


def _relevant(bindings: dict, scope: frozenset, fv: frozenset) -> frozenset:
    return frozenset(x for x in scope if x in bindings and x in fv)


def _check_binder(binder: str, bindings: dict, scope: frozenset, body_fv: frozenset) -> None:
    for x in _relevant(bindings, scope - {binder}, body_fv):
        if binder in free_vars(bindings[x]):
            raise CaptureError(
                f"substituting {x} would capture {binder!r} at a non-renamable binder"
            )


def _subst(t: Term, bindings: dict, scope: frozenset) -> Term:
    # a node whose children all come back as the identical objects is
    # returned itself, so unchanged subterms keep what is cached on them
    if isinstance(t, Var):
        if t.name in scope and t.name in bindings:
            return bindings[t.name]
        return t
    if isinstance(t, Lit):
        return t
    if isinstance(t, BinOp):
        left = _subst(t.left, bindings, scope)
        right = _subst(t.right, bindings, scope)
        if left is t.left and right is t.right:
            return t
        return BinOp(t.op, left, right)
    if isinstance(t, (Le, AndF)):
        left = _subst(t.left, bindings, scope)
        right = _subst(t.right, bindings, scope)
        if left is t.left and right is t.right:
            return t
        return type(t)(left, right)
    if isinstance(t, NotF):
        body = _subst(t.body, bindings, scope)
        return t if body is t.body else NotF(body)
    if isinstance(t, Forall):
        inner_scope = scope - {t.var}
        relevant = _relevant(bindings, inner_scope, free_vars(t.body))
        if any(t.var in free_vars(bindings[x]) for x in relevant):
            taken = all_vars(t.body) | frozenset(scope)
            for x in relevant:
                taken |= free_vars(bindings[x])
            new_var = fresh_name(t.var, taken)
            renamed = _subst(t.body, {t.var: Var(new_var)}, frozenset((t.var,)))
            return Forall(new_var, _subst(renamed, bindings, inner_scope))
        body = _subst(t.body, bindings, inner_scope)
        return t if body is t.body else Forall(t.var, body)
    if isinstance(t, Assign):
        _check_binder(t.target, bindings, scope, free_vars(t.expr))
        expr = _subst(t.expr, bindings, scope - {t.target})
        return t if expr is t.expr else Assign(t.target, expr)
    if isinstance(t, Seq):
        inner = scope - bound_vars(t.first)
        for x in _relevant(bindings, inner, free_vars(t.second)):
            clash = free_vars(bindings[x]) & bound_vars(t.first)
            if clash:
                raise CaptureError(
                    f"substituting {x} would capture {sorted(clash)} under a sequence binder"
                )
        first = _subst(t.first, bindings, scope)
        second = _subst(t.second, bindings, inner)
        if first is t.first and second is t.second:
            return t
        return Seq(first, second)
    if isinstance(t, If):
        guard = _subst(t.guard, bindings, scope)
        then = _subst(t.then, bindings, scope)
        orelse = _subst(t.orelse, bindings, scope)
        if guard is t.guard and then is t.then and orelse is t.orelse:
            return t
        return If(guard, then, orelse)
    if isinstance(t, While):
        guard = _subst(t.guard, bindings, scope)
        body = _subst(t.body, bindings, scope)
        if guard is t.guard and body is t.body:
            return t
        return While(guard, body)
    if isinstance(t, (Skip, Epsilon)):
        return t
    if isinstance(t, Config):
        entries = tuple((x, _subst(e, bindings, scope)) for x, e in t.entries)
        if all(new is old for (_, new), (_, old) in zip(entries, t.entries)):
            return t
        return Config(entries, stack=t.stack)
    raise TermError(f"substitute: not a term: {t!r}")


# ---------------------------------------------------------------------------
# Configuration interpretation
# ---------------------------------------------------------------------------

def apply_config(sigma: Config, phi: Term) -> Term:
    """app(sigma, phi) for store configurations: the substitution sigma*.

    Unmapped variables stay free; partial configurations are allowed.
    """
    if sigma.stack:
        raise TermError("apply_config expects a store configuration")
    bindings = {x: e for x, e in sigma.entries}
    return substitute(phi, bindings, frozenset(bindings))


def apply_stack_config(sigma: Config, phi: Term) -> Term:
    """Stack interpretation: each free variable takes its topmost mapping."""
    if not sigma.stack:
        raise TermError("apply_stack_config expects a stack configuration")
    bindings: dict = {}
    for x, e in sigma.entries:  # later entries overwrite: rightmost is top
        bindings[x] = e
    return substitute(phi, bindings, frozenset(bindings))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

Evaluation = Mapping[str, int]


def truncated_div(a: int, b: int) -> int:
    """Integer division truncated toward zero; divisor 0 is an error."""
    if b == 0:
        raise DivisionByZero(f"{a} / 0")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


@dataclass(frozen=True)
class BoolResult:
    value: bool
    bounded: bool = False  # True when a quantifier was range-restricted

    def __bool__(self) -> bool:
        return self.value


def evaluate(rho: Evaluation, e: Expr) -> int:
    """Integer value of an expression; every free variable must be in rho."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        if e.name not in rho:
            raise TermError(f"evaluation does not cover variable {e.name!r}")
        return rho[e.name]
    if isinstance(e, BinOp):
        a = evaluate(rho, e.left)
        b = evaluate(rho, e.right)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return truncated_div(a, b)
    raise TermError(f"evaluate: not an expression: {e!r}")


def eval_bool(rho: Evaluation, phi: BaseFormula, quantifier_range=(-50, 50)) -> BoolResult:
    """Truth value of a closed-under-rho formula.

    ``forall`` ranges over ``quantifier_range`` only; any result that passed
    through a quantifier is flagged ``bounded``.
    """
    if isinstance(phi, Le):
        return BoolResult(evaluate(rho, phi.left) <= evaluate(rho, phi.right))
    if isinstance(phi, NotF):
        r = eval_bool(rho, phi.body, quantifier_range)
        return BoolResult(not r.value, r.bounded)
    if isinstance(phi, AndF):
        a = eval_bool(rho, phi.left, quantifier_range)
        if not a.value:
            return BoolResult(False, a.bounded)
        b = eval_bool(rho, phi.right, quantifier_range)
        return BoolResult(b.value, a.bounded or b.bounded)
    if isinstance(phi, Forall):
        lo, hi = quantifier_range
        inner = dict(rho)
        bounded_seen = False
        for v in range(lo, hi + 1):
            inner[phi.var] = v
            r = eval_bool(inner, phi.body, quantifier_range)
            bounded_seen = bounded_seen or r.bounded
            if not r.value:
                return BoolResult(False, True)
        return BoolResult(True, True)
    raise TermError(f"eval_bool: not a base formula: {phi!r}")


def fold(t: Term) -> Term:
    """Evaluate every closed subexpression down to a literal.

    Division by zero in a closed subexpression raises, as evaluation would.
    """
    if isinstance(t, (Lit, Var)):
        return t
    if isinstance(t, BinOp):
        left = fold(t.left)
        right = fold(t.right)
        if isinstance(left, Lit) and isinstance(right, Lit):
            return Lit(evaluate({}, BinOp(t.op, left, right)))
        return BinOp(t.op, left, right)
    if isinstance(t, Le):
        return Le(fold(t.left), fold(t.right))
    if isinstance(t, NotF):
        return NotF(fold(t.body))
    if isinstance(t, AndF):
        return AndF(fold(t.left), fold(t.right))
    if isinstance(t, Forall):
        return Forall(t.var, fold(t.body))
    if isinstance(t, Assign):
        return Assign(t.target, fold(t.expr))
    if isinstance(t, Seq):
        return Seq(fold(t.first), fold(t.second))
    if isinstance(t, If):
        return If(fold(t.guard), fold(t.then), fold(t.orelse))
    if isinstance(t, While):
        return While(fold(t.guard), fold(t.body))
    if isinstance(t, (Skip, Epsilon)):
        return t
    if isinstance(t, Config):
        return Config(tuple((x, fold(e)) for x, e in t.entries), stack=t.stack)
    raise TermError(f"fold: not a term: {t!r}")


def eval_term(rho: Evaluation, t: Term) -> Term:
    """rho(t): substitute integer literals for free variables, then fold."""
    bindings = {x: Lit(v) for x, v in rho.items()}
    return fold(substitute(t, bindings, frozenset(bindings)))
