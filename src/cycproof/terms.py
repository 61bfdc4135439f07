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

``free_vars`` and ``substitute`` serve every sort of term, here and in
``formulas`` and ``sep``: they go through a term's fields, and the table
``TERMS`` names the term classes and the few that bind.
"""

from __future__ import annotations

from operator import is_
from typing import Mapping, Union

from .record import dataclass, fields, values, walk


class Refusal(Exception):
    """The base of every error the checker raises on its input."""


class TermError(Refusal):
    """Malformed term or unsupported operation on a term."""


class DivisionByZero(Refusal, ArithmeticError):
    """Raised when evaluation divides by zero."""


class CaptureError(TermError):
    """Substitution cannot be made admissible at a non-renamable binder."""


# term class -> its binder row.  ``free_vars`` and ``substitute`` walk a
# term through its fields (``record.values``), and a tuple (a sequent's
# side, a store's entries) through its elements; a name, number, flag or
# ``None`` is a leaf.  A class whose row is None binds nothing.  The row
# ``(i, binds, capture)`` binds the names ``binds(t)`` in field number ``i``.
# A substitution that such a binder would capture is renamed apart when
# ``capture`` is None (``Forall``); otherwise it raises ``CaptureError``,
# whose message ends in ``capture`` formatted with the captured names,
# sorted.  A string row marks a closed class, over which substitution is
# refused with that message.  A class that is not a key is no term, and
# the walks refuse it.  Each class is entered by its decorator, so
# ``formulas`` and ``sep`` enter theirs where they define them.
TERMS: dict = {tuple: None}


def _enter(cls, row):
    TERMS[cls] = row
    return cls


def term(cls):
    """Class decorator: a term class that binds nothing."""
    return _enter(cls, None)


def binder(part: str, binds, capture: str | None = None):
    """Class decorator: a term class that binds ``binds(t)`` in its field
    ``part``."""
    return lambda cls: _enter(
        cls, ([f.name for f in fields(cls)].index(part), binds, capture))


def closed(refusal: str):
    """Class decorator: a term class without free variables, over which
    substitution raises ``TermError(refusal)``."""
    return lambda cls: _enter(cls, refusal)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    __slots__ = ()


@term
@dataclass(frozen=True)
class Lit(Expr):
    value: int


@term
@dataclass(frozen=True)
class Var(Expr):
    name: str


@term
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


@term
@dataclass(frozen=True)
class Le(BaseFormula):
    left: Expr
    right: Expr


@term
@dataclass(frozen=True)
class NotF(BaseFormula):
    body: BaseFormula


@term
@dataclass(frozen=True)
class AndF(BaseFormula):
    left: BaseFormula
    right: BaseFormula


@binder("body", lambda t: frozenset((t.var,)))
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


TRUE = Le(Lit(0), Lit(0))
FALSE = NotF(TRUE)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

class Program:
    __slots__ = ()


@binder("expr", lambda t: frozenset((t.target,)), "{0[0]!r} at a non-renamable binder")
@dataclass(frozen=True)
class Assign(Program):
    target: str
    expr: Expr


@binder("second", lambda t: bound_vars(t.first), "{0} under a sequence binder")
@dataclass(frozen=True)
class Seq(Program):
    first: Program
    second: Program


@term
@dataclass(frozen=True)
class If(Program):
    guard: BaseFormula
    then: Program
    orelse: Program


@term
@dataclass(frozen=True)
class While(Program):
    guard: BaseFormula
    body: Program


@term
@dataclass(frozen=True)
class Skip(Program):
    """No-op statement; steps to the terminal program in one transition."""


@term
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

@term
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
# Free and binding variables, and substitution, over every sort
# ---------------------------------------------------------------------------

_LEAVES = frozenset((str, int, bool, type(None)))  # names, values, flags, no factor
_NO_TERM = object()  # the row of a class that is no term


def _rebuilt(t, cls, old: tuple, new: list):
    """``t`` itself when each new part is the old one itself, so that
    unchanged subterms keep what is cached on them; else ``t`` built anew
    from the new parts."""
    if all(map(is_, new, old)):
        return t
    return tuple(new) if cls is tuple else cls(*new)


def free_vars(t) -> frozenset:
    """The variables free in ``t``, a term of any sort or a tuple of them.

    A binder's names are not free in its bound part; a configuration's
    mapped expressions are free.
    """
    out: set = set()
    _free(t, out)
    return frozenset(out)


def _free(t, out: set) -> None:
    if isinstance(t, Var):
        out.add(t.name)
    elif isinstance(t, BinOp):
        _free(t.left, out)
        _free(t.right, out)
    elif not isinstance(t, Lit) and type(t) not in _LEAVES:
        row = TERMS.get(type(t), _NO_TERM)
        if row is _NO_TERM:
            raise TermError(f"free_vars: not a term: {t!r}")
        parts = t if type(t) is tuple else values(t)
        if type(row) is not tuple:
            for v in parts:
                _free(v, out)
            return
        i, binds, _ = row
        for j, v in enumerate(parts):
            if j == i:
                inner: set = set()
                _free(v, inner)
                out |= inner - binds(t)
            else:
                _free(v, out)


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


def fresh_name(base: str, taken: frozenset) -> str:
    """Deterministic fresh variant: the base name plus the fewest primes."""
    candidate = base + "'"
    while candidate in taken:
        candidate += "'"
    return candidate


def substitute(t, bindings: Mapping[str, Expr], scope: frozenset | None = None):
    """Replace each free occurrence of a scope variable by its binding.

    ``scope`` defaults to the domain of ``bindings``.  Quantified variables
    are renamed (name + primes) exactly when a replacing expression would be
    captured; capture at an assignment, sequence or label binder raises
    ``CaptureError`` because those binders cannot be renamed.  A term that
    the substitution leaves unchanged is returned itself.
    """
    if scope is None:
        scope = frozenset(bindings)
    return _subst(t, dict(bindings), frozenset(scope))


def _subst(t, bindings: dict, scope: frozenset):
    # arithmetic first: most substitutions are on expressions.  No
    # comprehension here: up to Python 3.11 the locals one reads become
    # cells, made on every call, so the binder rows are ``_subst_binder``'s
    if isinstance(t, Var):
        return bindings[t.name] if t.name in scope and t.name in bindings else t
    if isinstance(t, Lit):
        return t
    if isinstance(t, BinOp):
        left = _subst(t.left, bindings, scope)
        right = _subst(t.right, bindings, scope)
        if left is t.left and right is t.right:
            return t
        return BinOp(t.op, left, right)
    cls = type(t)
    if cls in _LEAVES:
        return t
    row = TERMS.get(cls, _NO_TERM)
    if row is _NO_TERM:
        raise TermError(f"substitute: not a term: {t!r}")
    old = t if cls is tuple else values(t)
    if row is None:
        new = []
        for v in old:
            new.append(_subst(v, bindings, scope))
        return _rebuilt(t, cls, old, new)
    if type(row) is str:
        raise TermError(row)
    return _subst_binder(t, cls, old, row, bindings, scope)


def _subst_binder(t, cls, old: tuple, row: tuple, bindings: dict, scope: frozenset):
    """``t`` substituted under its binder row: the scope shrinks by the bound
    names in the bound part, and a replacement there whose free variables
    the binder would capture is renamed apart or refused."""
    i, binds, capture = row
    bound = binds(t)
    inner = scope - bound
    caught = [x for x in inner if x in bindings and not bound.isdisjoint(free_vars(bindings[x]))]
    if caught:
        names = free_vars(old[i])
        caught = sorted(x for x in caught if x in names)
    if caught:
        if capture is None:
            return _renamed(t, bindings, scope, names)
        for v in old:  # a closed label refuses before its names could capture
            if type(TERMS.get(type(v))) is str:
                raise TermError(TERMS[type(v)])
        x = caught[0]
        raise CaptureError(f"substituting {x} would capture "
                           + capture.format(sorted(bound & free_vars(bindings[x]))))
    return _rebuilt(t, cls, old, [_subst(v, bindings, inner if j == i else scope)
                                  for j, v in enumerate(old)])


def _renamed(t: Forall, bindings: dict, scope: frozenset, names: frozenset) -> Forall:
    """``t`` substituted, its variable renamed apart from every name in its
    body, the scope and the replacements for its free variables ``names``."""
    inner = scope - {t.var}
    taken = scope.union(
        {n.var if type(n) is Forall else n.name for n in walk(t.body) if type(n) in (Var, Forall)},
        *(free_vars(bindings[x]) for x in inner if x in bindings and x in names))
    var = fresh_name(t.var, taken)
    body = _subst(t.body, {t.var: Var(var)}, frozenset((t.var,)))
    return Forall(var, _subst(body, bindings, inner))


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


def eval_bool(rho: Evaluation, phi: BaseFormula, quantifier_range=(-50, 50)) -> bool:
    """Truth value of a closed-under-rho formula.

    ``forall`` ranges over ``quantifier_range`` only.
    """
    if isinstance(phi, Le):
        return evaluate(rho, phi.left) <= evaluate(rho, phi.right)
    if isinstance(phi, NotF):
        return not eval_bool(rho, phi.body, quantifier_range)
    if isinstance(phi, AndF):
        return (eval_bool(rho, phi.left, quantifier_range)
                and eval_bool(rho, phi.right, quantifier_range))
    if isinstance(phi, Forall):
        lo, hi = quantifier_range
        inner = dict(rho)
        for v in range(lo, hi + 1):
            inner[phi.var] = v
            if not eval_bool(inner, phi.body, quantifier_range):
                return False
        return True
    raise TermError(f"eval_bool: not a base formula: {phi!r}")


def fold(t):
    """Evaluate every closed subexpression down to a literal.

    Division by zero in a closed subexpression raises, as evaluation would.
    """
    if isinstance(t, (Var, Lit)):
        return t
    if isinstance(t, BinOp):
        left = fold(t.left)
        right = fold(t.right)
        if type(left) is Lit and type(right) is Lit:
            return Lit(evaluate({}, BinOp(t.op, left, right)))
        if left is t.left and right is t.right:
            return t
        return BinOp(t.op, left, right)
    cls = type(t)
    if cls in _LEAVES:
        return t
    if cls not in TERMS:
        raise TermError(f"fold: not a term: {t!r}")
    old = t if cls is tuple else values(t)
    return _rebuilt(t, cls, old, [fold(v) for v in old])
