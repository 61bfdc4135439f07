"""Labeled dynamic formulas and two-sided multiset sequents.

A labeled formula pairs a configuration with an unlabeled body; bodies may
nest modalities but never another label, so the two-layer grammar is
enforced by construction.  The diamond modality is kept as distinct syntax
so rules can match on it; its semantics is the dual of the box.

Sequent sides are stored as ordered tuples so rule applications can address
occurrences by index, but identity (backlinks, rule side conditions) is
multiset identity over canonical keys.
"""

from __future__ import annotations

from functools import cached_property

from . import canon, terms
from .record import dataclass
from .terms import BaseFormula, Config, Program, TermError


class DlpFormula:
    __slots__ = ()


class Body:
    __slots__ = ()


@dataclass(frozen=True)
class BBase(Body):
    fml: BaseFormula


@dataclass(frozen=True)
class BNot(Body):
    body: Body


@dataclass(frozen=True)
class BAnd(Body):
    left: Body
    right: Body


@dataclass(frozen=True)
class BBox(Body):
    prog: Program
    body: Body


@dataclass(frozen=True)
class BDia(Body):
    prog: Program
    body: Body


@dataclass(frozen=True)
class DBase(DlpFormula):
    fml: BaseFormula


@dataclass(frozen=True)
class DLabeled(DlpFormula):
    label: object  # Config, or another domain's configuration (e.g. SepState)
    body: Body


@dataclass(frozen=True)
class DNot(DlpFormula):
    arg: DlpFormula


@dataclass(frozen=True)
class DAnd(DlpFormula):
    left: DlpFormula
    right: DlpFormula


@dataclass(frozen=True)
class DTer(DlpFormula):
    """The termination judgment ``label : prog ⇓ factor``.

    From the label's store the program terminates.  ``factor`` is an
    expression occurring in the label over variables outside it, a measure
    that no step raises; it may be None only once the program is terminal.
    The constructor checks both, as ``Config`` checks its names.
    """

    label: Config
    prog: Program
    factor: object  # Expr | None

    def __post_init__(self) -> None:
        if self.factor is None:
            if not isinstance(self.prog, terms.Epsilon):
                raise TermError("a judgment on a non-terminal program needs a factor")
        elif not terms.is_subexpression(self.factor, self.label):
            raise TermError("the factor must occur inside the configuration")


# Holes of the rule templates that ``lift`` reads (``?name`` and ``@name``).

@dataclass(frozen=True)
class MBody:
    name: str


@dataclass(frozen=True)
class MProg:
    name: str


def d_or(a: DlpFormula, b: DlpFormula) -> DlpFormula:
    return DNot(DAnd(DNot(a), DNot(b)))


def d_imp(a: DlpFormula, b: DlpFormula) -> DlpFormula:
    return DNot(DAnd(a, DNot(b)))


def boxed(sigma: Config, prog: Program, fml: BaseFormula) -> DlpFormula:
    return DLabeled(sigma, BBox(prog, BBase(fml)))


def diamond(sigma: Config, prog: Program, fml: BaseFormula) -> DlpFormula:
    return DLabeled(sigma, BDia(prog, BBase(fml)))


@dataclass(frozen=True)
class Sequent:
    left: tuple = ()
    right: tuple = ()

    def __post_init__(self) -> None:
        for f in self.left + self.right:
            if not isinstance(f, DlpFormula):
                raise TermError(f"sequent member is not a formula: {f!r}")

    def is_base_only(self) -> bool:
        return all(isinstance(f, DBase) for f in self.left + self.right)

    @cached_property
    def key(self) -> tuple:
        """``sequent_key(self)``, computed on first use and kept with the
        sequent (the sequent is immutable, so the key never goes stale)."""
        return sequent_key(self)


# ---------------------------------------------------------------------------
# Canonical keys
# ---------------------------------------------------------------------------

# Both keys are kept on the node they describe, as ``canon`` keeps its keys
# (``canon._keep``), so a formula met again, as at each ``ax`` check of
# ``search``, is keyed once.

_KEY = "_dlp_key"  # body_key, formula_key


def body_key(b: Body) -> tuple:
    # Negation/conjunction keys over purely base operands normalize to the
    # base-formula connective, so the two representations get one identity.
    key = getattr(b, _KEY, None)
    if key is not None:
        return key
    if isinstance(b, BBase):
        key = ("base", canon.formula_key(b.fml))
    elif isinstance(b, BNot):
        k = body_key(b.body)
        key = ("base", ("not", k[1])) if k[0] == "base" else ("not", k)
    elif isinstance(b, BAnd):
        k1 = body_key(b.left)
        k2 = body_key(b.right)
        if k1[0] == "base" and k2[0] == "base":
            key = ("base", ("and", k1[1], k2[1]))
        else:
            key = ("and", k1, k2)
    elif isinstance(b, BBox):
        key = ("box", canon.program_key(b.prog), body_key(b.body))
    elif isinstance(b, BDia):
        key = ("dia", canon.program_key(b.prog), body_key(b.body))
    else:
        raise TermError(f"body_key: not a body: {b!r}")
    return canon._keep(b, _KEY, key)


def _label_key(label) -> tuple:
    if isinstance(label, Config):
        return canon.config_key(label)
    key = getattr(label, "canon_key", None)
    if key is not None:
        return key()
    raise TermError(f"unsupported label: {label!r}")


def formula_key(f: DlpFormula) -> tuple:
    key = getattr(f, _KEY, None)
    if key is not None:
        return key
    if isinstance(f, DBase):
        key = ("base", canon.formula_key(f.fml))
    elif isinstance(f, DLabeled):
        key = ("labeled", _label_key(f.label), body_key(f.body))
    elif isinstance(f, DNot):
        k = formula_key(f.arg)
        key = ("base", ("not", k[1])) if k[0] == "base" else ("not", k)
    elif isinstance(f, DAnd):
        k1 = formula_key(f.left)
        k2 = formula_key(f.right)
        if k1[0] == "base" and k2[0] == "base":
            key = ("base", ("and", k1[1], k2[1]))
        else:
            key = ("and", k1, k2)
    elif isinstance(f, DTer):
        factor = () if f.factor is None else canon.expr_key(f.factor)
        key = ("ter", canon.config_key(f.label), canon.program_key(f.prog), factor)
    else:
        raise TermError(f"formula_key: not a formula: {f!r}")
    return canon._keep(f, _KEY, key)


def sequent_key(nu: Sequent) -> tuple:
    left = tuple(sorted(formula_key(f) for f in nu.left))
    right = tuple(sorted(formula_key(f) for f in nu.right))
    return (left, right)


def formulas_equal(a: DlpFormula, b: DlpFormula) -> bool:
    return formula_key(a) == formula_key(b)


def sequents_equal(a: Sequent, b: Sequent) -> bool:
    """Multiset identity, insensitive to order and bound-variable names."""
    return a.key == b.key


def sequent_diff(a: Sequent, b: Sequent):
    """First formula (with side) present in one sequent but not the other."""
    for side in ("left", "right"):
        xs = list(getattr(a, side))
        ys = list(getattr(b, side))
        ykeys = [formula_key(y) for y in ys]
        for x in xs:
            k = formula_key(x)
            if k in ykeys:
                ykeys.remove(k)
            else:
                return side, x
        if ykeys:
            for y in ys:
                if formula_key(y) in ykeys:
                    return side, y
    return None


# ---------------------------------------------------------------------------
# Free variables and substitution
# ---------------------------------------------------------------------------

def body_free_vars(b: Body) -> frozenset:
    if isinstance(b, BBase):
        if not isinstance(b.fml, terms.BaseFormula):
            from .sep import sep_formula_vars

            return sep_formula_vars(b.fml)
        return terms.free_vars(b.fml)
    if isinstance(b, BNot):
        return body_free_vars(b.body)
    if isinstance(b, BAnd):
        return body_free_vars(b.left) | body_free_vars(b.right)
    if isinstance(b, (BBox, BDia)):
        return terms.free_vars(b.prog) | body_free_vars(b.body)
    raise TermError(f"body_free_vars: not a body: {b!r}")


def free_vars(f) -> frozenset:
    """Free variables of a labeled formula, plain formula, or term.

    A configuration's mappings bind the variables of the labeled body but
    the mapped expressions themselves are always free.
    """
    if isinstance(f, DBase):
        return terms.free_vars(f.fml)
    if isinstance(f, DLabeled):
        if not isinstance(f.label, Config):
            # concrete foreign labels (store-heap states) are closed and
            # bind exactly their store variables
            bound = frozenset(x for x, _ in getattr(f.label, "store", ()))
            return body_free_vars(f.body) - bound
        label_fv = terms.free_vars(f.label)
        bound = terms.bound_vars(f.label)
        return label_fv | (body_free_vars(f.body) - bound)
    if isinstance(f, DNot):
        return free_vars(f.arg)
    if isinstance(f, DAnd):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, Sequent):
        out: frozenset = frozenset()
        for g in f.left + f.right:
            out |= free_vars(g)
        return out
    if isinstance(f, DTer):
        label_fv = terms.free_vars(f.label)
        prog_fv = terms.free_vars(f.prog) - terms.bound_vars(f.label)
        factor_fv = frozenset() if f.factor is None else terms.free_vars(f.factor)
        return label_fv | prog_fv | factor_fv
    return terms.free_vars(f)


def substitute_body(b: Body, bindings, scope) -> Body:
    # like ``terms.substitute``, an unchanged node is returned itself
    if isinstance(b, BBase):
        fml = terms.substitute(b.fml, bindings, scope)
        return b if fml is b.fml else BBase(fml)
    if isinstance(b, BNot):
        body = substitute_body(b.body, bindings, scope)
        return b if body is b.body else BNot(body)
    if isinstance(b, BAnd):
        left = substitute_body(b.left, bindings, scope)
        right = substitute_body(b.right, bindings, scope)
        if left is b.left and right is b.right:
            return b
        return BAnd(left, right)
    if isinstance(b, (BBox, BDia)):
        prog = terms.substitute(b.prog, bindings, scope)
        body = substitute_body(b.body, bindings, scope)
        if prog is b.prog and body is b.body:
            return b
        return type(b)(prog, body)
    raise TermError(f"substitute_body: not a body: {b!r}")


def substitute(f, bindings, scope=None):
    """Substitution extended to labeled formulas and sequents.

    Under a label the scope shrinks by the configuration's bound variables;
    a replacement whose free variables include one of those would be
    captured, which raises ``CaptureError`` (the binder is not renamable).
    A formula or sequent that the substitution leaves unchanged is returned
    itself.
    """
    if scope is None:
        scope = frozenset(bindings)
    scope = frozenset(scope)
    if isinstance(f, DBase):
        fml = terms.substitute(f.fml, bindings, scope)
        return f if fml is f.fml else DBase(fml)
    if isinstance(f, DLabeled):
        if not isinstance(f.label, Config):
            raise TermError("substitution over non-store labels is not defined")
        inner = _scope_under(f.label, bindings, scope, body_free_vars(f.body))
        label = terms.substitute(f.label, bindings, scope)
        body = substitute_body(f.body, bindings, inner)
        if label is f.label and body is f.body:
            return f
        return DLabeled(label, body)
    if isinstance(f, DNot):
        arg = substitute(f.arg, bindings, scope)
        return f if arg is f.arg else DNot(arg)
    if isinstance(f, DAnd):
        left = substitute(f.left, bindings, scope)
        right = substitute(f.right, bindings, scope)
        if left is f.left and right is f.right:
            return f
        return DAnd(left, right)
    if isinstance(f, Sequent):
        left = tuple(substitute(g, bindings, scope) for g in f.left)
        right = tuple(substitute(g, bindings, scope) for g in f.right)
        if all(g is h for g, h in zip(left + right, f.left + f.right)):
            return f
        return Sequent(left, right)
    if isinstance(f, DTer):
        inner = _scope_under(f.label, bindings, scope, terms.free_vars(f.prog))
        label = terms.substitute(f.label, bindings, scope)
        prog = terms.substitute(f.prog, bindings, inner)
        factor = None if f.factor is None else terms.substitute(f.factor, bindings, scope)
        if label is f.label and prog is f.prog and factor is f.factor:
            return f
        return DTer(label, prog, factor)
    return terms.substitute(f, bindings, scope)


def _scope_under(label: Config, bindings, scope: frozenset, names: frozenset) -> frozenset:
    """The substitution scope under ``label``, which binds its store
    variables; ``CaptureError`` when a replacement for one of ``names``
    would be captured there."""
    inner = scope - terms.bound_vars(label)
    for x in inner & frozenset(bindings) & names:
        clash = terms.free_vars(bindings[x]) & terms.bound_vars(label)
        if clash:
            raise terms.CaptureError(
                f"substituting {x} would capture {sorted(clash)} under a label"
            )
    return inner


def base_formulas(side: tuple) -> list:
    """The plain arithmetic members of a sequent side, unwrapped."""
    return [f.fml for f in side if isinstance(f, DBase)]
