"""Labeled dynamic formulas and two-sided multiset sequents.

A labeled formula pairs a configuration with an unlabeled body; bodies may
nest modalities but never another label, so the two-layer grammar is
enforced by construction.  The diamond modality is kept as distinct syntax
so rules can match on it; its semantics is the dual of the box.

Sequent sides are stored as ordered tuples so rule applications can address
occurrences by index, but identity (backlinks, rule side conditions) is
multiset identity over canonical keys.

Free variables and substitution are ``terms.free_vars`` and
``terms.substitute``, re-exported: each class here is entered in their table
where it is defined.
"""

from __future__ import annotations

from functools import cached_property

from . import canon, terms
from .record import dataclass
from .terms import BaseFormula, Config, Program, TermError, binder, term
from .terms import free_vars, substitute  # noqa: F401 - re-exported: one walk for every sort


class DlpFormula:
    __slots__ = ()


class Body:
    __slots__ = ()


def _under_label(part: str):
    """A label binds its domain, the variables it maps, in the field
    ``part``, and is free itself.  Its names cannot be renamed, so a
    substitution that it would capture raises ``CaptureError``."""
    return binder(part, lambda f: f.label.domain(), "{0} under a label")


@term
@dataclass(frozen=True)
class BBase(Body):
    fml: BaseFormula


@term
@dataclass(frozen=True)
class BNot(Body):
    body: Body


@term
@dataclass(frozen=True)
class BAnd(Body):
    left: Body
    right: Body


@term
@dataclass(frozen=True)
class BBox(Body):
    prog: Program
    body: Body


@term
@dataclass(frozen=True)
class BDia(Body):
    prog: Program
    body: Body


@term
@dataclass(frozen=True)
class DBase(DlpFormula):
    fml: BaseFormula


@_under_label("body")
@dataclass(frozen=True)
class DLabeled(DlpFormula):
    label: object  # Config, or another domain's configuration (e.g. SepState)
    body: Body


@term
@dataclass(frozen=True)
class DNot(DlpFormula):
    arg: DlpFormula


@term
@dataclass(frozen=True)
class DAnd(DlpFormula):
    left: DlpFormula
    right: DlpFormula


@_under_label("prog")
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


@term
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

# A formula's key, and a body's, is ``canon.key``: its tag and its fields'
# keys, kept on its node, so a formula met again, as at each ``ax`` check of
# ``search``, is keyed once.

body_key = formula_key = canon.key


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


def base_formulas(side: tuple) -> list:
    """The plain arithmetic members of a sequent side, unwrapped."""
    return [f.fml for f in side if isinstance(f, DBase)]
