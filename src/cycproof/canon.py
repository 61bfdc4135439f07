"""Canonical forms for deciding term identity modulo arithmetic.

Sequent identity (rule side conditions, backlink matching) must recognize
that ``v - 0`` and ``v`` denote the same integer everywhere, and likewise
``((2*v - m + 1) * m) / 2 + (v - m)`` and ``((2*v - (m + 1) + 1) * (m + 1)) / 2``.
Expressions are normalized to polynomials with rational coefficients over
"atoms" (variables plus opaque division nodes).

Division is simplified only when it is provably exact: ``P / c`` for a
nonzero integer constant ``c`` becomes a polynomial exactly when ``c``
divides ``P`` at every integer point, which is decided by testing ``P`` on
the finite grid ``{0..deg_i}`` per variable (the binomial-basis coefficients
of ``P`` are integer combinations of those grid values and vice versa).  The
grid runs in integer arithmetic: ``P`` is scaled once by the common
denominator of its coefficients.  In the exact case truncated division
agrees with rational division, so the rewrite is sound for the truncating
evaluator.  Every other division stays an opaque atom keyed by the canonical
forms of its operands.

Keys are made of strs, ints and tuples only, and every variant of a key
starts with a tag of its own (``"le"``/``"not"``/``"and"``/``"forall"``,
``"v"``/``"div"``, ``"store"``/``"stack"``/``"sepstate"``, ...), so two keys
of one kind never hold values of different types at the first position where
they differ.  Monomials, polynomial keys, stores and the sides of a sequent
are therefore sorted by Python's own tuple order, without printing anything.

Known limit: two occurrences of the same opaque division atom cancel, so
``x/y <= x/y`` and ``0 <= 0`` get one key even though the former faults at
``y = 0``.  All equalities used by the kernel compare total values only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

from .terms import (
    AndF,
    Assign,
    BaseFormula,
    BinOp,
    Config,
    Epsilon,
    Expr,
    Forall,
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
    substitute,
    truncated_div,
)

# A polynomial is a dict: monomial -> Fraction, where a monomial is a sorted
# tuple of (atom, exponent) pairs and an atom is a nested key of tuples, strs
# and ints: ("v", name) or ("div", poly_key(dividend), poly_key(divisor)).

_GRID_LIMIT = 4096

ZERO: dict = {}


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    powers: dict = {}
    for atom, k in m1 + m2:
        powers[atom] = powers.get(atom, 0) + k
    return tuple(sorted((a, k) for a, k in powers.items() if k))


def _add(p1: dict, p2: dict) -> dict:
    out = dict(p1)
    for mono, c in p2.items():
        c2 = out.get(mono, Fraction(0)) + c
        if c2:
            out[mono] = c2
        else:
            out.pop(mono, None)
    return out


def _neg(p: dict) -> dict:
    return {m: -c for m, c in p.items()}


def _mul(p1: dict, p2: dict) -> dict:
    out: dict = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            mono = _mono_mul(m1, m2)
            c = out.get(mono, Fraction(0)) + c1 * c2
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
    return out


def _constant_of(p: dict) -> Fraction | None:
    if not p:
        return Fraction(0)
    if len(p) == 1 and () in p:
        return p[()]
    return None


def poly_key(p: dict) -> tuple:
    # monomials are distinct, so the sort never reaches the coefficients
    return tuple(sorted((m, (c.numerator, c.denominator)) for m, c in p.items()))


def _try_exact_div(p: dict, c: int) -> dict | None:
    """``p / c`` as a polynomial if ``c`` divides ``p`` at every integer point.

    The grid runs on ints: with ``den`` the common denominator of the
    coefficients, ``den * p`` has integer coefficients, and ``p / c`` is an
    integer at a point exactly when ``den * p`` is a multiple of ``den * c``
    there.
    """
    degree: dict = {}  # atom -> highest exponent
    den = 1
    for mono, coeff in p.items():
        for atom, k in mono:
            if k > degree.get(atom, 0):
                degree[atom] = k
        den = lcm(den, coeff.denominator)
    size = 1
    for d in degree.values():
        size *= d + 1
        if size > _GRID_LIMIT:
            return None
    column = {atom: i for i, atom in enumerate(degree)}
    terms = [(coeff.numerator * (den // coeff.denominator),
              tuple((column[atom], k) for atom, k in mono))
             for mono, coeff in p.items()]
    modulus = den * c
    for point in product(*(range(d + 1) for d in degree.values())):
        val = 0
        for coeff, mono in terms:
            for i, k in mono:
                coeff *= point[i] ** k
            val += coeff
        if val % modulus:
            return None
    return {m: coeff / c for m, coeff in p.items()}


# Each term node keeps its canonical form once computed, under an attribute
# name that is not a dataclass field, so ``==``, ``hash`` and ``repr`` ignore
# it.  A node's keys live as long as the node: nothing is kept at module
# level.  The cached polynomial dicts are shared and never mutated (``_add``,
# ``_neg``, ``_mul`` and ``_try_exact_div`` build new dicts).  Each function
# looks its slot up itself rather than through a wrapper, so a level of the
# term still costs one stack frame.

_POLY = "_canon_poly"  # canon_expr on an Expr
_KEY = "_canon_key"  # expr_key, formula_key (depth 0), program_key, config_key


def _keep(term, slot: str, value):
    """``value``, stored on ``term`` under ``slot``."""
    object.__setattr__(term, slot, value)  # the term classes are frozen
    return value


def canon_expr(e: Expr) -> dict:
    poly = getattr(e, _POLY, None)
    if poly is not None:
        return poly
    if isinstance(e, BinOp):
        poly = _binop_poly(e.op, canon_expr(e.left), canon_expr(e.right))
    elif isinstance(e, Lit):
        poly = _constant_poly(e.value)
    elif isinstance(e, Var):
        poly = {((("v", e.name), 1),): Fraction(1)}
    else:
        raise TermError(f"canon_expr: not an expression: {e!r}")
    return _keep(e, _POLY, poly)


def _constant_poly(value: int) -> dict:
    return {(): Fraction(value)} if value else {}


def _binop_poly(op: str, left: dict, right: dict) -> dict:
    if op == "+":
        return _add(left, right)
    if op == "-":
        return _add(left, _neg(right))
    if op == "*":
        return _mul(left, right)
    cl = _constant_of(left)
    cr = _constant_of(right)
    if cr is not None and cr != 0 and cr.denominator == 1:
        if cl is not None and cl.denominator == 1:
            return _constant_poly(truncated_div(cl.numerator, cr.numerator))
        exact = _try_exact_div(left, cr.numerator)
        if exact is not None:
            return exact
    atom = ("div", poly_key(left), poly_key(right))
    return {((atom, 1),): Fraction(1)}


def expr_key(e: Expr) -> tuple:
    key = getattr(e, _KEY, None)
    if key is not None:
        return key
    return _keep(e, _KEY, poly_key(canon_expr(e)))


def formula_key(phi: BaseFormula, depth: int = 0) -> tuple:
    # a key under a quantifier names its bound variables by depth, so only
    # depth-0 keys are a property of the node alone
    if depth == 0:
        key = getattr(phi, _KEY, None)
        if key is not None:
            return key
    if isinstance(phi, Le):
        diff = _add(canon_expr(phi.right), _neg(canon_expr(phi.left)))
        key = ("le", poly_key(diff))
    elif isinstance(phi, NotF):
        key = ("not", formula_key(phi.body, depth))
    elif isinstance(phi, AndF):
        key = ("and", formula_key(phi.left, depth), formula_key(phi.right, depth))
    elif isinstance(phi, Forall):
        marker = f"__bound{depth}"
        body = substitute(phi.body, {phi.var: Var(marker)}, frozenset((phi.var,)))
        key = ("forall", formula_key(body, depth + 1))
    else:
        raise TermError(f"formula_key: not a base formula: {phi!r}")
    return _keep(phi, _KEY, key) if depth == 0 else key


def program_key(p: Program) -> tuple:
    key = getattr(p, _KEY, None)
    if key is not None:
        return key
    if isinstance(p, Assign):
        key = ("assign", p.target, expr_key(p.expr))
    elif isinstance(p, Seq):
        key = ("seq", program_key(p.first), program_key(p.second))
    elif isinstance(p, If):
        key = ("if", formula_key(p.guard), program_key(p.then), program_key(p.orelse))
    elif isinstance(p, While):
        key = ("while", formula_key(p.guard), program_key(p.body))
    elif isinstance(p, Skip):
        key = ("skip",)
    elif isinstance(p, Epsilon):
        key = ("epsilon",)
    elif hasattr(p, "canon_key"):
        key = p.canon_key()
    else:
        raise TermError(f"program_key: not a program: {p!r}")
    return _keep(p, _KEY, key)


def config_key(sigma: Config) -> tuple:
    key = getattr(sigma, _KEY, None)
    if key is not None:
        return key
    entries = tuple((x, expr_key(e)) for x, e in sigma.entries)
    if sigma.stack:
        key = ("stack", entries)
    else:
        key = ("store", tuple(sorted(entries)))  # names are distinct
    return _keep(sigma, _KEY, key)


def term_key(t) -> tuple:
    if isinstance(t, Expr):
        return ("expr", expr_key(t))
    if isinstance(t, BaseFormula):
        return ("fml", formula_key(t))
    if isinstance(t, Program):
        return ("prog", program_key(t))
    if isinstance(t, Config):
        return ("conf", config_key(t))
    raise TermError(f"term_key: not a term: {t!r}")


def terms_equal(a, b) -> bool:
    """Identity modulo arithmetic normalization and bound-variable names."""
    return term_key(a) == term_key(b)
