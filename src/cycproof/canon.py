"""Canonical forms for deciding term identity modulo arithmetic.

Sequent identity (rule side conditions, backlink matching) must recognize
that ``v - 0`` and ``v`` denote the same integer everywhere, and likewise
``((2*v - m + 1) * m) / 2 + (v - m)`` and ``((2*v - (m + 1) + 1) * (m + 1)) / 2``.
Expressions are normalized to polynomials with rational coefficients over
"atoms" (variables plus opaque division nodes), kept as integer numerators
over one normalised denominator, so all arithmetic is on ints.

Division is simplified only when it is provably exact: ``P / c`` for a
nonzero integer constant ``c`` becomes a polynomial exactly when ``c``
divides ``P`` at every integer point, which is decided by testing ``P`` on
the finite grid ``{0..deg_i}`` per variable (the binomial-basis coefficients
of ``P`` are integer combinations of those grid values and vice versa).  The
grid runs on the integer numerators of ``P``.  In the exact case truncated
division agrees with rational division, so the rewrite is sound for the
truncating evaluator.  Every other division stays an opaque atom keyed by the
canonical forms of its operands.

``key`` is the one key of every sort of term: programs, bodies, labeled
formulas, judgments, store-heap states, heap statements and heap formulas.
It keys a record as its tag and the keys of its fields, by a function
made for the record's class on first use.  Only three sorts have keys of their own: an
expression its polynomial's (``expr_key``), a base formula ``formula_key``,
and a store ``config_key``, whose entries are sorted by name, as a store's
order means nothing (a stack keeps its order).  A missing factor keys as
``()``.  ``formula_key`` names the variable bound by the ``i``-th enclosing
quantifier ``#i``: ``#`` starts no token, so no variable the parser reads
shares that name.

Keys are made of strs, ints and tuples only, and every variant of a key
starts with a tag of its own (``"le"``/``"not"``/``"and"``/``"forall"``,
``"v"``/``"div"``, ``"store"``/``"stack"``/``"sepstate"``, ...), so two keys
of one kind never hold values of different types at the first position where
they differ.  Monomials, polynomial keys, stores and the sides of a sequent
are therefore sorted by Python's own tuple order, without printing anything.

Known hole: a key forgets divisions that may fault.  Two occurrences of
the same opaque division atom cancel, so ``x/y <= x/y`` and ``0 <= 0`` get
one key even though the former faults at ``y = 0``, and a product with a
zero factor drops its atoms, so ``1 <= x / y + 0 * (z / w)`` gets the key of
``1 <= x / y``.  ``ax`` matches no formula that holds a division by
anything but a nonzero literal (``kernel.ax_pair``), so
``1 <= x / y => 1 <= x / y + 0 * (z / w)`` ends ``Stuck`` under it.
``sub`` and back-links refuse to identify two formulas, or two sides,
whose such divisions differ (``kernel._unmatched_division``), so neither
takes ``0 <= 0`` for ``x / y <= x / y``.  What stays open is ROADMAP item
1's repair: keys that carry their possibly-zero divisors, and definedness
obligations that recover the proofs with ``y != 0`` in the context.
"""

from __future__ import annotations

from itertools import product
from math import gcd, lcm

from .record import fields, getter
from .terms import (
    AndF,
    BaseFormula,
    BinOp,
    Config,
    Expr,
    Forall,
    Le,
    Lit,
    NotF,
    Program,
    TermError,
    Var,
    substitute,
    truncated_div,
)

# A polynomial is a pair ``(den, nums)``: ``nums`` maps each monomial to an
# int numerator, and the coefficient of a monomial is ``nums[m] / den``.
# ``den >= 1``, no numerator is 0, and ``den`` has no factor common to all
# numerators (Knuth's content and primitive part), so equal polynomials are
# equal pairs and integer polynomials have ``den == 1``.  A monomial is a
# sorted tuple of (atom, exponent) pairs and an atom is a nested key of
# tuples, strs and ints: ("v", name) or ("div", poly_key(dividend),
# poly_key(divisor)).

_GRID_LIMIT = 4096


def _normal(den: int, nums: dict) -> tuple:
    """``(den, nums)`` divided by its content."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            return den // g, {m: c // g for m, c in nums.items()}
    return den, nums


def _mono_mul(m1: tuple, m2: tuple) -> tuple:
    if not m1 or not m2:  # a constant factor
        return m1 or m2
    powers: dict = {}
    for atom, k in m1 + m2:
        powers[atom] = powers.get(atom, 0) + k
    return tuple(sorted((a, k) for a, k in powers.items() if k))


def _add(p1: tuple, p2: tuple, sign: int = 1) -> tuple:
    """``p1 + sign * p2``."""
    d1, n1 = p1
    d2, n2 = p2
    if d1 == d2:
        den = d1
        out = dict(n1)
        scale = sign
    else:
        den = lcm(d1, d2)
        scale = den // d1
        out = {m: c * scale for m, c in n1.items()}
        scale = sign * (den // d2)
    for mono, c in n2.items():
        c2 = out.get(mono, 0) + c * scale
        if c2:
            out[mono] = c2
        else:
            out.pop(mono, None)
    return _normal(den, out)


def _mul(p1: tuple, p2: tuple) -> tuple:
    out: dict = {}
    for m1, c1 in p1[1].items():
        for m2, c2 in p2[1].items():
            mono = _mono_mul(m1, m2)
            c = out.get(mono, 0) + c1 * c2
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
    return _normal(p1[0] * p2[0], out)


def _constant_of(p: tuple) -> int | None:
    """The value of ``p`` if it is an integer constant, else None."""
    den, nums = p
    if den != 1:
        return None
    if not nums:
        return 0
    if len(nums) == 1:
        return nums.get(())
    return None


def poly_key(p: tuple) -> tuple:
    # each coefficient as (numerator, denominator) in lowest terms; the
    # monomials are distinct, so the sort never reaches the coefficients
    den, nums = p
    if den == 1:
        return tuple(sorted((m, (c, 1)) for m, c in nums.items()))
    out = []
    for m, c in nums.items():
        g = gcd(c, den)
        out.append((m, (c // g, den // g)))
    return tuple(sorted(out))


def _try_exact_div(p: tuple, c: int) -> tuple | None:
    """``p / c`` as a polynomial if ``c`` divides ``p`` at every integer point.

    The grid runs on the numerators: ``p / c`` is an integer at a point
    exactly when ``den * p`` is a multiple of ``den * c`` there.
    """
    den, nums = p
    degree: dict = {}  # atom -> highest exponent
    for mono in nums:
        for atom, k in mono:
            if k > degree.get(atom, 0):
                degree[atom] = k
    size = 1
    for d in degree.values():
        size *= d + 1
        if size > _GRID_LIMIT:
            return None
    column = {atom: i for i, atom in enumerate(degree)}
    terms = [(coeff, tuple((column[atom], k) for atom, k in mono))
             for mono, coeff in nums.items()]
    modulus = den * c
    for point in product(*(range(d + 1) for d in degree.values())):
        val = 0
        for coeff, mono in terms:
            for i, k in mono:
                coeff *= point[i] ** k
            val += coeff
        if val % modulus:
            return None
    if c < 0:
        c = -c
        nums = {m: -coeff for m, coeff in nums.items()}
    return _normal(den * c, nums)


# Each term node keeps its canonical form once computed, under an attribute
# name that is not a dataclass field, so ``==``, ``hash`` and ``repr`` ignore
# it.  A node's keys live as long as the node: nothing is kept at module
# level.  The cached polynomials are shared and never mutated (``_add``,
# ``_mul`` and ``_try_exact_div`` write only to dicts they build).  Each
# function looks its slot up itself rather than through a wrapper, so a
# level of the term still costs one stack frame.

_POLY = "_canon_poly"  # canon_expr on an Expr
_KEY = "_key"  # key, and formula_key at depth 0


def _keep(term, slot: str, value):
    """``value``, stored on ``term`` under ``slot``."""
    object.__setattr__(term, slot, value)  # the term classes are frozen
    return value


def canon_expr(e: Expr) -> tuple:
    poly = getattr(e, _POLY, None)
    if poly is not None:
        return poly
    if isinstance(e, BinOp):
        poly = _binop_poly(e.op, canon_expr(e.left), canon_expr(e.right))
    elif isinstance(e, Lit):
        poly = _constant_poly(e.value)
    elif isinstance(e, Var):
        poly = (1, {((("v", e.name), 1),): 1})
    else:
        raise TermError(f"canon_expr: not an expression: {e!r}")
    return _keep(e, _POLY, poly)


def _constant_poly(value: int) -> tuple:
    return (1, {(): value} if value else {})


def _binop_poly(op: str, left: tuple, right: tuple) -> tuple:
    if op == "+":
        return _add(left, right)
    if op == "-":
        return _add(left, right, -1)
    if op == "*":
        return _mul(left, right)
    cr = _constant_of(right)
    if cr:
        cl = _constant_of(left)
        if cl is not None:
            return _constant_poly(truncated_div(cl, cr))
        exact = _try_exact_div(left, cr)
        if exact is not None:
            return exact
    atom = ("div", poly_key(left), poly_key(right))
    return (1, {((atom, 1),): 1})


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
        diff = _add(canon_expr(phi.right), canon_expr(phi.left), -1)
        key = ("le", poly_key(diff))
    elif isinstance(phi, NotF):
        key = ("not", formula_key(phi.body, depth))
    elif isinstance(phi, AndF):
        key = ("and", formula_key(phi.left, depth), formula_key(phi.right, depth))
    elif isinstance(phi, Forall):
        marker = f"#{depth}"  # no name the parser reads: "#" starts no token
        body = substitute(phi.body, {phi.var: Var(marker)}, frozenset((phi.var,)))
        key = ("forall", formula_key(body, depth + 1))
    else:
        raise TermError(f"formula_key: not a base formula: {phi!r}")
    return _keep(phi, _KEY, key) if depth == 0 else key


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


class _Keyers(dict):
    """class -> the function that keys its instances.  A record class's
    is made on its first use (``_record_keyer``) and kept."""

    def __missing__(self, cls):
        keyer = self[cls] = _record_keyer(cls)
        return keyer


_KEYERS = _Keyers({
    Lit: expr_key, Var: expr_key, BinOp: expr_key,
    Le: formula_key, NotF: formula_key, AndF: formula_key, Forall: formula_key,
    Config: config_key,
    str: lambda name: name, int: lambda value: value,
    type(None): lambda _: (),  # a missing factor
    tuple: lambda parts: tuple(map(key, parts)),
})


def key(t) -> tuple:
    """The canonical key of ``t``: a term of any sort, or a part of one."""
    found = getattr(t, _KEY, None)
    return _KEYERS[type(t)](t) if found is None else found


def _record_keyer(cls):
    """The keyer of the record class ``cls``: its tag, then the keys of its
    fields.  The tag is the class name in lower case, without the one-letter
    prefix of a formula sort (``BNot``, ``DNot`` and ``SNot`` are all
    ``"not"``).  A ``"not"`` or ``"and"`` over operands that key as base
    formulas keys as that base formula's connective, so the two ways to
    write it have one identity.  As ``record`` builds ``__init__``, the
    keyer's code reads each field by name and is compiled once per field
    layout, so a level of the term costs one stack frame, as above."""
    if getter(cls) is None:
        raise TermError(f"key: not a term: {cls.__qualname__}")
    name = cls.__name__
    tag = (name[1:] if name[1:2].isupper() else name).lower()
    parts = [(f"k{i}", f.name) for i, f in enumerate(fields(cls))]
    made = f"(tag, {''.join(f'{k}, ' for k, _ in parts)})"
    if tag in ("not", "and"):
        base = " and ".join(f'{k}[0] == "base"' for k, _ in parts)
        made = f"(\"base\", (tag, {''.join(f'{k}[1], ' for k, _ in parts)})) if {base} else {made}"
    src = "\n".join([
        "def __create__(tag, keyers, _keep, _KEY):",
        "  def keyer(t):",
        "    key = getattr(t, _KEY, None)",
        "    if key is None:",
        *(f"      {k} = keyers[type(t.{field})](t.{field})" for k, field in parts),
        f"      key = _keep(t, _KEY, {made})",
        "    return key",
        "  return keyer",
    ])
    create = _CREATORS.get(src)
    if create is None:
        ns: dict = {}
        exec(src, {}, ns)
        create = _CREATORS[src] = ns["__create__"]
    return create(tag, _KEYERS, _keep, _KEY)


# generated source -> the function that makes its keyer, so record classes
# with the same field names share one compile; a pure memo
_CREATORS: dict = {}


program_key = key  # the name whilelang calls, and perfbench/tracing.py patches


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
