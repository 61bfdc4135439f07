"""Arithmetic validity oracles for base-formula sequents.

The bounded oracle decides ``/\\ Gamma -> \\/ Delta`` by exhaustive search over
a finite box per free variable.  It never answers ``Valid``: a pass is only
``BoundedValid``, and certificates carry that mode so a bounded run is never
mistaken for validity over the integers.  The grid cap (``max_points``) is
checked on the full box before anything else, so a sequent too large to scan
is ``Unknown`` however it would be decided.  A scan nests one loop per free
variable, and CPython compiles at most 20 nested loops, so an obligation that
is not total, or a group (below), with more free variables is not scanned:
it is ``Unknown`` unless another group decides it, and the reason names the
widest such group, whatever the order of the formulas.

A total obligation (every divisor a nonzero literal) is read as its
literals: an axiom (one literal on both sides), a closed literal false on the
left or true on the right (read from the value its nodes keep, see
``_closed_value``), or a closed sequent is decided without a scan.
The remaining literals fall into independent groups, which share no free
variable (constraint independence, as in KLEE).  The sequent's test is the
conjunction of its groups' tests, so its counterexamples are the product of
the groups' counterexamples: it is ``BoundedValid`` as soon as one group has
none, and otherwise its first counterexample in the lexicographic order of
the sorted names is made of each group's first one, because the least point
of a product of sets is the product of the least points, however the
groups' names interleave.  Each group is scanned on its own grid, by a scan
compiled once per *shape* (the group's literal keys with its free names
replaced by their positions among the group's sorted names) and kept in a
dict on the oracle instance for as long as it lives, one command-line run.
A literal's key and free names are kept on its node (see ``_literal``), so
a path condition carried by many guards is read once.  Since no literal of
a group can raise, the scan may evaluate them in any order: each literal is
tested in the outermost loop that binds all its free variables, and each
largest subterm over outer variables only is computed once, before the
loops that do not change it, into a temporary shared by equal subterms.  A
literal linear in that loop's variable (bounds propagation, as in Apt,
*Principles of Constraint Programming*, 2003) is no test at all but a bound
on the loop's range: ``0 <= v - m, v - m <= 0`` leaves one ``v``, ``v = m``,
where the box holds it.  The loops still visit the grid in the same order
and skip only points that a literal already decides, so the first
counterexample is unchanged.

The instance also keeps the verdict of each total sequent that no axiom or
closed literal decides, in a dict from the sequent's literal keys (a
frozenset per side) to the verdict, for as long as it lives, and answers
the same sets again from it without grouping or scanning (a query cache,
as in KLEE): in ``search`` each case split derives the step again from the
loop head, so the same guards are asked again.  The sets are enough.  A
key is its literal's whole structure, free names included; the closed
literals left out of it do not decide the sequent, so they cannot change
its verdict; the names, the groups, each group's first counterexample and
the widest group too wide to scan all follow from the sets, whatever the
order or the repeats of the formulas; and the box and the quantifier range
are the instance's own.  A sequent that is not total is never kept: which
division by zero it meets first depends on the order of its formulas.

Any other obligation is compiled as it stands into one Python loop nest over
the box (see ``_compile_scan``) that evaluates what ``terms.eval_bool``
would, in the same order and all in the innermost loop, so the first
division by zero is the scalar evaluator's: there the order decides which
error is met first, so nothing is moved.

The external SMT-LIB oracle is ``cycproof.smt``; only a run that names one
loads it.
"""

from __future__ import annotations

# the node classes, from the built-in module that ``ast`` re-exports them
# from: ``compile`` takes them as they are, and ``ast`` adds only helpers
# this module does not use, whose import every run would pay
import _ast as ast
from functools import partial

from . import parser
from .record import dataclass
from .terms import (
    AndF,
    BaseFormula,
    BinOp,
    DivisionByZero,
    Forall,
    Le,
    Lit,
    NotF,
    Refusal,
    TermError,
    Var,
    eval_bool,
    free_vars,
    truncated_div,
)


@dataclass(frozen=True)
class Valid:
    def __str__(self) -> str:
        return "valid"


@dataclass(frozen=True)
class BoundedValid:
    def __str__(self) -> str:
        return "bounded-valid"


@dataclass(frozen=True)
class Invalid:
    witness: tuple = ()  # ((name, value), ...)

    def witness_map(self) -> dict:
        return dict(self.witness)

    def __str__(self) -> str:
        inside = ", ".join(f"{x} = {v}" for x, v in self.witness)
        return f"invalid [{inside}]"


@dataclass(frozen=True)
class Unknown:
    reason: str = ""

    def __str__(self) -> str:
        return f"unknown ({self.reason})" if self.reason else "unknown"


def is_accepting(result) -> bool:
    return isinstance(result, (Valid, BoundedValid))


@dataclass
class Obligation:
    """One oracle call: the base sequent asked, the mode, and the verdict."""

    gamma: tuple
    delta: tuple
    mode: str
    verdict: object
    node: int | None = None

    def describe(self) -> str:
        left = ", ".join(parser.fml_src(f) for f in self.gamma) or "."
        right = ", ".join(parser.fml_src(f) for f in self.delta) or "."
        at = f" at node {self.node}" if self.node is not None else ""
        return f"[{self.mode}] {left} => {right} : {self.verdict}{at}"


class OracleUnavailable(Refusal):
    pass


MAX_SCAN_NAMES = 20  # CPython compiles at most 20 nested blocks in a function


def _unscannable(count: int) -> Unknown:
    return Unknown(f"{count} free variables exceed the scan's {MAX_SCAN_NAMES} nested loops")


class BoundedOracle:
    """Exhaustive check over a finite range per free variable."""

    mode = "bounded"

    def __init__(self, lo: int = -50, hi: int = 50, quantifier_range=None,
                 max_points: int = 4_000_000):
        if lo > hi:
            raise ValueError("empty range")
        self.lo = lo
        self.hi = hi
        self.quantifier_range = quantifier_range or (lo, hi)
        if self.quantifier_range[0] > self.quantifier_range[1]:
            raise ValueError("empty quantifier range")
        self.max_points = max_points
        self._scans: dict = {}  # group shape -> compiled scan (see _group_scan)
        self._verdicts: dict = {}  # a total sequent's literal key sets -> its verdict

    def valid_sequent(self, gamma, delta):
        gamma = tuple(gamma)
        delta = tuple(delta)
        literals = _total_literals(gamma, delta)
        if literals is None:
            names = sorted(set().union(*(free_vars(f) for f in gamma + delta)))
        else:
            names, left, right, decided = literals
        width = self.hi - self.lo + 1
        total = width ** len(names)
        if total > self.max_points:
            return Unknown(f"{total} grid points exceed the bounded-search cap")
        qlo, qhi = self.quantifier_range
        span, qspan = range(self.lo, self.hi + 1), range(qlo, qhi + 1)
        if literals is None:
            if len(names) > MAX_SCAN_NAMES:
                return _unscannable(len(names))
            try:
                values = _compile_scan(names, gamma, delta)(span, qspan)
            except DivisionByZero as exc:
                return Unknown(f"evaluation error: {exc}")
            return BoundedValid() if values is None else Invalid(tuple(zip(names, values)))
        # no evaluation can raise, so only the literals matter, in any order
        if decided:
            return BoundedValid()  # a closed literal false on the left or true on the right
        if not left.keys().isdisjoint(right):
            return BoundedValid()  # the axiom: one literal on both sides
        asked = frozenset(left), frozenset(right)
        verdict = self._verdicts.get(asked)
        if verdict is None:
            verdict = self._verdicts[asked] = self._decide(names, left, right, span, qspan)
        return verdict

    def _decide(self, names: list, left: dict, right: dict, span: range, qspan: range):
        """The verdict of a total sequent that no axiom or closed literal
        decides, from its literals (see ``_total_literals``)."""
        kept = []
        for side, found in enumerate((left, right)):
            for key, (phi, free) in found.items():
                if free:
                    kept.append((side, key, phi, free))
                elif eval_bool({}, phi, self.quantifier_range) == side:
                    return BoundedValid()  # a closed quantifier, decided the same way
        witness = {}
        unscanned = 0  # free variables of a group too wide to scan
        for group in _independent_groups(kept):
            group_names, scan = self._group_scan(group)
            if scan is None:
                unscanned = max(unscanned, len(group_names))  # the widest, whatever the order
                continue
            values = scan(span, qspan)
            if values is None:
                return BoundedValid()  # this group alone has no counterexample
            witness.update(zip(group_names, values))
        if unscanned:
            return _unscannable(unscanned)
        return Invalid(tuple((x, witness[x]) for x in names))

    def _group_scan(self, group: list):
        """``(names, scan)`` for a group of kept literals: its free variables
        sorted, and the compiled scan of the group's sequent over them, shared
        by every group of the same shape; ``None`` for a group too wide."""
        names = sorted(set().union(*(free for *_, free in group)))
        if len(names) > MAX_SCAN_NAMES:
            return names, None
        rank = {x: i for i, x in enumerate(names)}
        shape = tuple((side, template, tuple(rank[x] for x in occurs))
                      for side, (template, occurs), _, _ in group)
        scan = self._scans.get(shape)
        if scan is None:
            gamma = [phi for side, _, phi, _ in group if side == 0]
            delta = [phi for side, _, phi, _ in group if side == 1]
            scan = self._scans[shape] = _compile_scan(names, gamma, delta, total=True)
        return names, scan


# ---------------------------------------------------------------------------
# Literals of a total sequent
# ---------------------------------------------------------------------------
#
# A sequent is total when each of its divisions has a nonzero literal divisor:
# evaluating it cannot raise, so the order in which the scan evaluates its
# formulas cannot change the answer, and the sequent may be read as the
# literals it is built from.  ``!`` moves a formula to the other side and
# ``&&`` on the left splits into its conjuncts; ``&&`` on the right, ``<=`` and
# ``forall`` are literals.  A literal is identified by its structure, written
# out as a flat tuple, so comparing and hashing two deep literals needs no
# recursion.  The key is ``(template, occurs)``: the template lists each node's
# class, then its operator, value or bound name, in preorder, with ``None``
# where a free variable stands, and ``occurs`` names those free variables in
# the same order.  Renaming the free variables changes ``occurs`` only, which
# is what lets groups of the same shape share a compiled scan.
#
# Each literal node keeps ``(key, free)``, ``free`` a frozenset, or ``False``
# when it is not total, under an attribute name that is not a dataclass field
# (the pattern of ``canon._keep``), so a guard's path condition is read once
# and not again at every later obligation that carries it.
#
# A literal without variables or quantifiers is not keyed at all: it is
# decided by its value, which every ``<=``, ``!``, ``&&`` and arithmetic node
# keeps the same way (see ``_closed_value``).  Symbolic execution of a ground
# loop builds each store value on the last one (``n - 1 - 1 - ...``), so a
# guard's literal shares all but its top nodes with earlier guards, and its
# value costs those top nodes only.  ``forall`` keeps no value: it ranges over
# the oracle's quantifier range, which is not a property of the node, so a
# closed quantified literal is keyed and evaluated at each call.  A closed
# literal that sits on both sides is never needed as an axiom: its value,
# false or true, decides the sequent from one of the two sides.

_LITERAL = "_oracle_literal"
_VALUE = "_oracle_value"
_UNSET = object()  # the lookup default for a node that keeps no value yet


def _known(t):
    """The value ``t`` keeps, ``None`` when it has none, ``_UNSET`` when it
    has not been computed."""
    cls = type(t)
    if cls is Lit:
        return t.value
    if cls is BinOp or cls is Le or cls is AndF or cls is NotF:
        return getattr(t, _VALUE, _UNSET)
    return None  # a variable, a quantifier, or not a base-formula node


def _closed_value(phi):
    """The value of ``phi`` (``bool`` for a formula, ``int`` for an
    expression) when it has no variable, no quantifier and no division by
    anything but a nonzero literal, else ``None``; computed bottom-up with
    an explicit stack and kept on each node it visits."""
    value = _known(phi)
    if value is not _UNSET:
        return value
    todo = [phi]
    while todo:
        t = todo[-1]
        cls = type(t)
        if cls is NotF:
            body = _known(t.body)
            if body is _UNSET:
                todo.append(t.body)
                continue
            value = None if body is None else not body
        else:
            left = _known(t.left)
            if left is _UNSET:
                todo.append(t.left)
                continue
            right = None if left is None else _known(t.right)
            if right is _UNSET:
                todo.append(t.right)
                continue
            if right is None:
                value = None
            elif cls is Le:
                value = left <= right
            elif cls is AndF:
                value = left and right
            elif t.op == "+":
                value = left + right
            elif t.op == "-":
                value = left - right
            elif t.op == "*":
                value = left * right
            elif type(t.right) is Lit and right != 0:
                value = truncated_div(left, right)
            else:
                value = None  # not total: the divisor is not a nonzero literal
        object.__setattr__(t, _VALUE, value)  # the term classes are frozen
        todo.pop()
    return value


def _literal(phi):
    """``(key, free)`` for the literal ``phi``, ``free`` the frozenset of its
    free variables, or ``False`` when it has a division by something other
    than a nonzero literal, or a node that is not a base-formula or
    expression node."""
    if not isinstance(phi, BaseFormula):
        return False
    found = getattr(phi, _LITERAL, None)
    if found is not None:
        return found
    template = []
    occurs = []
    todo = [(phi, ())]
    while todo:
        t, bound = todo.pop()
        cls = type(t)
        template.append(cls)
        if cls is BinOp:
            if t.op == "/" and (type(t.right) is not Lit or t.right.value == 0):
                found = False
                break
            template.append(t.op)
            todo += ((t.right, bound), (t.left, bound))
        elif cls is Var:
            if t.name in bound:
                template.append(t.name)
            else:
                template.append(None)
                occurs.append(t.name)
        elif cls is Lit:
            template.append(t.value)
        elif cls is Le or cls is AndF:
            todo += ((t.right, bound), (t.left, bound))
        elif cls is NotF:
            todo.append((t.body, bound))
        elif cls is Forall:
            template.append(t.var)
            todo.append((t.body, bound + (t.var,)))
        else:
            found = False
            break
    else:
        found = ((tuple(template), tuple(occurs)), frozenset(occurs))
    object.__setattr__(phi, _LITERAL, found)  # the term classes are frozen
    return found


def _total_literals(gamma: tuple, delta: tuple):
    """``(names, left, right, decided)`` for the sequent ``gamma => delta``:
    its free variables sorted, the literals of each side that have a
    variable or a quantifier as a dict from a literal's key to ``(literal,
    free)``, in order of first occurrence, and whether a literal decided by
    its value is false on the left or true on the right; ``None`` when the
    sequent is not total."""
    names = set()
    sides = ({}, {})
    decided = False
    todo = [(f, 1) for f in reversed(delta)] + [(f, 0) for f in reversed(gamma)]
    while todo:
        phi, side = todo.pop()
        if type(phi) is NotF:
            todo.append((phi.body, 1 - side))
        elif type(phi) is AndF and side == 0:
            todo += ((phi.right, 0), (phi.left, 0))
        else:
            found = getattr(phi, _LITERAL, None)  # read first: most literals are met again
            if found is None:
                value = _closed_value(phi)
                if type(value) is bool:  # an int is an expression, which _literal refuses
                    decided = decided or value == side
                    continue
                found = _literal(phi)
            if not found:
                return None
            key, free = found
            names |= free
            sides[side].setdefault(key, (phi, free))
    return sorted(names), *sides, decided


def _independent_groups(kept: list) -> list:
    """The literals of ``kept`` (each ``(side, key, literal, free)``, ``free``
    not empty) in groups that share no free variable, joined by union-find
    over the names.  Groups and the literals in each keep the order of
    ``kept``."""
    parent: dict = {}  # a name -> a name of its group; a root is not a key

    def find(x):
        while x in parent:
            up = parent[x]
            parent[x] = parent.get(up, up)  # path halving
            x = up
        return x

    for *_, free in kept:
        first, *rest = free
        root = find(first)
        for y in rest:
            other = find(y)
            if other != root:
                parent[other] = root
    groups: dict = {}
    for literal in kept:
        groups.setdefault(find(next(iter(literal[3]))), []).append(literal)
    return list(groups.values())


# ---------------------------------------------------------------------------
# The bounded scan, compiled
# ---------------------------------------------------------------------------
#
# ``_compile_scan`` turns one obligation, or one independent group of a
# total obligation's literals, into one Python loop nest over the box, with
# the i-th free variable (in sorted-name order) as ``_v<i>`` and the variable
# of a quantifier nested d deep as ``_b<d>``, so the loops visit the grid in
# the lexicographic order of the sorted names.  Only generated names and the
# literals' integer values reach the compiler: no text of the user's is
# parsed, and a variable named ``and`` or ``all`` cannot collide with Python.
# The tree is built with positions already set, because
# ``ast.fix_missing_locations`` recurses once per level and deep terms would
# exhaust the stack there first.
#
# The body of the loop over ``_v<i>`` is *level* i, and the function's body
# before the first loop is level -1.  A test sits at one level, as
# ``<its Gamma joined by and> and not (<its Delta joined by or>)``, either
# half left out when it has no member, and the rest of the level's body runs
# only where it holds, so a point that fails it skips the whole rest of that
# iteration; the innermost level returns the point.  An obligation that is
# not total is tested in one piece at the innermost level, with nothing
# computed ahead:
#
#     def _scan(_span, _qspan):
#         for _v0 in _span:
#             for _v1 in _span:
#                 if <Gamma joined by and> and not (<Delta joined by or>):
#                     return (_v0, _v1)
#
# Python's ``and``, ``or`` and ``not`` short-circuit exactly where
# ``eval_bool`` does, and its operands are evaluated left to right as
# ``evaluate`` does, so the first counterexample and the first unmasked
# division by zero are the ones the scalar evaluator meets.
#
# The literals of a total group cannot raise, so the order in which they and
# their subterms are evaluated cannot change the answer, and each is placed
# where it costs least (loop-invariant code motion).  A literal is tested at
# the outermost level where all its free variables are bound: the highest
# rank in its ``free`` set.  A maximal arithmetic subterm whose variables are
# all bound at a shallower level than the literal that uses it (``-1`` when
# it has none, and never when it mentions a quantified variable) is computed
# once at that level, into a temporary ``_h<k>`` assigned after the level's
# own test; a hoisted subterm hoists its own shallower subterms the same way.
# For ``0 <= v - m, v - m <= 0 => w + 6 * ((2 * v - m + 1) * m / 2) <= ...``
# over ``m, v, w``, with every literal a test, that gives:
#
#         for _v0 in _span:
#             for _v1 in _span:
#                 if 0 <= _v1 - _v0 and _v1 - _v0 <= 0:
#                     _h0 = 6 * _tdiv((2 * _v1 - _v0 + 1) * _v0, 2)
#                     for _v2 in _span:
#                         if not _v2 + _h0 <= ...:
#                             return (_v0, _v1, _v2)
#
# A literal at level i whose ``right - left`` is ``c * _v<i> + r``, with a
# nonzero integer ``c`` and ``r`` over outer variables only (``_linear``),
# keeps the values of ``_v<i>`` on one side of ``-r / c``: a Gamma literal
# those where it holds, ``c * _v<i> + r >= 0``, and a Delta literal those
# where it fails, ``c * _v<i> + r <= -1``.  It is then no test but a bound,
# rounded inwards exactly with ``//``, on the loop's range, which becomes
# ``range(max(_span[0], <lower bounds>), min(_span[-1], <upper bounds>) +
# 1)``, computed where the loop starts.  A Delta ``&&`` fails where any of
# its conjuncts fails, so ``&&`` of half-lines in one direction is the one
# half-line of the weakest of their bounds, through ``max`` or ``min``; in
# both directions it is no interval and stays a test, as do a ``forall`` and
# a literal not linear in its loop's variable, or in which it cancels.  The
# example above becomes:
#
#         for _v0 in _span:
#             for _v1 in range(max(_span[0], _v0), min(_span[-1], _v0) + 1):
#                 _h0 = 6 * _tdiv((2 * _v1 - _v0 + 1) * _v0, 2)
#                 for _v2 in _span:
#                     if not _v2 + _h0 <= ...:
#                         return (_v0, _v1, _v2)
#
# The loops and their order are unchanged, and a test or a bound skips only
# points where some literal already decides the group's test, so the first
# point returned is the one the ordered scan returns.  Structurally equal
# subterms share one temporary: a subterm's key is its operators and
# constants with each variable replaced by its generated name, which is its
# rank or its quantifier depth, so no user name and no printed text enters
# the key.
#
# Since free names become ``_v<i>`` by their rank and bound names ``_b<d>`` by
# their depth, the code depends only on the group's shape, which
# ``BoundedOracle._group_scan`` uses as the key of its cache: the literals in
# order, each as its side, its key's template (operators, constants and
# bound names) and the ranks of its free occurrences.  Two groups that differ
# only in the names of their free variables share one compiled scan, and each
# maps the scan's point back to its own names.  The cache holds one function
# per shape met, and lives with the oracle instance.  An obligation that is
# not total is still compiled whole at each call.

_AT = {"lineno": 1, "col_offset": 0}  # end positions are optional
_ARITH = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult}


def _name(identifier: str, ctx=ast.Load) -> ast.Name:
    return ast.Name(identifier, ctx(), **_AT)


def _arith_ast(op: str, left: ast.expr, right: ast.expr) -> ast.expr:
    if op == "/":
        return ast.Call(_name("_tdiv"), [left, right], [], **_AT)
    return ast.BinOp(left, _ARITH[op](), right, **_AT)


class _Temporaries:
    """The subterms one scan computes ahead of the literals that use them: a
    temporary per distinct key, and its assignment at its level.  Nothing is
    computed ahead of a literal tested at level -1, the ordered scan's."""

    def __init__(self, count: int):
        self.levels = {f"_v{i}": i for i in range(count)}
        self.bound = count  # a quantified variable's level: below every loop
        self.names: dict = {}  # a subterm's key -> its temporary
        self.assigns = [[] for _ in range(count + 1)]  # level -1, 0, 1, ...

    def term(self, e, scope: dict, here: int) -> ast.expr:
        """The code of ``e`` in a literal tested at level ``here``."""
        return self._code(self._plan(e, scope), here)

    def _plan(self, e, scope: dict) -> tuple:
        """``(level, key, parts)`` for ``e``: the deepest level of its
        variables, its key, and ``(op, left plan, right plan)`` for a
        ``BinOp`` (``None`` for a leaf, whose key is its value or name)."""
        if isinstance(e, Lit):
            return -1, e.value, None
        if isinstance(e, Var):
            name = scope[e.name]
            return self.levels.get(name, self.bound), name, None
        if isinstance(e, BinOp):
            left = self._plan(e.left, scope)
            right = self._plan(e.right, scope)
            return max(left[0], right[0]), (e.op, left[1], right[1]), (e.op, left, right)
        raise TermError(f"evaluate: not an expression: {e!r}")

    def _code(self, plan: tuple, here: int) -> ast.expr:
        level, key, parts = plan
        if parts is None:
            return _name(key) if type(key) is str else ast.Constant(key, **_AT)
        if level < here:
            temp = self.names.get(key)
            if temp is None:
                value = self._code(plan, level)
                temp = self.names[key] = f"_h{len(self.names)}"
                self.assigns[level + 1].append(
                    ast.Assign([_name(temp, ast.Store)], value, **_AT))
            return _name(temp)
        op, left, right = parts
        return _arith_ast(op, self._code(left, here), self._code(right, here))


def _fml_ast(phi, scope: dict, depth: int, term) -> ast.expr:
    if isinstance(phi, Le):
        left = term(phi.left, scope)
        return ast.Compare(left, [ast.LtE()], [term(phi.right, scope)], **_AT)
    if isinstance(phi, NotF):
        return ast.UnaryOp(ast.Not(), _fml_ast(phi.body, scope, depth, term), **_AT)
    if isinstance(phi, AndF):
        left = _fml_ast(phi.left, scope, depth, term)
        return ast.BoolOp(ast.And(), [left, _fml_ast(phi.right, scope, depth, term)], **_AT)
    if isinstance(phi, Forall):
        bound = f"_b{depth}"
        body = _fml_ast(phi.body, {**scope, phi.var: bound}, depth + 1, term)
        loop = ast.comprehension(_name(bound, ast.Store), _name("_qspan"), [], 0)
        return ast.Call(_name("all"), [ast.GeneratorExp(body, [loop], **_AT)], [], **_AT)
    raise TermError(f"eval_bool: not a base formula: {phi!r}")


def _join(op, values: list) -> ast.expr:
    return values[0] if len(values) == 1 else ast.BoolOp(op, values, **_AT)


def _mentions(e, var: str) -> bool:
    """Whether the expression ``e`` has the variable ``var``."""
    todo = [e]
    while todo:
        t = todo.pop()
        if type(t) is BinOp:
            todo += (t.right, t.left)
        elif type(t) is Var and t.name == var:
            return True
    return False


def _linear(phi: Le, var: str):
    """``(c, parts, const)`` when ``phi.right - phi.left`` is ``c * var +
    sum(k * t for k, t in parts) + const``, with integers ``c``, ``k`` and
    ``const`` and subterms ``t`` that do not mention ``var``; ``None`` when
    it is not linear in ``var`` with a constant coefficient.  Read with an
    explicit stack, as ``_literal`` reads, and a variable's parts merged."""
    c, const, named, rest = 0, 0, {}, []
    todo = [(phi.left, -1), (phi.right, 1)]
    while todo:
        t, k = todo.pop()
        cls = type(t)
        if cls is Lit:
            const += k * t.value
        elif cls is Var:
            if t.name == var:
                c += k
            else:
                named[t.name] = named.get(t.name, (0, t))[0] + k, t
        elif t.op == "+" or t.op == "-":
            todo += ((t.right, k if t.op == "+" else -k), (t.left, k))
        elif t.op == "*" and type(t.left) is Lit:
            todo.append((t.right, k * t.left.value))
        elif t.op == "*" and type(t.right) is Lit:
            todo.append((t.left, k * t.right.value))
        elif _mentions(t, var):
            return None  # var times a variable, or var under a division
        else:
            rest.append((k, t))
    return c, [*named.values(), *rest], const


def _half_line(phi, var: str, side: int):
    """``(upper, forms)`` when the literal ``phi`` of a total group, on
    ``side``, keeps (holds on the left, fails on the right) exactly the
    values of ``var`` up to a bound (``upper``) or from one; ``None``
    otherwise.  Each of ``forms`` is a linear form ``(c, parts, const)``
    (see ``_linear``), all with ``c`` of one sign, and the values kept are
    those where some form is at least 0: a Delta ``&&`` fails where any
    conjunct fails.  A ``forall`` is never read."""
    conjuncts, todo = [], [phi]
    while todo:
        t = todo.pop()
        if type(t) is AndF and side == 1:
            todo += (t.right, t.left)
        else:
            conjuncts.append(t)
    forms = []
    for t in conjuncts:
        found = type(t) is Le and _linear(t, var)
        if not found or not found[0]:
            return None
        c, parts, const = found
        if side == 1:  # a Delta literal is kept where it fails: -d - 1 >= 0
            c, parts, const = -c, [(-k, e) for k, e in parts], -1 - const
        forms.append((c, parts, const))
    upper = forms[0][0] < 0
    if any((c < 0) != upper for c, _, _ in forms):
        return None  # half-lines in both directions: their union is no interval
    return upper, forms


def _sum_ast(parts: list, const: int, code) -> ast.expr:
    """The code of ``sum(k * t for k, t in parts) + const``."""
    node = None
    for k, t in parts:
        if k == 0:
            continue
        term = code(t)
        if abs(k) != 1:
            term = ast.BinOp(ast.Constant(abs(k), **_AT), ast.Mult(), term, **_AT)
        if node is None:
            node = term if k > 0 else ast.UnaryOp(ast.USub(), term, **_AT)
        else:
            node = ast.BinOp(node, ast.Add() if k > 0 else ast.Sub(), term, **_AT)
    if node is None:
        return ast.Constant(const, **_AT)
    if const:
        step = ast.Add() if const > 0 else ast.Sub()
        node = ast.BinOp(node, step, ast.Constant(abs(const), **_AT), **_AT)
    return node


def _bound_ast(upper: bool, forms: list, code) -> ast.expr:
    """The code of the bound on ``var`` from ``_half_line``: where ``c * var
    + r >= 0``, ``var >= ceil(-r / c)`` for ``c > 0`` and ``var <= floor(r /
    -c)`` for ``c < 0``, exact with ``//``; the largest upper bound or the
    least lower one of several forms."""
    bounds = []
    for c, parts, const in forms:
        if c == 1:
            bound = _sum_ast([(-k, t) for k, t in parts], -const, code)
        elif c == -1:
            bound = _sum_ast(parts, const, code)
        else:
            bound = ast.BinOp(_sum_ast(parts, const, code), ast.FloorDiv(),
                              ast.Constant(abs(c), **_AT), **_AT)
            if c > 0:  # ceil(-r / c) = -(r // c)
                bound = ast.UnaryOp(ast.USub(), bound, **_AT)
        bounds.append(bound)
    if len(bounds) == 1:
        return bounds[0]
    return ast.Call(_name("max" if upper else "min"), bounds, [], **_AT)


def _subscript(name: str, index: int) -> ast.expr:
    return ast.Subscript(_name(name), ast.Constant(index, **_AT), ast.Load(), **_AT)


def _loop_range(lows: list, highs: list) -> ast.expr:
    """The values a loop visits: ``_span``, or the part of it within
    ``lows`` and ``highs``, in the same order."""
    if not lows and not highs:
        return _name("_span")
    lo, hi = _subscript("_span", 0), _subscript("_span", -1)
    start = ast.Call(_name("max"), [lo, *lows], [], **_AT) if lows else lo
    stop = ast.Call(_name("min"), [hi, *highs], [], **_AT) if highs else hi
    stop = ast.BinOp(stop, ast.Add(), ast.Constant(1, **_AT), **_AT)
    return ast.Call(_name("range"), [start, stop], [], **_AT)


def _compile_scan(names: list, gamma: tuple, delta: tuple, total: bool = False):
    """``scan(span, qspan)``: the first grid point (one value per name of
    ``names``, the sequent's free variables in sorted order, each over
    ``span``) at which every member of ``gamma`` holds and none of ``delta``
    does, or ``None``; bounded quantifiers range over ``qspan``.  With
    ``total``, the members are literals of a total group (see ``_literal``),
    each tested at its own level with its subterms placed ahead of it, or
    bounding that level's loop when it is linear in the loop's variable."""
    scope = {x: f"_v{i}" for i, x in enumerate(names)}
    rank = {x: i for i, x in enumerate(names)}
    temporaries = _Temporaries(len(names))
    tests = [([], []) for _ in range(len(names) + 1)]  # level -1, 0, 1, ...
    bounds = [([], []) for _ in names]  # each loop's lower and upper bounds
    for side, formulas in enumerate((gamma, delta)):
        for phi in formulas:
            if total:
                level = here = max(rank[x] for x in _literal(phi)[1])
                found = _half_line(phi, names[level], side)
                if found is not None:  # a bound, computed where the loop starts
                    code = partial(temporaries.term, scope=scope, here=level - 1)
                    bounds[level][found[0]].append(_bound_ast(*found, code))
                    continue
            else:
                level, here = len(names) - 1, -1  # nothing computed ahead
            term = partial(temporaries.term, here=here)
            tests[level + 1][side].append(_fml_ast(phi, scope, 0, term))
    body = [ast.Return(ast.Tuple([_name(v) for v in scope.values()], ast.Load(), **_AT),
                       **_AT)]
    for level in reversed(range(-1, len(names))):
        body = temporaries.assigns[level + 1] + body
        holds, fails = tests[level + 1]
        if fails:
            holds = holds + [ast.UnaryOp(ast.Not(), _join(ast.Or(), fails), **_AT)]
        if holds:
            body = [ast.If(_join(ast.And(), holds), body, [], **_AT)]
        if level >= 0:
            body = [ast.For(_name(f"_v{level}", ast.Store), _loop_range(*bounds[level]),
                            body, [], **_AT)]
    params = ast.arguments([], [ast.arg("_span", **_AT), ast.arg("_qspan", **_AT)],
                           None, [], [], None, [])
    scan = ast.FunctionDef("_scan", params, body, [], None, **_AT)
    namespace = {"_tdiv": truncated_div}
    exec(compile(ast.Module([scan], []), "<bounded-oracle>", "exec"), namespace)
    # popped, so the function and its globals do not form a cycle
    return namespace.pop("_scan")


def check_obligation(oracle, gamma, delta, node=None) -> Obligation:
    result = oracle.valid_sequent(gamma, delta)
    return Obligation(tuple(gamma), tuple(delta), oracle.mode, result, node)
