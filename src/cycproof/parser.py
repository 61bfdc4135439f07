"""Concrete syntax: tokenizer, recursive-descent parsers, and printers.

Grammar (whitespace-insensitive)::

    expr   ::= INT | IDENT | "-" expr | expr ("+"|"-"|"*"|"/") expr | "(" expr ")"
    fml    ::= expr ("<="|"<"|"=="|"!="|">="|">") expr | "!" fml | fml "&&" fml
             | fml "||" fml | fml "->" fml | "forall" IDENT "." fml
             | "true" | "false" | "(" fml ")"
    prog   ::= IDENT ":=" expr | prog ";" prog
             | "if" fml "then" prog "else" prog "end"
             | "while" fml "do" prog "end" | "skip" | "(" prog ")"
             | IDENT ":=" "cons" "(" expr ")" | IDENT ":=" "[" expr "]"
             | "[" expr "]" ":=" expr | "dispose" "(" expr ")"
    config ::= "{" [IDENT "->" expr ("," IDENT "->" expr)*] "}"      (store)
             | "{" IDENT "->" expr ("|" IDENT "->" expr)+ "}"        (stack)
    dlp    ::= fml | config ":" body | "!" dlp | dlp "&&" dlp
             | dlp "||" dlp | dlp "->" dlp | "(" dlp ")"
    body   ::= "[" prog "]" body | "<" prog ">" body | "!" body
             | "(" bodyc ")" | fml-atom                    (bodyc adds &&/||/->)
    seq    ::= [dlp ("," dlp)*] "=>" [dlp ("," dlp)*]      ("." = empty side)

Derived connectives normalize to the core on the way in; the printers emit
only core connectives plus the relation sugar that reparses to the same
tree, so ``parse(print(t)) == t``.  The termination judgment
``config : prog ⇓ factor`` is printed, for dumps and error messages, but has
no input syntax.
"""

from __future__ import annotations

import re

from . import sep as _sep
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
    DTer,
    Sequent,
)
from .terms import (
    EPSILON,
    FALSE,
    SKIP,
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
    TRUE,
    Var,
    While,
    eq,
    ge,
    gt,
    imp_f,
    lt,
    ne,
    or_f,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*'*)
  | (?P<op>:=|<=|>=|==|!=|=>|->|&&|\|\||[-+*/(){}\[\],;:.<>!|?@]|ε)
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "if", "then", "else", "end", "while", "do", "forall",
    "skip", "true", "false", "cons", "dispose", "eps",
}

# The parsers, and the term functions after them, recurse once or more per
# bracket level and per prefix operator, so deeper input would exhaust
# Python's stack (about 200 levels of parentheses around a formula did, and
# 1200 ``!`` in a row).  A token's nesting counts the open brackets and the
# prefix operators (``!`` and unary ``-``) that lead up to it; past
# MAX_NESTING the input is a parse error instead.  A sequence ``p1 ; p2 ; ...``
# nests one level per ``;`` in the term functions too, so an input may join
# at most MAX_SEQUENCE statements (1000 did not fit, 200 do).  The parser
# builds a chain ``a + b + ...`` or ``a && b && ...`` in a loop, but the term
# nests one level per operator, three per ``||`` or ``->`` (each stands for a
# ``!``, a ``&&`` and a ``!``) and one per ``==`` or ``!=`` (each stands for a
# ``&&``, which its printed form shows), so an input's binary operators may
# build at most MAX_CHAIN levels (1200 ``+`` did not fit; a configuration's ``->``
# maps a variable and builds none).  Input at each cap must still parse and
# print 100 frames below a test runner's own: the formula parser spends five
# frames per ``!(`` level, and 160 levels fit with about 45 frames to spare.
#
# What is accepted must also read back once printed.  The printers write
# ``a || b`` as ``!(!(a) && !(b))`` and ``a -> b`` as ``!(a && !(b))``, so in
# a chain of n such operators the first operand of ``||`` (the last of
# ``->``) prints 2n levels deeper than it is written.  Each ``||`` and ``->``
# is therefore charged two levels of nesting, for the tokens after it in its
# chain and, through the chain's deepest token so far, for those before it.
# A chain is the run of tokens between brackets, between an ``if`` or
# ``while`` and its ``then`` or ``do`` (a guard, printed on its own), or
# between the ``,`` and ``=>`` that separate the formulas of a list.  This
# bounds the printed nesting from above, exactly for a chain of ``||`` alone.
MAX_NESTING = 160
MAX_SEQUENCE = 500
MAX_CHAIN = 500
_OPENING = ("(", "[", "{")
_LEVELS = {"+": 1, "-": 1, "*": 1, "/": 1, "&&": 1, "||": 3, "->": 3, "==": 1, "!=": 1}
_CLOSING = (")", "]", "}")
_GUARD = {"if": "then", "while": "do"}  # a guard's first keyword -> its last
_LIST_SEPARATORS = (",", "=>")
# a "-" after one of these is binary; anywhere else it is a prefix operator
_VALUE_END = ("int", "ident")


class _Tokens:
    metavars = False  # template mode: ?name body and @name program holes

    def __init__(self, text: str):
        self.toks: list = []
        line, col = 1, 1
        pos = 0
        depth = 0  # open brackets
        prefix = 0  # prefix operators since the last operand, less one for
        # each opening bracket straight after one: "!(" nests one level, as
        # "(" does, so printed negations reparse
        after_prefix = False
        joins = 0  # ";" tokens
        chained = 0  # levels built by binary operators
        braces = 0  # open "{": inside a configuration "->" maps a variable
        # per open bracket or guard: [the keyword that closes a guard, or None;
        # the nesting its chain's "||" and "->" charge; the deepest printed
        # nesting of a token of the chain; the deepest of any token in it].
        # A token nests deeper than the one before it only at an opening
        # bracket, a prefix operator or a "||" or "->", so only those are
        # checked; the others nest as deep as the chain's start.
        chains = [[None, 0, 0, 0]]
        charged = 0  # the charges of all open chains
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise ParseError(f"unexpected character {text[pos]!r}", line, col)
            chunk = m.group(0)
            if m.lastgroup != "ws":
                kind = m.lastgroup
                is_prefix = chunk == "!" or chunk == "-" and not self._after_value()
                nesting = 0  # set where the token may nest deeper than the chain's start
                if kind != "op":
                    if kind == "ident" and chunk in KEYWORDS:
                        kind = "kw"
                        if chunk == chains[-1][0] and len(chains) > 1:
                            charged -= _close(chains)
                        elif chunk in _GUARD:
                            base = depth + charged
                            chains.append([_GUARD[chunk], 0, base, base])
                elif chunk in _OPENING:
                    depth += 1
                    braces += chunk == "{"
                    prefix -= after_prefix
                    nesting = depth + prefix + charged
                elif chunk in _CLOSING:
                    depth -= 1
                    braces -= chunk == "}"
                    if chains[-1][0] is None and len(chains) > 1:
                        charged -= _close(chains)
                elif chunk == ";":
                    joins += 1
                    if joins >= MAX_SEQUENCE:
                        raise ParseError(
                            f"more than {MAX_SEQUENCE} statements in sequence", line, col)
                elif chunk in _LIST_SEPARATORS:
                    chain = chains[-1]
                    charged -= chain[1]
                    chain[1] = 0
                    chain[2] = depth + charged
                elif chunk in _LEVELS and not is_prefix and not (chunk == "->" and braces):
                    chained += _LEVELS[chunk]
                    if chained > MAX_CHAIN:
                        raise ParseError(
                            f"binary operators nested deeper than {MAX_CHAIN}", line, col)
                    if chunk == "||" or chunk == "->":
                        chain = chains[-1]
                        charged += 2
                        chain[1] += 2
                        chain[2] += 2
                        chain[3] = max(chain[3], chain[2])
                        if chain[2] > MAX_NESTING:
                            raise ParseError(
                                f"'||' and '->' nested deeper than {MAX_NESTING} "
                                "once printed", line, col)
                if is_prefix:
                    prefix += 1
                    nesting = depth + prefix + charged
                elif chunk not in _OPENING:
                    prefix = 0
                after_prefix = is_prefix
                if nesting:
                    if nesting > MAX_NESTING:
                        raise ParseError(
                            f"brackets and prefix operators nested deeper than {MAX_NESTING}",
                            line, col)
                    chain = chains[-1]
                    chain[2] = max(chain[2], nesting)
                    chain[3] = max(chain[3], nesting)
                    if chunk in _OPENING:
                        base = depth + charged
                        chains.append([None, 0, base, base])
                self.toks.append((kind, chunk, line, col))
            if "\n" in chunk:
                line += chunk.count("\n")
                col = len(chunk) - chunk.rfind("\n")
            else:
                col += len(chunk)
            pos = m.end()
        self.pos = 0
        self._end = (line, col)
        self.failed: dict = {}  # (rule, position) -> the ParseError it raised there

    def _after_value(self) -> bool:
        if not self.toks:
            return False
        kind, chunk = self.toks[-1][:2]
        return kind in _VALUE_END or chunk in _CLOSING

    def peek(self):
        if self.pos < len(self.toks):
            return self.toks[self.pos]
        return ("eof", "", *self._end)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def at(self, value: str) -> bool:
        return self.peek()[1] == value

    def accept(self, value: str) -> bool:
        if self.at(value):
            self.pos += 1
            return True
        return False

    def expect(self, value: str):
        kind, chunk, line, col = self.peek()
        if chunk != value:
            raise ParseError(f"expected {value!r}, found {chunk or 'end of input'!r}", line, col)
        self.pos += 1

    def error(self, message: str):
        _, chunk, line, col = self.peek()
        raise ParseError(f"{message} (found {chunk or 'end of input'!r})", line, col)


def _close(chains: list) -> int:
    """Close the innermost chain: its tokens are in the chain around it now,
    which a later ``||`` or ``->`` charges for them.  Returns the closed
    chain's charge."""
    _, charge, _, deepest = chains.pop()
    outer = chains[-1]
    outer[2] = max(outer[2], deepest)
    outer[3] = max(outer[3], deepest)
    return charge


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

def _remembers_failure(rule):
    """``rule``, which at a token position where it already failed fails
    again at once, with the same error.  A parenthesis is tried first as a
    relation or base formula and then as a bracketed formula, and a relation
    first reads an expression; without this every level would parse the
    levels inside it again, cubic in the nesting."""

    def attempt(ts: _Tokens):
        start = ts.pos
        failure = ts.failed.get((rule, start))
        if failure is not None:
            raise failure.with_traceback(None)
        try:
            return rule(ts)
        except ParseError as exc:
            ts.failed[(rule, start)] = exc
            raise

    return attempt


@_remembers_failure
def _expr(ts: _Tokens) -> Expr:
    node = _expr_mul(ts)
    while ts.peek()[1] in ("+", "-"):
        op = ts.next()[1]
        node = BinOp(op, node, _expr_mul(ts))
    return node


def _expr_mul(ts: _Tokens) -> Expr:
    node = _expr_atom(ts)
    while ts.peek()[1] in ("*", "/"):
        op = ts.next()[1]
        node = BinOp(op, node, _expr_atom(ts))
    return node


def _expr_atom(ts: _Tokens) -> Expr:
    kind, chunk, _, _ = ts.peek()
    if chunk == "-":
        ts.next()
        inner = _expr_atom(ts)
        if isinstance(inner, Lit):
            return Lit(-inner.value)
        return BinOp("-", Lit(0), inner)
    if kind == "int":
        ts.next()
        return Lit(int(chunk))
    if kind == "ident":
        ts.next()
        return Var(chunk)
    if chunk == "(":
        ts.next()
        node = _expr(ts)
        ts.expect(")")
        return node
    ts.error("expected an expression")


_RELATIONS = ("<=", "<", "==", "!=", ">=", ">")


@_remembers_failure
def _relation(ts: _Tokens) -> BaseFormula:
    left = _expr(ts)
    op = ts.peek()[1]
    if op not in _RELATIONS:
        ts.error("expected a relation")
    ts.next()
    right = _expr(ts)
    if op == "<=":
        return Le(left, right)
    if op == "<":
        return lt(left, right)
    if op == "==":
        return eq(left, right)
    if op == "!=":
        return ne(left, right)
    if op == ">=":
        return ge(left, right)
    return gt(left, right)


# ---------------------------------------------------------------------------
# Base formulas
# ---------------------------------------------------------------------------

# Each bracket level costs one call of every function on the way from
# ``_fml`` back to ``_fml_atom``, so ``||`` is read in ``_fml`` and a run of
# ``!`` in one loop: fewer frames per level leave more stack for MAX_NESTING.

def _fml(ts: _Tokens) -> BaseFormula:
    node = _fml_and(ts)
    while ts.accept("||"):
        node = or_f(node, _fml_and(ts))
    if ts.accept("->"):
        return imp_f(node, _fml(ts))
    return node


def _fml_and(ts: _Tokens) -> BaseFormula:
    node = _fml_unary(ts)
    while ts.accept("&&"):
        node = AndF(node, _fml_unary(ts))
    return node


def _fml_unary(ts: _Tokens) -> BaseFormula:
    negations = 0
    while ts.accept("!"):
        negations += 1
    node = _fml_atom(ts)
    for _ in range(negations):
        node = NotF(node)
    return node


@_remembers_failure
def _fml_atom(ts: _Tokens) -> BaseFormula:
    kind, chunk, _, _ = ts.peek()
    if chunk == "forall":
        ts.next()
        k2, name, line, col = ts.next()
        if k2 != "ident":
            raise ParseError("expected a variable after forall", line, col)
        ts.expect(".")
        return Forall(name, _fml(ts))
    if chunk == "true":
        ts.next()
        return TRUE
    if chunk == "false":
        ts.next()
        return FALSE
    if chunk == "(":
        save = ts.pos
        try:
            return _relation(ts)
        except ParseError:
            ts.pos = save
        ts.next()
        node = _fml(ts)
        ts.expect(")")
        return node
    return _relation(ts)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

def _prog(ts: _Tokens) -> Program:
    # ``;`` associates to the right; built in a loop, not one call per ``;``
    parts = [_prog_atom(ts)]
    while ts.accept(";"):
        parts.append(_prog_atom(ts))
    node = parts.pop()
    while parts:
        node = Seq(parts.pop(), node)
    return node


def _prog_atom(ts: _Tokens) -> Program:
    kind, chunk, line, col = ts.peek()
    if ts.metavars and chunk == "@":
        from .lifting import MProg

        ts.next()
        k2, name, line2, col2 = ts.next()
        if k2 != "ident":
            raise ParseError("expected a metavariable name after @", line2, col2)
        return MProg(name)
    if chunk == "(":
        ts.next()
        node = _prog(ts)
        ts.expect(")")
        return node
    if chunk == "skip":
        ts.next()
        return SKIP
    if chunk in ("ε", "eps"):
        ts.next()
        return EPSILON
    if chunk == "if":
        ts.next()
        guard = _fml(ts)
        ts.expect("then")
        then = _prog(ts)
        ts.expect("else")
        orelse = _prog(ts)
        ts.expect("end")
        return If(guard, then, orelse)
    if chunk == "while":
        ts.next()
        guard = _fml(ts)
        ts.expect("do")
        body = _prog(ts)
        ts.expect("end")
        return While(guard, body)
    if chunk == "dispose":
        ts.next()
        ts.expect("(")
        e = _expr(ts)
        ts.expect(")")
        return _sep.Dispose(e)
    if chunk == "[":
        ts.next()
        addr = _expr(ts)
        ts.expect("]")
        ts.expect(":=")
        return _sep.HeapWrite(addr, _expr(ts))
    if kind == "ident":
        ts.next()
        ts.expect(":=")
        if ts.at("cons"):
            ts.next()
            ts.expect("(")
            e = _expr(ts)
            ts.expect(")")
            return _sep.Alloc(chunk, e)
        if ts.accept("["):
            e = _expr(ts)
            ts.expect("]")
            return _sep.HeapRead(chunk, e)
        return Assign(chunk, _expr(ts))
    raise ParseError(f"expected a program, found {chunk!r}", line, col)


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

def _config(ts: _Tokens) -> Config:
    ts.expect("{")
    entries = []
    stack = False
    if not ts.at("}"):
        while True:
            kind, name, line, col = ts.next()
            if kind != "ident":
                raise ParseError("expected a variable in configuration", line, col)
            ts.expect("->")
            entries.append((name, _expr(ts)))
            if ts.accept(","):
                continue
            if ts.accept("|"):
                stack = True
                continue
            break
    ts.expect("}")
    return Config(tuple(entries), stack=stack)


# ---------------------------------------------------------------------------
# Labeled formulas and sequents
# ---------------------------------------------------------------------------

# A body (or labeled-formula) connective over purely base operands collapses
# into the base-formula connective, so modality-free bodies stay one atom.

def _b_not(b: Body) -> Body:
    if isinstance(b, BBase):
        return BBase(NotF(b.fml))
    return BNot(b)


def _b_and(a: Body, b: Body) -> Body:
    if isinstance(a, BBase) and isinstance(b, BBase):
        return BBase(AndF(a.fml, b.fml))
    return BAnd(a, b)


def _body_atom(ts: _Tokens) -> Body:
    chunk = ts.peek()[1]
    if ts.metavars and chunk == "?":
        from .lifting import MBody

        ts.next()
        kind, name, line, col = ts.next()
        if kind != "ident":
            raise ParseError("expected a metavariable name after ?", line, col)
        return MBody(name)
    if chunk == "[":
        ts.next()
        prog = _prog(ts)
        ts.expect("]")
        return BBox(prog, _body_atom(ts))
    if chunk == "<":
        ts.next()
        prog = _prog(ts)
        ts.expect(">")
        return BDia(prog, _body_atom(ts))
    if chunk == "!":
        ts.next()
        return _b_not(_body_atom(ts))
    if chunk == "(":
        save = ts.pos
        ts.next()
        try:
            node = _body_compound(ts)
            ts.expect(")")
            return node
        except ParseError:
            ts.pos = save
        return BBase(_fml_atom(ts))
    return BBase(_fml_atom(ts))


def _body_compound(ts: _Tokens) -> Body:
    node = _body_and(ts)
    if ts.accept("->"):
        rest = _body_compound(ts)
        return _b_not(_b_and(node, _b_not(rest)))
    return node


def _body_and(ts: _Tokens) -> Body:
    node = _body_unary(ts)
    while True:
        if ts.accept("&&"):
            node = _b_and(node, _body_unary(ts))
        elif ts.accept("||"):
            right = _body_unary(ts)
            node = _b_not(_b_and(_b_not(node), _b_not(right)))
        else:
            return node


def _body_unary(ts: _Tokens) -> Body:
    if ts.accept("!"):
        return _b_not(_body_unary(ts))
    return _body_atom(ts)


def _d_not(f: DlpFormula) -> DlpFormula:
    if isinstance(f, DBase):
        return DBase(NotF(f.fml))
    return DNot(f)


def _d_and(a: DlpFormula, b: DlpFormula) -> DlpFormula:
    if isinstance(a, DBase) and isinstance(b, DBase):
        return DBase(AndF(a.fml, b.fml))
    return DAnd(a, b)


def _dlp(ts: _Tokens) -> DlpFormula:
    node = _dlp_and(ts)
    while ts.accept("||"):
        right = _dlp_and(ts)
        node = _d_not(_d_and(_d_not(node), _d_not(right)))
    if ts.accept("->"):
        rest = _dlp(ts)
        return _d_not(_d_and(node, _d_not(rest)))
    return node


def _dlp_and(ts: _Tokens) -> DlpFormula:
    node = _dlp_unary(ts)
    while ts.accept("&&"):
        node = _d_and(node, _dlp_unary(ts))
    return node


def _dlp_unary(ts: _Tokens) -> DlpFormula:
    negations = 0
    while ts.accept("!"):
        negations += 1
    node = _dlp_atom(ts)
    for _ in range(negations):
        node = _d_not(node)
    return node


def _dlp_atom(ts: _Tokens) -> DlpFormula:
    chunk = ts.peek()[1]
    if chunk == "{":
        sigma = _config(ts)
        ts.expect(":")
        return DLabeled(sigma, _body_atom(ts))
    if chunk == "(":
        save = ts.pos
        try:
            return DBase(_fml_atom(ts))
        except ParseError:
            ts.pos = save
        ts.next()
        node = _dlp(ts)
        ts.expect(")")
        return node
    return DBase(_fml_atom(ts))


def _sequent(ts: _Tokens) -> Sequent:
    left = _formula_list(ts)
    ts.expect("=>")
    right = _formula_list(ts)
    return Sequent(tuple(left), tuple(right))


def _formula_list(ts: _Tokens) -> list:
    if ts.accept("."):
        return []
    if ts.at("=>") or ts.peek()[0] == "eof":
        return []
    out = [_dlp(ts)]
    while ts.accept(","):
        out.append(_dlp(ts))
    return out


def _finish(ts: _Tokens, node):
    if ts.peek()[0] != "eof":
        ts.error("trailing input")
    return node


def parse_expr(text: str) -> Expr:
    return _finish(ts := _Tokens(text), _expr(ts))


def parse_fml(text: str) -> BaseFormula:
    return _finish(ts := _Tokens(text), _fml(ts))


def parse_prog(text: str) -> Program:
    return _finish(ts := _Tokens(text), _prog(ts))


def parse_config(text: str) -> Config:
    return _finish(ts := _Tokens(text), _config(ts))


def parse_dlp(text: str) -> DlpFormula:
    return _finish(ts := _Tokens(text), _dlp(ts))


def parse_sequent(text: str) -> Sequent:
    return _finish(ts := _Tokens(text), _sequent(ts))


def parse_template_sequent(text: str) -> tuple:
    """Sides of body templates for rule lifting; ?f and @p are holes.

    Returns (left bodies, right bodies); the label is implicit and shared.
    """
    ts = _Tokens(text)
    ts.metavars = True

    def side() -> tuple:
        if ts.accept("."):
            return ()
        if ts.at("=>") or ts.peek()[0] == "eof":
            return ()
        out = [_body_compound(ts)]
        while ts.accept(","):
            out.append(_body_compound(ts))
        return tuple(out)

    left = side()
    ts.expect("=>")
    right = side()
    return _finish(ts, (left, right))


# ---------------------------------------------------------------------------
# Printers
# ---------------------------------------------------------------------------

# A printed ``BinOp`` or program keeps its text on the node, under an
# attribute name that is not a dataclass field (as ``canon`` keeps keys), so
# a term shared by many sequents is printed once.  A ``BinOp``'s text is kept
# without its outer parentheses, which depend on the context and are added at
# each call.  Each printer looks its slot up itself rather than through a
# wrapper, so a level of the term still costs one stack frame.

_SRC = "_src"


def _keep_src(term, text: str) -> str:
    object.__setattr__(term, _SRC, text)  # the term classes are frozen
    return text


def expr_src(e: Expr, level: int = 0) -> str:
    if isinstance(e, Lit):
        s = str(e.value)
        return f"({s})" if e.value < 0 and level >= 3 else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BinOp):
        prec = 1 if e.op in "+-" else 2
        s = getattr(e, _SRC, None)
        if s is None:
            left = expr_src(e.left, prec)
            right = expr_src(e.right, prec + 1)
            s = _keep_src(e, f"{left} {e.op} {right}")
        return f"({s})" if level > prec else s
    raise TypeError(f"not an expression: {e!r}")


def fml_src(phi: BaseFormula, level: int = 0) -> str:
    if isinstance(phi, Le):
        s = f"{expr_src(phi.left)} <= {expr_src(phi.right)}"
        return f"({s})" if level > 1 else s
    if isinstance(phi, NotF):
        return f"!({fml_src(phi.body)})"
    if isinstance(phi, AndF):
        s = f"{fml_src(phi.left, 2)} && {fml_src(phi.right, 3)}"
        return f"({s})" if level > 2 else s
    if isinstance(phi, Forall):
        s = f"forall {phi.var} . {fml_src(phi.body)}"
        return f"({s})" if level > 0 else s
    raise TypeError(f"not a base formula: {phi!r}")


def prog_src(p: Program) -> str:
    s = getattr(p, _SRC, None)
    if s is not None:
        return s
    if isinstance(p, Assign):
        s = f"{p.target} := {expr_src(p.expr)}"
    elif isinstance(p, Seq):
        first = prog_src(p.first)
        if isinstance(p.first, Seq):
            first = f"({first})"
        s = f"{first} ; {prog_src(p.second)}"
    elif isinstance(p, If):
        s = (
            f"if {fml_src(p.guard)} then {prog_src(p.then)} "
            f"else {prog_src(p.orelse)} end"
        )
    elif isinstance(p, While):
        s = f"while {fml_src(p.guard)} do {prog_src(p.body)} end"
    elif isinstance(p, Skip):
        s = "skip"
    elif isinstance(p, Epsilon):
        s = "ε"
    elif isinstance(p, _sep.Alloc):
        s = f"{p.target} := cons({expr_src(p.expr)})"
    elif isinstance(p, _sep.HeapRead):
        s = f"{p.target} := [{expr_src(p.addr)}]"
    elif isinstance(p, _sep.HeapWrite):
        s = f"[{expr_src(p.addr)}] := {expr_src(p.expr)}"
    elif isinstance(p, _sep.Dispose):
        s = f"dispose({expr_src(p.addr)})"
    else:
        raise TypeError(f"not a program: {p!r}")
    return _keep_src(p, s)


def config_src(sigma: Config) -> str:
    joiner = " | " if sigma.stack else ", "
    inner = joiner.join(f"{x} -> {expr_src(e)}" for x, e in sigma.entries)
    return "{" + inner + "}"


def body_src(b: Body) -> str:
    if isinstance(b, BBase):
        if isinstance(b.fml, (Le,)):
            return fml_src(b.fml)
        return f"({fml_src(b.fml)})"
    if isinstance(b, BNot):
        return f"!{body_src(b.body)}"
    if isinstance(b, BAnd):
        return f"({_body_src_inner(b)})"
    if isinstance(b, BBox):
        return f"[{prog_src(b.prog)}] {body_src(b.body)}"
    if isinstance(b, BDia):
        return f"<{prog_src(b.prog)}> {body_src(b.body)}"
    raise TypeError(f"not a body: {b!r}")


def _body_src_inner(b: Body) -> str:
    if isinstance(b, BAnd):
        return f"{_body_and_src(b.left)} && {_body_and_src(b.right)}"
    return body_src(b)


def _body_and_src(b: Body) -> str:
    if isinstance(b, BAnd):
        return f"({_body_src_inner(b)})"
    return body_src(b)


def dlp_src(f: DlpFormula, level: int = 0) -> str:
    if isinstance(f, DBase):
        return fml_src(f.fml, level)
    if isinstance(f, DLabeled):
        label = f.label
        label_txt = config_src(label) if isinstance(label, Config) else str(label)
        s = f"{label_txt} : {body_src(f.body)}"
        return f"({s})" if level > 0 else s
    if isinstance(f, DNot):
        return f"!({dlp_src(f.arg)})"
    if isinstance(f, DAnd):
        s = f"{dlp_src(f.left, 2)} && {dlp_src(f.right, 3)}"
        return f"({s})" if level > 2 else s
    if isinstance(f, DTer):
        factor = "" if f.factor is None else f" {expr_src(f.factor)}"
        s = f"{config_src(f.label)} : {prog_src(f.prog)} ⇓{factor}"
        return f"({s})" if level > 0 else s
    raise TypeError(f"not a formula: {f!r}")


def sequent_src(nu: Sequent) -> str:
    left = ", ".join(dlp_src(f) for f in nu.left) or "."
    right = ", ".join(dlp_src(f) for f in nu.right) or "."
    return f"{left} => {right}"
