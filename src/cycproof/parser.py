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
    dlp    ::= fml | config ":" body | config ":" prog "⇓" [expr] | "!" dlp
             | dlp "&&" dlp | dlp "||" dlp | dlp "->" dlp | "(" dlp ")"
    body   ::= "[" prog "]" body | "<" prog ">" body | "!" body
             | "(" bodyc ")" | fml-atom                    (bodyc adds &&/||/->)
    seq    ::= [dlp ("," dlp)*] "=>" [dlp ("," dlp)*]      ("." = empty side)
    update ::= "{" [IDENT ":=" expr ("," IDENT ":=" expr)*] "}"

Derived connectives normalize to the core on the way in; the printers emit
only core connectives plus the relation sugar that reparses to the same
tree, so ``parse(print(t)) == t``.  After ``config ":"`` the body is tried
first and the termination judgment only where no body parses.  Proof
scripts read the terms of a line with a ``Reader``, one token stream per
line, each term ending where its production does.

Every input ends in a tree or a ParseError, whatever the caller's stack, and
every accepted tree reads back once printed (dumps and emitted scripts are
printed sequents).  Two caps make it so:

- Nesting (MAX_NESTING): at each token, the open brackets ("(", "[", "{", and
  "if" or "while" up to its "end"), the ``forall`` binders in scope and the
  run of prefix "!" or "-" before it.  The parser recurses at most four frames
  per counted level and reads everything else in loops, so the tokenizer's
  count bounds its stack.  The same count of the text the printers would
  write is measured on the parsed tree, because a printed form can nest
  deeper than its input: "a || b" prints as "!(!(a) && !(b))".
- Depth (MAX_DEPTH): the parsed tree's height.  The term functions (printers,
  canonical forms, evaluation) recurse once per level, and a long sequence,
  sum or conjunction is read in a loop but builds a deep tree.

A printed tree parses to the same tree, so it passes both caps again.
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
    TermError,
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
  | (?P<op>:=|<=|>=|==|!=|=>|->|&&|\|\||[-+*/(){}\[\],;:.<>!|?@]|ε|⇓)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "if", "then", "else", "end", "while", "do", "forall",
    "skip", "true", "false", "cons", "dispose", "eps",
}

# The caps (see the module docstring).  A binder's scope, in the count, ends
# where the bracket around it closes or at a separator; a bracket or binder
# straight after a run of prefix operators adds no level of its own, so "!("
# is one level, as the printers write a negation.
MAX_NESTING = 160
MAX_DEPTH = 500
_OPENING = ("(", "[", "{", "if", "while", "forall")
_CLOSING = (")", "]", "}", "end")
_SEPARATORS = (",", "=>", "then", "else", "do")


class _Tokens:
    """The tokens of ``text`` from offset ``start`` on, as (kind, text,
    offset), and a cursor; offsets, and so error columns, count from the start
    of ``text``."""

    metavars = False  # template mode: ?name body and @name program holes

    def __init__(self, text: str, start: int = 0):
        self.text = text
        self.toks = toks = []
        depth = 0  # counted levels before the next token
        inside = 0  # depth just inside the innermost open bracket
        outer = []  # (depth, inside) around each open bracket
        run = 0  # prefix operators just before the next token
        after_value = False  # a "-" next is binary
        deepest = 0
        for m in _TOKEN_RE.finditer(text, start):
            kind = m.lastgroup
            if kind == "ws":
                continue
            chunk = m.group()
            if chunk == "!" or chunk == "-" and not after_value:
                run += 1
                if depth + run > deepest:
                    deepest = depth + run
            else:
                if kind == "ident" and chunk in KEYWORDS:
                    kind = "kw"
                if chunk in _OPENING:
                    level = depth + (run or 1)
                    if chunk != "forall":
                        outer.append((depth, inside))
                        inside = level
                    depth = level
                    if depth > deepest:
                        deepest = depth
                elif chunk in _CLOSING:
                    if outer:
                        depth, inside = outer.pop()
                elif chunk in _SEPARATORS:
                    depth = inside
                elif kind == "bad":
                    self.fail(f"unexpected character {chunk!r}", m.start())
                run = 0
            if deepest > MAX_NESTING:
                self.fail("brackets, binders and prefix operators nested deeper than "
                          f"{MAX_NESTING}", m.start())
            after_value = kind == "int" or kind == "ident" or chunk == ")"
            toks.append((kind, chunk, m.start()))
        self.pos = 0
        self.deepest = deepest
        self.failed: dict = {}  # (rule, position) -> the ParseError it raised there

    def fail(self, message: str, offset: int):
        text = self.text
        raise ParseError(message, text.count("\n", 0, offset) + 1,
                         offset - text.rfind("\n", 0, offset))

    def peek(self):
        if self.pos < len(self.toks):
            return self.toks[self.pos]
        return ("eof", "", len(self.text))

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
        _, chunk, offset = self.peek()
        if chunk != value:
            self.fail(f"expected {value!r}, found {chunk or 'end of input'!r}", offset)
        self.pos += 1

    def error(self, message: str):
        _, chunk, offset = self.peek()
        self.fail(f"{message} (found {chunk or 'end of input'!r})", offset)

    def end(self) -> None:
        if self.peek()[0] != "eof":
            self.error("trailing input")

    def name(self, message: str) -> str:
        """The identifier next, or a ParseError with ``message``."""
        kind, chunk, offset = self.next()
        if kind != "ident":
            self.fail(message, offset)
        return chunk


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
    kind, chunk, _ = ts.peek()
    minus = 0
    while chunk == "-":  # read in a loop, as "!" is
        ts.next()
        minus += 1
        kind, chunk, _ = ts.peek()
    if kind == "int":
        ts.next()
        node = Lit(int(chunk))
    elif kind == "ident":
        ts.next()
        node = Var(chunk)
    elif chunk == "(":
        ts.next()
        node = _expr(ts)
        ts.expect(")")
    else:
        ts.error("expected an expression")
    for _ in range(minus):
        node = Lit(-node.value) if isinstance(node, Lit) else BinOp("-", Lit(0), node)
    return node


_RELATIONS = {"<=": Le, "<": lt, "==": eq, "!=": ne, ">=": ge, ">": gt}


@_remembers_failure
def _relation(ts: _Tokens) -> BaseFormula:
    left = _expr(ts)
    make = _RELATIONS.get(ts.peek()[1])
    if make is None:
        ts.error("expected a relation")
    ts.next()
    return make(left, _expr(ts))


# ---------------------------------------------------------------------------
# Base formulas and labeled formulas
# ---------------------------------------------------------------------------

def _connectives(ts: _Tokens, atom, not_, and_):
    """``->`` over ``||`` over ``&&`` over prefix ``!``, all in loops, over
    ``atom``; the derived connectives built from ``not_`` and ``and_``.  Each
    bracket level costs the frames of ``atom`` and of its caller here."""
    parts = []  # the operands of "->", which associates to the right
    while True:
        disjunction = None
        while True:
            conjunction = None
            while True:
                negations = 0
                while ts.accept("!"):
                    negations += 1
                node = atom(ts)
                for _ in range(negations):
                    node = not_(node)
                conjunction = node if conjunction is None else and_(conjunction, node)
                if not ts.accept("&&"):
                    break
            disjunction = conjunction if disjunction is None else not_(
                and_(not_(disjunction), not_(conjunction)))
            if not ts.accept("||"):
                break
        parts.append(disjunction)
        if not ts.accept("->"):
            break
    node = parts.pop()
    while parts:
        node = not_(and_(parts.pop(), not_(node)))
    return node


def _fml(ts: _Tokens) -> BaseFormula:
    return _connectives(ts, _fml_atom, NotF, AndF)


@_remembers_failure
def _fml_atom(ts: _Tokens) -> BaseFormula:
    chunk = ts.peek()[1]
    if chunk == "forall":
        ts.next()
        name = ts.name("expected a variable after forall")
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


# A connective over purely base operands collapses into the base-formula
# connective, so modality-free bodies and formulas stay one atom.

def _d_not(f: DlpFormula) -> DlpFormula:
    if isinstance(f, DBase):
        return DBase(NotF(f.fml))
    return DNot(f)


def _d_and(a: DlpFormula, b: DlpFormula) -> DlpFormula:
    if isinstance(a, DBase) and isinstance(b, DBase):
        return DBase(AndF(a.fml, b.fml))
    return DAnd(a, b)


def _dlp(ts: _Tokens) -> DlpFormula:
    return _connectives(ts, _dlp_atom, _d_not, _d_and)


def _dlp_atom(ts: _Tokens) -> DlpFormula:
    chunk = ts.peek()[1]
    if chunk == "{":
        start = ts.peek()[2]
        sigma = _config(ts)
        ts.expect(":")
        save = ts.pos
        try:
            return DLabeled(sigma, _body_atom(ts))
        except ParseError as exc:
            ts.pos = save
            failure = exc
        try:
            prog = _prog(ts)
            ts.expect("⇓")
        except ParseError as exc:  # the error of the parse that got further
            farther = max(failure, exc, key=lambda e: (e.line, e.col))
            raise farther.with_traceback(None) from None
        kind, chunk, _ = ts.peek()
        factor = _expr(ts) if kind in ("int", "ident") or chunk in ("(", "-") else None
        try:
            return DTer(sigma, prog, factor)
        except TermError as exc:  # the factor is not in the label
            ts.fail(str(exc), start)
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
    kind, chunk, offset = ts.peek()
    if ts.metavars and chunk == "@":
        from .lifting import MProg

        ts.next()
        return MProg(ts.name("expected a metavariable name after @"))
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
    ts.fail(f"expected a program, found {chunk!r}", offset)


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

def _config(ts: _Tokens) -> Config:
    start = ts.peek()[2]
    ts.expect("{")
    entries = []
    stack = False
    if not ts.at("}"):
        while True:
            name = ts.name("expected a variable in configuration")
            ts.expect("->")
            entries.append((name, _expr(ts)))
            if ts.accept(","):
                continue
            if ts.accept("|"):
                stack = True
                continue
            break
    ts.expect("}")
    try:
        return Config(tuple(entries), stack=stack)
    except TermError as exc:  # a store maps a variable twice
        ts.fail(str(exc), start)


def _update(ts: _Tokens) -> dict:
    """``{x := e, ...}``: each name mapped to its expression."""
    ts.expect("{")
    out: dict = {}
    while not ts.accept("}"):
        if out:
            ts.expect(",")
        offset = ts.peek()[2]
        name = ts.name("expected a variable in an update")
        if name in out:
            ts.fail(f"update binds {name} twice", offset)
        ts.expect(":=")
        out[name] = _expr(ts)
    return out


# ---------------------------------------------------------------------------
# Bodies and sequents
# ---------------------------------------------------------------------------

def _b_not(b: Body) -> Body:
    if isinstance(b, BBase):
        return BBase(NotF(b.fml))
    return BNot(b)


def _b_and(a: Body, b: Body) -> Body:
    if isinstance(a, BBase) and isinstance(b, BBase):
        return BBase(AndF(a.fml, b.fml))
    return BAnd(a, b)


def _body_atom(ts: _Tokens) -> Body:
    # a run of "!" and modalities is read in a loop and applied innermost first
    prefixes = []
    while True:
        chunk = ts.peek()[1]
        if chunk == "!":
            ts.next()
            prefixes.append(None)
        elif chunk == "[" or chunk == "<":
            ts.next()
            prog = _prog(ts)
            ts.expect("]" if chunk == "[" else ">")
            prefixes.append((BBox if chunk == "[" else BDia, prog))
        else:
            break
    node = None
    if ts.metavars and chunk == "?":
        from .lifting import MBody

        ts.next()
        node = MBody(ts.name("expected a metavariable name after ?"))
    elif chunk == "(":
        save = ts.pos
        ts.next()
        try:
            node = _body_compound(ts)
            ts.expect(")")
        except ParseError:
            ts.pos = save
            node = None
    if node is None:
        node = BBase(_fml_atom(ts))
    while prefixes:
        prefix = prefixes.pop()
        node = _b_not(node) if prefix is None else prefix[0](prefix[1], node)
    return node


def _body_compound(ts: _Tokens) -> Body:
    # "&&" and "||" bind alike here, from the left; "->" to the right
    parts = [_body_and(ts)]
    while ts.accept("->"):
        parts.append(_body_and(ts))
    node = parts.pop()
    while parts:
        node = _b_not(_b_and(parts.pop(), _b_not(node)))
    return node


def _body_and(ts: _Tokens) -> Body:
    node = _body_atom(ts)
    while True:
        if ts.accept("&&"):
            node = _b_and(node, _body_atom(ts))
        elif ts.accept("||"):
            right = _body_atom(ts)
            node = _b_not(_b_and(_b_not(node), _b_not(right)))
        else:
            return node


def _sequent(ts: _Tokens) -> Sequent:
    left = _formula_list(ts, _dlp)
    ts.expect("=>")
    right = _formula_list(ts, _dlp)
    return Sequent(left, right)


def _formula_list(ts: _Tokens, formula) -> tuple:
    if ts.accept("."):
        return ()
    if ts.at("=>") or ts.peek()[0] == "eof":
        return ()
    out = [formula(ts)]
    while ts.accept(","):
        out.append(formula(ts))
    return tuple(out)


def _finish(ts: _Tokens, node):
    ts.end()
    return _capped(node)


def _capped(node):
    """``node``, or a ParseError when it passes a cap (see the module docstring)."""
    depth, nesting = _measure(node)
    if nesting > MAX_NESTING:
        raise ParseError(f"formula nested deeper than {MAX_NESTING} once printed", 1, 1)
    if depth > MAX_DEPTH:
        raise ParseError(f"terms nested deeper than {MAX_DEPTH} levels", 1, 1)
    return node


def _measure(root) -> tuple:
    """The height of ``root`` (a term, a sequent, or a tuple of terms), and
    the tokenizer's nesting count of the text the printers write for it.

    One top-down walk with an explicit stack.  An entry is a node, its depth,
    the count before its first token, its printer ``level`` (the context that
    decides its outer brackets), and how many prefix operators are printed
    just before it.  The rules follow the printers below.
    """
    height = nesting = 0
    stack = [(root, 1, 0, 0, 0)]
    push = stack.append
    while stack:
        node, d, n, level, run = stack.pop()
        if d > height:
            height = d
        d += 1
        cls = type(node)
        if cls is Var:
            continue
        if cls is BinOp:  # "left op right", bracketed above its precedence
            prec = 1 if node.op in "+-" else 2
            if level > prec:
                n += run or 1
                run = 0
            push((node.left, d, n, prec, run))
            push((node.right, d, n, prec + 1, 0))
        elif cls is Lit:
            if node.value < 0:  # "-k", bracketed at level 3
                if level >= 3:
                    n += run or 1
                    run = 0
                n += run + 1
        elif cls is Le:
            if level > 1:
                n += run or 1
                run = 0
            push((node.left, d, n, 0, run))
            push((node.right, d, n, 0, 0))
        elif cls is NotF or cls is DNot:  # "!(arg)": one level
            n += run + 1
            push((node.body if cls is NotF else node.arg, d, n, 0, 0))
        elif cls is AndF or cls is DAnd:
            if level > 2:
                n += run or 1
                run = 0
            push((node.left, d, n, 2, run))
            push((node.right, d, n, 3, 0))
        elif cls is Forall:  # "forall v . body", bracketed at level 1
            if level > 0:
                n += run or 1
                run = 0
            n += run or 1
            push((node.body, d, n, 0, 0))
        elif cls is DBase:
            push((node.fml, d, n, level, run))
        elif cls is DLabeled or cls is DTer:  # "label : body", "label : prog ⇓ e"
            if level > 0:  # bracketed at level 1
                n += run or 1
                run = 0
            push((node.label, d, n, 0, run))
            for part in (node.body,) if cls is DLabeled else (node.prog, node.factor):
                if part is not None:
                    push((part, d, n, 0, 0))
        elif cls is Config:  # "{x -> e, ...}"
            n += run or 1
            for _, e in node.entries:
                push((e, d, n, 0, 0))
        elif cls is BBase:  # bare if a "<=", else "(fml)"
            if type(node.fml) is Le:
                push((node.fml, d, n, 0, run))
            else:
                push((node.fml, d, n + (run or 1), 0, 0))
        elif cls is BNot:  # "!body"
            push((node.body, d, n, 0, run + 1))
            n += run + 1
        elif cls is BAnd:  # "(left && right)"
            n += run or 1
            push((node.left, d, n, 0, 0))
            push((node.right, d, n, 0, 0))
        elif cls is BBox:  # "[prog] body"
            push((node.prog, d, n + (run or 1), 0, 0))
            push((node.body, d, n, 0, 0))
        elif cls is BDia:  # "<prog> body": "<" is no bracket
            push((node.prog, d, n, 0, 0))
            push((node.body, d, n, 0, 0))
        elif cls is Assign:
            push((node.expr, d, n, 0, 0))
        elif cls is Seq:  # "first ; second", "(first) ; second" for a Seq
            push((node.first, d, n + (type(node.first) is Seq), 0, 0))
            push((node.second, d, n, 0, 0))
        elif cls is If:  # "if", "then" and "else" start one level in
            n += 1
            push((node.guard, d, n, 0, 0))
            push((node.then, d, n, 0, 0))
            push((node.orelse, d, n, 0, 0))
        elif cls is While:
            n += 1
            push((node.guard, d, n, 0, 0))
            push((node.body, d, n, 0, 0))
        elif cls is _sep.HeapWrite:  # "[addr] := expr"
            push((node.addr, d, n + 1, 0, 0))
            push((node.expr, d, n, 0, 0))
        elif cls is _sep.HeapRead or cls is _sep.Dispose:  # "x := [addr]", "dispose(addr)"
            push((node.addr, d, n + 1, 0, 0))
        elif cls is _sep.Alloc:  # "x := cons(expr)"
            push((node.expr, d, n + 1, 0, 0))
        elif cls is Sequent or cls is tuple:  # its parts, printed apart
            for part in (node.left + node.right if cls is Sequent else node):
                push((part, d - 1, 0, 0, 0))
        if n > nesting:
            nesting = n
    return height, nesting


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


def _capped_read(production):
    return lambda reader: _capped(production(reader))


class Reader(_Tokens):
    """The terms of one proof-script line, read in order from one token
    stream whose words ``accept``, ``expect`` and ``next`` read.  Each term
    ends where its production does, so the words between terms (``premise``,
    ``split``, ``factor``, ...) are tokens of the same stream, and each term
    passes the caps as a whole input would."""

    sequent = _capped_read(_sequent)
    dlp = _capped_read(_dlp)
    fml = _capped_read(_fml)
    expr = _capped_read(_expr)

    def update(self) -> dict:
        out = _update(self)
        _capped(tuple(out.values()))
        return out


def parse_template_sequent(text: str) -> tuple:
    """Sides of body templates for rule lifting; ?f and @p are holes.

    Returns (left bodies, right bodies); the label is implicit and shared.
    """
    ts = _Tokens(text)
    ts.metavars = True
    left = _formula_list(ts, _body_compound)
    ts.expect("=>")
    right = _formula_list(ts, _body_compound)
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
        return f"({body_src(b.left)} && {body_src(b.right)})"
    if isinstance(b, BBox):
        return f"[{prog_src(b.prog)}] {body_src(b.body)}"
    if isinstance(b, BDia):
        return f"<{prog_src(b.prog)}> {body_src(b.body)}"
    raise TypeError(f"not a body: {b!r}")


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
