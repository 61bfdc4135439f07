"""Concrete syntax: tokenizer, a precedence-climbing parser, and printers.

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
tree, so ``parse(print(t)) == t``.  Each term is read in one pass, by
precedence climbing (Pratt, POPL 1973): a "(" is read once, and its contents
decide its sort.  After ``config ":"`` the next tokens decide between a body
and a judgment: a program word or ``IDENT ":="`` starts a program, "[" a box
if it holds a program.  Proof scripts read the terms of a line with a
``Reader``, one token stream per line, each term ending where its
production does.

Every input ends in a tree or a ParseError, whatever the caller's stack, and
every accepted tree reads back once printed (dumps and emitted scripts are
printed sequents).  Two caps make it so, in three checks made in this order:

1. Nesting of the input (MAX_NESTING): at each token, the open brackets ("(",
   "[", "{", and "if" or "while" up to its "end"), the ``forall`` binders in
   scope and the run of prefix "!" or "-" before it.  The parser recurses at
   most three frames per counted level and reads runs and chains in loops,
   so the count bounds its stack.  A token opens at most one level, so only
   a text of more than MAX_NESTING tokens is counted.
2. Depth (MAX_DEPTH): the parsed tree's height, over each record's fields
   (``record.height``); a sequent or a tuple adds no level.  The term
   functions (printers, canonical forms, evaluation) recurse once per
   level, and a long sequence, sum or conjunction is read in a loop but
   builds a deep tree.  This bound is what makes printing the tree safe.
3. Nesting once printed (MAX_NESTING): the same count of the text the
   printers write for the tree, because a printed form can nest deeper than
   its input: "a || b" prints as "!(!(a) && !(b))".  Only a tree taller than
   MAX_NESTING is printed and counted, because a printed tree opens at most
   one level per node on its deepest path.  Every level is a bracket, an
   "if" or "while", a ``forall`` binder or a prefix "!" or "-" that one node
   prints.  The only nodes that print two, a ``forall`` bracketed as an "&&"
   operand and a negative literal bracketed as the right operand of "*" or
   "/", sit below the top of their "&&" chain or arithmetic expression,
   which is printed unbracketed and opens none.

A printed tree parses to the same tree, so it passes the caps again.
"""

from __future__ import annotations

import re
import sys
from functools import partial

from . import record
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
    MBody,
    MProg,
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
    Refusal,
    Seq,
    Skip,
    TRUE,
    TermError,
    Var,
    While,
    eq,
    ge,
    gt,
    lt,
    ne,
)


class ParseError(Refusal):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# a token and the blanks before it, the token in the group; a character that
# starts no token matches "\S" alone, with an empty group
_TOKEN_RE = re.compile(
    r"\s*(?:([A-Za-z_][A-Za-z0-9_]*'*|[(){}\[\],;.+*/?@ε⇓]|\d+|[:<>=!]=|=>|->|&&|\|\||[-:<>!|])"
    r"|\S)"
)

KEYWORDS = {
    "if", "then", "else", "end", "while", "do", "forall",
    "skip", "true", "false", "cons", "dispose", "eps",
}
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


def _is_name(tok: str) -> bool:
    return tok[:1] in _NAME_START and tok not in KEYWORDS


def _starts_expr(tok: str) -> bool:
    return tok == "(" or tok == "-" or tok.isdecimal() or _is_name(tok)


# The caps (see the module docstring).  A binder's scope, in the count, ends
# where the bracket around it closes or at a separator; a bracket or binder
# straight after a run of prefix operators adds no level of its own, so "!("
# is one level, as the printers write a negation.
MAX_NESTING = 160
MAX_DEPTH = 500
_OPENING = ("(", "[", "{", "if", "while", "forall")
_CLOSING = (")", "]", "}", "end")
_SEPARATORS = (",", "=>", "then", "else", "do")


def _fail(text: str, message: str, offset: int):
    raise ParseError(message, text.count("\n", 0, offset) + 1,
                     offset - text.rfind("\n", 0, offset))


def _nesting(text: str, start: int = 0, cap: int | None = None) -> int:
    """The nesting count of ``text`` from offset ``start`` on: the most levels
    open at any token.  A ParseError at the first character that starts no
    token, or, given ``cap``, at the token where the count first passes it."""
    depth = 0  # counted levels before the next token
    inside = 0  # depth just inside the innermost open bracket
    outer = []  # (depth, inside) around each open bracket
    run = 0  # prefix operators just before the next token
    prev = ""  # the token before: after a value, "-" is binary
    deepest = 0
    for m in _TOKEN_RE.finditer(text, start):
        chunk = m.group(1)
        if chunk == "!" or chunk == "-" and not (
                prev == ")" or prev.isdecimal() or _is_name(prev)):
            run += 1
            if depth + run > deepest:
                deepest = depth + run
        else:
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
            elif not chunk:
                _fail(text, f"unexpected character {text[m.end() - 1]!r}", m.end() - 1)
            run = 0
        if cap is not None and deepest > cap:
            _fail(text, "brackets, binders and prefix operators nested deeper than "
                  f"{cap}", m.start(1))
        prev = chunk
    return deepest


class _Tokens:
    """The tokens of ``text`` from offset ``start`` on, ending in "" for the
    end of input, and a cursor; error columns count from the start of
    ``text``."""

    metavars = False  # template mode: ?name body and @name program holes

    def __init__(self, text: str, start: int = 0):
        self.text = text
        self.start = start
        toks = _TOKEN_RE.findall(text, start)
        if len(toks) > MAX_NESTING or not all(toks):
            _nesting(text, start, MAX_NESTING)
        toks.append("")
        self.toks = toks
        self.pos = 0
        self._offsets = None  # of each token, found when an error needs them

    def offset(self, index: int) -> int:
        if self._offsets is None:
            found = _TOKEN_RE.finditer(self.text, self.start)
            self._offsets = [m.start(1) for m in found] + [len(self.text)]
        return self._offsets[index]

    def fail(self, message: str, at: int | None = None):
        """A ParseError at token ``at``, by default the next one."""
        _fail(self.text, message, self.offset(self.pos if at is None else at))

    def next(self) -> str:
        """The next token, "" at the end of input, and the cursor past it."""
        tok = self.toks[self.pos]
        self.pos += tok != ""
        return tok

    def accept(self, value: str) -> bool:
        if self.toks[self.pos] == value:
            self.pos += 1
            return True
        return False

    def expect(self, value: str):
        tok = self.toks[self.pos]
        if tok != value:
            self.fail(f"expected {value!r}, found {tok or 'end of input'!r}")
        self.pos += 1

    def error(self, message: str):
        self.fail(f"{message} (found {self.toks[self.pos] or 'end of input'!r})")

    def end(self) -> None:
        if self.toks[self.pos]:
            self.error("trailing input")

    def name(self, message: str) -> str:
        """The identifier next, or a ParseError with ``message``."""
        tok = self.toks[self.pos]
        if not _is_name(tok):
            self.fail(message)
        self.pos += 1
        return tok


# Binding powers, loosest first: an operator applies where the context's power
# is below its own, and its operands are read at its own power ("->", which
# associates to the right, in a loop).

_IMPLIES, _OR, _AND, _NOT, _RELATION, _SUM, _PRODUCT = range(1, 8)
_ARITHMETIC = {"+": _SUM, "-": _SUM, "*": _PRODUCT, "/": _PRODUCT}
_RELATIONS = {"<=": Le, "<": lt, "==": eq, "!=": ne, ">=": ge, ">": gt}


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

def _expr(ts: _Tokens, min_bp: int = 0, left: Expr | None = None) -> Expr:
    """An expression whose operators bind tighter than ``min_bp``; given
    ``left``, the operators that follow it."""
    toks = ts.toks
    pos = ts.pos
    if left is None:
        tok = toks[pos]
        if tok[:1] in _NAME_START and tok not in KEYWORDS:
            left = Var(tok)
            pos += 1
        elif tok.isdecimal():
            try:
                left = Lit(int(tok))
            except ValueError:  # more digits than int() reads
                ts.fail(f"a numeral of more than {sys.get_int_max_str_digits()} digits", pos)
            pos += 1
        elif tok == "(":
            ts.pos = pos + 1
            left = _expr(ts)
            ts.expect(")")
            pos = ts.pos
        elif tok == "-":  # a run of "-", read in a loop, over one operand
            start = pos
            while toks[pos] == "-":
                pos += 1
            ts.pos = pos
            left = _expr(ts, _PRODUCT)
            for _ in range(pos - start):
                left = Lit(-left.value) if type(left) is Lit else BinOp("-", Lit(0), left)
            pos = ts.pos
        else:
            ts.error("expected an expression")
    while True:
        op = toks[pos]
        bp = _ARITHMETIC.get(op)
        if bp is None or bp <= min_bp:
            ts.pos = pos
            return left
        ts.pos = pos + 1
        left = BinOp(op, left, _expr(ts, bp))
        pos = ts.pos


# ---------------------------------------------------------------------------
# Formulas: base formulas, labeled formulas and bodies
# ---------------------------------------------------------------------------

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


def _b_not(b: Body) -> Body:
    if isinstance(b, BBase):
        return BBase(NotF(b.fml))
    return BNot(b)


def _b_and(a: Body, b: Body) -> Body:
    if isinstance(a, BBase) and isinstance(b, BBase):
        return BBase(AndF(a.fml, b.fml))
    return BAnd(a, b)


class _Sort:
    """The formulas of one context: what wraps a base formula, the connectives'
    constructors, and the binding power of "||" (bodies bind it as "&&")."""

    def __init__(self, wrap, not_, and_, or_bp: int):
        self.wrap, self.not_, self.and_, self.or_bp = wrap, not_, and_, or_bp


_FML = _Sort(None, NotF, AndF, _OR)
_DLP = _Sort(DBase, _d_not, _d_and, _OR)
_BODY = _Sort(BBase, _b_not, _b_and, _AND)
_FORMULA_STARTS = frozenset(("!", "[", "<", "(", "{", "forall", "true", "false", "?"))


def _formula(ts: _Tokens, sort: _Sort, min_bp: int = 0, bracketed: bool = False):
    """A formula of ``sort`` whose connectives bind tighter than ``min_bp``;
    as the contents of a bracket, also an expression that no relation
    follows."""
    toks = ts.toks
    tok = toks[ts.pos]
    if tok not in _FORMULA_STARTS:  # an expression, and the relation after it
        node = _connectives(ts, sort, _expr(ts), min_bp)
    else:
        prefixes = []  # a run of "!" and modalities, read in a loop, applied innermost first
        while tok == "!" or sort is _BODY and (tok == "[" or tok == "<"):
            ts.pos += 1
            if tok == "!":
                prefixes.append(None)
            else:
                prog = _prog(ts)
                ts.expect("]" if tok == "[" else ">")
                prefixes.append((BBox if tok == "[" else BDia, prog))
            tok = toks[ts.pos]
        if tok == "(":
            ts.pos += 1
            node = _close(ts, _formula(ts, sort, 0, True))
        elif tok == "{" and sort is _DLP:
            node = _labeled(ts)
        elif tok == "forall" or tok == "true" or tok == "false":
            ts.pos += 1
            if tok == "forall":
                name = ts.name("expected a variable after forall")
                ts.expect(".")
                node = Forall(name, _formula(ts, _FML))
            else:
                node = TRUE if tok == "true" else FALSE
            if sort.wrap:
                node = sort.wrap(node)
        elif tok == "?" and sort is _BODY and ts.metavars:
            ts.pos += 1
            node = MBody(ts.name("expected a metavariable name after ?"))
        else:
            node = _expr(ts)
        if prefixes:
            node = _connectives(ts, sort, node, _NOT)
            if isinstance(node, Expr):
                ts.error("expected a relation")
            while prefixes:
                prefix = prefixes.pop()
                node = sort.not_(node) if prefix is None else prefix[0](prefix[1], node)
        node = _connectives(ts, sort, node, min_bp)
    if isinstance(node, Expr) and not bracketed:
        ts.error("expected a relation")
    return node


def _close(ts: _Tokens, inside):
    """``inside``, the contents of a bracket, and the ")" after them; an
    expression that something else follows lacks its relation."""
    if ts.toks[ts.pos] != ")" and isinstance(inside, Expr):
        ts.error("expected a relation")
    ts.expect(")")
    return inside


def _connectives(ts: _Tokens, sort: _Sort, left, min_bp: int):
    """``left`` and the operators after it that bind tighter than
    ``min_bp``: arithmetic and a relation after an expression, then the
    connectives, which build the derived ones from ``not_`` and ``and_``."""
    toks = ts.toks
    if isinstance(left, Expr):
        tok = toks[ts.pos]
        if tok in _ARITHMETIC:
            left = _expr(ts, 0, left)
            tok = toks[ts.pos]
        make = _RELATIONS.get(tok)
        if make is None:
            return left
        ts.pos += 1
        left = make(left, _expr(ts))
        if sort.wrap:
            left = sort.wrap(left)
    while True:
        tok = toks[ts.pos]
        if tok == "&&" and min_bp < _AND:
            ts.pos += 1
            left = sort.and_(left, _formula(ts, sort, _AND))
        elif tok == "||" and min_bp < sort.or_bp:
            ts.pos += 1
            not_ = sort.not_
            left = not_(sort.and_(not_(left), not_(_formula(ts, sort, sort.or_bp))))
        elif tok == "->" and min_bp < _IMPLIES:
            parts = [left]
            while ts.accept("->"):
                parts.append(_formula(ts, sort, _IMPLIES))
            left = parts.pop()
            not_, and_ = sort.not_, sort.and_
            while parts:
                left = not_(and_(parts.pop(), not_(left)))
        else:
            return left


def _labeled(ts: _Tokens) -> DlpFormula:
    start = ts.pos
    sigma = _config(ts)
    ts.expect(":")
    part = _labeled_part(ts, _NOT)
    if isinstance(part, Program):
        ts.expect("⇓")
        factor = _expr(ts) if _starts_expr(ts.toks[ts.pos]) else None
        try:
            return DTer(sigma, part, factor)
        except TermError as exc:  # the factor is not in the label
            ts.fail(str(exc), start)
    if isinstance(part, Expr):
        ts.error("expected a relation")
    return DLabeled(sigma, part)


def _labeled_part(ts: _Tokens, min_bp: int):
    """After a label's ":", a body atom or a termination judgment's program;
    inside a bracket there, a body whose connectives bind tighter than
    ``min_bp``, a program, or an expression.  The first tokens decide."""
    tok = ts.toks[ts.pos]
    if tok == "(":
        ts.pos += 1
        node = _close(ts, _labeled_part(ts, 0))
        if isinstance(node, Program):
            return _prog(ts, node)
        return _connectives(ts, _BODY, node, min_bp)
    if tok == "[":
        ts.pos += 1
        inner = _prog_or_address(ts)
        ts.expect("]")
        if isinstance(inner, Program):
            return _connectives(ts, _BODY, BBox(inner, _formula(ts, _BODY, _NOT)), min_bp)
        ts.expect(":=")
        return _prog(ts, _heap().HeapWrite(inner, _expr(ts)))
    if tok in _PROGRAM_WORDS or _is_name(tok) and ts.toks[ts.pos + 1] == ":=":
        return _prog(ts)
    return _formula(ts, _BODY, min_bp, True)


def _prog_or_address(ts: _Tokens):
    """Inside a "[" right after a label's ":": a program, whose box a body
    follows, or an expression, the address of a heap write."""
    tok = ts.toks[ts.pos]
    if tok == "(":
        ts.pos += 1
        inner = _prog_or_address(ts)
        ts.expect(")")
        return _prog(ts, inner) if isinstance(inner, Program) else _expr(ts, 0, inner)
    if _starts_expr(tok) and ts.toks[ts.pos + 1] != ":=":
        return _expr(ts)
    return _prog(ts)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

_PROGRAM_WORDS = ("skip", "ε", "eps", "if", "while", "dispose")


def _heap():
    """The heap domain, loaded by the first heap statement read or printed,
    so that a While-only run never loads it."""
    from . import sep

    return sep


def _prog(ts: _Tokens, first: Program | None = None) -> Program:
    """A program; given ``first``, the programs ";" joins to it.  ";"
    associates to the right, built in a loop, not one call per ";"."""
    parts = [_prog_atom(ts) if first is None else first]
    while ts.accept(";"):
        parts.append(_prog_atom(ts))
    node = parts.pop()
    while parts:
        node = Seq(parts.pop(), node)
    return node


def _enclosed(ts: _Tokens, opening: str, closing: str) -> Expr:
    ts.expect(opening)
    e = _expr(ts)
    ts.expect(closing)
    return e


def _prog_atom(ts: _Tokens) -> Program:
    tok = ts.toks[ts.pos]
    if ts.metavars and tok == "@":
        ts.pos += 1
        return MProg(ts.name("expected a metavariable name after @"))
    if tok == "(":
        ts.pos += 1
        node = _prog(ts)
        ts.expect(")")
        return node
    if tok == "skip":
        ts.pos += 1
        return SKIP
    if tok == "ε" or tok == "eps":
        ts.pos += 1
        return EPSILON
    if tok == "if":
        ts.pos += 1
        guard = _formula(ts, _FML)
        ts.expect("then")
        then = _prog(ts)
        ts.expect("else")
        orelse = _prog(ts)
        ts.expect("end")
        return If(guard, then, orelse)
    if tok == "while":
        ts.pos += 1
        guard = _formula(ts, _FML)
        ts.expect("do")
        body = _prog(ts)
        ts.expect("end")
        return While(guard, body)
    if tok == "dispose":
        ts.pos += 1
        return _heap().Dispose(_enclosed(ts, "(", ")"))
    if tok == "[":
        addr = _enclosed(ts, "[", "]")
        ts.expect(":=")
        return _heap().HeapWrite(addr, _expr(ts))
    if _is_name(tok):
        ts.pos += 1
        ts.expect(":=")
        if ts.accept("cons"):
            return _heap().Alloc(tok, _enclosed(ts, "(", ")"))
        if ts.toks[ts.pos] == "[":
            return _heap().HeapRead(tok, _enclosed(ts, "[", "]"))
        return Assign(tok, _expr(ts))
    ts.fail(f"expected a program, found {tok or 'end of input'!r}")


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

def _config(ts: _Tokens) -> Config:
    start = ts.pos
    ts.expect("{")
    entries = []
    stack = False
    if not ts.accept("}"):
        while True:
            name = ts.name("expected a variable in configuration")
            ts.expect("->")
            entries.append((name, _expr(ts)))
            if ts.accept("|"):
                stack = True
            elif not ts.accept(","):
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
        at = ts.pos
        name = ts.name("expected a variable in an update")
        if name in out:
            ts.fail(f"update binds {name} twice", at)
        ts.expect(":=")
        out[name] = _expr(ts)
    return out


# ---------------------------------------------------------------------------
# Sequents
# ---------------------------------------------------------------------------

_fml, _dlp, _body = (partial(_formula, sort=sort) for sort in (_FML, _DLP, _BODY))


def _sequent(ts: _Tokens) -> Sequent:
    left = _formula_list(ts, _dlp)
    ts.expect("=>")
    right = _formula_list(ts, _dlp)
    return Sequent(left, right)


def _formula_list(ts: _Tokens, formula) -> tuple:
    if ts.accept(".") or ts.toks[ts.pos] in ("=>", ""):
        return ()
    out = [formula(ts)]
    while ts.accept(","):
        out.append(formula(ts))
    return tuple(out)


def _finish(ts: _Tokens, node):
    ts.end()
    return _capped(node)


def _capped(node):
    """``node``, or a ParseError when it passes a cap (see the module
    docstring): its height first, then, for a tree taller than MAX_NESTING
    only, the nesting count of its printed text."""
    height = _height(node)
    if height > MAX_DEPTH:
        raise ParseError(f"terms nested deeper than {MAX_DEPTH} levels", 1, 1)
    if height > MAX_NESTING and _nesting(_printed(node)) > MAX_NESTING:
        raise ParseError(f"formula nested deeper than {MAX_NESTING} once printed", 1, 1)
    return node


def _height(root) -> int:
    """The height of ``root``: a term, or a sequent or tuple, whose parts add
    no level; each record's parts are its fields."""
    return record.height(root.left + root.right if type(root) is Sequent else root)


def _printed(node) -> str:
    """The text the printers write for ``node``; the parts of a tuple joined
    by ", ", a separator, so that each is counted as if printed apart."""
    if isinstance(node, tuple):
        return ", ".join(map(_printed, node))
    if isinstance(node, Sequent):
        return sequent_src(node)
    if isinstance(node, DlpFormula):
        return dlp_src(node)
    if isinstance(node, (Body, MBody)):
        return body_src(node)
    if isinstance(node, BaseFormula):
        return fml_src(node)
    if isinstance(node, Expr):
        return expr_src(node)
    if isinstance(node, Config):
        return config_src(node)
    return prog_src(node)


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
    left = _formula_list(ts, _body)
    ts.expect("=>")
    right = _formula_list(ts, _body)
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
        try:
            s = str(e.value)
        except ValueError:  # more digits than str() writes
            raise TermError(f"cannot print over {sys.get_int_max_str_digits()} digits") from None
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
    elif isinstance(p, MProg):
        s = f"@{p.name}"
    else:
        s = _heap_src(p)
    return _keep_src(p, s)


def _heap_src(p: Program) -> str:
    heap = _heap()
    if isinstance(p, heap.Alloc):
        return f"{p.target} := cons({expr_src(p.expr)})"
    if isinstance(p, heap.HeapRead):
        return f"{p.target} := [{expr_src(p.addr)}]"
    if isinstance(p, heap.HeapWrite):
        return f"[{expr_src(p.addr)}] := {expr_src(p.expr)}"
    if isinstance(p, heap.Dispose):
        return f"dispose({expr_src(p.addr)})"
    raise TypeError(f"not a program: {p!r}")


def config_src(sigma: Config) -> str:
    joiner = " | " if sigma.stack else ", "
    inner = joiner.join(f"{x} -> {expr_src(e)}" for x, e in sigma.entries)
    return "{" + inner + "}"


def body_src(b: Body) -> str:
    if isinstance(b, MBody):
        return f"?{b.name}"
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
