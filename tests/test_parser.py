from __future__ import annotations

import random

import pytest

from conftest import random_config, random_expr, random_fml
from cycproof.formulas import BBase, DAnd, DBase, DLabeled, DNot
from cycproof.parser import (
    ParseError,
    config_src,
    dlp_src,
    expr_src,
    fml_src,
    parse_config,
    parse_dlp,
    parse_expr,
    parse_fml,
    parse_prog,
    parse_sequent,
    prog_src,
    sequent_src,
)
from cycproof.terms import (
    EPSILON,
    SKIP,
    AndF,
    Assign,
    BinOp,
    If,
    Le,
    Lit,
    NotF,
    Seq,
    Var,
    While,
)

NAMES = ["x", "y", "z"]


def random_prog(rng: random.Random, depth: int = 3):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.15:
            return SKIP
        return Assign(rng.choice(NAMES), random_expr(rng, NAMES, 2))
    kind = rng.randrange(3)
    if kind == 0:
        return Seq(random_prog(rng, depth - 1), random_prog(rng, depth - 1))
    if kind == 1:
        return If(random_fml(rng, NAMES, 1), random_prog(rng, depth - 1), random_prog(rng, depth - 1))
    return While(random_fml(rng, NAMES, 1), random_prog(rng, depth - 1))


def test_roundtrip_random_terms():
    rng = random.Random(5)
    for _ in range(300):
        e = random_expr(rng, NAMES)
        assert parse_expr(expr_src(e)) == e
        f = random_fml(rng, NAMES)
        assert parse_fml(fml_src(f)) == f
        p = random_prog(rng)
        assert parse_prog(prog_src(p)) == p
        c = random_config(rng, NAMES)
        assert parse_config(config_src(c)) == c


def test_derived_connectives_normalize():
    assert parse_fml("a < b") == NotF(Le(Var("b"), Var("a")))
    assert parse_fml("a >= b") == Le(Var("b"), Var("a"))
    assert parse_fml("a == b") == AndF(Le(Var("a"), Var("b")), Le(Var("b"), Var("a")))
    assert parse_fml("a != b") == NotF(parse_fml("a == b"))
    assert parse_fml("a <= 0 || b <= 0") == NotF(
        AndF(NotF(Le(Var("a"), Lit(0))), NotF(Le(Var("b"), Lit(0))))
    )
    assert parse_fml("a <= 0 -> b <= 0") == NotF(
        AndF(Le(Var("a"), Lit(0)), NotF(Le(Var("b"), Lit(0))))
    )


def test_skip_and_terminal_program():
    assert parse_prog("skip") is SKIP
    assert parse_prog("ε") is EPSILON
    assert parse_prog("eps") is EPSILON
    assert prog_src(EPSILON) == "ε"


def test_sequence_is_right_associated():
    p = parse_prog("x := 1 ; y := 2 ; z := 3")
    assert isinstance(p, Seq) and isinstance(p.second, Seq)
    nested = Seq(Seq(Assign("x", Lit(1)), Assign("y", Lit(2))), Assign("z", Lit(3)))
    assert parse_prog(prog_src(nested)) == nested


def test_stack_config_uses_bars():
    sigma = parse_config("{x -> 1 | x -> 2}")
    assert sigma.stack
    assert parse_config(config_src(sigma)) == sigma


def test_labeled_formula_shapes():
    f = parse_dlp("{x -> 0} : [x := x + 1] (x == 1)")
    assert isinstance(f, DLabeled)
    g = parse_dlp("{x -> 0} : (x <= 0 && 0 <= x)")
    assert isinstance(g.body, BBase) and isinstance(g.body.fml, AndF)
    h = parse_dlp("x <= 0 && {y -> 1} : y <= 2")
    assert isinstance(h, DAnd) and isinstance(h.left, DBase)
    n = parse_dlp("!(x <= 0)")
    assert isinstance(n, DBase)  # base operands collapse
    assert isinstance(parse_dlp("!({y -> 1} : y <= 2)"), DNot)


def test_diamond_guard_angle_brackets_do_not_clash():
    f = parse_dlp("{n -> 3} : <while n > 0 do n := n - 1 end> (n == 0)")
    assert isinstance(f, DLabeled)
    assert parse_dlp(dlp_src(f)) == f


def test_sequent_roundtrip_and_empty_sides():
    nu = parse_sequent(". => x <= 0")
    assert nu.left == () and len(nu.right) == 1
    nu2 = parse_sequent("x <= 0, y <= 0 => .")
    assert len(nu2.left) == 2 and nu2.right == ()
    src = sequent_src(nu2)
    assert parse_sequent(src) == nu2


def test_nested_modalities():
    from cycproof.formulas import BBox

    f = parse_dlp("{x -> 0} : [x := 1] [x := 2] (x == 2)")
    assert isinstance(f.body, BBox) and isinstance(f.body.body, BBox)
    assert parse_dlp(dlp_src(f)) == f


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_fml("x <=")
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError):
        parse_prog("while x do skip end")  # guard must be a formula
    with pytest.raises(ParseError):
        parse_expr("1 + ")


def test_primed_identifiers():
    assert parse_expr("x''") == Var("x''")
    assert expr_src(Var("n'")) == "n'"


def test_every_replayed_sequent_roundtrips(oracle, table4_text):
    # printer/parser agree on all mechanically produced node sequents
    from cycproof import script as script_mod

    replayer, report = script_mod.replay(table4_text, oracle)
    assert report.succeeded
    for node in replayer.graph.nodes.values():
        src = sequent_src(node.sequent)
        assert parse_sequent(src) == node.sequent, src


def test_bracket_nesting_has_a_fixed_cap():
    # the deepest context: each level is a parenthesised labeled formula,
    # which the parser first tries as a base formula and then as a dlp
    from cycproof.parser import MAX_NESTING

    def goal(depth: int) -> str:
        return ". => " + "(" * depth + "{x -> 0} : [x := 1] x >= 0" + ")" * depth

    # the innermost ``{...}`` and ``[...]`` are one more level each
    assert parse_sequent(goal(MAX_NESTING - 1)).right
    with pytest.raises(ParseError) as err:
        parse_sequent(goal(MAX_NESTING))
    assert f"nested deeper than {MAX_NESTING}" in str(err.value)
    with pytest.raises(ParseError):
        parse_expr("(" * 300 + "x" + ")" * 300)


def test_prefix_operators_count_toward_the_nesting_cap():
    from cycproof.parser import MAX_NESTING

    assert parse_fml("!" * MAX_NESTING + "x <= 0")
    # "!(" nests one level, as "(" does, so printed negations reparse
    deep = "!(" * 100 + "x <= 0" + ")" * 100
    assert fml_src(parse_fml(deep)) == deep
    for text in ("!" * 1200 + "x <= 0",
                 "!!(" * (MAX_NESTING // 2 + 1) + "x <= 0" + ")" * (MAX_NESTING // 2 + 1),
                 "x <= " + "-" * 1200 + "1"):
        with pytest.raises(ParseError) as err:
            parse_fml(text)
        assert f"nested deeper than {MAX_NESTING}" in str(err.value)
    # a binary minus is no prefix: long chains of it stay flat
    assert parse_expr(" - ".join(["x"] * 400)).op == "-"


def test_binary_operator_chains_have_a_fixed_cap():
    from cycproof.parser import MAX_CHAIN

    plus = "x" + " + 1" * MAX_CHAIN
    assert expr_src(parse_expr(plus)) == plus
    # "||" and "->" build three levels each: "!", "&&" and "!"; one chain of
    # them meets the nesting cap first, so these are spread over guards
    def guards(n: int, op: str) -> str:
        return " ; ".join([f"if x <= 0 {op} x <= 1 then skip else skip end"] * n)

    assert parse_prog(guards(MAX_CHAIN // 3, "||"))
    for text in (plus + " + 1", "x" + " - 1" * (MAX_CHAIN + 1),
                 " && ".join(["x <= 0"] * (MAX_CHAIN + 2)),
                 guards(MAX_CHAIN // 3 + 1, "||"), guards(MAX_CHAIN // 3 + 1, "->")):
        with pytest.raises(ParseError) as err:
            parse_prog(text) if "if" in text else parse_fml(text) if "<=" in text else parse_expr(text)
        assert f"binary operators nested deeper than {MAX_CHAIN}" in str(err.value)
    # the counts add up over the input, as statements in sequence do
    with pytest.raises(ParseError):
        parse_sequent(f"{plus} <= 0 => x + 1 <= 0")
    # a configuration's "->" maps a variable and builds no level
    many = ", ".join(f"x{i} -> {i}" for i in range(MAX_CHAIN + 1))
    assert len(parse_config("{" + many + "}").entries) == MAX_CHAIN + 1


def test_printed_chains_of_or_and_implies_read_back():
    # "a || b" prints as "!(!(a) && !(b))" and "a -> b" as "!(a && !(b))":
    # each chain is refused, or its printed form reads back as the same tree
    from cycproof.parser import MAX_CHAIN, MAX_NESTING

    longest = MAX_NESTING // 2 + 1  # operands: two printed levels per operator
    for op in ("||", "->"):
        for n in range(1, MAX_CHAIN // 3 + 3):
            text = f" {op} ".join(["x <= 0"] * n)
            if n > longest:
                with pytest.raises(ParseError) as err:
                    parse_fml(text)
                assert f"nested deeper than {MAX_NESTING}" in str(err.value)
                continue
            phi = parse_fml(text)
            assert parse_fml(fml_src(phi)) == phi, (op, n)
    # chains inside brackets, behind "!", mixed, in a list and in guards
    rng = random.Random(5)

    def chain(depth: int) -> str:
        roll = rng.random()
        if depth == 0 or roll < 0.2:
            return rng.choice(["x <= 0", "0 <= y", "x == 1"])
        if roll < 0.45:
            return "!" * rng.randint(1, 4) + "(" + chain(depth - 1) + ")"
        if roll < 0.6:
            k = rng.randint(1, 40)
            return "(" * k + chain(depth - 1) + ")" * k
        ops = [rng.choice(["||", "->", "&&"]) for _ in range(rng.randint(1, 6))]
        text = chain(depth - 1)
        for o in ops:
            text += f" {o} " + chain(depth - 1)
        return text

    verdicts = set()
    for _ in range(120):
        text = chain(rng.randint(2, 5))
        try:
            nu = parse_sequent(f"{text}, x <= 0 => {text}")
        except ParseError as err:
            assert "nested deeper than" in str(err), err
            verdicts.add("refused")
            continue
        assert parse_sequent(sequent_src(nu)) == nu, text
        verdicts.add("read back")
        prog = parse_prog(f"while {text} do if x <= 0 || x <= 1 then skip else skip end end")
        assert parse_prog(prog_src(prog)) == prog
    assert verdicts == {"refused", "read back"}
    # separate chains are charged separately: in a list, and in guards
    row = " || ".join(["x <= 0"] * longest)
    assert parse_sequent(f"{row} => {row}")
    assert parse_prog(f"if {row} then skip else skip end ; while {row} do skip end")


def test_parse_error_positions_on_several_lines():
    # line and column of the offending token; the expected values are the
    # ones a character-by-character count gives
    cases = [
        (parse_sequent, "x <= 0,\n  y <= 1\n=> z <= \n\n  $", (5, 3)),
        (parse_sequent, ". =>\n\t{x -> 0} : [x := 1 ;\n   y := ]\n x >= 0", (3, 9)),
        (parse_prog, "while n > 0 do\r\n  s := s + n ;\r\n  n := n - 1\r\nend end", (4, 5)),
        (parse_fml, "x <= 0 &&\n\n\n   (y <= 1 ||\n z <= 2", (5, 8)),
        (parse_fml, "x <= 0 &&\n   (y <= 1 ||\n z <= 2)\n )", (4, 2)),
        (parse_fml, "\n\n\n" + "!(" * 161 + "x <= 0", (4, 321)),
    ]
    for parse, text, where in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == where, text


def _from_deeper(frames: int, call):
    """``call()``, run ``frames`` stack frames deeper than the caller."""
    return call() if frames == 0 else _from_deeper(frames - 1, call)


def test_input_at_each_cap_leaves_stack_to_spare():
    # what the parser accepts must parse and print from well inside a call
    # stack, not only from the top of a fresh interpreter
    from cycproof.parser import MAX_CHAIN, MAX_NESTING, MAX_SEQUENCE

    at_caps = [
        ". => " + "(" * (MAX_NESTING - 1) + "{x -> 0} : [x := 1] x >= 0" + ")" * (MAX_NESTING - 1),
        ". => " + "!(" * MAX_NESTING + "x <= 0" + ")" * MAX_NESTING,
        ". => " + "!" * MAX_NESTING + "x <= 0",
        ". => x <= " + "-" * MAX_NESTING + "1",
        ". => {x -> 0} : [" + " ; ".join(["x := x + 1"] * MAX_SEQUENCE) + "] x >= 0",
        ". => {x -> 0} : [x := x" + " + 1" * MAX_CHAIN + "] x >= 0",
        ". => " + " && ".join(["x <= 0"] * (MAX_CHAIN + 1)),
        ". => " + " || ".join(["x <= 0"] * (MAX_NESTING // 2 + 1)),
        ". => " + " -> ".join(["x <= 0"] * (MAX_NESTING // 2 + 1)),
        ". => {x -> 0} : [" + " ; ".join(["if x <= 0 || x <= 1 then skip else skip end"]
                                        * (MAX_CHAIN // 3)) + "] x >= 0",
        ". => " + " && ".join(["{x -> 0} : [x := 1] x >= 0"] * (MAX_CHAIN + 1)),
    ]
    for text in at_caps:
        nu = _from_deeper(100, lambda: parse_sequent(text))
        assert _from_deeper(100, lambda: sequent_src(nu))


def test_parenthesis_retries_grow_linearly_with_nesting(monkeypatch):
    # each "(" is tried as a relation or base formula before it is read as a
    # bracket; a position that failed once is not parsed again
    from cycproof import parser

    calls = []
    real = parser._fml_atom
    monkeypatch.setattr(parser, "_fml_atom", lambda ts: calls.append(ts.pos) or real(ts))

    def fml_atom_calls(depth: int) -> int:
        calls.clear()
        parse_sequent(". => " + "(" * depth + "{x -> 0} : [x := 1] x >= 0" + ")" * depth)
        return len(calls)

    small, medium, large = (fml_atom_calls(depth) for depth in (20, 40, 80))
    assert large - medium == 2 * (medium - small)
    assert large <= 3 * 80
    # the error for bad input is the one the first attempt raised
    with pytest.raises(ParseError) as err:
        parse_sequent(". => " + "(" * 30 + "{x -> 0} : [x := 1] x >= 0" + ")" * 29)
    assert str(err.value) == "expected ')', found 'end of input' (line 1, column 91)"


def test_sequences_have_a_fixed_cap():
    from cycproof.parser import MAX_SEQUENCE

    def chain(n: int) -> str:
        return " ; ".join(["x := x + 1"] * n)

    prog = parse_prog(chain(MAX_SEQUENCE))
    assert prog_src(prog) == chain(MAX_SEQUENCE)
    with pytest.raises(ParseError) as err:
        parse_prog(chain(MAX_SEQUENCE + 1))
    assert f"more than {MAX_SEQUENCE} statements" in str(err.value)


def test_shared_subterms_print_the_same_under_every_parent():
    # printed text is kept on each BinOp and program node, without the
    # parentheses its parent adds; a node printed under one parent must
    # print under every other, and alone, as a fresh copy does
    rng = random.Random(11)
    shared_exprs = ["-3", "b - c", "a + b", "a * b", "a / -2", "-3 * b"]
    parents = [lambda s: BinOp("*", Var("a"), s), lambda s: BinOp("*", s, Var("a")),
               lambda s: BinOp("-", Var("a"), s), lambda s: BinOp("-", s, Var("a")),
               lambda s: BinOp("/", s, Lit(-2)), lambda s: BinOp("+", s, s), lambda s: s]
    for text in shared_exprs:
        shared = parse_expr(text)
        for make in rng.sample(parents, len(parents)) * 2:
            assert expr_src(make(shared)) == expr_src(make(parse_expr(text))), text
    shared_progs = ["x := 1 ; y := x", "if x <= 0 then x := 1 else skip end", "x := -3 * y"]
    prog_parents = [lambda s: Seq(s, SKIP), lambda s: Seq(SKIP, s), lambda s: Seq(s, s),
                    lambda s: While(Le(Var("x"), Lit(0)), s), lambda s: s]
    for text in shared_progs:
        shared = parse_prog(text)
        for make in rng.sample(prog_parents, len(prog_parents)) * 2:
            assert prog_src(make(shared)) == prog_src(make(parse_prog(text))), text
    # where the parent adds parentheses, and where it does not
    shared = parse_expr("b - c")
    assert expr_src(BinOp("-", Var("a"), shared)) == "a - (b - c)"
    assert expr_src(shared) == "b - c"
    shared = parse_expr("a + b")
    assert expr_src(BinOp("*", shared, Var("c"))) == "(a + b) * c"
    assert expr_src(BinOp("+", shared, Var("c"))) == "a + b + c"
    shared = parse_prog("x := 1 ; y := x")
    assert prog_src(Seq(shared, SKIP)) == "(x := 1 ; y := x) ; skip"
    assert prog_src(shared) == "x := 1 ; y := x"
