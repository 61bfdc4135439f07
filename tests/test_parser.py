from __future__ import annotations

import random

import pytest

from conftest import random_config, random_expr, random_fml, wp_cyclic_script
from cycproof.formulas import BAnd, BBase, BBox, BDia, BNot, DAnd, DBase, DLabeled, DNot, Sequent
from cycproof.parser import (
    ParseError,
    body_src,
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
    parse_template_sequent,
    prog_src,
    sequent_src,
)
from cycproof.record import fields
from cycproof.terms import (
    EPSILON,
    SKIP,
    TRUE,
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
    # a store maps each variable once
    with pytest.raises(ParseError) as err:
        parse_config("{y -> 0,\n  x -> 1, x -> 2}")
    assert "maps a variable twice (line 1, column 1)" in str(err.value)


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


def test_printed_chains_of_or_and_implies_read_back():
    # "a || b" prints as "!(!(a) && !(b))" and "a -> b" as "!(a && !(b))":
    # each chain is refused, or its printed form reads back as the same tree
    from cycproof.parser import MAX_NESTING

    longest = MAX_NESTING // 2 + 1  # operands: two printed levels per operator
    for op in ("||", "->"):
        for n in range(1, MAX_NESTING + 3):
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
        ops = [rng.choice(["||", "->", "&&"]) for _ in range(rng.randint(1, 7))]
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
        # a guard is one level in: its "while" is open
        try:
            prog = parse_prog(f"while {text} do if x <= 0 || x <= 1 then skip else skip end end")
        except ParseError as err:
            assert "nested deeper than" in str(err), err
            continue
        assert parse_prog(prog_src(prog)) == prog
    assert verdicts == {"refused", "read back"}
    # separate chains are measured separately: in a list, and in guards
    row = " || ".join(["x <= 0"] * longest)
    assert parse_sequent(f"{row} => {row}")
    row = " || ".join(["x <= 0"] * (longest - 1))
    assert parse_prog(f"if {row} then skip else skip end ; while {row} do skip end")


def test_printed_relations_read_back_under_every_run_of_negations():
    # "<" and ">" print as "!(...)", "==" as "(a <= b) && (b <= a)" and "!="
    # as both, a level or two deeper than written: each input is refused, or
    # its printed form reads back as the same tree
    from cycproof.parser import MAX_NESTING

    for rel in ("<=", "<", "==", "!=", ">=", ">"):
        for text in ("!" * n + f"(x {rel} 0)" for n in range(MAX_NESTING + 2)):
            try:
                phi = parse_fml(text)
            except ParseError as err:
                assert f"nested deeper than {MAX_NESTING}" in str(err)
                continue
            assert parse_fml(fml_src(phi)) == phi, (rel, text.count("!"))
    # "<=" and ">=" print as written, up to the cap
    assert parse_fml("!" * MAX_NESTING + "x <= 0") and parse_fml("!" * MAX_NESTING + "x >= 0")
    with pytest.raises(ParseError):
        parse_fml("!" * MAX_NESTING + "x < 0")


def _near_the_cap(rng: random.Random, depth: int) -> str:
    """A random labeled or base formula with runs of "!" and brackets that
    reach towards the nesting cap."""

    def run() -> str:
        return "!" * rng.choice([0, 0, 0, 1, 2, 60, 120, 150, 157, 158, 159, 160])

    def atom() -> str:
        return rng.choice(["x < 0", "x > y", "x == 1", "x != y", "x <= 0", "x >= y",
                           "true", "false", "(x + 1) < y"])

    def fml(d: int) -> str:
        roll = rng.random()
        if d == 0 or roll < 0.3:
            return run() + atom()
        if roll < 0.5:
            return run() + "(" + fml(d - 1) + ")"
        if roll < 0.6:
            return run() + "forall q . " + fml(d - 1)
        ops = [rng.choice(["&&", "||", "->"]) for _ in range(rng.randint(1, 3))]
        return f" {ops[0]} ".join(fml(d - 1) for _ in range(2)) + "".join(
            f" {o} " + fml(d - 1) for o in ops[1:])

    def body(d: int) -> str:
        roll = rng.random()
        if d == 0 or roll < 0.3:
            return run() + rng.choice([atom(), "(" + fml(1) + ")"])
        if roll < 0.5:
            return run() + rng.choice(["[x := 1] ", "<x := 1> "]) + body(d - 1)
        parts = [body(d - 1) for _ in range(rng.randint(2, 4))]
        return run() + "(" + f" {rng.choice(['&&', '||', '->'])} ".join(parts) + ")"

    if rng.random() < 0.5:
        return fml(depth)
    return run() + "{x -> 0} : " + body(depth)


def test_printed_formulas_read_back_near_the_nesting_cap():
    # the charges for relations, "&&" operands, labels' bodies, and "!"
    # before a bracket, a label or a quantifier: refused or read back
    rng = random.Random(17)
    verdicts = set()
    for _ in range(400):
        text = ", ".join(_near_the_cap(rng, rng.randint(1, 3)) for _ in range(2)) + " => x <= 0"
        try:
            nu = parse_sequent(text)
        except ParseError as err:
            assert "nested deeper than" in str(err), err
            verdicts.add("refused")
            continue
        assert parse_sequent(sequent_src(nu)) == nu, text
        verdicts.add("read back")
    assert verdicts == {"refused", "read back"}


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
    from cycproof.parser import MAX_DEPTH, MAX_NESTING

    at_caps = [
        ". => " + "(" * (MAX_NESTING - 1) + "{x -> 0} : [x := 1] x >= 0" + ")" * (MAX_NESTING - 1),
        ". => " + "!(" * MAX_NESTING + "x <= 0" + ")" * MAX_NESTING,
        ". => " + "!" * MAX_NESTING + "x <= 0",
        ". => x <= " + "-" * MAX_NESTING + "1",
        ". => {x -> 0} : [" + " ; ".join(["x := x + 1"] * (MAX_DEPTH - 4)) + "] x >= 0",
        ". => {x -> 0} : [x := x" + " + 1" * (MAX_DEPTH - 4) + "] x >= 0",
        ". => " + " && ".join(["x <= 0"] * (MAX_DEPTH - 2)),
        ". => " + " || ".join(["x <= 0"] * (MAX_NESTING // 2 + 1)),
        ". => " + " -> ".join(["x <= 0"] * (MAX_NESTING // 2 + 1)),
        ". => {x -> 0} : [" + " ; ".join(["if x <= 0 || x <= 1 then skip else skip end"]
                                        * (MAX_DEPTH - 7)) + "] x >= 0",
        ". => " + " && ".join(["{x -> 0} : [x := 1] x >= 0"] * (MAX_DEPTH - 4)),
    ]
    for text in at_caps:
        nu = _from_deeper(100, lambda: parse_sequent(text))
        assert _from_deeper(100, lambda: sequent_src(nu))


def _same_tree(a, b) -> bool:
    """``a == b`` for terms, in a loop: the generated ``==`` recurses a few
    frames per level and overflows on trees near MAX_DEPTH."""
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if type(a) is not type(b):
            return False
        if a_fields := fields(a):
            pairs.extend((getattr(a, f.name), getattr(b, f.name)) for f in a_fields)
        elif isinstance(a, tuple):
            if len(a) != len(b):
                return False
            pairs.extend(zip(a, b))
        elif a != b:
            return False
    return True


def _template_src(sides: tuple) -> str:
    left, right = (", ".join(body_src(b) for b in side) or "." for side in sides)
    return f"{left} => {right}"


_FORMS = {
    "expr": (parse_expr, expr_src),
    "fml": (parse_fml, fml_src),
    "prog": (parse_prog, prog_src),
    "sequent": (parse_sequent, sequent_src),
    "template": (parse_template_sequent, _template_src),
}


def _nesting_forms():
    """(form, text of n, the largest n accepted, the cap it meets)."""
    from cycproof.parser import MAX_DEPTH as D, MAX_NESTING as N

    labeled = "{x -> 0} : [x := 1] x >= 0"
    return [
        # brackets and prefix operators, counted as written
        ("sequent", lambda n: ". => " + "(" * n + labeled + ")" * n, N - 1, N),
        ("expr", lambda n: "(" * n + "x" + ")" * n, N, N),
        ("fml", lambda n: "!(" * n + "x <= 0" + ")" * n, N, N),
        ("sequent", lambda n: ". => x <= " + "-" * n + "1", N, N),
        ("prog", lambda n: "while x <= 0 do " * n + "skip" + " end" * n, N, N),
        ("prog", lambda n: "if x <= 0 then " * n + "skip" + " else skip end" * n, N, N),
        ("fml", lambda n: "forall q . " * n + "x <= q", N, N),
        # deeper once printed: "!" and relations as "!(...)", "||" and "->"
        # two levels per operator, "!forall" as "!(forall ...)"
        ("fml", lambda n: "!" * n + "x <= 0", N, N),
        ("fml", lambda n: "!" * n + "(x + 1 < x)", N - 1, N),
        ("fml", lambda n: "!!(" * n + "x <= 0" + ")" * n, N // 2, N),
        ("fml", lambda n: " || ".join(["x <= 0"] * n), N // 2 + 1, N),
        ("fml", lambda n: " -> ".join(["x <= 0"] * n), N // 2 + 1, N),
        ("sequent", lambda n: ". => " + " -> ".join([labeled] * n), N // 2, N),
        ("template", lambda n: ". => " + " -> ".join(["[x := 1] x >= 0"] * n), N // 2 + 1, N),
        ("fml", lambda n: "!forall q . " * n + "x <= q", N // 2, N),
        # chains read in loops that build deep trees
        ("expr", lambda n: "x" + " + 1" * n, D - 1, D),
        ("expr", lambda n: " - ".join(["x"] * n), D, D),
        ("fml", lambda n: " && ".join(["x <= 0"] * n), D - 1, D),
        ("sequent", lambda n: ". => " + " && ".join([labeled] * n), D - 4, D),
        ("prog", lambda n: " ; ".join(["x := x + 1"] * n), D - 2, D),
        ("prog", lambda n: " ; ".join(["if x <= 0 || x <= 1 then skip else skip end"] * n),
         D - 5, D),
        ("sequent", lambda n: ". => {x -> 0} : " + "[x := 1] " * n + "x >= 0", D - 4, D),
        ("sequent", lambda n: ". => {x -> 0} : " + ("!" * 150 + "[x := 1] ") * n + "x <= 0",
         (D - 4) // 151, D),
    ]


def test_every_nesting_form_meets_its_cap():
    # at its cap each form parses, prints and reads back as the same tree; one
    # step past, it is a ParseError naming the cap, from the top of the stack
    # and from 100 frames deeper alike
    for form, text, largest, cap in _nesting_forms():
        parse, src = _FORMS[form]
        for frames in (0, 100):
            tree = _from_deeper(frames, lambda: parse(text(largest)))
            printed = _from_deeper(frames, lambda: src(tree))
            assert _same_tree(_from_deeper(frames, lambda: parse(printed)), tree), (form, largest)
            with pytest.raises(ParseError) as err:
                _from_deeper(frames, lambda: parse(text(largest + 1)))
            assert f"nested deeper than {cap}" in str(err.value), (form, largest, err.value)
    # a configuration's "->" maps a variable and builds no level
    many = ", ".join(f"x{i} -> {i}" for i in range(1000))
    assert len(parse_config("{" + many + "}").entries) == 1000


def _random_body(rng: random.Random, depth: int):
    # the plain constructors: the walk must follow the printers on any tree
    if depth == 0 or rng.random() < 0.3:
        return BBase(random_fml(rng, NAMES, 2))
    kind = rng.randrange(4)
    if kind == 0:
        return BNot(_random_body(rng, depth - 1))
    if kind == 1:
        return BAnd(_random_body(rng, depth - 1), _random_body(rng, depth - 1))
    return (BBox if kind == 2 else BDia)(random_prog(rng, 2), _random_body(rng, depth - 1))


def _random_dlp(rng: random.Random, depth: int):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return DLabeled(random_config(rng, NAMES), _random_body(rng, 3))
    if roll < 0.45:
        return DBase(random_fml(rng, NAMES, 2))
    if roll < 0.7:
        return DNot(_random_dlp(rng, depth - 1))
    return DAnd(_random_dlp(rng, depth - 1), _random_dlp(rng, depth - 1))


def test_printed_nesting_walk_counts_as_the_tokenizer(oracle, table4_text):
    # the nesting the walk measures on a tree is the tokenizer's count of the
    # tree's printed text: on generated terms, some negated up to the cap and
    # past it, on parsed near-cap inputs, and on the table4 replay's sequents
    from cycproof import script as script_mod
    from cycproof.parser import MAX_NESTING, _measure, _nesting

    rng = random.Random(23)
    cases = []
    for _ in range(300):
        negated = random_fml(rng, NAMES)
        for _ in range(rng.choice([0, 0, 150, 158, 159, 160])):
            negated = NotF(negated)
        sides = ([_random_dlp(rng, 3) for _ in range(rng.randrange(3))] for _ in range(2))
        cases += [(random_expr(rng, NAMES), expr_src), (random_fml(rng, NAMES), fml_src),
                  (negated, fml_src), (random_prog(rng), prog_src),
                  (random_config(rng, NAMES), config_src),
                  (Sequent(*map(tuple, sides)), sequent_src)]
    near = random.Random(17)
    for _ in range(200):
        try:
            cases.append((parse_sequent(_near_the_cap(near, near.randint(1, 3)) + " => ."),
                          sequent_src))
        except ParseError:
            pass
    replayer, _ = script_mod.replay(table4_text, oracle)
    cases += [(node.sequent, sequent_src) for node in replayer.graph.nodes.values()]
    replayer, _ = script_mod.replay(wp_cyclic_script(), oracle)
    for node in replayer.graph.nodes.values():  # termination judgments
        judgment = node.sequent.right[0]
        cases += [(node.sequent, sequent_src), (DAnd(DBase(TRUE), judgment), dlp_src)]
        cases += [(_negated(judgment, k), dlp_src) for k in (1, 157, 158, 159)]
    heap = ["x := cons(-3) ; [x * -2] := -1 ; y := [0 - x] ; dispose(x - -1)",
            "while !(x <= 0) do [x] := x * (y - 1) ; y := cons((x)) end"]
    cases += [(parse_prog(text), prog_src) for text in heap]
    past = 0
    for tree, src in cases:
        text = src(tree)
        nesting = _measure(tree)[1]
        counted = _nesting(text)
        if counted > MAX_NESTING:
            assert nesting > MAX_NESTING, text
            past += 1
            continue
        assert nesting == counted, text
    assert past


def test_each_token_is_read_once(monkeypatch):
    # the cursor only moves forward, one token at a time: no bracket or label
    # is read again, at any nesting
    from cycproof import parser

    moves = []

    class Cursor:  # ``pos`` of a token stream, recording each value it takes
        def __get__(self, ts, owner):
            return ts.__dict__["_pos"]

        def __set__(self, ts, value):
            moves.append(value)
            ts.__dict__["_pos"] = value

    monkeypatch.setattr(parser._Tokens, "pos", Cursor(), raising=False)
    labeled = "{x -> 0} : [x := 1] x >= 0"  # 14 tokens
    for depth in (20, 40, 80):
        moves.clear()
        parse_sequent(". => " + "(" * depth + labeled + ")" * depth)
        assert moves == list(range(2 + 2 * depth + 14 + 1)), depth
    # the error for bad input names the first token that cannot be read
    with pytest.raises(ParseError) as err:
        parse_sequent(". => " + "(" * 30 + labeled + ")" * 29)
    assert str(err.value) == "expected ')', found 'end of input' (line 1, column 91)"


def test_a_missing_program_names_the_end_of_input():
    # as every other parse error does, not as the empty token
    for text, column in (("x := 1 ;", 9), ("while x <= 0 do", 16), ("", 1)):
        with pytest.raises(ParseError) as err:
            parse_prog(text)
        assert str(err.value) == (
            f"expected a program, found 'end of input' (line 1, column {column})")
    with pytest.raises(ParseError, match="expected a program, found '\\)'"):
        parse_prog("x := 1 ; )")


def test_decision_points_read_as_pinned():
    # a bracket's sort, a label's body or judgment, the label's and the
    # connectives' binding, and template holes: the tree or error each gives
    from cycproof.formulas import DTer
    from cycproof.lifting import MBody, MProg
    from cycproof.sep import HeapWrite
    from cycproof.terms import Config

    x, y, v = Var("x"), Var("y"), Var("v")
    zero, one, two = Lit(0), Lit(1), Lit(2)
    at_0, at_v = Config((("x", zero),)), Config((("x", v),))

    def or_(a, b):
        return NotF(AndF(NotF(a), NotF(b)))

    trees = [
        (parse_fml, "(x + 1) <= y", Le(BinOp("+", x, one), y)),
        (parse_fml, "((x)) <= 1", Le(x, one)),
        (parse_fml, "((x <= 1))", Le(x, one)),
        (parse_fml, "-(x) <= 1", Le(BinOp("-", zero, x), one)),
        (parse_fml, "!(x <= 0) && (y <= 1)", AndF(NotF(Le(x, zero)), Le(y, one))),
        # after a label, "[" holds a program (a box) or an address (a heap
        # write), and "(" a body or a program
        (parse_dlp, "{x -> 0} : [x := 1] x >= 0",
         DLabeled(at_0, BBox(Assign("x", one), BBase(Le(zero, x))))),
        (parse_dlp, "{x -> v} : [x] := 1 ⇓ v", DTer(at_v, HeapWrite(x, one), v)),
        (parse_dlp, "{x -> v} : (x := 1 ; x := 2) ⇓ v",
         DTer(at_v, Seq(Assign("x", one), Assign("x", two)), v)),
        # the label binds tighter than "&&"
        (parse_dlp, "{x -> 0} : x <= 1 && y <= 2",
         DAnd(DLabeled(at_0, BBase(Le(x, one))), DBase(Le(y, two)))),
        # bodies bind "&&" and "||" alike, from the left; formulas do not
        (parse_dlp, "{x -> 0} : (x >= 0 && x <= 1 || x >= 2)",
         DLabeled(at_0, BBase(or_(AndF(Le(zero, x), Le(x, one)), Le(two, x))))),
        (parse_dlp, "{x -> 0} : (x <= 0 || x <= 1 && x <= 2)",
         DLabeled(at_0, BBase(AndF(or_(Le(x, zero), Le(x, one)), Le(x, two))))),
        (parse_fml, "x <= 0 || x <= 1 && x <= 2",
         or_(Le(x, zero), AndF(Le(x, one), Le(x, two)))),
        (parse_template_sequent, "?a && [@p] ?b => <@p> !?a",
         ((BAnd(MBody("a"), BBox(MProg("p"), MBody("b"))),),
          (BDia(MProg("p"), BNot(MBody("a"))),))),
    ]
    for parse, text, tree in trees:
        assert parse(text) == tree, text
    for text, message in [
        ("{x -> 0} : x := 1 ⇓",
         "a judgment on a non-terminal program needs a factor (line 1, column 1)"),
        ("{x -> v} : (x := 1 ; x := 2) ⇓ w",
         "the factor must occur inside the configuration (line 1, column 1)"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_dlp(text)
        assert str(err.value) == message, text


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


def _negated(formula, k: int):
    for _ in range(k):
        formula = DNot(formula)
    return formula


def test_termination_judgments_read_back_as_printed():
    from cycproof.formulas import DTer

    for text in [
        ". => {n -> 2} : n := n - 1 ⇓ 2",
        "v >= 0 => {n -> v, s -> 0} : while n > 0 do s := s + n ; n := n - 1 end ⇓ v",
        ". => {n -> 1} : ε ⇓, !({x -> y - 1} : skip ⇓ y - 1) && x <= 0",
        ". => ({n -> 1 | n -> 2} : (n := 0 ; skip) ; skip ⇓ 1)",
    ]:
        seq = parse_sequent(text)
        assert parse_sequent(sequent_src(seq)) == seq, text
    assert parse_dlp("{n -> 2} : n := n - 1 ⇓ 2") == DTer(
        parse_config("{n -> 2}"), parse_prog("n := n - 1"), Lit(2))
    # a body is read first, and the judgment only where no body parses
    assert isinstance(parse_dlp("{n -> 2} : [n := 1] n <= 1"), DLabeled)
    for bad, message in [
        ("{n -> 2} : n := n - 1 ⇓ 3", "factor must occur"),
        ("{n -> 2} : n := n - 1 ⇓", "needs a factor"),
        ("{n -> 2} : n := n - 1", "expected '⇓'"),
        ("{n -> 2} : [n := ] n <= 1", "expected an expression"),
    ]:
        with pytest.raises(ParseError, match=message):
            parse_dlp(bad)


def test_reader_ends_each_term_where_the_grammar_does():
    from cycproof.parser import MAX_DEPTH, Reader

    r = Reader("{premise := p, q := (1 + premise)} premise . => x <= premise split")
    assert r.update() == {"premise": Var("p"), "q": parse_expr("1 + premise")}
    r.expect("premise")
    assert r.sequent() == parse_sequent(". => x <= premise")
    assert r.accept("split") and not r.accept("split")
    r.end()
    r = Reader("factor >= 0 factor factor")
    assert r.fml() == parse_fml("factor >= 0")
    r.expect("factor")
    assert r.expr() == Var("factor")
    r.end()
    r = Reader("x <= 0 y")
    r.fml()
    with pytest.raises(ParseError, match="trailing input"):
        r.end()
    for text, read, message in [
        ("{x := 1, x := 2}", Reader.update, "binds x twice"),
        ("{x := 1 y := 2}", Reader.update, "expected ','"),
        ("{x := 1,}", Reader.update, "expected a variable"),
        ("{x -> 1}", Reader.update, "expected ':='"),
        (" + ".join(["1"] * (MAX_DEPTH + 1)), Reader.expr, "deeper than"),
    ]:
        with pytest.raises(ParseError, match=message):
            read(Reader(text))
