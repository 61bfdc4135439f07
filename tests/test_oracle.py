from __future__ import annotations

import ast
import random
import sys
from itertools import product
from pathlib import Path

import pytest

from conftest import random_expr, random_fml
from cycproof import oracle as oracle_module
from cycproof.oracle import (
    BoundedOracle,
    BoundedValid,
    Invalid,
    Unknown,
    Valid,
)
from cycproof.parser import fml_src, parse_expr, parse_fml
from cycproof.smt import SmtOracle, emit_smtlib
from cycproof.terms import (
    AndF,
    BinOp,
    DivisionByZero,
    Forall,
    Le,
    Lit,
    NotF,
    Var,
    eval_bool,
    free_vars,
)


def test_case_split_lemma_is_bounded_valid(oracle):
    out = oracle.valid_sequent([parse_fml("v - m >= 0")], [parse_fml("v - m > 0 || v - m <= 0")])
    assert isinstance(out, BoundedValid)


def test_loop_exit_equality_is_bounded_valid(oracle):
    out = oracle.valid_sequent(
        [parse_fml("v - m >= 0"), parse_fml("v - m <= 0")],
        [parse_fml("((2 * v - m + 1) * m) / 2 == ((v + 1) * v) / 2")],
    )
    assert isinstance(out, BoundedValid)


def test_invalid_comes_with_witness(oracle):
    out = oracle.valid_sequent([], [parse_fml("0 > 0")])
    assert isinstance(out, Invalid)
    out2 = oracle.valid_sequent([], [parse_fml("x > 0")])
    assert isinstance(out2, Invalid)
    rho = out2.witness_map()
    assert not eval_bool(rho, parse_fml("x > 0"))


def test_bounded_mode_never_claims_validity(oracle):
    out = oracle.valid_sequent([], [parse_fml("0 <= 0")])
    assert isinstance(out, BoundedValid) and not isinstance(out, Valid)


def test_bounded_agrees_with_truth_table():
    oracle = BoundedOracle(-3, 3)
    rng = random.Random(9)

    for _ in range(60):
        gamma = [random_fml(rng, ["x", "y"], 1)]
        delta = [random_fml(rng, ["x", "y"], 1)]
        out = oracle.valid_sequent(gamma, delta)
        brute = True
        witness = None
        for x in range(-3, 4):
            for y in range(-3, 4):
                rho = {"x": x, "y": y}
                try:
                    if eval_bool(rho, gamma[0], (-3, 3)) and not eval_bool(
                        rho, delta[0], (-3, 3)
                    ):
                        brute = False
                        witness = rho
                        break
                except ArithmeticError:
                    brute = None
                    break
            if brute is not True:
                break
        if brute is None:
            assert isinstance(out, Unknown)
        elif brute:
            assert isinstance(out, BoundedValid)
        else:
            assert isinstance(out, Invalid)
            assert out.witness_map() is not None


def test_grid_cap_returns_unknown():
    oracle = BoundedOracle(-50, 50, max_points=100)
    out = oracle.valid_sequent([], [parse_fml("x + y + z <= 200")])
    assert isinstance(out, Unknown)
    # the cap comes before the literals are read, even for an axiom
    axiom = parse_fml("w + x + y + z <= 0")
    out = BoundedOracle(-50, 50).valid_sequent([axiom], [axiom])
    assert isinstance(out, Unknown) and "exceed" in out.reason
    # ... and it caps the full product, even when every independent group
    # fits and one of them alone has no counterexample
    small = BoundedOracle(-50, 50, max_points=10_000)
    for right in ("y <= 0", "y * y >= 0"):
        out = small.valid_sequent([parse_fml("x <= 0")], [parse_fml(right)])
        assert isinstance(out, Unknown) and "10201 grid points" in out.reason, right


def test_empty_ranges_are_refused():
    # over an empty quantifier range every ``forall`` would hold vacuously
    for kwargs in ({"lo": 1, "hi": 0}, {"lo": -3, "hi": 3, "quantifier_range": (2, 1)}):
        with pytest.raises(ValueError, match="empty"):
            BoundedOracle(**kwargs)


def test_total_sequents_are_decided_from_their_literals(monkeypatch):
    compiled = []
    real = oracle_module._compile_scan

    def spy(names, gamma, delta, **options):
        compiled.append((names, tuple(map(fml_src, gamma)), tuple(map(fml_src, delta))))
        return real(names, gamma, delta, **options)

    monkeypatch.setattr(oracle_module, "_compile_scan", spy)
    oracle = BoundedOracle(-3, 3)

    def ask(left, right):
        compiled.clear()
        return oracle.valid_sequent([parse_fml(f) for f in left], [parse_fml(f) for f in right])

    # axioms, constant literals and closed sequents: no scan
    assert ask(["x <= y"], ["!(y < x)"]) == BoundedValid() and not compiled
    assert ask(["x <= y && 1 <= 0"], ["y <= x"]) == BoundedValid() and not compiled
    assert ask(["x <= y"], ["!(1 <= 0)"]) == BoundedValid() and not compiled
    assert ask(["2 * 3 == 6"], ["7 / 2 == 4"]) == Invalid(()) and not compiled
    # what is left is scanned from its distinct free literals
    assert ask(["x <= y", "0 <= 1 && x <= y"], ["y <= x", "1 <= 0", "!(x <= y)"]) == Invalid(
        (("x", -3), ("y", -2)))
    assert compiled == [(["x", "y"], ("x <= y",), ("y <= x",))]
    # a division by a variable keeps the whole sequent, in its own order
    out = ask(["x <= 0"], ["1 / (x - x) <= 0", "x <= 0"])
    assert isinstance(out, Unknown) and "evaluation error" in out.reason
    assert compiled == [(["x"], ("x <= 0",), ("1 / (x - x) <= 0", "x <= 0"))]
    assert ask(["1 <= 0"], ["1 / 0 <= 0"]) == BoundedValid()
    assert compiled == [([], ("1 <= 0",), ("1 / 0 <= 0",))]


def test_independent_groups_share_compiled_scans_by_shape(monkeypatch):
    compiled = []
    real = oracle_module._compile_scan

    def spy(names, gamma, delta, **options):
        compiled.append((names, tuple(map(fml_src, gamma)), tuple(map(fml_src, delta))))
        return real(names, gamma, delta, **options)

    monkeypatch.setattr(oracle_module, "_compile_scan", spy)
    oracle = BoundedOracle(-3, 3)
    assert oracle.valid_sequent([], [parse_fml("x <= 0")]) == Invalid((("x", 1),))
    assert oracle.valid_sequent([], [parse_fml("x <= 1")]) == Invalid((("x", 2),))
    # the first sequent with x renamed: the same shape, so its scan is reused
    assert oracle.valid_sequent([], [parse_fml("y <= 0")]) == Invalid((("y", 1),))
    assert compiled == [(["x"], (), ("x <= 0",)), (["x"], (), ("x <= 1",))]
    # three groups whose names interleave, each compiled once: b <= 0 sits
    # on the left, so it is not of the shape of x <= 0 on the right
    compiled.clear()
    out = oracle.valid_sequent([parse_fml("a <= c"), parse_fml("b <= 0")],
                               [parse_fml("c <= 0"), parse_fml("d * d <= 4")])
    assert out == Invalid((("a", -3), ("b", -3), ("c", 1), ("d", -3)))
    assert compiled == [(["a", "c"], ("a <= c",), ("c <= 0",)), (["b"], ("b <= 0",), ()),
                        (["d"], (), ("d * d <= 4",))]
    # ... but p <= 0 on the left is
    compiled.clear()
    assert oracle.valid_sequent([parse_fml("p <= 0")], []) == Invalid((("p", -3),))
    assert compiled == []
    # one template, the names in the other order: a shape of its own
    assert oracle.valid_sequent([], [parse_fml("x <= y")]) == Invalid((("x", -2), ("y", -3)))
    assert oracle.valid_sequent([], [parse_fml("y <= x")]) == Invalid((("x", -3), ("y", -2)))
    assert len(compiled) == 2


def _placement(tree) -> list:
    """``[(loop variable, names its test reads, its assignments)]`` for each
    level of a compiled scan's loop nest, from the function's body in."""
    rows, body, loop = [], tree.body[0].body, None
    while True:
        test, assigns = [], []
        if isinstance(body[0], ast.If):
            test = sorted({n.id for n in ast.walk(body[0].test) if isinstance(n, ast.Name)})
            body = body[0].body
        while isinstance(body[0], ast.Assign):
            assigns.append(ast.unparse(body[0]))
            body = body[1:]
        rows.append((loop, test, assigns))
        if not isinstance(body[0], ast.For):
            return rows
        loop, body = body[0].target.id, body[0].body


def _ranges(tree) -> list:
    """The source of what each loop of a compiled scan iterates over, from
    the outermost loop in."""
    loops = [n for n in ast.walk(tree) if isinstance(n, ast.For)]
    return [ast.unparse(loop.iter) for loop in loops]


def test_total_groups_test_each_literal_where_its_variables_are_bound(monkeypatch):
    trees = []

    def spy(tree, *args):
        trees.append(tree)
        return compile(tree, *args)

    monkeypatch.setattr(oracle_module, "compile", spy, raising=False)
    oracle = BoundedOracle(-3, 3)
    # m, v, w in that order: Gamma binds at v, where its two literals are
    # linear in v and narrow v's loop to v = m, and the polynomials over m and
    # v are computed once per (m, v), not at each w
    gamma = [parse_fml("0 <= v - m"), parse_fml("v - m <= 0")]
    delta = [parse_fml("w + 2 + 6 * (((2 * v - m + 1) * m) / 2) <= w + 2 + 6 * (((v + 1) * v) / 2)")]
    assert oracle.valid_sequent(gamma, delta) == BoundedValid()
    tree = trees.pop()
    assert _placement(tree) == [
        (None, [], []),
        ("_v0", [], []),
        ("_v1", [], ["_h0 = 6 * _tdiv((2 * _v1 - _v0 + 1) * _v0, 2)",
                     "_h1 = 6 * _tdiv((_v1 + 1) * _v1, 2)"]),
        ("_v2", ["_h0", "_h1", "_v2"], []),
    ]
    assert _ranges(tree) == ["_span", "range(max(_span[0], _v0), min(_span[-1], _v0) + 1)",
                             "_span"]
    # a subterm over no variable is computed before the loops, and one in a
    # quantifier's body that mentions its variable stays in the body
    out = oracle.valid_sequent([parse_fml("forall q . q * a + b * b <= a * a + 7 * 3")],
                               [parse_fml("a * a <= b + q")])
    assert isinstance(out, Invalid)
    tree = trees.pop()
    assert _placement(tree) == [
        (None, [], ["_h0 = 7 * 3"]),
        ("_v0", [], ["_h1 = _v0 * _v0 + _h0", "_h2 = _v0 * _v0"]),
        ("_v1", ["_b0", "_h1", "_qspan", "_v0", "_v1", "all"], []),
        ("_v2", [], []),
    ]
    # the forall stays a test; a * a <= b + q on the right is linear in q and
    # fails where q <= a * a - b - 1, which bounds q's loop instead
    assert _ranges(tree) == ["_span", "_span",
                             "range(_span[0], min(_span[-1], -_v1 + _h2 - 1) + 1)"]
    # an obligation that is not total keeps one test, in the innermost loop
    out = oracle.valid_sequent([parse_fml("a / b <= 1")], [parse_fml("a * a <= b")])
    assert out == Invalid((("a", -3), ("b", -3)))
    assert _placement(trees.pop()) == [(None, [], []), ("_v0", [], []),
                                       ("_v1", ["_tdiv", "_v0", "_v1"], [])]


def test_hoisted_subterms_are_keyed_by_structure_and_rank():
    # one compiled scan serves every group of its shape, whatever its names:
    # a subterm's key holds its variables' ranks, not their names or text
    keys = []
    for a, b in (("a", "b"), ("y", "x")):
        temporaries = oracle_module._Temporaries(2)
        for text in (f"({a} * {a} + 1) * {b}", f"{a} * {a} + {b}", f"{b} - ({a} * {a} + 1)"):
            temporaries.term(parse_expr(text), {a: "_v0", b: "_v1"}, here=1)
        keys.append(temporaries.names)
    assert keys[0] == keys[1] and len(keys[0]) == 2


# ---------------------------------------------------------------------------
# SMT-LIB emission and the external solver protocol
# ---------------------------------------------------------------------------

def test_emission_shape():
    text = emit_smtlib(
        [parse_fml("x / 2 >= 0")], [parse_fml("x >= 0")]
    )
    assert text.splitlines()[0] == "(set-logic QF_NIA)"
    assert "(declare-const |x| Int)" in text
    assert "tdiv" in text
    # the divisor guard sits inside the one assertion, as its definedness
    assert ("(assert (not (and (not (= 2 0)) "
            "(=> (<= 0 (cycproof-tdiv |x| 2)) (<= 0 |x|)))))") in text
    assert "(check-sat)" in text


def test_emission_rejects_quantifiers():
    oracle = SmtOracle([sys.executable, "-c", "pass"])
    out = oracle.valid_sequent([], [parse_fml("forall x . x <= x")])
    assert isinstance(out, Unknown)


def _fake_solver(tmp_path: Path, body: str) -> str:
    path = tmp_path / "solver.py"
    path.write_text(body)
    return f"{sys.executable} {path}"


def test_unsat_maps_to_valid(tmp_path):
    cmd = _fake_solver(tmp_path, "import sys; sys.stdin.read(); print('unsat')\n")
    out = SmtOracle(cmd).valid_sequent([], [parse_fml("0 <= 0")])
    assert isinstance(out, Valid)


def test_sat_maps_to_invalid_with_model(tmp_path):
    cmd = _fake_solver(
        tmp_path,
        "import sys; sys.stdin.read()\n"
        "print('sat')\n"
        "print('(model (define-fun x () Int (- 3)) (define-fun y () Int 7))')\n",
    )
    out = SmtOracle(cmd).valid_sequent([], [parse_fml("x > y")])
    assert isinstance(out, Invalid)
    assert out.witness_map() == {"x": -3, "y": 7}


def test_a_model_value_past_the_digit_limit_is_left_out_of_the_witness(tmp_path):
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not digits:
        pytest.skip("no integer string limit")
    cmd = _fake_solver(
        tmp_path,
        "import sys; sys.stdin.read()\n"
        "print('sat')\n"
        f"print('(model (define-fun |x| () Int {'9' * (digits + 1)}) "
        "(define-fun y () Int (- 7)))')\n",
    )
    out = SmtOracle(cmd).valid_sequent([], [parse_fml("x > y")])
    assert isinstance(out, Invalid)
    assert out.witness_map() == {"y": -7}


def test_unknown_and_garbage_map_to_unknown(tmp_path):
    cmd = _fake_solver(tmp_path, "import sys; sys.stdin.read(); print('unknown')\n")
    assert isinstance(SmtOracle(cmd).valid_sequent([], [parse_fml("x <= x")]), Unknown)
    cmd2 = _fake_solver(tmp_path, "import sys; sys.stdin.read(); print('howdy')\n")
    assert isinstance(SmtOracle(cmd2).valid_sequent([], [parse_fml("x <= x")]), Unknown)


def test_missing_solver_is_unknown():
    out = SmtOracle(["/nonexistent/solver-binary"]).valid_sequent([], [parse_fml("x <= x")])
    assert isinstance(out, Unknown)
    # no command at all is refused up front, not left to subprocess
    for empty in ("", "   ", []):
        with pytest.raises(ValueError, match="empty solver command"):
            SmtOracle(empty)


def test_fake_solver_checks_problem_is_wellformed(tmp_path):
    # the subprocess sees a parsable problem: one (check-sat), and no
    # (get-model), which SMT-LIB forbids after an unsat answer
    cmd = _fake_solver(
        tmp_path,
        "import sys\n"
        "text = sys.stdin.read()\n"
        "ok = text.count('(check-sat)') == 1 and text.rstrip().endswith('(check-sat)')\n"
        "print('unsat' if ok else 'error')\n",
    )
    out = SmtOracle(cmd).valid_sequent([parse_fml("x >= 1")], [parse_fml("x >= 0")])
    assert isinstance(out, Valid)


def test_model_is_requested_only_after_sat(tmp_path):
    # the fake logs each problem it is given and answers sat to both runs
    log = tmp_path / "problems.log"
    cmd = _fake_solver(
        tmp_path,
        "import sys\n"
        "text = sys.stdin.read()\n"
        f"open({str(log)!r}, 'a').write(text + '=====\\n')\n"
        "print('sat')\n"
        "if '(get-model)' in text:\n"
        "    print('(model (define-fun |x| () Int 4))')\n",
    )
    out = SmtOracle(cmd).valid_sequent([], [parse_fml("x <= 3")])
    assert out == Invalid((("x", 4),))
    first, second, _ = log.read_text().split("=====\n")
    assert "(get-model)" not in first
    assert second == first + "(get-model)\n"


def test_smt_identifiers_are_quoted_and_the_helper_cannot_clash():
    text = emit_smtlib([], [parse_fml("tdiv + and <= div / x'")])
    declared = [line.split()[1] for line in text.splitlines()
                if line.startswith(("(declare-const", "(define-fun"))]
    # |s| and s are one SMT symbol, so compare the names unquoted
    bare = [name.strip("|") for name in declared]
    assert len(set(bare)) == len(bare) == 5, declared
    assert {"|tdiv|", "|and|", "|div|", "|x'|"} <= set(declared)
    assert "(not (= |x'| 0))" in text


def test_quoted_model_names_are_read(tmp_path):
    cmd = _fake_solver(
        tmp_path,
        "import sys; sys.stdin.read()\n"
        "print('sat')\n"
        "print(\"(model (define-fun |x'| () Int (- 2)) (define-fun |and| () Int 5)\")\n"
        "print('  (define-fun y () Int 0))')\n",
    )
    out = SmtOracle(cmd).valid_sequent([], [parse_fml("x' + and + y <= 0")])
    assert out.witness_map() == {"x'": -2, "and": 5, "y": 0}


def test_nonzero_solver_exit_is_unknown(tmp_path):
    for answer in ("unsat", "sat"):
        cmd = _fake_solver(
            tmp_path, f"import sys; sys.stdin.read(); print({answer!r}); sys.exit(3)\n"
        )
        out = SmtOracle(cmd).valid_sequent([], [parse_fml("x <= x")])
        assert isinstance(out, Unknown) and "status 3" in out.reason, out


def test_hanging_solver_times_out_as_unknown(tmp_path):
    cmd = _fake_solver(tmp_path, "import sys, time; sys.stdin.read(); time.sleep(30)\n")
    out = SmtOracle(cmd, timeout=0.5).valid_sequent([], [parse_fml("x <= x")])
    assert isinstance(out, Unknown) and "timed out" in out.reason


# ---------------------------------------------------------------------------
# The compiled bounded scan against eval_bool, point by point
# ---------------------------------------------------------------------------

def _scalar_bounded(oracle, gamma, delta):
    """The bounded oracle's answer by definition: ``eval_bool`` at every grid
    point, the sorted free variables varied in lexicographic order."""
    gamma, delta = tuple(gamma), tuple(delta)
    names = sorted(set().union(*(free_vars(f) for f in gamma + delta)))
    rng = oracle.quantifier_range
    try:
        for values in product(range(oracle.lo, oracle.hi + 1), repeat=len(names)):
            rho = dict(zip(names, values))
            if all(eval_bool(rho, g, rng) for g in gamma) and not any(
                eval_bool(rho, d, rng) for d in delta
            ):
                return Invalid(tuple(sorted(rho.items())))
    except DivisionByZero as exc:
        return Unknown(f"evaluation error: {exc}")
    return BoundedValid()


def _risky_division(rng, names):
    # a divisor that is zero somewhere on the grid, behind a random guard
    quotient = BinOp("/", random_expr(rng, names, 2), random_expr(rng, names, 1))
    atom = Le(quotient, random_expr(rng, names, 1))
    return AndF(random_fml(rng, names, 1), atom) if rng.random() < 0.5 else atom


def _differential_cases():
    rng = random.Random(20261018)

    def side(names):
        return [_risky_division(rng, names) if rng.random() < 0.25
                else random_fml(rng, names, 2) for _ in range(rng.randrange(3))]

    for _ in range(250):
        names = rng.choice([["x"], ["x", "y"], ["x", "y", "z"]])
        yield side(names), side(names)
    # every name the compiled scan generates, and Python's own words
    odd = ["and", "all", "range", "_tdiv", "_v0", "_v1", "_b0", "_span", "_qspan", "_scan"]
    for _ in range(60):
        names = rng.sample(odd, 2)
        yield [random_fml(rng, names, 2)], [random_fml(rng, names, 2), _risky_division(rng, names)]
    yield [], []
    # closed obligations, one grid point: a division by zero that a false
    # conjunct masks, one it does not, Gamma evaluated before Delta, and a
    # bounded quantifier
    yield [parse_fml("1 <= 0 && 1 / 0 <= 0")], []
    yield [parse_fml("0 <= 0 && 1 / 0 <= 0")], []
    yield [], [parse_fml("1 <= 0"), parse_fml("1 / (2 - 2) <= 0")]
    yield [], [parse_fml("0 <= 0"), parse_fml("1 / (2 - 2) <= 0")]
    yield [parse_fml("1 <= 0")], [parse_fml("1 / 0 <= 0")]
    yield [parse_fml("1 / 0 <= 0")], [parse_fml("0 <= 0")]
    yield [parse_fml("2 * 3 == 6")], [parse_fml("7 / 2 == 4")]
    yield [], [parse_fml("forall q . q * q >= 0")]
    yield [], [parse_fml("forall q . q <= 1")]
    yield [parse_fml("forall q . 4 / q <= 4 || q == 0")], [parse_fml("forall q . 4 / q <= 4")]
    yield [], [parse_fml("x * x >= 1")]
    yield [parse_fml("x >= 2")], []
    yield [parse_fml("all <= and")], [parse_fml("forall _v0 . _v0 <= all || and <= _v0")]
    yield [parse_fml("range >= 0")], [parse_fml("forall range . _b0 / range <= _b0 || range == 0")]
    # a term 600 levels deep, beyond what the parser accepts
    deep = _deep_term()
    yield [], [Le(deep, Lit(1))]
    yield [], [Le(deep, Lit(-2))]
    negated = Le(Var("x"), Lit(0))
    for _ in range(600):
        negated = NotF(negated)
    yield [negated], [Forall("y", Le(Var("y"), BinOp("/", Var("x"), Var("x"))))]
    # sequents the oracle decides from their literals: axioms, behind ! and
    # on either side of &&, constant literals next to free ones, a total
    # division
    yield [parse_fml("x <= 0")], [parse_fml("x <= 0")]
    yield [], [parse_fml("!(x <= 0)"), parse_fml("x <= 0")]
    yield [parse_fml("!(x <= 0 && y <= 0)"), parse_fml("x <= 0")], []
    yield [parse_fml("y <= 0 && x <= 0")], [parse_fml("!!(x <= 0)")]
    yield [parse_fml("1 <= 0"), parse_fml("x <= y")], [parse_fml("y <= x")]
    yield [parse_fml("x <= y")], [parse_fml("y <= x"), parse_fml("0 <= 1")]
    yield [parse_fml("0 <= 1"), parse_fml("x <= y")], [parse_fml("y <= x"), parse_fml("1 <= 0")]
    yield [parse_fml("!(2 <= 1) && x <= 0")], [parse_fml("forall q . q <= 9"), parse_fml("x < 0")]
    yield [parse_fml("x / 2 <= y")], [parse_fml("x / 2 <= y")]
    yield [parse_fml("x / -2 <= y")], [parse_fml("x / 2 <= y")]
    # ... and sequents it must leave to the ordered scan: a division by a
    # variable, whose error an axiom must not hide
    yield [], [parse_fml("x / y <= x / y")]
    yield [parse_fml("1 / x <= 0"), parse_fml("x <= 0")], [parse_fml("x <= 0")]
    yield [parse_fml("x <= 0")], [parse_fml("x <= 0"), parse_fml("1 / (x - x) <= 0")]
    yield [parse_fml("1 / 0 <= 0")], [parse_fml("1 / 0 <= 0")]
    # two deep literals, equal in structure but built separately
    yield [Le(_deep_term(), Lit(1))], [Le(_deep_term(), Lit(1))]
    # total sequents in groups that share no variable, their names
    # interleaved in sorted order: a witness put together from each group's
    # first counterexample, and sequents where only one group (the last one
    # scanned, or a middle one) has none
    yield [parse_fml("a + c >= 1"), parse_fml("b * b >= 4")], [parse_fml("a >= 2"), parse_fml("b >= 3")]
    yield [parse_fml("a <= c"), parse_fml("b >= 0")], [parse_fml("c <= 0"), parse_fml("b >= 2"), parse_fml("d * d >= 0")]
    yield [parse_fml("b <= 1 && d + a >= 2"), parse_fml("e == 2 * c")], [parse_fml("a - d >= 3"), parse_fml("c >= 2")]
    yield [parse_fml("a + c >= 1")], [parse_fml("b * b >= 0"), parse_fml("a >= 2")]
    yield [parse_fml("c * c <= 1"), parse_fml("b / 2 >= a")], [parse_fml("c != 0"), parse_fml("!(a <= b)")]
    # a bound q beside a free q: the quantified literal does not join q's
    # group; and one literal where q is both free and bound
    yield [parse_fml("q >= 2"), parse_fml("forall q . q * y <= 2")], [parse_fml("q >= 3")]
    yield [parse_fml("forall q . q <= y + 3")], [parse_fml("q * q >= 1"), parse_fml("y <= 0")]
    yield [parse_fml("q <= 1")], [parse_fml("q <= 0 && (forall q . q * z <= 2)"), parse_fml("p >= 0")]
    # level placement in total groups: each literal is tested in the
    # outermost loop that binds its variables (a, b, c, d in that order),
    # and a subterm over outer variables is computed ahead of the loops that
    # do not change it.  Gamma literals over outer subsets of 3-4 variables:
    yield [parse_fml("a <= 1"), parse_fml("a + b >= 0"), parse_fml("a * b <= c")], \
        [parse_fml("a + b + c + d * d <= 3")]
    yield [parse_fml("b * b <= a + 2"), parse_fml("a - b <= c")], \
        [parse_fml("c * c + a * b >= d"), parse_fml("d <= a")]
    yield [parse_fml("b <= c"), parse_fml("a != b")], [parse_fml("c * (a - b) <= 2 * a")]
    # the same invariant subterm in several literals, on both sides, inside
    # larger hoisted subterms and beside a deeper variable
    yield [parse_fml("(a * a + b) * 2 <= c + (a * a + b)")], \
        [parse_fml("(a * a + b) * 2 + c * c <= d + a * a"), parse_fml("a * a + b <= d - 3")]
    yield [parse_fml("a * a + b <= c"), parse_fml("(a * a + b) * d <= 9")], \
        [parse_fml("(a * a + b) * 2 <= c + (a * a + b)"), parse_fml("d * d <= -1")]
    yield [parse_fml("(b - a) / 2 * c <= (b - a) / 2 + 1")], [parse_fml("(b - a) / 2 * c <= 0")]
    # a witness found only after whole outer iterations were skipped: Gamma
    # on a alone fails for a < 2, and on a and b for most b
    yield [parse_fml("a >= 2"), parse_fml("b * b >= a + 5")], [parse_fml("c <= b * b - a * a")]
    yield [parse_fml("a == 3"), parse_fml("b * a >= 6")], [parse_fml("c + b <= a * b + c - 3")]
    # forall bodies: a subterm that mentions the bound variable stays in the
    # body, one that does not is computed ahead of it, and a free q beside a
    # bound q is not the same variable
    yield [parse_fml("forall q . q * a <= b * b + q * q")], [parse_fml("forall q . a * a + q <= c + b")]
    yield [parse_fml("forall q . a * b <= c + 3")], [parse_fml("forall q . q * q * (a + b) <= c + q")]
    yield [parse_fml("a * a <= b")], [parse_fml("forall q . q * q + a * a <= b + q * q")]
    yield [parse_fml("p * p <= q * q + 2"), parse_fml("q * q + z <= 5")], \
        [parse_fml("forall q . q * q + z <= p * p + 1")]
    yield [parse_fml("forall q . (forall r . r * q <= a * a + b)")], [parse_fml("a * a + b <= 2")]
    # random axiom-shaped sequents: a literal of Gamma copied into Delta,
    # sometimes behind ! (which moves it across) or inside a conjunction of
    # Gamma
    for _ in range(120):
        names = rng.choice([["x"], ["x", "y"], ["x", "y", "z"]])
        gamma, delta = side(names) + [random_fml(rng, names, 2)], side(names)
        copied = rng.choice(gamma)
        if rng.random() < 0.3:
            gamma.append(NotF(copied))
        else:
            delta.insert(rng.randrange(len(delta) + 1), copied)
        spot = rng.randrange(len(gamma))
        if rng.random() < 0.3:
            gamma[spot] = AndF(random_fml(rng, names, 1), gamma[spot])
        elif rng.random() < 0.3:
            delta.append(NotF(gamma.pop(spot)))
        yield gamma, delta


def _deep_term():
    deep = Var("x")
    for i in range(600):
        deep = BinOp("+" if i % 2 else "-", deep, Lit(1))
    return deep


def test_compiled_scan_matches_eval_bool():
    oracle = BoundedOracle(-3, 3, quantifier_range=(-2, 2))
    seen = set()
    for gamma, delta in _differential_cases():
        expected = _scalar_bounded(oracle, gamma, delta)
        out = oracle.valid_sequent(gamma, delta)
        # same class, same witness, same Unknown reason
        assert out == expected, (gamma, delta)
        seen.add(type(out))
    assert seen == {BoundedValid, Invalid, Unknown}


@pytest.mark.parametrize("count, decided", [(20, True), (21, False)])
def test_a_scan_is_compiled_for_at_most_twenty_variables(count, decided):
    # a scan nests one loop per free variable, and CPython compiles 20
    oracle = BoundedOracle(1, 1)
    names = [f"x{i}" for i in range(count)]
    total = ([parse_fml(" + ".join(names) + f" <= {count}")], [parse_fml("x0 <= 0")])
    not_total = ([parse_fml(" + ".join(names[1:]) + f" / x0 <= {count}")],
                 [parse_fml("x1 <= 0")])
    for gamma, delta in (total, not_total):
        out = oracle.valid_sequent(gamma, delta)
        if decided:
            assert out == Invalid(tuple((x, 1) for x in sorted(names)))
        else:
            assert out == Unknown(f"{count} free variables exceed the scan's 20 nested loops")
    # a group too wide to scan does not hide another group without a
    # counterexample
    gamma, delta = total
    out = oracle.valid_sequent(gamma + [parse_fml("z <= 0")], delta + [parse_fml("z <= 1")])
    assert isinstance(out, BoundedValid)


def test_the_unscannable_reason_names_the_widest_group_in_any_order():
    # one sequent, one ledger text: the reason does not follow formula order
    a = parse_fml(" + ".join(f"a{i}" for i in range(21)) + " <= 0")
    b = parse_fml(" + ".join(f"b{i}" for i in range(22)) + " <= 0")
    widest = Unknown("22 free variables exceed the scan's 20 nested loops")
    for delta in ([a, b], [b, a]):
        assert BoundedOracle(0, 0).valid_sequent([], delta) == widest


@pytest.mark.parametrize("command", ["check", "search"])
def test_goals_past_twenty_variables_end_in_a_verdict(command, tmp_path, capsys):
    from cycproof import cli

    wide = " + ".join(f"x{i}" for i in range(21))
    path = tmp_path / "wide.txt"
    if command == "check":
        path.write_text(f"goal {wide} <= 0 => x0 <= 1\napply ter\nqed\n")
        args = [str(path)]
    else:
        path.write_text(f"{wide} <= 0 => x0 <= 1\n")
        args = [str(path), "--depth", "2"]
    for spec in ("bounded:0..0", "bounded:0..1"):
        assert cli.main([command, *args, "--oracle", spec]) == 1
        out = capsys.readouterr().out
        assert out.startswith("verdict: Stuck"), out
        # search drops the failed ter and runs out of depth
        assert command == "search" or "21 free variables exceed" in out, out
