from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from conftest import random_expr, random_fml
from cycproof import canon
from cycproof.canon import config_key, expr_key, formula_key, program_key, terms_equal
from cycproof.oracle import BoundedOracle
from cycproof.parser import parse_config, parse_expr, parse_fml, parse_prog, parse_sequent
from cycproof.search import search
from cycproof.terms import (
    AndF,
    BinOp,
    DivisionByZero,
    Forall,
    Le,
    Lit,
    NotF,
    TermError,
    Var,
    evaluate,
    substitute,
    truncated_div,
)


def test_zero_and_unit_laws():
    assert terms_equal(parse_expr("v - 0"), parse_expr("v"))
    assert terms_equal(parse_expr("v * 1 + 0"), parse_expr("v"))
    assert not terms_equal(parse_expr("v + 1"), parse_expr("v"))


def test_loop_invariant_configs_are_equal():
    # the stored sum after one more pass equals the closed form at m+1
    stepped = parse_expr("((2 * v - m + 1) * m) / 2 + (v - m)")
    closed = parse_expr("((2 * v - (m + 1) + 1) * (m + 1)) / 2")
    assert terms_equal(stepped, closed)


def test_exact_division_requires_integrality_everywhere():
    # m*(m+1)/2 is integral for every integer m, so it normalizes
    assert terms_equal(
        parse_expr("(m * (m + 1)) / 2 * 2"), parse_expr("m * (m + 1)")
    )
    # m/2 is not: it stays opaque and differs from any polynomial
    assert not terms_equal(parse_expr("(m / 2) * 2"), parse_expr("m"))
    assert terms_equal(parse_expr("m / 2"), parse_expr("m / 2"))


def test_an_exact_division_by_a_constant_cancels_its_factor():
    # 2 * x is even for every integer x, so (2 * x) / 2 keys as x
    assert expr_key(parse_expr("2 * x / 2")) == expr_key(parse_expr("x"))
    assert expr_key(parse_expr("(6 * x + 4) / 2")) == expr_key(parse_expr("3 * x + 2"))
    # the polynomial 2x / 2 is divided by its content, so 2 * x / 2 - x + 1
    # is the constant 1, and a division by it is no division
    assert expr_key(parse_expr("y / (2 * x / 2 - x + 1)")) == expr_key(parse_expr("y"))


def test_constant_division_truncates():
    assert terms_equal(parse_expr("7 / 2"), parse_expr("3"))
    assert terms_equal(parse_expr("-7 / 2"), parse_expr("-3"))


def test_formula_difference_form():
    assert formula_key(parse_fml("v - 0 >= 0")) == formula_key(parse_fml("v >= 0"))
    assert formula_key(parse_fml("x <= y")) == formula_key(parse_fml("x - y <= 0"))
    assert formula_key(parse_fml("x <= y")) != formula_key(parse_fml("y <= x"))


def test_forall_alpha_insensitive():
    a = parse_fml("forall x . x <= y")
    b = parse_fml("forall z . z <= y")
    assert formula_key(a) == formula_key(b)
    assert formula_key(a) != formula_key(parse_fml("forall x . y <= x"))


def test_program_and_config_keys():
    assert terms_equal(parse_prog("x := v - 0"), parse_prog("x := v"))
    assert terms_equal(parse_config("{n -> v - 0}"), parse_config("{n -> v}"))
    assert not terms_equal(parse_config("{n -> v}"), parse_config("{s -> v}"))
    # store entry order is irrelevant; stack order is not
    assert terms_equal(parse_config("{a -> 1, b -> 2}"), parse_config("{b -> 2, a -> 1}"))
    assert not terms_equal(
        parse_config("{a -> 1 | b -> 2}"), parse_config("{b -> 2 | a -> 1}")
    )


def test_canonical_equality_is_sound_on_samples():
    # equal keys must mean equal values wherever evaluation is defined
    rng = random.Random(11)
    names = ["x", "y"]
    exprs = [random_expr(rng, names) for _ in range(160)]
    by_key: dict = {}
    for e in exprs:
        by_key.setdefault(expr_key(e), []).append(e)
    for group in by_key.values():
        if len(group) < 2:
            continue
        for _ in range(20):
            rho = {n: rng.randint(-6, 6) for n in names}
            values = set()
            try:
                for e in group:
                    values.add(evaluate(rho, e))
            except DivisionByZero:
                continue
            assert len(values) == 1, group


# ---------------------------------------------------------------------------
# Integer polynomials against the rational arithmetic they replaced
# ---------------------------------------------------------------------------

# Reference: a polynomial is a dict monomial -> nonzero Fraction, exact
# division tested on the grid in Fractions, keys built as canon builds them.

def _ref_add(p1: dict, p2: dict) -> dict:
    out = dict(p1)
    for m, c in p2.items():
        out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _ref_mul(p1: dict, p2: dict) -> dict:
    out: dict = {}
    for (m1, c1), (m2, c2) in product(p1.items(), p2.items()):
        out = _ref_add(out, {canon._mono_mul(m1, m2): c1 * c2})
    return out


def _ref_key(p: dict) -> tuple:
    return tuple(sorted((m, (c.numerator, c.denominator)) for m, c in p.items()))


def _ref_poly(e) -> dict:
    if isinstance(e, Lit):
        return {(): Fraction(e.value)} if e.value else {}
    if isinstance(e, Var):
        return {((("v", e.name), 1),): Fraction(1)}
    left, right = _ref_poly(e.left), _ref_poly(e.right)
    if e.op in "+-":
        return _ref_add(left, right if e.op == "+" else {m: -c for m, c in right.items()})
    if e.op == "*":
        return _ref_mul(left, right)
    c = right.get((), Fraction(0)) if set(right) <= {()} else None
    if c and c.denominator == 1:
        if set(left) <= {()} and left.get((), Fraction(0)).denominator == 1:
            value = truncated_div(int(left.get((), 0)), int(c))
            return {(): Fraction(value)} if value else {}
        degree: dict = {}
        for m in left:
            for atom, k in m:
                degree[atom] = max(degree.get(atom, 0), k)
        grid = list(product(*(range(d + 1) for d in degree.values())))
        if len(grid) <= canon._GRID_LIMIT and all(
                (sum(coeff * _at(m, dict(zip(degree, point))) for m, coeff in left.items())
                 / c).denominator == 1 for point in grid):
            return {m: coeff / c for m, coeff in left.items()}
    return {((("div", _ref_key(left), _ref_key(right)), 1),): Fraction(1)}


def _at(m: tuple, point: dict) -> int:
    value = 1
    for atom, k in m:
        value *= point[atom] ** k
    return value


def _ref_formula_key(phi, depth: int = 0) -> tuple:
    if isinstance(phi, Le):
        return ("le", _ref_key(_ref_add(_ref_poly(phi.right),
                                        {m: -c for m, c in _ref_poly(phi.left).items()})))
    if isinstance(phi, NotF):
        return ("not", _ref_formula_key(phi.body, depth))
    if isinstance(phi, AndF):
        return ("and", _ref_formula_key(phi.left, depth), _ref_formula_key(phi.right, depth))
    body = substitute(phi.body, {phi.var: Var(f"#{depth}")}, frozenset((phi.var,)))
    return ("forall", _ref_formula_key(body, depth + 1))


_ARITHMETIC = [
    "((v + 1) * v) / 2",  # half-integer coefficients
    "((v + 1) * v) / 2 + 1",  # a numerator sharing a factor with the denominator
    "((v + 1) * v) / 2 + ((v + 2) * (v + 1) * v) / 6",  # unequal denominators
    "((v + 1) * v) / -2", "(4 * v + 2) / -2", "(v * v + v) / -6",  # negative divisors
    "(((v + 1) * v) / 2) / 3", "((v * (v - 1)) / 2 + v) / 5",  # exact inside inexact
    "(((v + 1) * v) / 2) / -3 + (v * v) / 4",
    "(v * v + v) / 2 - (v * v - v) / 2",  # sums that cancel
    "((v + 1) * v) / 2 - ((v + 1) * v) / 2", "(v * m + m) / 2 - (v + 1) * (m / 2)",
    "x / y + (x / y) * 2", "(x / y) / 2", "x / (y + 1 - 1) - x / y",  # opaque atoms
    "7 / -2", "-7 / 2", "(3 * v + 1) / 1", "(2 * m * v) / 2 / v",
]


def test_integer_polynomials_key_as_rational_ones():
    for text in _ARITHMETIC:
        e = parse_expr(text)
        assert expr_key(e) == _ref_key(_ref_poly(e)), text
        phi = parse_fml(f"{text} <= m / 2 + v")
        assert formula_key(phi) == _ref_formula_key(phi), text
    rng = random.Random(23)
    names = ["x", "y", "v"]
    for _ in range(400):
        e = random_expr(rng, names, rng.randint(1, 5))
        if rng.random() < 0.5:  # a division that may or may not be exact
            e = BinOp("/", BinOp("*", e, BinOp("+", e, Lit(1))), Lit(rng.choice([2, -2, 3, 6])))
        assert expr_key(e) == _ref_key(_ref_poly(e)), e
        phi = random_fml(rng, names, 3)
        assert formula_key(phi) == _ref_formula_key(phi), phi


# ---------------------------------------------------------------------------
# Keys kept on the term nodes
# ---------------------------------------------------------------------------

_KEYED = [
    (expr_key, parse_expr, "((2 * v - m + 1) * m) / 2 + (v - m) / y"),
    (formula_key, parse_fml, "forall z . z <= x && !(x / 2 >= y) || forall w . w * w >= 0"),
    (program_key, parse_prog,
     "while n > 0 do if n / 2 == 1 then s := s + n else skip end ; n := n - 1 end"),
    (config_key, parse_config, "{n -> v - m, s -> ((2 * v - m + 1) * m) / 2}"),
    (config_key, parse_config, "{a -> 1 | b -> a + 2}"),
]


def test_cached_keys_equal_fresh_keys():
    for key, parse, text in _KEYED:
        cached = parse(text)
        first = key(cached)
        fresh = parse(text)
        assert key(cached) is first  # kept on the node
        assert key(fresh) == first
        # the kept key is not a field: equality, hashing and printing ignore it
        assert cached == fresh and hash(cached) == hash(fresh)
        assert repr(cached) == repr(fresh)


def test_cached_polynomials_are_not_mutated():
    text = "(x + 1) * (x - y) / 3 + x * x"
    e = parse_expr(text)
    first = expr_key(e)
    for op, other in (("+", Lit(0)), ("-", e), ("*", Lit(1))):
        expr_key(BinOp(op, e, other))  # built from the polynomial kept on e
    assert canon.canon_expr(e) == canon.canon_expr(parse_expr(text))
    assert expr_key(BinOp("+", e, Lit(0))) == expr_key(e) == first
    assert expr_key(BinOp("-", e, e)) == expr_key(Lit(0))


def test_forall_under_a_cached_formula_keys_as_before():
    inner = parse_fml("forall z . z <= x")
    formula_key(inner)  # cached at depth 0, where z is the depth-0 marker
    outer = Forall("x", AndF(inner, Le(Var("x"), Lit(0))))
    fresh = parse_fml("forall x . (forall z . z <= x) && x <= 0")
    assert formula_key(outer) == formula_key(fresh)
    assert formula_key(inner) == formula_key(parse_fml("forall y . y <= x"))
    # a key asked for under a quantifier is neither read from nor kept on
    # the node: its bound variables are named by depth
    at_depth_one = formula_key(parse_fml("forall z . z <= x"), 1)
    assert formula_key(inner, 1) == at_depth_one != formula_key(inner)
    unkeyed = parse_fml("forall z . z <= x")
    assert formula_key(unkeyed, 1) == at_depth_one
    assert formula_key(unkeyed) == formula_key(inner)
    # keys stay alpha-insensitive at every depth
    assert formula_key(outer) == formula_key(
        parse_fml("forall a . (forall b . b <= a) && a <= 0"))


def _polynomial_computations(monkeypatch, n: int) -> tuple:
    """Canonical polynomials computed (not read back from a node) by
    ``search`` on the concrete sum loop, and the size of its graph."""
    computed = 0
    keep = canon._keep

    def counting(term, slot, value):
        nonlocal computed
        computed += slot == canon._POLY
        return keep(term, slot, value)

    monkeypatch.setattr(canon, "_keep", counting)
    goal = parse_sequent(
        f". => {{n -> {n}, s -> 0}} : [while n > 0 do s := s + n ; n := n - 1 end] "
        f"(s == {n * (n + 1) // 2})")
    result = search(goal, BoundedOracle(-50, 50), depth=4 * n + 8)
    assert result.verdict == "ProvedBounded", result.message
    return computed, len(result.graph.nodes)


def test_search_canonicalises_each_term_once(monkeypatch):
    # re-deriving every ancestor's forms made this grow quadratically
    # (1676 computations for 24 nodes at n = 10, 8526 for 44 at n = 20)
    small, small_nodes = _polynomial_computations(monkeypatch, 10)
    large, large_nodes = _polynomial_computations(monkeypatch, 20)
    assert large_nodes > small_nodes
    assert large * small_nodes <= small * large_nodes


# ---------------------------------------------------------------------------
# One key for every sort
# ---------------------------------------------------------------------------

def _classes(*groups) -> list:
    """For each group of terms, the set of their keys: one set per group."""
    return [{canon.key(t) for t in group} for group in groups]


def test_a_bound_variable_keys_apart_from_every_name_the_parser_reads():
    # the marker of a bound variable was once the legal name __bound0, so
    # the two sides below had one key and ax proved the sequent
    assert formula_key(parse_fml("forall x . x <= __bound0")) != formula_key(
        parse_fml("forall y . y <= y"))
    from cycproof import script as script_mod

    text = "goal forall y . y <= y => forall x . x <= __bound0\napply ax\nqed\n"
    _, report = script_mod.replay(text, BoundedOracle(-50, 50))
    assert report.verdict == "Stuck", report.message
    assert "no matching formula pair for ax" in report.message


def test_a_heap_formula_under_a_store_heap_label_has_a_key():
    from cycproof.formulas import BBase, DLabeled, Sequent, sequents_equal
    from cycproof.kernel import ProofGraph
    from cycproof.sep import PointsTo, SBase, SepState, Star

    def labeled(heap, star=True, value=1):
        cell = PointsTo(Var("x"), Lit(value))
        body = Star(cell, SBase(parse_fml("0 <= 0"))) if star else cell
        return DLabeled(SepState.make({"x": 37}, heap), BBase(body))

    star, other_star = labeled({37: 1}), labeled({37: 1})
    assert other_star is not star
    classes = _classes([star, other_star], [labeled({37: 1}, star=False)],
                       [labeled({37: 2})], [labeled({37: 1}, value=2)])
    assert all(len(c) == 1 for c in classes) and len(set().union(*classes)) == 4
    goal = Sequent((star,), (other_star,))
    assert sequents_equal(goal, Sequent((other_star,), (star,)))
    graph = ProofGraph(goal, oracle=BoundedOracle(-50, 50))
    assert graph.apply_rule(1, "ax", left=0, right=0) == []


def test_a_judgment_keys_its_factor_and_a_missing_one_as_empty():
    from cycproof.formulas import DTer
    from cycproof.terms import EPSILON

    sigma = parse_config("{n -> v, m -> w}")
    with_factor = [DTer(sigma, EPSILON, Var("v")), DTer(parse_config("{m -> w, n -> v}"),
                                                        EPSILON, Var("v"))]
    classes = _classes(with_factor, [DTer(sigma, EPSILON, None)],
                       [DTer(sigma, EPSILON, Var("w"))])
    assert all(len(c) == 1 for c in classes) and len(set().union(*classes)) == 3
    assert canon.key(DTer(sigma, EPSILON, None))[-1] == ()
    # keys of one kind still sort natively
    assert len(sorted(set().union(*classes))) == 3


def test_a_label_keys_a_store_without_its_order_and_a_stack_with_it():
    from cycproof.formulas import BBase, DLabeled

    def labeled(label: str):
        return DLabeled(parse_config(label), BBase(parse_fml("a <= b")))

    assert canon.key(labeled("{a -> 1, b -> 2}")) == canon.key(labeled("{b -> 2, a -> 1}"))
    assert canon.key(labeled("{a -> 1 | b -> 2}")) != canon.key(labeled("{b -> 2 | a -> 1}"))


def test_not_and_and_over_base_operands_key_as_the_base_connective():
    from cycproof.formulas import BAnd, BBase, BBox, BNot, DAnd, DBase, DNot
    from cycproof.sep import SAnd, SBase, SNot

    a, b = parse_fml("x <= 1"), parse_fml("y <= 2")
    box = BBox(parse_prog("x := 1"), BBase(a))
    classes = _classes(
        [BNot(BBase(a)), BBase(NotF(a))],
        [BAnd(BBase(a), BBase(b)), BBase(AndF(a, b))],
        [DNot(DBase(a)), DBase(NotF(a))],
        [DAnd(DBase(a), DBase(b)), DBase(AndF(a, b))],
        [SNot(SBase(a)), SBase(NotF(a))],
        [SAnd(SBase(a), SBase(b)), SBase(AndF(a, b))],
        [BNot(box)], [BAnd(BBase(a), box)])
    assert all(len(c) == 1 for c in classes)
    # a modality stays out of the base connective
    assert canon.key(BNot(box))[0] == "not" and canon.key(BAnd(BBase(a), box))[0] == "and"


def test_a_value_that_is_no_term_has_no_key():
    with pytest.raises(TermError, match="not a term"):
        canon.key(object())
