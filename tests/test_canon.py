from __future__ import annotations

import random

from conftest import random_expr
from cycproof import canon
from cycproof.canon import config_key, expr_key, formula_key, program_key, terms_equal
from cycproof.oracle import BoundedOracle
from cycproof.parser import parse_config, parse_expr, parse_fml, parse_prog, parse_sequent
from cycproof.search import search
from cycproof.terms import AndF, BinOp, DivisionByZero, Forall, Le, Lit, Var, evaluate


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
