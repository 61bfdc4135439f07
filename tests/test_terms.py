from __future__ import annotations

import random

import pytest

from conftest import random_config, random_expr, random_fml
from cycproof.canon import expr_key, formula_key, terms_equal
from cycproof.formulas import (
    BAnd,
    BBase,
    BBox,
    BDia,
    BNot,
    DAnd,
    DBase,
    DLabeled,
    DNot,
    DTer,
    Sequent,
)
from cycproof.formulas import substitute as fsubstitute
from cycproof.parser import parse_config, parse_expr, parse_fml, parse_prog, parse_sequent
from cycproof.record import walk
from cycproof.semantics import eval_term
from cycproof.terms import (
    AndF,
    BinOp,
    CaptureError,
    Config,
    DivisionByZero,
    SKIP,
    TRUE,
    Forall,
    If,
    Le,
    Lit,
    NotF,
    TermError,
    Var,
    While,
    apply_config,
    apply_stack_config,
    bound_vars,
    eval_bool,
    evaluate,
    free_vars,
    fresh_name,
    substitute,
    truncated_div,
)


def test_free_vars_of_loop(wp):
    assert free_vars(wp) == {"n"}


def test_assignment_binds_its_own_target():
    assert free_vars(parse_prog("x := x + 1")) == frozenset()


def test_quantifier_binds():
    assert free_vars(parse_fml("forall x . x + y <= 0")) == {"y"}


def test_bound_vars_examples():
    assert bound_vars(parse_prog("s := s + n ; n := n - 1")) == {"s", "n"}
    assert bound_vars(parse_config("{n -> v, s -> 0}")) == {"n", "s"}
    assert bound_vars(parse_prog("while 0 <= 0 do x := 1 end")) == {"x"}


def test_store_rejects_duplicate_keys():
    with pytest.raises(TermError):
        Config((("x", Lit(1)), ("x", Lit(2))))


def test_substitute_ground_example():
    # (v - m >= 0)[0/m] agrees with v - 0 >= 0
    out = substitute(parse_fml("v - m >= 0"), {"m": Lit(0)})
    assert out == parse_fml("v - 0 >= 0")


def test_substitute_skips_bound_assignment_target():
    prog = parse_prog("x := x + 1")
    assert substitute(prog, {"x": Lit(7)}) == prog


def test_substitute_renames_captured_quantifier():
    # (forall x . x <= y)[x/y]  ->  forall x' . x' <= x
    out = substitute(Forall("x", Le(Var("x"), Var("y"))), {"y": Var("x")})
    assert out == Forall("x'", Le(Var("x'"), Var("x")))


def test_substitute_capture_at_assignment_is_an_error():
    with pytest.raises(CaptureError):
        substitute(parse_prog("x := y"), {"y": parse_expr("x + 1")})


def test_renamed_quantifier_preserves_meaning():
    original = Forall("x", Le(Var("x"), Var("y")))
    out = substitute(original, {"y": Var("x")})
    for x_val in range(-4, 5):
        rho = {"x": x_val}
        assert (
            eval_bool(rho, out, (-5, 5))
            == eval_bool({"y": x_val}, original, (-5, 5))
        )


def test_apply_config_examples():
    assert apply_config(parse_config("{n -> 1, s -> 0}"), parse_fml("n > 0")) == parse_fml("1 > 0")
    phi = parse_fml("n > 0")
    assert apply_config(parse_config("{}"), phi) == phi
    out = apply_config(parse_config("{n -> v, s -> 0}"), parse_fml("s == ((v + 1) * v) / 2"))
    assert out == parse_fml("0 == ((v + 1) * v) / 2")
    for v in range(0, 11):
        assert eval_bool({"v": v}, out) == (0 == ((v + 1) * v) // 2)


def test_apply_stack_config_topmost_wins():
    sigma = parse_config("{n -> 1 | n -> 2 | s -> 0}")
    assert apply_stack_config(sigma, parse_fml("n > 0")) == parse_fml("2 > 0")
    assert apply_stack_config(parse_config("{x -> 5 | x -> 5}"), parse_fml("y > 0")) == parse_fml("y > 0")
    out = apply_stack_config(parse_config("{x -> 1 | x -> 2 | x -> 3}"), parse_fml("x <= x"))
    assert out == parse_fml("3 <= 3")


def test_flavor_mismatch_raises():
    stack = parse_config("{x -> 1 | y -> 2}")
    with pytest.raises(TermError):
        apply_config(stack, parse_fml("x <= 0"))
    with pytest.raises(TermError):
        apply_stack_config(parse_config("{x -> 1}"), parse_fml("x <= 0"))


def test_evaluate_and_eval_bool():
    assert eval_bool({}, parse_fml("5 > 0"))
    assert eval_bool({}, parse_fml("0 <= 0"))
    assert evaluate({"v": 3}, parse_expr("((v + 1) * v) / 2")) == 6


def test_quantifier_ranges_over_the_given_range_only():
    # eval_bool answers a plain bool; a verdict's boundedness comes from the
    # oracle's BoundedValid, not from evaluation
    assert eval_bool({}, parse_fml("forall x . x * x >= 0"), (-10, 10)) is True
    assert eval_bool({}, parse_fml("forall x . x <= 10"), (-10, 10)) is True
    assert eval_bool({}, parse_fml("forall x . x <= 10"), (-10, 11)) is False
    assert eval_bool({"x": 2}, parse_fml("x >= 0")) is True


def test_truncated_division():
    assert truncated_div(7, 2) == 3
    assert truncated_div(-7, 2) == -3
    assert truncated_div(7, -2) == -3
    assert truncated_div(-7, -2) == 3
    with pytest.raises(DivisionByZero):
        truncated_div(1, 0)


def test_division_by_zero_propagates():
    with pytest.raises(DivisionByZero):
        evaluate({"x": 0}, parse_expr("1 / x"))


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

NAMES = ["x", "y", "z"]


def test_substitution_lemma_sampled():
    from test_parser import random_prog

    rng = random.Random(7)
    for _ in range(400):
        roll = rng.random()
        if roll < 0.4:
            t = random_expr(rng, NAMES)
        elif roll < 0.8:
            t = random_fml(rng, NAMES)
        else:
            t = random_prog(rng, 2)
        e = random_expr(rng, NAMES, 2)
        x = rng.choice(NAMES)
        rho = {n: rng.randint(-5, 5) for n in NAMES}
        try:
            image = eval_term(rho, substitute(t, {x: e}))
            shifted = dict(rho)
            shifted[x] = evaluate(rho, e)
            direct = eval_term(shifted, t)
        except DivisionByZero:
            continue
        except CaptureError:
            continue  # program binders are not renamable; skip the sample
        assert terms_equal(image, direct), (t, e, x, rho)


def test_free_vars_shrink_under_substitution():
    rng = random.Random(8)
    for _ in range(300):
        t = random_fml(rng, NAMES)
        e = random_expr(rng, NAMES, 2)
        x = rng.choice(NAMES)
        out = free_vars(substitute(t, {x: e}))
        assert out <= (free_vars(t) - {x}) | free_vars(e)


def test_identity_substitution():
    rng = random.Random(9)
    for _ in range(200):
        t = random_fml(rng, NAMES)
        x = rng.choice(NAMES)
        assert substitute(t, {x: Var(x)}) == t


def test_apply_config_idempotent_when_ranges_unmapped():
    sigma = parse_config("{n -> v, s -> w + 1}")
    phi = parse_fml("n + s <= 4")
    once = apply_config(sigma, phi)
    assert apply_config(sigma, once) == once


def test_self_referential_config_is_not_idempotent():
    sigma = parse_config("{x -> x + 1}")
    phi = parse_fml("x <= 0")
    once = apply_config(sigma, phi)
    assert apply_config(sigma, once) != once


# ---------------------------------------------------------------------------
# Sharing: substitution keeps what it does not change
# ---------------------------------------------------------------------------

def _rebuilt(t, bindings: dict):
    """Substitution that builds every node anew: the reference side."""
    if isinstance(t, Var):
        return bindings.get(t.name, Var(t.name))
    if isinstance(t, Lit):
        return Lit(t.value)
    if isinstance(t, (BinOp, Le, AndF)):
        parts = [_rebuilt(t.left, bindings), _rebuilt(t.right, bindings)]
        return BinOp(t.op, *parts) if isinstance(t, BinOp) else type(t)(*parts)
    if isinstance(t, NotF):
        return NotF(_rebuilt(t.body, bindings))
    if isinstance(t, Config):
        return Config(tuple((x, _rebuilt(e, bindings)) for x, e in t.entries), t.stack)
    inner = {x: e for x, e in bindings.items() if x != t.var}
    relevant = [e for x, e in inner.items() if x in free_vars(t.body)]
    if not any(t.var in free_vars(e) for e in relevant):
        return Forall(t.var, _rebuilt(t.body, inner))
    taken = {n.var if type(n) is Forall else n.name for n in walk(t.body)
             if type(n) in (Var, Forall)} | frozenset(bindings)
    for e in relevant:
        taken |= free_vars(e)
    renamed = fresh_name(t.var, taken)
    return Forall(renamed, _rebuilt(_rebuilt(t.body, {t.var: Var(renamed)}), inner))


def test_substitution_equals_a_rebuilding_reference():
    rng = random.Random(31)
    for _ in range(600):
        roll = rng.random()
        t = (random_expr(rng, NAMES) if roll < 0.3 else random_fml(rng, NAMES, 3)
             if roll < 0.8 else random_config(rng, NAMES))
        bindings = {x: random_expr(rng, NAMES, 2) for x in rng.sample(NAMES, rng.randint(1, 3))}
        assert substitute(t, bindings) == _rebuilt(t, bindings), (t, bindings)


def test_substitution_returns_unchanged_terms_themselves():
    rng = random.Random(32)
    for _ in range(200):
        t = random_fml(rng, NAMES, 3)
        assert substitute(t, {"w": Var("x")}) is t
        assert substitute(t, {x: Var("w") for x in NAMES}, frozenset()) is t
    prog = parse_prog("while n > 0 do s := s + n ; n := n - 1 end")
    assert substitute(prog, {"m": Var("k")}) is prog
    sigma = parse_config("{n -> v, s -> w + 1}")
    assert substitute(sigma, {"m": Lit(0)}) is sigma
    nu = parse_sequent("x <= 0, {n -> v} : [n := n + 1] n >= y => y <= v")
    assert fsubstitute(nu, {"m": Lit(0)}) is nu
    assert fsubstitute(nu, {"n": Lit(0)}) is nu  # bound by the label wherever it occurs


def test_substitution_keeps_untouched_subterms_with_their_keys():
    phi = parse_fml("(a + b) * c <= y && forall z . z * z <= a / 2 + y")
    kept = phi.left.left
    key = expr_key(kept)
    image = substitute(phi, {"y": parse_expr("c - 1")})
    assert image.left.left is kept and expr_key(image.left.left) is key
    assert image.left.right == parse_expr("c - 1") and image.left is not phi.left
    # under the quantifier only the path to "y" is rebuilt
    quantified, image_quantified = phi.right.body, image.right.body
    assert image_quantified.left is quantified.left  # z * z
    assert image_quantified.right.left is quantified.right.left  # a / 2
    assert formula_key(image) == formula_key(
        parse_fml("(a + b) * c <= c - 1 && forall z . z * z <= a / 2 + (c - 1)"))
    # a symbolic step "s := s + n" builds one node over the store's entries
    sigma = parse_config("{n -> v - m, s -> ((2 * v - m + 1) * m) / 2}")
    stepped = sigma.set("s", apply_config(sigma, parse_expr("s + n")))
    assert stepped.get("s").left is sigma.get("s") and stepped.get("s").right is sigma.get("n")
    assert stepped.get("n") is sigma.get("n")


# ---------------------------------------------------------------------------
# The labeled layer: a label binds its domain in the body or program under it
# ---------------------------------------------------------------------------

OUTER = NAMES + ["w"]  # w is mapped by no label


def _loops(rng: random.Random, depth: int = 2):
    """A program that binds nothing: branches and loops over skip."""
    if depth == 0 or rng.random() < 0.3:
        return SKIP
    if rng.random() < 0.5:
        return While(random_fml(rng, OUTER, 1), _loops(rng, depth - 1))
    return If(random_fml(rng, OUTER, 1), _loops(rng, depth - 1), _loops(rng, depth - 1))


def _programs(rng: random.Random):
    from test_parser import random_prog

    return random_prog(rng, 2)


def _body(rng: random.Random, prog, depth: int = 2):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return BBase(random_fml(rng, OUTER, 2))
    if roll < 0.45:
        return BNot(_body(rng, prog, depth - 1))
    if roll < 0.6:
        return BAnd(_body(rng, prog, depth - 1), _body(rng, prog, depth - 1))
    return (BBox if roll < 0.8 else BDia)(prog(rng), _body(rng, prog, depth - 1))


def _labeled(rng: random.Random, prog):
    """A labeled formula or a termination judgment, under a store over some
    of ``NAMES``; a judgment's factor is one of its store's values."""
    label = Config(tuple((x, random_expr(rng, OUTER, 2))
                         for x in rng.sample(NAMES, rng.randint(1, len(NAMES)))))
    if rng.random() < 0.3:
        return DTer(label, prog(rng), rng.choice([e for _, e in label.entries]))
    return DLabeled(label, _body(rng, prog))


def _member(rng: random.Random, prog):
    roll = rng.random()
    if roll < 0.2:
        return DBase(random_fml(rng, OUTER, 2))
    if roll < 0.3:
        return DNot(_labeled(rng, prog))
    if roll < 0.4:
        return DAnd(_labeled(rng, prog), _member(rng, prog))
    return _labeled(rng, prog)


def _sequent(rng: random.Random, prog) -> Sequent:
    return Sequent(tuple(_member(rng, prog) for _ in range(rng.randint(0, 2))),
                   tuple(_member(rng, prog) for _ in range(rng.randint(1, 2))))


def _under_label(f):
    """The part a labeled formula's or a judgment's label binds in."""
    return f.prog if isinstance(f, DTer) else f.body


def test_free_vars_shrink_under_substitution_of_labeled_formulas():
    rng = random.Random(41)
    checked = 0
    for _ in range(300):
        nu = _sequent(rng, _programs)
        x, e = rng.choice(OUTER), random_expr(rng, OUTER, 2)
        try:
            out = substitute(nu, {x: e})
        except CaptureError:
            continue  # a label or an assignment would capture a variable of e
        assert free_vars(out) <= (free_vars(nu) - {x}) | free_vars(e), (nu, x, e)
        checked += 1
    assert checked > 150


def test_a_name_the_label_binds_is_never_replaced():
    rng = random.Random(42)
    for _ in range(300):
        f = _labeled(rng, _programs)
        e = random_expr(rng, OUTER, 2)
        for x in sorted(f.label.domain()):
            out = substitute(f, {x: e})
            assert _under_label(out) is _under_label(f), (f, x, e)
            assert out.label == substitute(f.label, {x: e})


def test_a_label_refuses_exactly_the_substitutions_it_would_capture():
    # with programs that bind nothing, the label is the only binder that
    # cannot be renamed: a quantifier under it is renamed apart
    rng = random.Random(43)
    raised = kept = 0
    for _ in range(400):
        f = _labeled(rng, _loops)
        domain = f.label.domain()
        x = rng.choice([n for n in OUTER if n not in domain])
        e = random_expr(rng, OUTER, 2)
        captured = sorted(free_vars(e) & domain)
        if x in free_vars(_under_label(f)) and captured:
            with pytest.raises(CaptureError) as caught:
                substitute(f, {x: e})
            assert str(caught.value) == (
                f"substituting {x} would capture {captured} under a label")
            raised += 1
        else:
            out = substitute(f, {x: e})
            assert free_vars(out) <= (free_vars(f) - {x}) | free_vars(e)
            kept += 1
    assert raised > 40 and kept > 40


def test_labeled_substitution_returns_unchanged_formulas_themselves():
    rng = random.Random(44)
    for _ in range(300):
        nu = _sequent(rng, _programs)
        e = random_expr(rng, OUTER, 2)
        assert substitute(nu, {"q": e}) is nu
        for x in OUTER:
            if x not in free_vars(nu):
                assert substitute(nu, {x: e}) is nu, (nu, x)
        for f in nu.left + nu.right:
            for x in sorted(free_vars(f)):
                assert substitute(f, {x: Var(x)}) == f


def test_heap_formulas_are_terms_and_a_heap_state_a_closed_label():
    from cycproof.sep import Alloc, PointsTo, SBase, SepState, Star

    phi = Star(PointsTo(Var("x"), Var("y")), SBase(parse_fml("z <= 0")))
    assert free_vars(phi) == {"x", "y", "z"}
    assert substitute(phi, {"y": Lit(1)}) == Star(PointsTo(Var("x"), Lit(1)), phi.right)
    assert substitute(phi, {"q": Lit(1)}) is phi
    # a concrete store-heap state is closed and binds its store's names
    state = SepState.make({"x": 37}, {37: 1})
    f = DLabeled(state, BBase(phi))
    assert free_vars(f) == {"y", "z"}
    with pytest.raises(TermError, match="^substitution over non-store labels is not defined$"):
        substitute(f, {"y": Lit(0)})
    # refused also where the state's names would capture the replacement
    with pytest.raises(TermError, match="^substitution over non-store labels is not defined$"):
        substitute(f, {"y": Var("x")})
    # a heap statement is no term of the While domain
    with pytest.raises(TermError, match=r"^substitute: not a term: Alloc\("):
        substitute(DLabeled(Config(), BBox(Alloc("x", Lit(1)), BBase(TRUE))), {"x": Lit(0)})


def test_template_holes_are_no_terms():
    from cycproof.formulas import MBody, MProg

    for hole in (MBody("a"), BBox(MProg("p"), BBase(TRUE))):
        with pytest.raises(TermError, match="^free_vars: not a term: M"):
            free_vars(hole)
        with pytest.raises(TermError, match="^substitute: not a term: M"):
            substitute(hole, {"x": Lit(0)})
