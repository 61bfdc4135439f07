"""Sequent-calculus engine: rule catalog, proof graphs, and trace pairs.

Proofs grow backward: applying a rule to an open goal creates its premises
as children.  A rule handler maps an open goal node and its arguments to a
``RuleInstance``.  Only ``ProofGraph.apply_rule`` checks that the goal is
open and attaches the instance.  Every rule instance records, per premise,
a partial map from conclusion right-side occurrences to premise right-side
occurrences; those maps are what the cyclic checker later stitches into
derivation traces.  Context occurrences map by identity and never progress.
A box step always marks its target pair as progress; a diamond step
progresses only when a termination judgment for the successor state is
derived, and its obligations join the step's.

Termination is itself a judgment of the calculus: ``σ : α ⇓ e`` says that
from ``σ`` the program ``α`` terminates, with the factor ``e`` (an
expression inside ``σ``) as its measure.  ``ter_step`` takes the one
transition of ``α``, and the factor may not grow across it; the judgment's
trace progresses only where the factor strictly decreases.  ``ter_eps``
closes a judgment on the terminal program, and ``ter_base`` closes one
through the structural, annotation-driven prover, as ``diamond … progress``
does, with the loop annotations the graph holds (``ProofGraph.annotations``).
Cyclic termination proofs are ordinary proof graphs, checked by the same
trace closure.  A key forgets a division that may fault (see ``canon``), so
``ax`` closes no pair that holds one, and ``sub`` and back-links identify
two formulas or sides only when they hold the same such divisions.

Derived rules (imp_r, or_l, le, the cut variant that splits a conjunction
on the left premise) stand for several primitive applications but record
one visible edge whose trace pairs are the composition, so replayed
derivations keep the node numbering of the source material.

The While domain's two built-in lifts, ``sigma_seq`` and ``sigma_gen``, are
kernel rules with a structural argument; templates a script lifts
(``lifting``) reach the graph through ``extra_rules``.
"""

from __future__ import annotations

from functools import partial, partialmethod

from . import parser
from .canon import expr_key, key
from .formulas import (
    BAnd,
    BBase,
    BBox,
    BDia,
    BNot,
    DAnd,
    DBase,
    DLabeled,
    DNot,
    DlpFormula,
    DTer,
    Sequent,
    base_formulas,
    formula_key,
    formulas_equal,
    sequent_diff,
    sequents_equal,
)
from .oracle import check_obligation, is_accepting
from .record import dataclass, field, walk
from .terms import (
    FALSE,
    TRUE,
    AndF,
    BaseFormula,
    BinOp,
    Config,
    Epsilon,
    Expr,
    Le,
    Lit,
    NotF,
    Refusal,
    Seq,
    Var,
    apply_config,
    apply_stack_config,
    free_vars,
    ge,
    lt,
    substitute,
)
from .whilelang import (
    LoopAnnotations,
    State,
    derive_termination_structural,
    derive_transitions,
    require_accepted,
)


class KernelError(Refusal):
    pass


class SideConditionFailed(KernelError):
    pass


class OccurrenceAmbiguous(KernelError):
    pass


class NotAncestor(KernelError):
    pass


class SequentMismatch(KernelError):
    pass


PRIMITIVE_RULES = frozenset(
    {
        "box", "diamond", "ter", "int", "box_eps", "sub", "sigma_not",
        "sigma_and", "ax", "cut", "wk_l", "wk_r", "con_l", "con_r",
        "not_l", "not_r", "and_l", "and_r", "ter_step", "ter_eps", "ter_base",
    }
)
DERIVED_RULES = frozenset({"imp_r", "or_l", "le"})
DOMAIN_RULES = frozenset({"sigma_star", "sigma_frm", "sigma_seq", "sigma_gen"})
CATALOG = PRIMITIVE_RULES | DERIVED_RULES | DOMAIN_RULES
# rule -> name of its handler method, built once: a name formatted per call
# would be a new string each time, and CPython's method cache keeps those
_RULE_METHODS = {rule: f"_rule_{rule}" for rule in CATALOG}


@dataclass(frozen=True)
class TracePair:
    src: int
    dst: int
    progress: bool = False


@dataclass
class RuleInstance:
    rule: str
    conclusion: Sequent
    premises: tuple
    args: dict
    trace_pairs: tuple  # one tuple of TracePair per premise
    obligations: list = field(default_factory=list)
    consumed: tuple = ()  # right occurrences a premise intentionally drops


@dataclass
class Node:
    id: int
    sequent: Sequent
    parent: int | None
    rule_instance: RuleInstance | None = None
    children: tuple = ()


# --- pattern helpers over both representations of ¬ and ∧ -------------------

def split_not(f: DlpFormula):
    if isinstance(f, DNot):
        return f.arg
    if isinstance(f, DBase) and isinstance(f.fml, NotF):
        return DBase(f.fml.body)
    return None


def split_and(f: DlpFormula):
    if isinstance(f, DAnd):
        return f.left, f.right
    if isinstance(f, DBase) and isinstance(f.fml, AndF):
        return DBase(f.fml.left), DBase(f.fml.right)
    return None


def split_or(f: DlpFormula):
    inner = split_not(f)
    if inner is None:
        return None
    pair = split_and(inner)
    if pair is None:
        return None
    a = split_not(pair[0])
    b = split_not(pair[1])
    if a is None or b is None:
        return None
    return a, b


def split_imp(f: DlpFormula):
    inner = split_not(f)
    if inner is None:
        return None
    pair = split_and(inner)
    if pair is None:
        return None
    b = split_not(pair[1])
    if b is None:
        return None
    return pair[0], b


def conjuncts(f: DlpFormula) -> list:
    pair = split_and(f)
    if pair is None:
        return [f]
    return conjuncts(pair[0]) + conjuncts(pair[1])


def _interpret(label, fml):
    if isinstance(label, Config):
        if label.stack:
            return apply_stack_config(label, fml)
        return apply_config(label, fml)
    from . import sep  # a heap label: only a heap run loads the heap domain

    if isinstance(label, sep.SepState):
        if isinstance(fml, sep.SepFormula):
            value = sep.sep_app(label, fml)
        else:
            value = sep.sep_app(label, sep.SBase(fml))
        return TRUE if value else FALSE
    raise SideConditionFailed(f"no interpretation for label {label!r}")


# --- rule shapes: the formula each rule applies to ----------------------------

def _labeled(*bodies):
    return lambda f: isinstance(f, DLabeled) and isinstance(f.body, bodies)


def _is_terminal_modality(f) -> bool:
    # box_eps covers the diamond form as well: the only path from the
    # terminal program is the empty one, so both modalities collapse
    return (
        isinstance(f, DLabeled)
        and isinstance(f.body, (BBox, BDia))
        and isinstance(f.body.prog, Epsilon)
    )


def _is_heap_star(f) -> bool:
    if not isinstance(f, DLabeled) or isinstance(f.label, Config):
        return False
    from . import sep  # a heap label, as in _interpret

    return (
        isinstance(f.label, sep.SepState)
        and isinstance(f.body, BBase)
        and isinstance(f.body.fml, sep.Star)
    )


def _splits(split):
    return lambda f: split(f) is not None


MATCHERS = {
    "box": _labeled(BBox),
    "diamond": _labeled(BDia),
    "int": _labeled(BBase),
    "box_eps": _is_terminal_modality,
    "sigma_not": _labeled(BNot),
    "sigma_and": _labeled(BAnd),
    "not_l": _splits(split_not),
    "not_r": _splits(split_not),
    "and_l": _splits(split_and),
    "and_r": _splits(split_and),
    "imp_r": _splits(split_imp),
    "or_l": _splits(split_or),
    "le": lambda f: isinstance(f, DBase),
    "sigma_star": _is_heap_star,
    "sigma_frm": _is_heap_star,
    # the built-in lifts
    "sigma_seq": lambda f: _labeled(BBox)(f) and isinstance(f.body.prog, Seq),
    "sigma_gen": _labeled(BBox),  # the one formula on each side
    "ter_step": lambda f: isinstance(f, DTer) and not isinstance(f.prog, Epsilon),
    "ter_eps": lambda f: isinstance(f, DTer) and isinstance(f.prog, Epsilon),
    "ter_base": lambda f: isinstance(f, DTer),
}

# the label rewrites: one premise replacing the matched labeled formula
LABEL_REWRITES = {
    "int": lambda f: DBase(_interpret(f.label, f.body.fml)),
    "box_eps": lambda f: DLabeled(f.label, f.body.body),
    "sigma_not": lambda f: DNot(DLabeled(f.label, f.body.body)),
    "sigma_and": lambda f: DAnd(
        DLabeled(f.label, f.body.left), DLabeled(f.label, f.body.right)
    ),
}


def _same_positions(n: int) -> tuple:
    return tuple(TracePair(i, i) for i in range(n))


def _replace_right(nu: Sequent, occ: int, formula, progress: bool = False) -> tuple:
    """The premise that replaces right occurrence ``occ`` of ``nu`` by
    ``formula``, and its trace pairs: the context maps to itself, and the
    replaced occurrence's pair, last, carries ``progress``."""
    premise = Sequent(nu.left, nu.right[:occ] + (formula,) + nu.right[occ + 1:])
    pairs = tuple(TracePair(i, i) for i in range(len(nu.right)) if i != occ)
    return premise, pairs + (TracePair(occ, occ, progress=progress),)


def _replace_left(nu: Sequent, occ: int, *formulas) -> tuple:
    """The premise that replaces left occurrence ``occ`` of ``nu`` by
    ``formulas``, and its trace pairs: the right side maps to itself."""
    premise = Sequent(nu.left[:occ] + formulas + nu.left[occ + 1:], nu.right)
    return premise, _same_positions(len(nu.right))


def _unzip(built) -> tuple:
    """(premises, trace pairs) of a sequence of (premise, pairs)."""
    return tuple(premise for premise, _ in built), tuple(pairs for _, pairs in built)


def ax_pair(nu: Sequent, lefts=None, rights=None) -> tuple | None:
    """The first pair ``(i, j)``, left-major, of a left occurrence in
    ``lefts`` and a right one in ``rights`` (every occurrence of the side,
    when not given) that have one canonical key and may not fault.  A key
    forgets a division that may fault (see ``canon``), and an oracle reads
    a sequent that may divide by zero as not valid, so a formula that holds
    a division by anything but a nonzero literal closes no goal."""
    return next(((i, j) for i, j, division in _equal_pairs(nu, lefts, rights)
                 if division is None), None)


def _equal_pairs(nu: Sequent, lefts=None, rights=None):
    """Each pair ``(i, j, division)`` of occurrences with one canonical key,
    left-major, with the first division in them that may fault, or None."""
    lefts = range(len(nu.left)) if lefts is None else lefts
    rights = range(len(nu.right)) if rights is None else rights
    for i in lefts:
        key = formula_key(nu.left[i])
        for j in rights:
            if formula_key(nu.right[j]) == key:
                yield i, j, next(iter(_faulting_divisions((nu.left[i], nu.right[j]))), None)


_NO_DIVISION = "_no_division"  # kept on a record that holds no division that may fault


def _faulting_divisions(t) -> list:
    """Each division in ``t`` by anything but a nonzero literal, in preorder.
    When there is none, each record walked is marked, and later walks pass
    over it, so a part that many sequents share is read once."""
    seen = list(walk(t, skip=lambda node: hasattr(node, _NO_DIVISION)))
    found = [node for node in seen if type(node) is BinOp and node.op == "/"
             and not (type(node.right) is Lit and node.right.value)]
    if not found:
        for node in seen:
            object.__setattr__(node, _NO_DIVISION, True)  # the term classes are frozen
    return found


def _unmatched_division(a, b):
    """A division that may fault that ``a`` and ``b`` (terms, or tuples of
    them) do not hold equally often by canonical key, or None."""
    in_a, in_b = _faulting_divisions(a), _faulting_divisions(b)
    keys_a, keys_b = [expr_key(d) for d in in_a], [expr_key(d) for d in in_b]
    if sorted(keys_a) == sorted(keys_b):
        return None
    return next(d for d, k in zip(in_a + in_b, keys_a + keys_b)
                if keys_a.count(k) != keys_b.count(k))


def _require_in_range(side: tuple, occs, rule: str) -> None:
    for i in occs:
        if not (0 <= i < len(side)):
            raise SideConditionFailed(f"{rule} occurrence {i} out of range")


class ProofGraph:
    """Finite proof tree with back-links; single writer."""

    def __init__(self, goal: Sequent, oracle=None, extra_rules=None,
                 path_bound: int = 10_000):
        self.nodes: dict = {1: Node(1, goal, None)}
        self.root = 1
        self._next = 2
        self.backlinks: dict = {}
        self.oracle = oracle
        self.path_bound = path_bound
        # shared by reference: rules registered after construction (script
        # `lift` commands) become available to this graph
        self.extra_rules = extra_rules if extra_rules is not None else {}
        self.annotations = LoopAnnotations()  # what a script's `annotate` lines give

    # -- access ---------------------------------------------------------------

    def node(self, node_id: int) -> Node:
        if node_id not in self.nodes:
            raise KernelError(f"no node {node_id}")
        return self.nodes[node_id]

    def open_goals(self) -> list:
        return sorted(
            n.id
            for n in self.nodes.values()
            if n.rule_instance is None and n.id not in self.backlinks
        )

    def ancestors(self, node_id: int):
        walk = self.node(node_id).parent
        while walk is not None:
            yield walk
            walk = self.node(walk).parent

    def obligations(self) -> list:
        out = []
        for node in sorted(self.nodes.values(), key=lambda n: n.id):
            if node.rule_instance is not None:
                out.extend(node.rule_instance.obligations)
        return out

    # -- mutation -------------------------------------------------------------

    def _attach(self, node: Node, instance: RuleInstance) -> list:
        """Attaches ``instance`` at ``node``, after validating it: a refused
        instance leaves the graph as it was."""
        self._validate_instance(node.sequent, instance)
        for ob in instance.obligations:
            if ob.node is None:
                ob.node = node.id
        child_ids = []
        for premise in instance.premises:
            child = Node(self._next, premise, node.id)
            self.nodes[child.id] = child
            child_ids.append(child.id)
            self._next += 1
        node.children = tuple(child_ids)
        node.rule_instance = instance
        return child_ids

    def _require_open(self, node_id: int) -> Node:
        node = self.node(node_id)
        if node.rule_instance is not None or node_id in self.backlinks:
            raise KernelError(f"node {node_id} is not an open goal")
        return node

    def _occurrence(self, side: tuple, occ, predicate, what: str) -> int:
        if occ is not None:
            if not (0 <= occ < len(side)):
                raise SideConditionFailed(f"occurrence {occ} out of range for {what}")
            if not predicate(side[occ]):
                raise SideConditionFailed(
                    f"occurrence {occ} does not match {what}: {parser.dlp_src(side[occ])}"
                )
            return occ
        hits = [i for i, f in enumerate(side) if predicate(f)]
        if not hits:
            raise SideConditionFailed(f"no occurrence matches {what}")
        if len(hits) > 1:
            raise OccurrenceAmbiguous(
                f"{what} matches occurrences {hits}; pass an explicit index"
            )
        return hits[0]

    def _context(self, nu: Sequent, occ, rule: str, what: str) -> tuple:
        """The right occurrence ``rule`` applies to, and the base formulas
        around it, under which its transitions are derived."""
        occ = self._occurrence(nu.right, occ, MATCHERS[rule], what)
        gamma = base_formulas(nu.left)
        delta = base_formulas(nu.right[:occ] + nu.right[occ + 1:])
        return occ, nu.right[occ], gamma, delta

    # -- rule dispatch ----------------------------------------------------------

    def apply_rule(self, node_id: int, rule: str, **args) -> list:
        # the catalog is closed: only listed rules and registered lifts apply
        if rule in CATALOG:
            handler = getattr(self, _RULE_METHODS[rule])
        elif rule in self.extra_rules:
            handler = partial(self.extra_rules[rule], self)
        else:
            raise KernelError(f"unknown rule {rule!r}")
        node = self._require_open(node_id)
        try:
            instance = handler(node, **args)
        except TypeError:
            # arguments the rule does not take are a usage error; a TypeError
            # raised inside a rule that accepted its arguments propagates
            import inspect

            try:
                inspect.signature(handler).bind(node, **args)
            except TypeError as exc:
                raise KernelError(f"rule {rule}: {exc}") from None
            raise
        return self._attach(node, instance)

    # -- primitive rules --------------------------------------------------------

    def _rule_box(self, node: Node, occ: int | None = None) -> RuleInstance:
        nu = node.sequent
        occ, target, gamma, delta = self._context(nu, occ, "box", "a boxed formula")
        if isinstance(target.body.prog, Epsilon):
            raise SideConditionFailed("the box rule requires a non-terminal program")
        transitions = derive_transitions(
            gamma, State(target.body.prog, target.label), delta, self.oracle
        )
        premises, pairs = _unzip([
            _replace_right(
                nu, occ, DLabeled(t.target.config, BBox(t.target.program, target.body.body)),
                progress=True,
            )
            for t in transitions
        ])
        obligations = [ob for t in transitions for ob in t.obligations]
        return RuleInstance("box", nu, premises, {"occ": occ}, pairs, obligations)

    def _rule_diamond(
        self,
        node: Node,
        occ: int | None = None,
        choice: int = 0,
        progress: bool = False,
    ) -> RuleInstance:
        nu = node.sequent
        occ, target, gamma, delta = self._context(nu, occ, "diamond", "a diamond formula")
        if isinstance(target.body.prog, Epsilon):
            raise SideConditionFailed("the diamond rule requires a non-terminal program")
        transitions = derive_transitions(
            gamma, State(target.body.prog, target.label), delta, self.oracle
        )
        if not transitions:
            raise SideConditionFailed("no transition available for the diamond step")
        if not (0 <= choice < len(transitions)):
            raise SideConditionFailed(f"transition choice {choice} out of range")
        t = transitions[choice]
        termination = None
        if progress:
            termination = derive_termination_structural(
                gamma, t.target, delta, self.oracle, self.annotations, self.path_bound,
            )
        premise, pairs = _replace_right(
            nu, occ, DLabeled(t.target.config, BDia(t.target.program, target.body.body)),
            progress=termination is not None,
        )
        obligations = list(t.obligations)
        if termination is not None:
            obligations.extend(termination.obligations)
        return RuleInstance(
            "diamond",
            nu,
            (premise,),
            {"occ": occ, "choice": choice, "progress": termination is not None},
            (pairs,),
            obligations,
        )

    def _rule_ter(self, node: Node) -> RuleInstance:
        nu = node.sequent
        if not nu.is_base_only():
            raise SideConditionFailed("ter needs every formula to be non-dynamic")
        ob = check_obligation(
            self.oracle, base_formulas(nu.left), base_formulas(nu.right), node=node.id
        )
        require_accepted(ob, "ter obligation failed")
        return RuleInstance("ter", nu, (), {}, (), [ob])

    def _rule_ter_step(self, node: Node, factor: Expr | None = None,
                       occ: int | None = None) -> RuleInstance:
        nu = node.sequent
        occ, target, gamma, delta = self._context(
            nu, occ, "ter_step", "a termination judgment on a non-terminal program"
        )
        transitions = derive_transitions(
            gamma, State(target.prog, target.label), delta, self.oracle
        )
        if len(transitions) != 1:
            raise SideConditionFailed(f"expected one transition, got {len(transitions)}")
        t = transitions[0]
        terminal = isinstance(t.target.program, Epsilon)
        successor = DTer(t.target.config, t.target.program, None if terminal
                         else target.factor if factor is None else factor)
        new_factor = successor.factor
        obligations = list(t.obligations)
        progress = False
        if not terminal:
            oblige = partial(check_obligation, self.oracle, gamma, node=node.id)
            ob = oblige([ge(new_factor, Lit(0))] + delta)
            obligations.append(require_accepted(ob, "factor nonnegativity failed"))
            ob = oblige([lt(new_factor, target.factor)] + delta)
            progress = is_accepting(ob.verdict)
            if not progress:
                ob = require_accepted(
                    oblige([Le(new_factor, target.factor)] + delta),
                    "factor may grow across the step",
                )
            obligations.append(ob)
        premise, pairs = _replace_right(nu, occ, successor, progress)
        return RuleInstance(
            "ter_step", nu, (premise,), {"occ": occ, "progress": progress}, (pairs,),
            obligations,
        )

    def _rule_ter_eps(self, node: Node, occ: int | None = None) -> RuleInstance:
        nu = node.sequent
        occ = self._occurrence(
            nu.right, occ, MATCHERS["ter_eps"], "a termination judgment on ε"
        )
        return RuleInstance("ter_eps", nu, (), {"occ": occ}, ())

    def _rule_ter_base(self, node: Node, occ: int | None = None) -> RuleInstance:
        nu = node.sequent
        occ, target, gamma, delta = self._context(
            nu, occ, "ter_base", "a termination judgment"
        )
        judgment = derive_termination_structural(
            gamma, State(target.prog, target.label), delta, self.oracle,
            self.annotations, self.path_bound,
        )
        return RuleInstance("ter_base", nu, (), {"occ": occ}, (), judgment.obligations)

    def _rule_ax(self, node: Node, left: int | None = None,
                 right: int | None = None) -> RuleInstance:
        # an occurrence given is kept; the first equal pair is searched for
        # among the occurrences not given
        nu = node.sequent
        lefts = range(len(nu.left)) if left is None else (left,)
        rights = range(len(nu.right)) if right is None else (right,)
        _require_in_range(nu.left, lefts, "ax")
        _require_in_range(nu.right, rights, "ax")
        found = ax_pair(nu, lefts, rights)
        if found is None:
            # a pair with one key refused for a division: name the division
            refused = next((d for _, _, d in _equal_pairs(nu, lefts, rights)), None)
            note = "" if refused is None else f": {parser.expr_src(refused)} may divide by zero"
            raise SideConditionFailed("no matching formula pair for ax" + note)
        return RuleInstance("ax", nu, (), {"left": found[0], "right": found[1]}, ())

    def _labeled_rewrite(self, node: Node, occ: int | None = None,
                         side: str = "right", *, rule: str) -> RuleInstance:
        nu = node.sequent
        if side not in ("left", "right"):
            raise SideConditionFailed(f"side must be left or right, not {side!r}")
        formulas, replace = (
            (nu.right, _replace_right) if side == "right" else (nu.left, _replace_left)
        )
        occ = self._occurrence(formulas, occ, MATCHERS[rule], rule)
        premise, pairs = replace(nu, occ, LABEL_REWRITES[rule](formulas[occ]))
        return RuleInstance(rule, nu, (premise,), {"occ": occ, "side": side}, (pairs,))

    _rule_int = partialmethod(_labeled_rewrite, rule="int")
    _rule_box_eps = partialmethod(_labeled_rewrite, rule="box_eps")
    _rule_sigma_not = partialmethod(_labeled_rewrite, rule="sigma_not")
    _rule_sigma_and = partialmethod(_labeled_rewrite, rule="sigma_and")

    def _rule_sub(self, node: Node, bindings: dict, premise: Sequent) -> RuleInstance:
        nu = node.sequent
        if len(premise.left) != len(nu.left) or len(premise.right) != len(nu.right):
            raise SideConditionFailed("sub premise and conclusion differ in shape")
        for side in ("left", "right"):
            for i, (p, c) in enumerate(zip(getattr(premise, side), getattr(nu, side))):
                image = substitute(p, bindings)
                if not formulas_equal(image, c):
                    raise SideConditionFailed(
                        f"sub: substituted premise differs at {side}[{i}]: "
                        f"{parser.dlp_src(image)} vs {parser.dlp_src(c)}"
                    )
                division = _unmatched_division(image, c)
                if division is not None:
                    raise SideConditionFailed(
                        f"sub: substituted premise differs at {side}[{i}]: "
                        f"{parser.expr_src(division)} may divide by zero"
                    )
        pairs = _same_positions(len(nu.right))
        binding_src = {x: parser.expr_src(e) for x, e in sorted(bindings.items())}
        return RuleInstance("sub", nu, (premise,), {"bindings": binding_src}, (pairs,))

    def _rule_cut(self, node: Node, fml: DlpFormula, split: bool = False) -> RuleInstance:
        nu = node.sequent
        parts = tuple(conjuncts(fml)) if split else (fml,)
        return RuleInstance(
            "cut",
            nu,
            (Sequent(nu.left, nu.right + (fml,)), Sequent(nu.left + parts, nu.right)),
            {"fml": parser.dlp_src(fml), "split": split},
            (_same_positions(len(nu.right)),) * 2,
        )

    def _rule_wk_l(self, node: Node, occs) -> RuleInstance:
        nu = node.sequent
        occs = sorted(set(occs))
        _require_in_range(nu.left, occs, "wk_l")
        keep = tuple(f for i, f in enumerate(nu.left) if i not in set(occs))
        premise = Sequent(keep, nu.right)
        return RuleInstance(
            "wk_l", nu, (premise,), {"occs": occs}, (_same_positions(len(nu.right)),)
        )

    def _rule_wk_r(self, node: Node, occs) -> RuleInstance:
        nu = node.sequent
        occs = sorted(set(occs))
        _require_in_range(nu.right, occs, "wk_r")
        keep = []
        pairs = []
        for i, f in enumerate(nu.right):
            if i not in set(occs):
                pairs.append(TracePair(i, len(keep)))
                keep.append(f)
        premise = Sequent(nu.left, tuple(keep))
        return RuleInstance(
            "wk_r", nu, (premise,), {"occs": occs}, (tuple(pairs),),
            consumed=tuple(occs),
        )

    def _rule_con_l(self, node: Node, occ: int) -> RuleInstance:
        nu = node.sequent
        _require_in_range(nu.left, (occ,), "con_l")
        premise = Sequent(nu.left + (nu.left[occ],), nu.right)
        return RuleInstance(
            "con_l", nu, (premise,), {"occ": occ}, (_same_positions(len(nu.right)),)
        )

    def _rule_con_r(self, node: Node, occ: int) -> RuleInstance:
        nu = node.sequent
        _require_in_range(nu.right, (occ,), "con_r")
        premise = Sequent(nu.left, nu.right + (nu.right[occ],))
        pairs = _same_positions(len(nu.right)) + (TracePair(occ, len(nu.right)),)
        return RuleInstance("con_r", nu, (premise,), {"occ": occ}, (pairs,))

    def _rule_not_l(self, node: Node, occ: int | None = None) -> RuleInstance:
        nu = node.sequent
        occ = self._occurrence(nu.left, occ, MATCHERS["not_l"], "a negation on the left")
        inner = split_not(nu.left[occ])
        premise = Sequent(
            nu.left[:occ] + nu.left[occ + 1:], nu.right + (inner,)
        )
        return RuleInstance(
            "not_l", nu, (premise,), {"occ": occ}, (_same_positions(len(nu.right)),)
        )

    def _rule_not_r(self, node: Node, occ: int | None = None) -> RuleInstance:
        nu = node.sequent
        occ = self._occurrence(nu.right, occ, MATCHERS["not_r"], "a negation on the right")
        inner = split_not(nu.right[occ])
        premise = Sequent(
            nu.left + (inner,), nu.right[:occ] + nu.right[occ + 1:]
        )
        pairs = []
        for i in range(len(nu.right)):
            if i == occ:
                continue
            pairs.append(TracePair(i, i if i < occ else i - 1))
        return RuleInstance(
            "not_r", nu, (premise,), {"occ": occ}, (tuple(pairs),), consumed=(occ,)
        )

    def _rule_and_l(self, node: Node, occ: int | None = None) -> RuleInstance:
        nu = node.sequent
        occ = self._occurrence(nu.left, occ, MATCHERS["and_l"], "a conjunction on the left")
        premise, pairs = _replace_left(nu, occ, *split_and(nu.left[occ]))
        return RuleInstance("and_l", nu, (premise,), {"occ": occ}, (pairs,))

    def _rule_and_r(self, node: Node, occ: int | None = None) -> RuleInstance:
        nu = node.sequent
        occ = self._occurrence(nu.right, occ, MATCHERS["and_r"], "a conjunction on the right")
        premises, pairs = _unzip(
            [_replace_right(nu, occ, part) for part in split_and(nu.right[occ])]
        )
        return RuleInstance("and_r", nu, premises, {"occ": occ}, pairs)

    # -- derived rules -----------------------------------------------------------

    def _rule_imp_r(self, node: Node, occ: int | None = None) -> RuleInstance:
        nu = node.sequent
        occ = self._occurrence(nu.right, occ, MATCHERS["imp_r"], "an implication on the right")
        a, b = split_imp(nu.right[occ])
        premise, pairs = _replace_right(nu, occ, b)
        # the consequent is a new formula: no trace continues into it
        return RuleInstance(
            "imp_r", nu, (Sequent(nu.left + (a,), premise.right),), {"occ": occ},
            (pairs[:-1],), consumed=(occ,),
        )

    def _rule_or_l(self, node: Node, occ: int | None = None) -> RuleInstance:
        nu = node.sequent
        occ = self._occurrence(nu.left, occ, MATCHERS["or_l"], "a disjunction on the left")
        premises, pairs = _unzip(
            [_replace_left(nu, occ, part) for part in split_or(nu.left[occ])]
        )
        return RuleInstance("or_l", nu, premises, {"occ": occ}, pairs)

    def _rule_le(self, node: Node, target: BaseFormula, occ: int | None = None) -> RuleInstance:
        nu = node.sequent
        occ = self._occurrence(nu.left, occ, MATCHERS["le"], "a base formula on the left")
        phi = nu.left[occ]
        ob = check_obligation(self.oracle, [phi.fml], [target], node=node.id)
        require_accepted(ob, "le obligation failed")
        premise, pairs = _replace_left(nu, occ, DBase(target))
        return RuleInstance(
            "le", nu, (premise,), {"occ": occ, "target": parser.fml_src(target)},
            (pairs,), [ob],
        )

    # -- separation-logic rules ----------------------------------------------------

    def _rule_sigma_star(self, node: Node, h1_addrs=(), h2_addrs=(),
                         occ: int | None = None) -> RuleInstance:
        nu = node.sequent
        occ = self._occurrence(nu.right, occ, MATCHERS["sigma_star"], "a separating conjunction")
        from . import sep  # loaded: the occurrence has a heap label

        f: DLabeled = nu.right[occ]
        state: sep.SepState = f.label
        star: sep.Star = f.body.fml
        heap = state.heap_map()
        try:
            h1 = {a: heap[a] for a in h1_addrs}
            h2 = {a: heap[a] for a in h2_addrs}
        except KeyError as exc:
            raise SideConditionFailed(f"address {exc} is not in the heap")
        merged = dict(h1)
        merged.update(h2)
        if merged != heap or len(merged) != len(h1) + len(h2):
            raise SideConditionFailed("h1 and h2 must split the heap exactly")
        ok = sep.disjoint(h1, h2)
        premises, pairs = _unzip([
            _replace_right(nu, occ, part)
            for part in (
                DBase(TRUE if ok else FALSE),
                DLabeled(state.with_heap(h1), BBase(star.left)),
                DLabeled(state.with_heap(h2), BBase(star.right)),
            )
        ])
        return RuleInstance(
            "sigma_star", nu, premises,
            {"occ": occ, "h1": sorted(h1), "h2": sorted(h2), "disjoint": ok},
            pairs,
        )

    def _rule_sigma_frm(self, node: Node, occ: int | None = None) -> RuleInstance:
        nu = node.sequent
        occ = self._occurrence(nu.right, occ, MATCHERS["sigma_frm"], "a separating conjunction")
        from . import sep  # loaded: the occurrence has a heap label

        f: DLabeled = nu.right[occ]
        state: sep.SepState = f.label
        star: sep.Star = f.body.fml
        store = state.store_map()
        heap_dom = set(state.heap_map())
        offenders = sorted(
            x for x in free_vars(star.right)
            if store.get(x) in heap_dom
        )
        if offenders:
            raise SideConditionFailed(
                f"frame side condition: {offenders} address mapped heap cells"
            )
        premise, pairs = _replace_right(nu, occ, DLabeled(state, BBase(star.left)))
        return RuleInstance("sigma_frm", nu, (premise,), {"occ": occ}, (pairs,))

    # -- built-in lifts ----------------------------------------------------------

    def _rule_sigma_seq(self, node: Node, occ: int | None = None) -> RuleInstance:
        """Box over sequencing: proves σ:[α;β]φ from σ:[α][β]φ."""
        nu = node.sequent
        occ = self._occurrence(nu.right, occ, MATCHERS["sigma_seq"], "a boxed sequence")
        target: DLabeled = nu.right[occ]
        seq: Seq = target.body.prog
        premise, pairs = _replace_right(
            nu, occ, DLabeled(target.label, BBox(seq.first, BBox(seq.second, target.body.body)))
        )
        return RuleInstance(
            "sigma_seq", nu, (premise,), {"occ": occ, "evidence": "builtin-argument"},
            (pairs,),
        )

    def _rule_sigma_gen(self, node: Node) -> RuleInstance:
        """Modality generation: σ:[α]φ ⇒ σ:[α]ψ from σ:φ ⇒ σ:ψ.  The premise
        must be φ ⇒ ψ at every state, so σ must rename variables apart: a
        store whose values are distinct variables, none free in a body
        outside the store's domain."""
        nu = node.sequent
        if len(nu.left) != 1 or len(nu.right) != 1:
            raise SideConditionFailed("sigma_gen applies to one-formula sides")
        lhs, rhs = nu.left[0], nu.right[0]
        if not (MATCHERS["sigma_gen"](lhs) and MATCHERS["sigma_gen"](rhs)):
            raise SideConditionFailed("sigma_gen expects boxed formulas on both sides")
        if key(lhs.label) != key(rhs.label):
            raise SideConditionFailed("sigma_gen: labels must agree")
        if key(lhs.body.prog) != key(rhs.body.prog):
            raise SideConditionFailed("sigma_gen: programs must agree")
        sigma = lhs.label
        if not isinstance(sigma, Config) or sigma.stack:
            raise SideConditionFailed("sigma_gen needs a store label")
        values = {e.name for _, e in sigma.entries if isinstance(e, Var)}
        outside = (free_vars(lhs.body) | free_vars(rhs.body)) - sigma.domain()
        if len(values) < len(sigma.entries) or values & outside:
            raise SideConditionFailed(
                f"sigma_gen: {parser.config_src(sigma)} does not rename variables apart"
            )
        premise = Sequent(
            (DLabeled(lhs.label, lhs.body.body),),
            (DLabeled(rhs.label, rhs.body.body),),
        )
        return RuleInstance(
            "sigma_gen", nu, (premise,), {"evidence": "builtin-argument"},
            ((TracePair(0, 0),),),
        )

    # -- backlinks --------------------------------------------------------------

    def link_bud(self, bud_id: int, companion_id: int) -> None:
        self._require_open(bud_id)
        self._check_link(bud_id, companion_id)
        self.backlinks[bud_id] = companion_id

    def _check_link(self, bud_id: int, companion_id: int) -> None:
        """Refuses a back-link to anything but a proper ancestor whose sequent
        is the bud's: one key, and the same divisions that may fault."""
        bud, companion = self.node(bud_id).sequent, self.node(companion_id).sequent
        if companion_id not in set(self.ancestors(bud_id)):
            raise NotAncestor(f"node {companion_id} is not a proper ancestor of {bud_id}")
        if not sequents_equal(bud, companion):
            diff = sequent_diff(bud, companion)
            side, fml = diff if diff else ("?", None)
            detail = parser.dlp_src(fml) if fml is not None else "?"
            raise SequentMismatch(f"bud {bud_id} differs from companion {companion_id} "
                                  f"on the {side} side at {detail}")
        for side in ("left", "right"):
            division = _unmatched_division(getattr(bud, side), getattr(companion, side))
            if division is not None:
                raise SequentMismatch(
                    f"bud {bud_id} differs from companion {companion_id} on the {side} "
                    f"side: {parser.expr_src(division)} may divide by zero"
                )

    def backlink_pairs(self, bud_id: int) -> tuple:
        """Identity map on right occurrences across a backlink, by key."""
        bud = self.node(bud_id)
        companion = self.node(self.backlinks[bud_id])
        used = set()
        pairs = []
        comp_keys = [formula_key(f) for f in companion.sequent.right]
        for i, f in enumerate(bud.sequent.right):
            k = formula_key(f)
            for j, ck in enumerate(comp_keys):
                if j not in used and ck == k:
                    pairs.append(TracePair(i, j))
                    used.add(j)
                    break
        return tuple(pairs)

    # -- validation ----------------------------------------------------------------

    def _validate_instance(self, conclusion: Sequent, inst: RuleInstance) -> None:
        n_right = len(conclusion.right)
        if len(inst.trace_pairs) != len(inst.premises):
            raise KernelError("trace pairs and premises out of step")
        for premise, pairs in zip(inst.premises, inst.trace_pairs):
            covered = set()
            for pair in pairs:
                if not (0 <= pair.src < n_right and 0 <= pair.dst < len(premise.right)):
                    raise KernelError(f"trace pair out of range in rule {inst.rule}")
                covered.add(pair.src)
            missing = set(range(n_right)) - covered - set(inst.consumed)
            if missing and inst.premises:
                raise KernelError(
                    f"rule {inst.rule}: right occurrences {sorted(missing)} have no trace pair"
                )

    def validate(self) -> None:
        for node in self.nodes.values():
            if node.parent is not None:
                parent = self.node(node.parent)
                if node.id not in parent.children:
                    raise KernelError(f"node {node.id} detached from parent")
            if node.rule_instance is not None:
                self._validate_instance(node.sequent, node.rule_instance)
        for bud, companion in self.backlinks.items():
            self._check_link(bud, companion)

    # -- dump -----------------------------------------------------------------------

    def dump(self) -> str:
        """Stable s-expression rendering used for golden tests."""
        chunks = ["(proof"]
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            seq = parser.sequent_src(node.sequent)
            if node.rule_instance is not None:
                args = node.rule_instance.args
                arg_txt = " ".join(f"{k} {args[k]}" for k in sorted(args))
                rule = f"(rule {node.rule_instance.rule}" + (f" {arg_txt})" if arg_txt else ")")
            elif node_id in self.backlinks:
                rule = "(rule backlink)"
            else:
                rule = "(open)"
            children = " ".join(str(c) for c in node.children)
            chunks.append(f'  (node {node_id} "{seq}" {rule} (children {children}))')
        links = " ".join(f"({b} {c})" for b, c in sorted(self.backlinks.items()))
        chunks.append(f"  (backlinks {links})")
        chunks.append(")")
        return "\n".join(chunks)


def new_proof(goal: Sequent, oracle=None, extra_rules=None) -> ProofGraph:
    return ProofGraph(goal, oracle=oracle, extra_rules=extra_rules)
