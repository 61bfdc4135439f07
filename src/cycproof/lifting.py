"""Importing unlabeled structural rules as labeled rules.

A rule over unlabeled formulas lifts to its labeled version, with one shared
configuration, when that configuration is semantically well-behaved: for an
axiom it suffices that every evaluation of the labeled formula is mirrored
by some evaluation of the plain one ("standard"); a rule with premises needs
the mirroring in both directions ("free").  Those conditions are semantic
and undecidable in general, so registration takes executable evaluation
transformers as witnesses and samples them at each application; the rule
args of that application record ``"evidence": "sampled-witness"``, so the
dump says the lift rests on sampling.

The two built-in lifts of the While domain, ``sigma_seq`` and
``sigma_gen``, rest on a structural argument and are kernel rules; this
module holds only the lifts a script registers with ``lift``, and is
imported by the first such line.
"""

from __future__ import annotations

import random
from typing import Callable

from . import parser
from .canon import key
from .formulas import (
    BAnd,
    BBase,
    BNot,
    DLabeled,
    MBody,
    MProg,
    Sequent,
    free_vars,
)
from .kernel import (
    KernelError,
    Node,
    ProofGraph,
    RuleInstance,
    SideConditionFailed,
    TracePair,
)
from .record import dataclass, field, values, walk
from .terms import (
    AndF,
    BaseFormula,
    Config,
    NotF,
    apply_config,
    eval_bool,
)


class ClassMismatch(KernelError):
    pass


class FreenessNotEstablished(SideConditionFailed):
    pass


Transformer = Callable[[dict], dict]


def transformer_from_updates(updates: dict) -> Transformer:
    """An evaluation transformer from a variable-update map.

    ``{x: e}`` sends an evaluation rho to rho with x rebound to rho(e).
    """
    from .terms import evaluate

    def apply(rho: dict) -> dict:
        out = dict(rho)
        for name, expr in updates.items():
            out[name] = evaluate(rho, expr)
        return out

    return apply


def se_sample(rho: dict, sigma: Config, rho2: dict, formulas, quantifier_range=(-50, 50)) -> bool:
    """One same-effect check: rho satisfies sigma:phi iff rho2 satisfies phi."""
    for phi in formulas:
        labeled = eval_bool(rho, apply_config(sigma, phi), quantifier_range)
        plain = eval_bool(rho2, phi, quantifier_range)
        if labeled != plain:
            return False
    return True


@dataclass
class FreenessReport:
    sigma: Config
    formulas: tuple
    samples: int
    cond1_failures: list = field(default_factory=list)  # (rho, phi)
    cond2_failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.cond1_failures and not self.cond2_failures

    def __str__(self) -> str:
        head = (
            f"freeness of {parser.config_src(self.sigma)} over "
            f"{{{', '.join(parser.fml_src(f) for f in self.formulas)}}}: "
        )
        if self.passed:
            return head + f"passed ({self.samples} samples)"
        lines = [head + "FAILED"]
        for name, failures in (("condition 1", self.cond1_failures),
                               ("condition 2", self.cond2_failures)):
            for rho, phi in failures[:3]:
                witness = ", ".join(f"{x} = {v}" for x, v in sorted(rho.items()))
                lines.append(f"  {name} fails at [{witness}] on {parser.fml_src(phi)}")
        return "\n".join(lines)


def check_freeness(
    sigma: Config,
    formulas,
    forward: Transformer,
    backward: Transformer,
    samples: int = 200,
    seed: int = 0,
    value_range=(-50, 50),
) -> FreenessReport:
    """Sample both directions of the free-configuration conditions.

    Condition 1: the forward transformer turns any evaluation of the labeled
    formulas into a matching plain evaluation.  Condition 2: the backward
    transformer produces, for any target evaluation, a source whose labeled
    reading matches it.  Failures carry the witnessing evaluation; a passing
    report is evidence by sampling only.
    """
    formulas = tuple(formulas)
    names = sorted(
        set().union(*(free_vars(f) for f in formulas)) | free_vars(sigma)
        if formulas
        else free_vars(sigma)
    )
    rng = random.Random(seed)
    report = FreenessReport(sigma, formulas, samples)
    lo, hi = value_range
    for _ in range(samples):
        rho = {x: rng.randint(lo, hi) for x in names}
        rho2 = forward(rho)
        if not se_sample(rho, sigma, rho2, formulas):
            failing = _first_failing(rho, sigma, rho2, formulas)
            report.cond1_failures.append((rho, failing))
        rho_b = backward(rho)
        if not se_sample(rho_b, sigma, rho, formulas):
            failing = _first_failing(rho_b, sigma, rho, formulas)
            report.cond2_failures.append((rho, failing))
    return report


def _first_failing(rho, sigma, rho2, formulas):
    for phi in formulas:
        labeled = eval_bool(rho, apply_config(sigma, phi))
        if labeled != eval_bool(rho2, phi):
            return phi
    return formulas[0] if formulas else None


# ---------------------------------------------------------------------------
# Rule templates and registration
# ---------------------------------------------------------------------------

TemplateSequent = tuple  # (left bodies, right bodies); members Body / MBody / composites


_HOLES = (MBody, MProg)
# the connectives the parser collapses into a base formula over base operands
_BUILD = {BNot: parser._b_not, BAnd: parser._b_and}


def _match(pattern, term, bindings: dict) -> bool:
    """Whether ``term``, a body or a program, is an instance of ``pattern``,
    binding its holes in ``bindings``.  A part without holes matches by
    canonical key; one with holes matches part by part, through its fields."""
    if isinstance(pattern, _HOLES):
        bound = bindings.setdefault(pattern.name, term)
        return bound is term or key(bound) == key(term)
    if not any(isinstance(node, _HOLES) for node in walk(pattern)):
        return key(pattern) == key(term)
    # a modality-free body collapses its connectives into the base formula,
    # so "!" and "&&" patterns look through that representation
    if isinstance(term, BBase):
        fml = term.fml
        if isinstance(pattern, BNot) and isinstance(fml, NotF):
            term = BNot(BBase(fml.body))
        elif isinstance(pattern, BAnd) and isinstance(fml, AndF):
            term = BAnd(BBase(fml.left), BBase(fml.right))
    return type(pattern) is type(term) and all(
        _match(p, t, bindings) for p, t in zip(values(pattern), values(term))
    )


def _instantiate(pattern, bindings: dict):
    """``pattern`` with its holes replaced by their bindings; a part without
    holes is returned as it is, and a connective is built as the parser
    builds it."""
    if isinstance(pattern, _HOLES):
        return bindings[pattern.name]
    parts = values(pattern)
    made = tuple(_instantiate(part, bindings) for part in parts)
    if made == parts:  # no holes
        return pattern
    return _BUILD.get(type(pattern), type(pattern))(*made)


@dataclass
class LiftedRule:
    """A labeled rule generated from an unlabeled template.

    ``premises``/``conclusion`` hold body templates; every template formula
    is read as sigma:F for one shared sigma bound at the application site.
    """

    name: str
    premises: tuple  # of TemplateSequent
    conclusion: TemplateSequent
    config_class: str  # "free" | "standard"
    witness: tuple | None = None  # (forward, backward) transformers

    def __post_init__(self) -> None:
        if self.config_class not in ("free", "standard"):
            raise ClassMismatch(f"unknown configuration class {self.config_class!r}")
        if self.config_class == "standard" and self.premises:
            raise ClassMismatch(
                "the standard (one-direction) lift covers axioms only"
            )


def lift_rule(rule: LiftedRule, registry: dict, samples: int = 50) -> dict:
    """Register the labeled version of ``rule`` in a kernel rule registry.

    A registered handler is called as ``handler(graph, node)`` on an open
    goal node and returns the ``RuleInstance`` the graph attaches there.
    """
    def handler(graph: ProofGraph, node: Node) -> RuleInstance:
        return _apply_lifted(node, rule, samples)

    registry[rule.name] = handler
    return registry


def _apply_lifted(node: Node, rule: LiftedRule, samples: int) -> RuleInstance:
    nu = node.sequent
    cleft, cright = rule.conclusion
    if len(nu.left) != len(cleft) or len(nu.right) != len(cright):
        raise SideConditionFailed(f"{rule.name}: sequent shape differs from the template")
    bindings: dict = {}
    sigma = None
    for pattern, formula in list(zip(cleft, nu.left)) + list(zip(cright, nu.right)):
        if not isinstance(formula, DLabeled):
            raise SideConditionFailed(f"{rule.name}: every formula must be labeled")
        if sigma is None:
            sigma = formula.label
        elif key(formula.label) != key(sigma):
            raise SideConditionFailed(f"{rule.name}: labels must agree")
        if not _match(pattern, formula.body, bindings):
            raise SideConditionFailed(f"{rule.name}: template does not match")
    if rule.witness is None:
        raise FreenessNotEstablished(f"{rule.name}: no witness transformers registered")
    formulas = _evaluable_instances(rule, bindings)
    fwd, bwd = rule.witness
    if rule.config_class == "standard":
        bwd = fwd  # condition 2 is not required; reuse to keep the call total
    report = check_freeness(sigma, formulas, fwd, bwd, samples=samples)
    relevant = (
        report.cond1_failures
        if rule.config_class == "standard"
        else report.cond1_failures + report.cond2_failures
    )
    if relevant:
        raise FreenessNotEstablished(str(report))
    premises = []
    pairs = []
    for pleft, pright in rule.premises:
        left = tuple(DLabeled(sigma, _instantiate(p, bindings)) for p in pleft)
        right = tuple(DLabeled(sigma, _instantiate(p, bindings)) for p in pright)
        premises.append(Sequent(left, right))
        pairs.append(
            tuple(
                TracePair(i, i)
                for i in range(min(len(nu.right), len(right)))
            )
        )
    return RuleInstance(
        rule.name,
        nu,
        tuple(premises),
        {"lifted": rule.name, "evidence": "sampled-witness"},
        tuple(pairs),
    )


def _evaluable_instances(rule: LiftedRule, bindings: dict) -> list:
    out = []
    for side_pair in (rule.conclusion, *rule.premises):
        for pattern in side_pair[0] + side_pair[1]:
            body = _instantiate(pattern, bindings)
            if isinstance(body, BBase) and isinstance(body.fml, BaseFormula):
                out.append(body.fml)
    return out
