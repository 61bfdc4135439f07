"""Importing unlabeled structural rules as labeled rules.

A rule over unlabeled formulas lifts to its labeled version, with one shared
configuration, when that configuration is semantically well-behaved: for an
axiom it suffices that every evaluation of the labeled formula is mirrored
by some evaluation of the plain one ("standard"); a rule with premises needs
the mirroring in both directions ("free").  Those conditions are semantic
and undecidable in general, so registration takes executable evaluation
transformers as witnesses and samples them; a lifted rule therefore carries
its evidence mode, and certificates can report it.

Two lifts ship pre-registered with a structural argument and need no
sampling at use sites: the box-over-sequencing rewrite and the modality
generation rule.  ``kernel.default_registry`` registers them, and this
module is imported at the first call of either.
"""

from __future__ import annotations

import random
from typing import Callable

from . import parser
from .formulas import (
    BBase,
    BBox,
    Body,
    DLabeled,
    Sequent,
    body_key,
    formula_key,
    free_vars,
)
from .kernel import (
    MATCHERS,
    KernelError,
    Node,
    ProofGraph,
    RuleInstance,
    SideConditionFailed,
    TracePair,
    _replace_right,
)
from .record import dataclass, field
from .terms import (
    TRUE as _TRUE,
    BaseFormula,
    Config,
    Program,
    Seq,
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
        labeled = eval_bool(rho, apply_config(sigma, phi), quantifier_range).value
        plain = eval_bool(rho2, phi, quantifier_range).value
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
        labeled = eval_bool(rho, apply_config(sigma, phi)).value
        if labeled != eval_bool(rho2, phi).value:
            return phi
    return formulas[0] if formulas else None


# ---------------------------------------------------------------------------
# Rule templates and registration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MProg:
    name: str


@dataclass(frozen=True)
class MBody:
    name: str


TemplateSequent = tuple  # (left bodies, right bodies); members Body / MBody / composites


def _match_body(pattern, body, bindings: dict) -> bool:
    if isinstance(pattern, MBody):
        if pattern.name in bindings:
            return body_key(bindings[pattern.name]) == body_key(body)
        bindings[pattern.name] = body
        return True
    if isinstance(pattern, BBox) and isinstance(body, BBox):
        return _match_prog(pattern.prog, body.prog, bindings) and _match_body(
            pattern.body, body.body, bindings
        )
    # a modality-free body collapses its connectives into the base formula,
    # so structural patterns look through that representation
    from .formulas import BAnd, BNot
    from .terms import AndF, NotF

    if isinstance(pattern, BAnd):
        if isinstance(body, BAnd):
            return _match_body(pattern.left, body.left, bindings) and _match_body(
                pattern.right, body.right, bindings
            )
        if isinstance(body, BBase) and isinstance(body.fml, AndF):
            return _match_body(
                pattern.left, BBase(body.fml.left), bindings
            ) and _match_body(pattern.right, BBase(body.fml.right), bindings)
        return False
    if isinstance(pattern, BNot):
        if isinstance(body, BNot):
            return _match_body(pattern.body, body.body, bindings)
        if isinstance(body, BBase) and isinstance(body.fml, NotF):
            return _match_body(pattern.body, BBase(body.fml.body), bindings)
        return False
    if isinstance(pattern, BBase) and isinstance(body, BBase):
        return body_key(pattern) == body_key(body)
    return type(pattern) is type(body) and body_key(pattern) == body_key(body)


def _match_prog(pattern, prog, bindings: dict) -> bool:
    from . import canon

    if isinstance(pattern, MProg):
        if pattern.name in bindings:
            return canon.program_key(bindings[pattern.name]) == canon.program_key(prog)
        bindings[pattern.name] = prog
        return True
    if isinstance(pattern, Seq) and isinstance(prog, Seq):
        return _match_prog(pattern.first, prog.first, bindings) and _match_prog(
            pattern.second, prog.second, bindings
        )
    return canon.program_key(pattern) == canon.program_key(prog)


def _instantiate_body(pattern, bindings: dict) -> Body:
    if isinstance(pattern, MBody):
        return bindings[pattern.name]
    if isinstance(pattern, BBox):
        return BBox(
            _instantiate_prog(pattern.prog, bindings),
            _instantiate_body(pattern.body, bindings),
        )
    return pattern


def _instantiate_prog(pattern, bindings: dict) -> Program:
    if isinstance(pattern, MProg):
        return bindings[pattern.name]
    if isinstance(pattern, Seq):
        return Seq(
            _instantiate_prog(pattern.first, bindings),
            _instantiate_prog(pattern.second, bindings),
        )
    return pattern


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
    evidence: str = "sampled-witness"

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
        elif formula_key(DLabeled(sigma, BBase(_TRUE))) != formula_key(
            DLabeled(formula.label, BBase(_TRUE))
        ):
            raise SideConditionFailed(f"{rule.name}: labels must agree")
        if not _match_body(pattern, formula.body, bindings):
            raise SideConditionFailed(f"{rule.name}: template does not match")
    if rule.evidence == "sampled-witness":
        if rule.witness is None:
            raise FreenessNotEstablished(
                f"{rule.name}: no witness transformers registered"
            )
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
        left = tuple(DLabeled(sigma, _instantiate_body(p, bindings)) for p in pleft)
        right = tuple(DLabeled(sigma, _instantiate_body(p, bindings)) for p in pright)
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
        {"lifted": rule.name, "evidence": rule.evidence},
        tuple(pairs),
    )


def _evaluable_instances(rule: LiftedRule, bindings: dict) -> list:
    out = []
    for side_pair in (rule.conclusion, *rule.premises):
        for pattern in side_pair[0] + side_pair[1]:
            body = _instantiate_body(pattern, bindings)
            if isinstance(body, BBase) and isinstance(body.fml, BaseFormula):
                out.append(body.fml)
    return out


# ---------------------------------------------------------------------------
# Built-in lifts for the While domain
# ---------------------------------------------------------------------------

def _sigma_seq_handler(graph: ProofGraph, node: Node, occ: int | None = None) -> RuleInstance:
    """Box over sequencing: proves sigma:[a;b]phi from sigma:[a][b]phi."""
    nu = node.sequent
    occ = graph._occurrence(nu.right, occ, MATCHERS["sigma_seq"], "a boxed sequence")
    target: DLabeled = nu.right[occ]
    seq: Seq = target.body.prog
    premise, pairs = _replace_right(
        nu, occ, DLabeled(target.label, BBox(seq.first, BBox(seq.second, target.body.body)))
    )
    return RuleInstance(
        "sigma_seq", nu, (premise,), {"occ": occ, "evidence": "builtin-argument"},
        (pairs,),
    )


def _sigma_gen_handler(graph: ProofGraph, node: Node) -> RuleInstance:
    """Modality generation: sigma:[a]phi => sigma:[a]psi from sigma:phi => sigma:psi."""
    nu = node.sequent
    if len(nu.left) != 1 or len(nu.right) != 1:
        raise SideConditionFailed("sigma_gen applies to one-formula sides")
    lhs, rhs = nu.left[0], nu.right[0]
    if not (MATCHERS["sigma_gen"](lhs) and MATCHERS["sigma_gen"](rhs)):
        raise SideConditionFailed("sigma_gen expects boxed formulas on both sides")
    from . import canon

    if formula_key(DLabeled(lhs.label, BBase(_TRUE))) != formula_key(
        DLabeled(rhs.label, BBase(_TRUE))
    ):
        raise SideConditionFailed("sigma_gen: labels must agree")
    if canon.program_key(lhs.body.prog) != canon.program_key(rhs.body.prog):
        raise SideConditionFailed("sigma_gen: programs must agree")
    premise = Sequent(
        (DLabeled(lhs.label, lhs.body.body),),
        (DLabeled(rhs.label, rhs.body.body),),
    )
    return RuleInstance(
        "sigma_gen", nu, (premise,), {"evidence": "builtin-argument"},
        ((TracePair(0, 0),),),
    )


# ---------------------------------------------------------------------------
# Premises-imply-conclusion sampling
# ---------------------------------------------------------------------------

def sequent_truth(rho: dict, nu: Sequent, path_bound: int = 2_000) -> Verdict:
    """Three-valued truth of a sequent's formula reading under rho."""
    from .semantics import Verdict, models  # sampling only: imported when used

    right = Verdict.FALSE
    for f in nu.left:
        v = models(rho, f, path_bound)
        if v is Verdict.FALSE:
            return Verdict.TRUE
        if v is Verdict.UNKNOWN:
            return Verdict.UNKNOWN
    for f in nu.right:
        v = models(rho, f, path_bound)
        if v is Verdict.TRUE:
            return Verdict.TRUE
        if v is Verdict.UNKNOWN:
            right = Verdict.UNKNOWN
    return right


@dataclass
class SoundnessSample:
    checked: int
    skipped: int
    failures: list


def soundness_sample(
    premises,
    conclusion: Sequent,
    samples: int = 200,
    seed: int = 0,
    value_range=(-10, 10),
    path_bound: int = 2_000,
) -> SoundnessSample:
    """Sample evaluations: whenever every premise holds, the conclusion must.

    Unknown verdicts (path bound hit) skip the sample rather than deciding
    it.  Failures carry the offending evaluation.
    """
    from .semantics import Verdict

    names = sorted(
        set().union(
            *(free_vars(f) for nu in list(premises) + [conclusion] for f in nu.left + nu.right)
        )
        if (list(premises) or conclusion.left or conclusion.right)
        else set()
    )
    rng = random.Random(seed)
    lo, hi = value_range
    checked = skipped = 0
    failures = []
    for _ in range(samples):
        rho = {x: rng.randint(lo, hi) for x in names}
        verdicts = [sequent_truth(rho, p, path_bound) for p in premises]
        if any(v is Verdict.UNKNOWN for v in verdicts):
            skipped += 1
            continue
        if any(v is Verdict.FALSE for v in verdicts):
            checked += 1
            continue
        conclusion_v = sequent_truth(rho, conclusion, path_bound)
        if conclusion_v is Verdict.UNKNOWN:
            skipped += 1
            continue
        checked += 1
        if conclusion_v is Verdict.FALSE:
            failures.append(rho)
    return SoundnessSample(checked, skipped, failures)
