"""Proof scripts: the reproducible unit of a verification run.

A script is a line-oriented command list; replaying it against a fresh
proof graph is deterministic, so node identifiers, rule arguments, and the
resulting certificate reproduce bit for bit.  Commands address open goals
by node id (``at N``); without it they act on the lowest open goal.

    goal <sequent>
    apply <rule> [at <node>] [with <args>]
    sub [at <node>] {x := e, ...} premise <sequent>
    cut [at <node>] <formula> [split]
    backlink [at <node>] to <companion>
    annotate while <index> invariant <formula> factor <expr>
    lift <name> from <file> class free|standard witness fwd {..} bwd {..}
    qed

Lines starting with ``#`` are comments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path as FsPath

from . import cyclic, lifting, parser
from .formulas import BBox, BDia, DLabeled
from .kernel import KernelError, ProofGraph
from .oracle import BoundedValid
from .terms import Program, TermError, While
from .whilelang import (
    CaseSplitNeeded,
    LoopAnnotations,
    MissingAnnotation,
    NoProgressOnCycle,
    ObligationFailed,
)


class ScriptError(Exception):
    def __init__(self, message: str, line_no: int | None = None):
        at = f" (script line {line_no})" if line_no else ""
        super().__init__(message + at)
        self.line_no = line_no


@dataclass
class RunReport:
    verdict: str  # Proved | ProvedBounded | Rejected | Stuck
    message: str = ""
    nodes: int = 0
    backlinks: int = 0
    obligations: list = field(default_factory=list)
    trace_report: str = ""
    dump: str = ""
    elapsed: float = 0.0

    @property
    def succeeded(self) -> bool:
        return self.verdict in ("Proved", "ProvedBounded")

    def render(self) -> str:
        lines = [f"verdict: {self.verdict}"]
        if self.message:
            lines.append(f"note: {self.message}")
        lines.append(f"nodes: {self.nodes}  backlinks: {self.backlinks}")
        lines.append("oracle obligations:")
        if self.obligations:
            lines.extend(f"  {ob.describe()}" for ob in self.obligations)
        else:
            lines.append("  none")
        if self.trace_report:
            lines.append("trace report:")
            lines.extend(f"  {line}" for line in self.trace_report.splitlines())
        lines.append(f"elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines)


def _split_lines(text: str) -> list:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((i, line))
    return out


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ScriptError(f"{what} expects an integer, got {token!r}") from None


def _take_at(rest: str):
    """Strip a leading ``at N`` clause; returns (node_or_None, remainder)."""
    parts = rest.split()
    if len(parts) >= 2 and parts[0] == "at":
        node = _int(parts[1], "at")
        return node, rest.split(None, 2)[2] if len(parts) > 2 else ""
    return None, rest


def _parse_updates(text: str) -> dict:
    """``{x := e, y := e2}`` into a name-to-expression map."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ScriptError(f"expected {{x := e, ...}}, got {text!r}")
    inner = text[1:-1].strip()
    out: dict = {}
    if not inner:
        return out
    depth = 0
    chunk = ""
    chunks = []
    for ch in inner:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            chunks.append(chunk)
            chunk = ""
        else:
            chunk += ch
    chunks.append(chunk)
    for item in chunks:
        if ":=" not in item:
            raise ScriptError(f"expected x := e in binding, got {item!r}")
        name, expr = item.split(":=", 1)
        out[name.strip()] = parser.parse_expr(expr)
    return out


class Replayer:
    """Executes script commands against a proof graph."""

    def __init__(self, oracle, path_bound: int = 10_000, base_dir: FsPath | None = None):
        self.oracle = oracle
        self.path_bound = path_bound
        self.base_dir = base_dir or FsPath(".")
        self.graph: ProofGraph | None = None
        self.annotations = LoopAnnotations()
        self.registry = lifting.default_registry()
        self.qed_seen = False
        self.certificate = None

    # -- helpers -------------------------------------------------------------

    def _target_node(self, explicit: int | None) -> int:
        if explicit is not None:
            return explicit
        goals = self.graph.open_goals()
        if not goals:
            raise ScriptError("no open goals")
        return goals[0]

    def _whiles_in_goal(self) -> list:
        """While statements of the root goal, in preorder, left to right."""
        out: list = []

        def walk_prog(p: Program):
            if isinstance(p, While):
                out.append(p)
            for attr in ("first", "second", "then", "orelse", "body"):
                sub = getattr(p, attr, None)
                if isinstance(sub, Program):
                    walk_prog(sub)

        def walk_body(b):
            from .formulas import Body

            if isinstance(b, (BBox, BDia)):
                walk_prog(b.prog)
                walk_body(b.body)
                return
            for attr in ("left", "right", "body"):
                sub = getattr(b, attr, None)
                if isinstance(sub, Body):
                    walk_body(sub)

        def walk_formula(f):
            if isinstance(f, DLabeled):
                walk_body(f.body)
            for attr in ("arg", "left", "right"):
                sub = getattr(f, attr, None)
                if sub is not None:
                    walk_formula(sub)

        root = self.graph.node(self.graph.root).sequent
        for f in root.left + root.right:
            walk_formula(f)
        return out

    # -- commands --------------------------------------------------------------

    def cmd_goal(self, rest: str):
        if self.graph is not None:
            raise ScriptError("goal already set")
        goal = parser.parse_sequent(rest)
        self.graph = ProofGraph(
            goal, oracle=self.oracle, extra_rules=self.registry,
            path_bound=self.path_bound,
        )

    def cmd_apply(self, rest: str):
        parts = rest.split(None, 1)
        if not parts:
            raise ScriptError("apply needs a rule name")
        rule = parts[0]
        remainder = parts[1] if len(parts) > 1 else ""
        node, remainder = _take_at(remainder)
        node = self._target_node(node)
        args = self._parse_apply_args(rule, remainder)
        self.graph.apply_rule(node, rule, **args)

    def _parse_apply_args(self, rule: str, remainder: str) -> dict:
        remainder = remainder.strip()
        if remainder.startswith("with"):
            remainder = remainder[4:].strip()
        if not remainder:
            return {}
        if rule in ("wk_l", "wk_r"):
            return {"occs": [_int(tok, rule) for tok in remainder.split()]}
        if rule == "le":
            tokens = remainder.split()
            args: dict = {}
            if tokens[0] == "occ":
                args["occ"] = _int(tokens[1] if len(tokens) > 1 else "", "occ")
                tokens = tokens[2:]
            if tokens and tokens[0] == "target":
                args["target"] = parser.parse_fml(" ".join(tokens[1:]))
            if "target" not in args:
                raise ScriptError("le needs `target <formula>`")
            return args
        if rule == "ax":
            tokens = remainder.split()
            args = {}
            for key, value in zip(tokens[::2], tokens[1::2]):
                if key == "left":
                    args["left_occ"] = _int(value, key)
                elif key == "right":
                    args["right_occ"] = _int(value, key)
            return args
        if rule == "sigma_star":
            tokens = remainder.split()
            h1: list = []
            h2: list = []
            bucket = None
            for tok in tokens:
                if tok == "h1":
                    bucket = h1
                elif tok == "h2":
                    bucket = h2
                elif bucket is not None:
                    bucket.append(_int(tok, "sigma_star"))
                else:
                    raise ScriptError(f"sigma_star: unexpected token {tok!r}")
            return {"h1_addrs": h1, "h2_addrs": h2}
        args = {}
        tokens = iter(remainder.split())
        for tok in tokens:
            if tok in ("occ", "choice"):
                args[tok] = _int(next(tokens, ""), tok)
            elif tok == "side":
                args["side"] = next(tokens, "")
            elif tok == "progress":
                args["progress"] = True
                args["annotations"] = self.annotations
            else:
                raise ScriptError(f"unexpected argument {tok!r} for rule {rule}")
        return args

    def cmd_sub(self, rest: str):
        node, remainder = _take_at(rest)
        node = self._target_node(node)
        if "premise" not in remainder:
            raise ScriptError("sub needs `premise <sequent>`")
        bindings_txt, premise_txt = remainder.split("premise", 1)
        bindings = _parse_updates(bindings_txt)
        premise = parser.parse_sequent(premise_txt)
        self.graph.apply_rule(node, "sub", bindings=bindings, premise=premise)

    def cmd_cut(self, rest: str):
        node, remainder = _take_at(rest)
        node = self._target_node(node)
        split = False
        stripped = remainder.rstrip()
        if stripped.endswith(" split"):
            split = True
            stripped = stripped[: -len(" split")]
        fml = parser.parse_dlp(stripped)
        self.graph.apply_rule(node, "cut", fml=fml, split=split)

    def cmd_backlink(self, rest: str):
        node, remainder = _take_at(rest)
        tokens = remainder.split()
        if tokens and tokens[0] == "to":
            tokens = tokens[1:]
        if len(tokens) != 1:
            raise ScriptError("backlink needs a companion node id")
        companion = _int(tokens[0], "backlink")
        node = self._target_node(node)
        self.graph.link_bud(node, companion)

    def cmd_annotate(self, rest: str):
        tokens = rest.split()
        if len(tokens) < 2 or tokens[0] != "while":
            raise ScriptError("annotate syntax: annotate while <index> invariant <fml> factor <expr>")
        index = _int(tokens[1], "annotate while")
        remainder = rest.split(None, 2)[2] if len(tokens) > 2 else ""
        _, _, after_inv = remainder.partition("invariant")
        inv_txt, found, factor_txt = after_inv.rpartition("factor")
        if not found:
            raise ScriptError("annotate needs an invariant followed by a factor")
        invariant = parser.parse_fml(inv_txt)
        factor = parser.parse_expr(factor_txt)
        whiles = self._whiles_in_goal()
        if not (1 <= index <= len(whiles)):
            raise ScriptError(f"no while statement #{index} in the goal (found {len(whiles)})")
        self.annotations.annotate(whiles[index - 1], invariant, factor)

    def cmd_lift(self, rest: str):
        tokens = rest.split()
        if len(tokens) < 5 or tokens[1] != "from":
            raise ScriptError(
                "lift syntax: lift <name> from <file> class free|standard witness ..."
            )
        name = tokens[0]
        template_path = self.base_dir / tokens[2]
        if tokens[3] != "class":
            raise ScriptError("lift needs `class free|standard`")
        config_class = tokens[4]
        witness = None
        remainder = rest.split("witness", 1)
        if len(remainder) == 2:
            spec = remainder[1]
            if "fwd" in spec and "bwd" in spec:
                fwd_txt = spec.split("fwd", 1)[1].split("bwd", 1)[0]
                bwd_txt = spec.split("bwd", 1)[1]
                witness = (
                    lifting.transformer_from_updates(_parse_updates(fwd_txt)),
                    lifting.transformer_from_updates(_parse_updates(bwd_txt)),
                )
            elif "fwd" in spec:
                fwd = lifting.transformer_from_updates(
                    _parse_updates(spec.split("fwd", 1)[1])
                )
                witness = (fwd, fwd)
        premises = []
        conclusion = None
        try:
            template = template_path.read_text()
        except OSError as exc:
            raise ScriptError(f"cannot read template {tokens[2]!r}: {exc.strerror}") from None
        for raw in template.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            kind, *body = line.split(None, 1)
            body = body[0] if body else ""
            if kind == "premise":
                premises.append(parser.parse_template_sequent(body))
            elif kind == "conclusion":
                conclusion = parser.parse_template_sequent(body)
            else:
                raise ScriptError(f"unknown template line {kind!r}")
        if conclusion is None:
            raise ScriptError("template file lacks a conclusion")
        rule = lifting.LiftedRule(name, tuple(premises), conclusion, config_class, witness)
        lifting.lift_rule(rule, self.registry)

    def cmd_qed(self, rest: str):
        if rest.strip():
            raise ScriptError("qed takes no arguments")
        self.qed_seen = True

    # -- entry -------------------------------------------------------------------

    def replay(self, text: str) -> RunReport:
        started = time.monotonic()
        report = RunReport(verdict="Stuck")
        try:
            for line_no, line in _split_lines(text):
                head, _, rest = line.partition(" ")
                handler = getattr(self, f"cmd_{head}", None)
                if handler is None:
                    raise ScriptError(f"unknown command {head!r}", line_no)
                if self.graph is None and head not in ("goal", "lift", "qed"):
                    raise ScriptError(f"{head} before goal", line_no)
                try:
                    handler(rest.strip())
                except ScriptError as exc:
                    raise ScriptError(str(exc), line_no) from None
                except (
                    KernelError,
                    ObligationFailed,
                    CaseSplitNeeded,
                    MissingAnnotation,
                    NoProgressOnCycle,
                    TermError,
                    parser.ParseError,
                ) as exc:
                    raise ScriptError(f"{type(exc).__name__}: {exc}", line_no) from exc
                if self.qed_seen:
                    break
        except ScriptError as exc:
            report.message = str(exc)
            report.verdict = "Stuck"
            self._finish(report, started)
            return report
        if self.graph is None:
            report.message = "script never set a goal"
            self._finish(report, started)
            return report
        if not self.qed_seen:
            report.message = "script ended without qed"
            report.verdict = "Stuck"
        elif self.graph.open_goals():
            report.message = f"open goals remain: {self.graph.open_goals()}"
            report.verdict = "Stuck"
        else:
            self.certificate = cyclic.check_cyclic(self.graph)
            if self.certificate.accepted:
                bounded = any(
                    isinstance(ob.verdict, BoundedValid)
                    for ob in self.graph.obligations()
                )
                report.verdict = "ProvedBounded" if bounded else "Proved"
                report.trace_report = self.certificate.report()
            else:
                report.verdict = "Rejected"
                report.message = self.certificate.report()
        self._finish(report, started)
        return report

    def _finish(self, report: RunReport, started: float) -> None:
        if self.graph is not None:
            report.nodes = len(self.graph.nodes)
            report.backlinks = len(self.graph.backlinks)
            report.obligations = self.graph.obligations()
            report.dump = self.graph.dump()
        report.elapsed = time.monotonic() - started


def replay(text: str, oracle, path_bound: int = 10_000, base_dir=None):
    """Run a script; returns (replayer, report)."""
    r = Replayer(oracle, path_bound, FsPath(base_dir) if base_dir else None)
    report = r.replay(text)
    return r, report
