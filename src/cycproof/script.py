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
    lift <name> from <file> class free|standard [witness fwd {..} [bwd {..}]]
    qed

Lines starting with ``#`` are comments.  A line's frame (the command,
``at N``, rule and file names, integers) is read as whitespace-separated
words; its terms, and the words between and after them, are read by one
``parser.Reader`` over the rest of the line, so each term ends where the
grammar says.  An ``apply`` line whose rule takes no term is never
tokenized.  Termination proofs are scripts too: ``apply ter_step [with
factor <expr>]``, ``apply ter_eps`` and ``apply ter_base``, which reads the
``annotate`` lines, act on a goal's ``σ : α ⇓ e`` judgment.
"""

from __future__ import annotations

import time
from pathlib import Path as FsPath

from . import cyclic, parser
from .kernel import CATALOG, KernelError, ProofGraph
from .record import dataclass, field, walk
from .terms import TermError, While
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
        return cyclic.succeeded(self.verdict)

    def render(self) -> str:
        lines = ledger(self.verdict, self.message, self.obligations,
                       f"nodes: {self.nodes}  backlinks: {self.backlinks}")
        if self.trace_report:
            lines.append("trace report:")
            lines.extend(f"  {line}" for line in self.trace_report.splitlines())
        lines.append(f"elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines)


def ledger(verdict: str, message: str, obligations, *between) -> list:
    """The lines that open a report: the verdict, the note on it if any, the
    lines ``between``, and the oracle obligation ledger."""
    lines = [f"verdict: {verdict}"]
    if message:
        lines.append(f"note: {message}")
    lines += [*between, "oracle obligations:"]
    lines += [f"  {ob.describe()}" for ob in obligations] or ["  none"]
    return lines


def script_lines(text: str) -> list:
    """(line number, line) for each line that is not blank or a comment,
    without its trailing blanks."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if line and not line.lstrip().startswith("#"):
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


# the apply arguments that are integers; the rules with a term argument, its
# word, and its reader: only their lines are tokenized
_INT_ARGS = ("occ", "choice", "left", "right")
_TERM_ARGS = {"le": ("target", parser.Reader.fml), "ter_step": ("factor", parser.Reader.expr)}


class Replayer:
    """Executes script commands against a proof graph."""

    def __init__(self, oracle, path_bound: int = 10_000, base_dir: FsPath | None = None):
        self.oracle = oracle
        self.path_bound = path_bound
        self.base_dir = base_dir or FsPath(".")
        self.graph: ProofGraph | None = None
        self.annotations = LoopAnnotations()
        self.registry: dict = {}  # the script's `lift` rules
        self.qed_seen = False
        self.certificate = None
        self._line = ""  # the line being run, without its trailing blanks

    # -- helpers -------------------------------------------------------------

    def _reader(self, remainder: str) -> parser.Reader:
        """A reader of ``remainder``, the end of the line being run, whose
        error columns count from the start of the line."""
        return parser.Reader(self._line, len(self._line) - len(remainder))

    def _target_node(self, explicit: int | None) -> int:
        if explicit is not None:
            return explicit
        goals = self.graph.open_goals()
        if not goals:
            raise ScriptError("no open goals")
        return goals[0]

    def _whiles_in_goal(self) -> list:
        """While statements of the root goal, in preorder, left to right."""
        goal = self.graph.node(self.graph.root).sequent
        return [node for node in walk(goal) if isinstance(node, While)]

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
        if remainder.split(None, 1)[:1] == ["with"]:
            remainder = remainder[len("with"):]
        args = self._apply_args(rule, remainder.strip())
        if rule == "ter_base":
            args["annotations"] = self.annotations
        self.graph.apply_rule(node, rule, **args)

    def _apply_args(self, rule: str, remainder: str) -> dict:
        if not remainder:
            return {}
        if rule in ("wk_l", "wk_r"):
            return {"occs": [_int(tok, rule) for tok in remainder.split()]}
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
        args: dict = {}
        term, read = _TERM_ARGS.get(rule, (None, None))
        if term is None:
            tokens = iter(remainder.split())
        else:
            reader = self._reader(remainder)
            tokens = iter(reader.next, "")
        for tok in tokens:
            if tok in _INT_ARGS:
                args[tok] = _int(next(tokens, ""), tok)
            elif tok == term:
                args[tok] = read(reader)
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
        reader = self._reader(remainder)
        bindings = reader.update()
        reader.expect("premise")
        premise = reader.sequent()
        reader.end()
        self.graph.apply_rule(node, "sub", bindings=bindings, premise=premise)

    def cmd_cut(self, rest: str):
        node, remainder = _take_at(rest)
        node = self._target_node(node)
        reader = self._reader(remainder)
        fml = reader.dlp()
        split = reader.accept("split")
        reader.end()
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
        tokens = rest.split(None, 2)
        if len(tokens) < 2 or tokens[0] != "while":
            raise ScriptError("annotate syntax: annotate while <index> invariant <fml> factor <expr>")
        index = _int(tokens[1], "annotate while")
        reader = self._reader(tokens[2] if len(tokens) > 2 else "")
        reader.expect("invariant")
        invariant = reader.fml()
        reader.expect("factor")
        factor = reader.expr()
        reader.end()
        whiles = self._whiles_in_goal()
        if not (1 <= index <= len(whiles)):
            raise ScriptError(f"no while statement #{index} in the goal (found {len(whiles)})")
        self.annotations.annotate(whiles[index - 1], invariant, factor)

    def cmd_lift(self, rest: str):
        from . import lifting  # only a lift line loads the template machinery

        tokens = rest.split(None, 5)
        if len(tokens) < 5 or tokens[1] != "from":
            raise ScriptError(
                "lift syntax: lift <name> from <file> class free|standard witness ..."
            )
        name = tokens[0]
        if name in CATALOG:
            raise ScriptError(f"lift: {name!r} names a kernel rule, which `apply {name}` would run")
        template_path = self.base_dir / tokens[2]
        if tokens[3] != "class":
            raise ScriptError("lift needs `class free|standard`")
        config_class = tokens[4]
        witness = None
        if len(tokens) > 5:
            word, *spec = tokens[5].split(None, 1)
            if word != "witness":
                raise ScriptError(f"lift: unexpected {word!r} after the class")
            reader = self._reader(spec[0] if spec else "")
            reader.expect("fwd")
            fwd = lifting.transformer_from_updates(reader.update())
            bwd = lifting.transformer_from_updates(reader.update()) if reader.accept("bwd") else fwd
            reader.end()
            witness = (fwd, bwd)
        premises = []
        conclusion = None
        try:
            template = template_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else exc
            raise ScriptError(f"cannot read template {tokens[2]!r}: {reason}") from None
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

    def step(self, line: str) -> None:
        """Run one script line.  Raises ``ScriptError``, or the error of the
        kernel, parser or prover that refused the line."""
        self._line = line = line.rstrip()
        head, _, rest = line.lstrip().partition(" ")
        handler = _COMMANDS.get(head)
        if handler is None:
            raise ScriptError(f"unknown command {head!r}")
        if self.graph is None and head not in ("goal", "lift", "qed"):
            raise ScriptError(f"{head} before goal")
        handler(self, rest.strip())

    def replay(self, text: str) -> RunReport:
        started = time.monotonic()
        report = RunReport(verdict="Stuck")
        try:
            for line_no, line in script_lines(text):
                try:
                    self.step(line)
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
                    RecursionError,  # a term deeper than the stack allows
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
            report.verdict = cyclic.verdict(self.graph, self.certificate)
            if self.certificate.accepted:
                report.trace_report = self.certificate.report()
            else:
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


# command word -> handler, built once so that dispatching a line makes no
# attribute name (CPython's method cache would keep each one it saw)
_COMMANDS = {name[len("cmd_"):]: fn for name, fn in vars(Replayer).items()
             if name.startswith("cmd_")}


def replay(text: str, oracle, path_bound: int = 10_000, base_dir=None):
    """Run a script; returns (replayer, report)."""
    r = Replayer(oracle, path_bound, FsPath(base_dir) if base_dir else None)
    report = r.replay(text)
    return r, report
