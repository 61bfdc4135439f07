"""The external oracle: SMT-LIB2 problems for a solver subprocess.

``SmtOracle`` emits an SMT-LIB2 problem (logic QF_NIA) to a solver
subprocess and maps unsat/sat/unknown to Valid/Invalid/Unknown.  It reads
the sequent as the bounded oracle's ordered scan's single test, ``G1 && ...
&& Gn && !(D1 || ... || Dm)`` with ``eval_bool``'s short cuts, and asserts
``(not (and def (=> G D)))``, where ``def`` holds where that evaluation
divides by no zero (see ``emit_smtlib``): a point where the scan would stop
with a division by zero makes the problem satisfiable, so it is never
``Valid``.

Only a run whose ``--oracle`` is ``smt:<command>`` loads this module; the
verdict classes and ``check_obligation`` are ``cycproof.oracle``'s.
"""

from __future__ import annotations

import re
import subprocess
import threading

from .oracle import Invalid, Unknown, Valid
from .terms import AndF, BaseFormula, BinOp, Forall, Le, Lit, NotF, TermError, Var, free_vars

# Every variable is written as the quoted symbol ``|x|``, so names that are
# SMT-LIB keywords or operators (``and``, ``div``) or that carry primes
# (``x'``) stay plain constants.  ``|tdiv|`` and ``tdiv`` are one SMT symbol,
# so quoting alone would not keep a variable ``tdiv`` apart from the division
# helper: the helper's name has a ``-``, which no cycproof identifier has.

_TDIV = "cycproof-tdiv"
_TDIV_DEF = (
    f"(define-fun {_TDIV} ((a Int) (b Int)) Int "
    "(ite (>= b 0) "
    "(ite (>= a 0) (div a b) (- (div (- a) b))) "
    "(ite (>= a 0) (- (div a (- b))) (div (- a) (- b)))))"
)


def _smt_symbol(name: str) -> str:
    if "|" in name or "\\" in name:
        raise TermError(f"variable {name!r} has no SMT-LIB quoted form")
    return f"|{name}|"


def _smt_expr(e, divisors: list) -> str:
    if isinstance(e, Lit):
        return str(e.value) if e.value >= 0 else f"(- {-e.value})"
    if isinstance(e, Var):
        return _smt_symbol(e.name)
    if isinstance(e, BinOp):
        a = _smt_expr(e.left, divisors)
        b = _smt_expr(e.right, divisors)
        if e.op == "/":
            divisors.append(b)
            return f"({_TDIV} {a} {b})"
        return f"({e.op} {a} {b})"
    raise TermError(f"not an expression: {e!r}")


def _smt_fml(phi: BaseFormula) -> tuple:
    """``(text, defined)``: the SMT text of ``phi`` and the condition under
    which ``eval_bool`` evaluates ``phi`` without dividing by zero (``"true"``
    when nothing can fail)."""
    if isinstance(phi, Le):
        divisors: list = []
        text = f"(<= {_smt_expr(phi.left, divisors)} {_smt_expr(phi.right, divisors)})"
        # both sides are evaluated; an inner divisor is listed before the
        # division it appears in
        guards = [f"(not (= {d} 0))" for d in divisors]
        return text, _smt_and(guards)
    if isinstance(phi, NotF):
        text, defined = _smt_fml(phi.body)
        return f"(not {text})", defined
    if isinstance(phi, AndF):
        left, left_defined = _smt_fml(phi.left)
        right, right_defined = _smt_fml(phi.right)
        return f"(and {left} {right})", _smt_then(left_defined, left, right_defined)
    if isinstance(phi, Forall):
        raise TermError("quantified formulas are outside QF_NIA")
    raise TermError(f"not a base formula: {phi!r}")


def _smt_and(conditions: list) -> str:
    conditions = [c for c in conditions if c != "true"]
    if not conditions:
        return "true"
    return conditions[0] if len(conditions) == 1 else f"(and {' '.join(conditions)})"


def _smt_then(first_defined: str, first: str, rest_defined: str) -> str:
    """Definedness of ``first && rest`` as ``eval_bool`` evaluates it: ``rest``
    is evaluated only where ``first`` holds."""
    later = "true" if rest_defined == "true" else f"(=> {first} {rest_defined})"
    return _smt_and([first_defined, later])


def emit_smtlib(gamma, delta) -> str:
    """A QF_NIA problem whose unsatisfiability means the sequent is valid.

    The sequent is read as the bounded scan's single test at a point,
    ``G1 && ... && Gn && !(D1 || ... || Dm)``, evaluated left to right with
    ``eval_bool``'s short cuts.  ``defined`` says that this evaluation divides
    by no zero: ``defined(a && b) = defined(a) and (a => defined(b))``, and a
    division needs its own divisor nonzero.  The problem asserts
    ``(not (and defined (=> G D)))``, so it is satisfiable at a point where the
    bounded oracle would find a counterexample or fail with a division by
    zero, and unsatisfiable only if the sequent holds, defined, everywhere.
    It ends at ``(check-sat)``: SMT-LIB allows ``(get-model)`` only after a
    ``sat`` or ``unknown`` answer, so the model is asked for separately."""
    gamma = tuple(gamma)
    delta = tuple(delta)
    names = sorted(set().union(*(free_vars(f) for f in gamma + delta)) if gamma + delta else set())
    left_parts = [_smt_fml(f) for f in gamma]
    right_parts = [_smt_fml(f) for f in delta]
    lhs = " ".join(text for text, _ in left_parts)
    rhs = " ".join(text for text, _ in right_parts)
    left = f"(and {lhs})" if len(gamma) > 1 else (lhs or "true")
    right = f"(or {rhs})" if len(delta) > 1 else (rhs or "false")
    # the test's conjuncts in evaluation order, folded from the last one
    tests = left_parts + [(f"(not {text})", defined) for text, defined in right_parts]
    defined = "true"
    for text, first_defined in reversed(tests):
        defined = _smt_then(first_defined, text, defined)
    implication = f"(=> {left} {right})"
    if defined != "true":
        implication = f"(and {defined} {implication})"
    lines = ["(set-logic QF_NIA)", _TDIV_DEF]
    lines += [f"(declare-const {_smt_symbol(x)} Int)" for x in names]
    lines.append(f"(assert (not {implication}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


_MODEL_RE = re.compile(
    r"\(define-fun\s+(?:\|([^|\\]*)\||([^\s()|]+))\s*\(\)\s*Int\s*"
    r"(\(-\s*\d+\)|-?\d+)\s*\)"
)


def _parse_model(text: str) -> tuple:
    """``((name, value), ...)`` sorted, from a model's integer constants,
    whose names may be quoted (``|x'|``) or plain."""
    out = []
    for quoted, plain, raw in _MODEL_RE.findall(text):
        try:
            value = int(raw.strip("() -"))
        except ValueError:  # more digits than int() reads: unreadable, as is other output
            continue
        out.append((quoted or plain, -value if "-" in raw else value))
    return tuple(sorted(out))


class SmtOracle:
    """Subprocess-backed oracle speaking SMT-LIB2 on stdin/stdout.

    A ``sat`` answer is followed by a second run of the same problem with
    ``(get-model)`` appended, whose model becomes the witness.  Calls are
    serialized through one lock so interleaved runs keep deterministic logs.
    """

    mode = "smt"

    def __init__(self, command, timeout: float = 30.0):
        if isinstance(command, str):
            command = command.split()
        self.command = list(command)
        if not self.command:
            raise ValueError("empty solver command")
        self.timeout = timeout
        self._lock = threading.Lock()

    def valid_sequent(self, gamma, delta):
        try:
            problem = emit_smtlib(gamma, delta)
        except TermError as exc:
            return Unknown(str(exc))
        verdict, detail = self._ask(problem)
        if verdict == "unsat":
            return Valid()
        if verdict != "sat":
            return Unknown(detail)
        verdict, detail = self._ask(problem + "(get-model)\n")
        return Invalid(_parse_model(detail) if verdict == "sat" else ())

    def _ask(self, problem: str) -> tuple:
        """``("sat" | "unsat", output)``, or ``(None, reason)`` when the
        solver did not start, timed out, exited nonzero, answered
        ``unknown`` or printed no verdict."""
        try:
            with self._lock:
                proc = subprocess.run(
                    self.command,
                    input=problem.encode(),
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    timeout=self.timeout,
                )
        except (OSError, subprocess.TimeoutExpired) as exc:
            return None, f"solver launch failed: {exc}"
        text = proc.stdout.decode(errors="replace")
        if proc.returncode != 0:
            return None, f"solver exited with status {proc.returncode}: {text[:200]!r}"
        for line in text.splitlines():
            line = line.strip()
            if line in ("sat", "unsat"):
                return line, text
            if line == "unknown":
                return None, "solver answered unknown"
        return None, f"unrecognized solver output: {text[:200]!r}"
