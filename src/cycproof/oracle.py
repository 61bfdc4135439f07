"""Arithmetic validity oracles for base-formula sequents.

The bounded oracle decides ``/\\ Gamma -> \\/ Delta`` by exhaustive search over
a finite box per free variable.  It never answers ``Valid``: a pass is only
``BoundedValid``, and certificates carry that mode so a bounded run is never
mistaken for validity over the integers.  The external oracle emits an
SMT-LIB2 problem (logic QF_NIA) to a solver subprocess and maps
unsat/sat/unknown to Valid/Invalid/Unknown.
"""

from __future__ import annotations

import subprocess
import threading
from dataclasses import dataclass
from itertools import product

from . import parser
from .terms import (
    AndF,
    BaseFormula,
    BinOp,
    DivisionByZero,
    Forall,
    Le,
    Lit,
    NotF,
    TermError,
    Var,
    eval_bool,
    free_vars,
)


@dataclass(frozen=True)
class Valid:
    def __str__(self) -> str:
        return "valid"


@dataclass(frozen=True)
class BoundedValid:
    def __str__(self) -> str:
        return "bounded-valid"


@dataclass(frozen=True)
class Invalid:
    witness: tuple = ()  # ((name, value), ...)

    def witness_map(self) -> dict:
        return dict(self.witness)

    def __str__(self) -> str:
        inside = ", ".join(f"{x} = {v}" for x, v in self.witness)
        return f"invalid [{inside}]"


@dataclass(frozen=True)
class Unknown:
    reason: str = ""

    def __str__(self) -> str:
        return f"unknown ({self.reason})" if self.reason else "unknown"


def is_accepting(result) -> bool:
    return isinstance(result, (Valid, BoundedValid))


@dataclass
class Obligation:
    """One oracle call: the base sequent asked, the mode, and the verdict."""

    gamma: tuple
    delta: tuple
    mode: str
    verdict: object
    node: int | None = None

    def describe(self) -> str:
        left = ", ".join(parser.fml_src(f) for f in self.gamma) or "."
        right = ", ".join(parser.fml_src(f) for f in self.delta) or "."
        at = f" at node {self.node}" if self.node is not None else ""
        return f"[{self.mode}] {left} => {right} : {self.verdict}{at}"


class OracleUnavailable(Exception):
    pass


class BoundedOracle:
    """Exhaustive check over a finite range per free variable."""

    mode = "bounded"

    def __init__(self, lo: int = -50, hi: int = 50, quantifier_range=None,
                 max_points: int = 4_000_000):
        if lo > hi:
            raise ValueError("empty range")
        self.lo = lo
        self.hi = hi
        self.quantifier_range = quantifier_range or (lo, hi)
        self.max_points = max_points

    def valid_sequent(self, gamma, delta):
        gamma = tuple(gamma)
        delta = tuple(delta)
        names = sorted(set().union(*(free_vars(f) for f in gamma + delta)) if gamma + delta else set())
        width = self.hi - self.lo + 1
        total = width ** len(names)
        if total > self.max_points:
            return Unknown(f"{total} grid points exceed the bounded-search cap")
        span = range(self.lo, self.hi + 1)
        try:
            for values in product(span, repeat=len(names)):
                rho = dict(zip(names, values))
                if all(eval_bool(rho, g, self.quantifier_range).value for g in gamma):
                    if not any(eval_bool(rho, d, self.quantifier_range).value for d in delta):
                        return Invalid(tuple(sorted(rho.items())))
        except DivisionByZero as exc:
            return Unknown(f"evaluation error: {exc}")
        return BoundedValid()


# ---------------------------------------------------------------------------
# SMT-LIB2 emission and the external solver
# ---------------------------------------------------------------------------

_TDIV_DEF = (
    "(define-fun tdiv ((a Int) (b Int)) Int "
    "(ite (>= b 0) "
    "(ite (>= a 0) (div a b) (- (div (- a) b))) "
    "(ite (>= a 0) (- (div a (- b))) (div (- a) (- b)))))"
)


def _smt_expr(e, divisors: list) -> str:
    if isinstance(e, Lit):
        return str(e.value) if e.value >= 0 else f"(- {-e.value})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BinOp):
        a = _smt_expr(e.left, divisors)
        b = _smt_expr(e.right, divisors)
        if e.op == "/":
            divisors.append(b)
            return f"(tdiv {a} {b})"
        return f"({e.op} {a} {b})"
    raise TermError(f"not an expression: {e!r}")


def _smt_fml(phi: BaseFormula, divisors: list) -> str:
    if isinstance(phi, Le):
        return f"(<= {_smt_expr(phi.left, divisors)} {_smt_expr(phi.right, divisors)})"
    if isinstance(phi, NotF):
        return f"(not {_smt_fml(phi.body, divisors)})"
    if isinstance(phi, AndF):
        return f"(and {_smt_fml(phi.left, divisors)} {_smt_fml(phi.right, divisors)})"
    if isinstance(phi, Forall):
        raise TermError("quantified formulas are outside QF_NIA")
    raise TermError(f"not a base formula: {phi!r}")


def emit_smtlib(gamma, delta) -> str:
    """A QF_NIA problem whose unsatisfiability means the sequent is valid."""
    gamma = tuple(gamma)
    delta = tuple(delta)
    names = sorted(set().union(*(free_vars(f) for f in gamma + delta)) if gamma + delta else set())
    divisors: list = []
    lhs = " ".join(_smt_fml(f, divisors) for f in gamma)
    rhs = " ".join(_smt_fml(f, divisors) for f in delta)
    left = f"(and {lhs})" if len(gamma) > 1 else (lhs or "true")
    right = f"(or {rhs})" if len(delta) > 1 else (rhs or "false")
    lines = ["(set-logic QF_NIA)", _TDIV_DEF]
    lines += [f"(declare-const {x} Int)" for x in names]
    lines += [f"(assert (not (= {d} 0)))" for d in divisors]
    lines.append(f"(assert (not (=> {left} {right})))")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


_MODEL_RE = None


def _parse_model(text: str) -> tuple:
    import re

    global _MODEL_RE
    if _MODEL_RE is None:
        _MODEL_RE = re.compile(
            r"\(define-fun\s+([A-Za-z_][A-Za-z0-9_']*)\s*\(\)\s*Int\s*"
            r"(\(-\s*\d+\)|-?\d+)\s*\)"
        )
    out = []
    for name, raw in _MODEL_RE.findall(text):
        raw = raw.strip()
        if raw.startswith("("):
            value = -int(raw.strip("() -").strip())
        else:
            value = int(raw)
        out.append((name, value))
    return tuple(sorted(out))


class SmtOracle:
    """Subprocess-backed oracle speaking SMT-LIB2 on stdin/stdout.

    Calls are serialized through one lock so interleaved runs keep
    deterministic logs.
    """

    mode = "smt"

    def __init__(self, command, timeout: float = 30.0):
        if isinstance(command, str):
            command = command.split()
        self.command = list(command)
        self.timeout = timeout
        self._lock = threading.Lock()

    def valid_sequent(self, gamma, delta):
        try:
            problem = emit_smtlib(gamma, delta)
        except TermError as exc:
            return Unknown(str(exc))
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
            return Unknown(f"solver launch failed: {exc}")
        text = proc.stdout.decode(errors="replace")
        verdict = None
        for line in text.splitlines():
            line = line.strip()
            if line in ("sat", "unsat", "unknown"):
                verdict = line
                break
        if verdict == "unsat":
            return Valid()
        if verdict == "sat":
            return Invalid(_parse_model(text))
        return Unknown(f"unrecognized solver output: {text[:200]!r}")


def check_obligation(oracle, gamma, delta, node=None) -> Obligation:
    result = oracle.valid_sequent(gamma, delta)
    return Obligation(tuple(gamma), tuple(delta), oracle.mode, result, node)