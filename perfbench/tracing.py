"""Layer spans and counters for the traced run, recorded from outside the package.

``Tracer.install`` replaces the public entry points of each layer (module
functions, and the methods named below) by wrappers, in every cycproof
module that holds a reference to them, including names a module imported by
value (``kernel.sequents_equal``, ``kernel.derive_transitions``, ...).  A
wrapper records one span per call that enters its layer from another layer:
name, start, end, parent span and input id.  A wrapper calls a copy of the
function whose module globals are a private snapshot holding copies of the
module's other functions, so the layer's calls into its own module (the
recursion of ``canon_expr``, say) run unwrapped and at full speed; calls from
one module of a layer into another, and calls made outside a driver span,
pass through the wrapper without a span.  A span's duration is thus the time
the layer spent on behalf of its caller.  ``uninstall`` restores every
replaced reference.

Spans stay in memory until ``write`` saves them at the end of the run.
Counters that need a call's arguments (grid points, obligation keys, graph
sizes) are computed by ``LayerCounts.add_input`` after each input, outside
its driver span, so they cost the measured layers nothing.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
import types
from collections import Counter
from dataclasses import dataclass

# layer -> [(module, name)]; "Class.method" names patch the class
LAYERS = {
    "parser": [("cycproof.parser", name) for name in (
        "parse_expr", "parse_fml", "parse_prog", "parse_config", "parse_dlp",
        "parse_sequent", "parse_template_sequent")],
    "canon": [("cycproof.canon", name) for name in (
        "canon_expr", "expr_key", "formula_key", "program_key", "config_key",
        "term_key", "terms_equal")]
    + [("cycproof.formulas", name) for name in (
        "body_key", "formula_key", "sequent_key", "formulas_equal",
        "sequents_equal", "sequent_diff")],
    "whilelang": [("cycproof.whilelang", name) for name in (
        "derive_transitions", "derive_termination_structural",
        "derive_termination_cyclic", "step", "run")],
    "oracle": [("cycproof.oracle", "BoundedOracle.valid_sequent")],
    "kernel": [("cycproof.kernel", name) for name in (
        "ProofGraph.apply_rule", "ProofGraph.link_bud", "ProofGraph.dump")],
    "cyclic": [("cycproof.cyclic", "check_cyclic")],
}

DRIVER = "driver"  # the root span: one CLI call (cli, script, search)

# spans whose arguments and result the counters read
KEEP = ("BoundedOracle.valid_sequent", "ProofGraph.dump", "cyclic.check_cyclic")


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    input_id: str
    outcome: str = ""  # class name of an exception that left the span
    args: tuple = ()
    result: object = None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.input_id = ""
        self._stack: list = []  # indices of open spans
        self._layers: list = []  # their layers, for the same-layer test
        self._restore: list = []  # (owner, attribute, original)

    def _enter(self, layer: str, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(layer, name, time.perf_counter(), 0.0, parent, self.input_id)
        self._stack.append(len(self.spans))
        self._layers.append(layer)
        self.spans.append(span)
        return span

    def _leave(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self._layers.pop()

    def root(self, input_id: str, call, *args):
        """Runs ``call(*args)`` as the driver span of one input."""
        self.input_id = input_id
        span = self._enter(DRIVER, "cli.main")
        try:
            return call(*args)
        finally:
            self._leave(span)

    def _wrap(self, layer: str, name: str, fn):
        layers = self._layers
        keep = name in KEEP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not layers or layers[-1] == layer:
                return fn(*args, **kwargs)
            span = self._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.outcome = type(exc).__name__
                raise
            finally:
                self._leave(span)
            if keep:
                span.args, span.result = args, result
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "cycproof" or n.startswith("cycproof.")) and m is not None]
        shadows: dict = {}
        for layer, entries in LAYERS.items():
            for module_name, name in entries:
                module = sys.modules[module_name]
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(layer, name, original))
                    continue
                if module_name not in shadows:
                    shadows[module_name] = _shadow(module)
                original = getattr(module, name)
                wrapper = self._wrap(layer, f"{module_name.split('.')[1]}.{name}",
                                     shadows[module_name][name])
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_times(self) -> list:
        """Per span: its duration minus the part its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path) -> None:
        own = self.self_times()
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "layer", "name", "start", "end", "self", "parent",
                          "input", "outcome"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s.layer, s.name, f"{s.start:.9f}", f"{s.end:.9f}",
                              f"{own[i]:.9f}", s.parent, s.input_id, s.outcome])


def _shadow(module) -> dict:
    """A copy of a module's globals whose functions resolve globals in it."""
    namespace = dict(vars(module))
    for name, value in namespace.items():
        if isinstance(value, types.FunctionType) and value.__globals__ is vars(module):
            copy = types.FunctionType(value.__code__, namespace, value.__name__,
                                      value.__defaults__, value.__closure__)
            copy.__kwdefaults__ = value.__kwdefaults__
            copy.__qualname__ = value.__qualname__
            namespace[name] = copy
    return namespace


def _obligation_key(gamma, delta) -> tuple:
    """Identity of a base sequent: multisets of canonical formula keys."""
    from cycproof.canon import formula_key

    return (tuple(sorted((formula_key(f) for f in gamma), key=repr)),
            tuple(sorted((formula_key(f) for f in delta), key=repr)))


def _grid_points(oracle, gamma, delta, result) -> int:
    """Grid points the bounded oracle evaluated, in its lexicographic order.

    A full scan visits the whole box; a counterexample stops the scan at the
    witness, whose rank follows from its coordinates.  An ``Unknown`` (cap
    exceeded, or a division by zero) counts no points.
    """
    from cycproof.oracle import BoundedValid, Invalid
    from cycproof.terms import free_vars

    names = sorted(set().union(*(free_vars(f) for f in tuple(gamma) + tuple(delta))))
    width = oracle.hi - oracle.lo + 1
    if isinstance(result, BoundedValid):
        return width ** len(names)
    if isinstance(result, Invalid):
        rank = 0
        for _, value in result.witness:  # sorted by name, like the scan
            rank = rank * width + (value - oracle.lo)
        return rank + 1
    return 0


class LayerCounts:
    """Per-layer counters summed over the inputs of the traced passes."""

    def __init__(self):
        self.counts = Counter()

    def add_input(self, spans: list) -> None:
        """Counts one input's spans and drops the arguments they kept."""
        from cycproof.cyclic import TraceGraph
        from cycproof.oracle import Invalid, Unknown

        c = self.counts
        seen = set()
        graph = None
        for span in spans:
            if span.layer == "oracle":
                oracle, gamma, delta = span.args
                points = _grid_points(oracle, gamma, delta, span.result)
                key = _obligation_key(gamma, delta)
                c["oracle.calls"] += 1
                c["oracle.grid_points"] += points
                c["oracle.repeats"] += key in seen
                seen.add(key)
                if isinstance(span.result, Invalid):
                    c["oracle.invalid"] += 1
                    c["oracle.points_to_witness"] += points
                elif isinstance(span.result, Unknown):
                    c["oracle.unknown"] += 1
            elif span.layer in ("canon", "parser", "whilelang"):
                c[f"{span.layer}.calls"] += 1
                if span.outcome == "CaseSplitNeeded":
                    c["whilelang.case_splits"] += 1
            elif span.name == "ProofGraph.apply_rule":
                c["kernel.rule_calls"] += 1
            elif span.name == "ProofGraph.dump":
                graph = span.args[0]
            elif span.name == "cyclic.check_cyclic":
                checked = span.args[0]
                c["cyclic.companions"] += len(set(checked.backlinks.values()))
                c["cyclic.trace_edges"] += sum(
                    len(rel) for _, _, rel, _ in TraceGraph.of(checked).edges)
            span.args, span.result = (), None
        if graph is not None:
            c["kernel.nodes"] += len(graph.nodes)
            c["kernel.backlinks"] += len(graph.backlinks)


def self_seconds(tracer: Tracer) -> Counter:
    """Self time per layer, plus ``kernel.dump`` on its own."""
    out = Counter()
    for span, own in zip(tracer.spans, tracer.self_times()):
        out[span.layer] += own
        if span.name == "ProofGraph.dump":
            out["kernel.dump"] += own
    return out
