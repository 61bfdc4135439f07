"""Cyclic-proof verification kernel for labeled dynamic formulas.

The package verifies properties of the form "under this configuration,
after all (or some) runs of this program, that formula holds" by symbolic
execution inside a sequent calculus, closing loops with back-links and
accepting only proof graphs whose cycles carry progressing traces.
"""

import importlib

# public name -> its module.  Each is imported on first use (PEP 562), so
# ``import cycproof.cli`` loads only the modules the command line needs.
_EXPORTS = {
    **dict.fromkeys((
        "BAnd", "BBase", "BBox", "BDia", "BNot", "DAnd", "DBase", "DLabeled",
        "DNot", "DlpFormula", "Sequent", "boxed", "d_imp", "d_or", "diamond",
        "formulas_equal", "sequents_equal"), "formulas"),
    **dict.fromkeys(("ProofGraph", "RuleInstance", "TracePair", "new_proof"), "kernel"),
    **dict.fromkeys((
        "BoundedOracle", "BoundedValid", "Invalid", "Unknown", "Valid"), "oracle"),
    **dict.fromkeys((
        "parse_config", "parse_dlp", "parse_expr", "parse_fml", "parse_prog",
        "parse_sequent"), "parser"),
    "SmtOracle": "smt",
    **dict.fromkeys((
        "CounterExample", "Path", "Verdict", "counter_example", "models"), "semantics"),
    **dict.fromkeys((
        "Config", "EPSILON", "Evaluation", "SKIP", "apply_config",
        "apply_stack_config", "bound_vars", "eval_bool", "evaluate", "free_vars",
        "substitute"), "terms"),
    **dict.fromkeys((
        "CaseSplitNeeded", "LoopAnnotations", "State", "derive_termination_cyclic",
        "derive_termination_structural", "derive_transitions", "run", "step"),
        "whilelang"),
}
_MODULES = ("canon", "formulas", "kernel", "oracle", "parser", "semantics", "sep",
            "terms", "whilelang")

__all__ = sorted([*_EXPORTS, *_MODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
