"""``cycproof.record`` against ``dataclasses``, and what ``import cycproof.cli``
loads.

The differential test copies the package with ``record`` replaced by
``dataclasses`` and compares each record class with its twin, the same class
body decorated by ``dataclasses.dataclass``."""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cycproof
from cycproof import record

SRC = Path(__file__).resolve().parent.parent / "src"
TWIN = "cycproof_twin"


def _record_classes() -> list:
    out = []
    for info in pkgutil.iter_modules(cycproof.__path__):
        module = importlib.import_module(f"cycproof.{info.name}")
        out += [obj for obj in vars(module).values()
                if isinstance(obj, type) and obj.__module__ == module.__name__
                and "__record_fields__" in vars(obj)]
    return out


RECORDS = _record_classes()


@pytest.fixture(scope="module")
def twin(tmp_path_factory):
    """The package with ``dataclasses`` in place of ``record``."""
    root = tmp_path_factory.mktemp("twin")
    shutil.copytree(SRC / "cycproof", root / TWIN,
                    ignore=shutil.ignore_patterns("__pycache__"))
    (root / TWIN / "record.py").write_text(
        "from dataclasses import MISSING, dataclass, field, fields\n")
    sys.path.insert(0, str(root))
    try:
        yield lambda cls: getattr(importlib.import_module(
            cls.__module__.replace("cycproof", TWIN, 1)), cls.__qualname__)
    finally:
        sys.path.remove(str(root))
        for name in [n for n in sys.modules if n.split(".")[0] == TWIN]:
            del sys.modules[name]


# arguments for the classes whose __post_init__ checks them, built from the
# package at hand (a twin's checks test against the twin's classes):
# (one instance, another, a refused one)
def _sequent_args(p):
    return [((), ()), ((p.formulas.DBase(p.terms.TRUE),), ()), ((1,), ())]


_CHECKED = {
    "BinOp": lambda p: [("+", 1, 2), ("*", 1, 2), ("%", 1, 2)],
    "Config": lambda p: [((("x", 1),), False), ((("x", 1), ("y", 2)), False),
                         ((("x", 1), ("x", 2)), False)],
    "DTer": lambda p: [(p.terms.Config(), p.terms.EPSILON, None),
                       (p.terms.Config((("x", 1),)), p.terms.EPSILON, None),
                       (p.terms.Config(), p.terms.SKIP, None)],
    "Sequent": _sequent_args,
    "Path": lambda p: [(("s0",),), (("s0", "s1"),), ((),)],
    "LiftedRule": lambda p: [("r", (), "c", "standard"), ("r", (), "c", "free"),
                             ("r", (), "c", "bogus")],
}


class _Pkg:
    """``p.terms`` and so on for the package ``name``."""

    def __init__(self, name: str):
        self.name = name

    def __getattr__(self, module: str):
        return importlib.import_module(f"{self.name}.{module}")


def _args(cls, package: str) -> list:
    """Two sets of constructor arguments, and a refused one or None."""
    if cls.__name__ in _CHECKED:
        return _CHECKED[cls.__name__](_Pkg(package))
    n = len(record.fields(cls))
    return [tuple(f"a{i}" for i in range(n)), tuple(f"b{i}" for i in range(n)), None]


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the differential compares them
        return (type(exc).__name__, str(exc), isinstance(exc, AttributeError))


def _missing(value):
    return "MISSING" if value is record.MISSING or value is dataclasses.MISSING else value


def test_the_package_has_record_classes():
    names = {cls.__name__ for cls in RECORDS}
    assert len(RECORDS) >= 50
    assert {"BinOp", "Config", "Sequent", "Node", "RunReport", "SearchResult"} <= names


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: f"{cls.__module__}.{cls.__name__}")
def test_record_class_behaves_like_its_dataclasses_twin(cls, twin):
    ref = twin(cls)
    ours, theirs = record.fields(cls), dataclasses.fields(ref)
    assert [(f.name, _missing(f.default), _missing(f.default_factory)) for f in ours] \
        == [(f.name, _missing(f.default), _missing(f.default_factory)) for f in theirs]
    frozen = ref.__dataclass_params__.frozen
    assert (cls.__hash__ is None) == (ref.__hash__ is None) == (not frozen)

    a, b, refused = _args(cls, "cycproof")
    ta, tb, t_refused = _args(cls, TWIN)
    x, x2, y = cls(*a), cls(*a), cls(*b)
    tx, tx2, ty = ref(*ta), ref(*ta), ref(*tb)
    assert repr(x) == repr(tx) and repr(y) == repr(ty)
    assert x == x2 and tx == tx2
    assert (x == y, x != y) == (tx == ty, tx != ty) == (not b, bool(b))
    assert x.__eq__(object()) is NotImplemented and tx.__eq__(object()) is NotImplemented
    if frozen:
        assert (hash(x) == hash(x2), hash(x) == hash(y)) \
            == (hash(tx) == hash(tx2), hash(tx) == hash(ty))
    if refused is not None:
        assert _outcome(lambda: cls(*refused)) == _outcome(lambda: ref(*t_refused))

    # the required fields alone: defaults and default factories fill the rest
    required = sum(f.default is record.MISSING and f.default_factory is record.MISSING
                   for f in ours)
    if required < len(ours) and cls.__name__ not in _CHECKED:
        d, td = cls(*a[:required]), ref(*ta[:required])
        assert repr(d) == repr(td)
        for f in ours:
            if f.default_factory is not record.MISSING:
                assert getattr(d, f.name) is not getattr(cls(*a[:required]), f.name)

    # assignment and deletion: refused on a frozen record, allowed otherwise
    name = ours[0].name if ours else "extra"
    assert _outcome(lambda: setattr(x, name, "z")) == _outcome(lambda: setattr(tx, name, "z"))
    assert _outcome(lambda: delattr(x, name)) == _outcome(lambda: delattr(tx, name))
    assert _outcome(lambda: repr(x)) == _outcome(lambda: repr(tx))
    if frozen:
        with pytest.raises(record.FrozenInstanceError):
            setattr(x2, "attribute_that_is_not_a_field", 1)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: f"{cls.__module__}.{cls.__name__}")
def test_equality_and_hash_are_those_of_the_field_tuple(cls):
    # the tuple dataclasses builds: a 1-tuple for one field, () for none, so
    # hash values, and set and dict orders, are the ones dataclasses gives
    def values(r) -> tuple:
        return tuple(getattr(r, f.name) for f in record.fields(cls))

    a, b, _ = _args(cls, "cycproof")
    x, x2, y = cls(*a), cls(*a), cls(*b)
    for p, q in ((x, x2), (x, y), (y, x), (y, y)):
        assert (p == q, p != q) == (values(p) == values(q), values(p) != values(q))
    if cls.__hash__ is not None:
        for r in (x, y):
            assert hash(r) == hash(values(r))


def test_a_frozen_record_keeps_attributes_that_are_not_fields():
    # canon._keep stores keys on frozen terms; == and hash ignore them
    from cycproof.terms import Lit

    a, b = Lit(1), Lit(1)
    object.__setattr__(a, "_canon_key", ("k",))
    assert a._canon_key == ("k",) and a == b and hash(a) == hash(b) and repr(a) == "Lit(value=1)"


def test_records_with_the_same_fields_share_one_compile():
    @record.dataclass(frozen=True)
    class Left:
        left: object
        right: object

    @record.dataclass(frozen=True)
    class Right:
        left: object
        right: object

    assert Left.__init__ is not Right.__init__
    assert Left.__init__.__code__ is Right.__init__.__code__
    assert repr(Left(1, 2)) == "test_records_with_the_same_fields_share_one_compile." \
        "<locals>.Left(left=1, right=2)"
    assert Left(1, 2) != Right(1, 2)


# ---------------------------------------------------------------------------
# What a cold start loads
# ---------------------------------------------------------------------------

ALL = [
    "BAnd", "BBase", "BBox", "BDia", "BNot", "BoundedOracle", "BoundedValid",
    "CaseSplitNeeded", "Config", "CounterExample", "DAnd", "DBase", "DLabeled", "DNot",
    "DlpFormula", "EPSILON", "Evaluation", "Invalid", "LoopAnnotations", "Path",
    "ProofGraph", "RuleInstance", "SKIP", "Sequent", "SmtOracle", "State", "TracePair",
    "Unknown", "Valid", "Verdict", "apply_config", "apply_stack_config", "bound_vars",
    "boxed", "canon", "counter_example", "d_imp", "d_or", "derive_termination_cyclic",
    "derive_termination_structural", "derive_transitions", "diamond", "eval_bool",
    "evaluate", "formulas", "formulas_equal", "free_vars", "kernel", "models",
    "new_proof", "oracle", "parse_config", "parse_dlp", "parse_expr", "parse_fml",
    "parse_prog", "parse_sequent", "parser", "run", "semantics", "sep",
    "sequents_equal", "step", "substitute", "terms", "whilelang",
]

_LOADED = """
import sys
sys.path.insert(0, sys.argv[1])
import cycproof.cli
print(sorted(name for name in sys.argv[2:] if name in sys.modules))
"""


def test_importing_the_command_line_loads_only_what_check_runs():
    unwanted = ["ast", "dataclasses", "inspect", "subprocess", "threading",
                "cycproof.search", "cycproof.semantics", "cycproof.sep", "cycproof.smt"]
    done = subprocess.run([sys.executable, "-I", "-S", "-c", _LOADED, str(SRC), *unwanted],
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_every_public_name_resolves():
    assert cycproof.__all__ == ALL
    for name in ALL:
        assert getattr(cycproof, name) is not None, name
    assert cycproof.Sequent is importlib.import_module("cycproof.formulas").Sequent
    assert cycproof.free_vars is importlib.import_module("cycproof.terms").free_vars
    assert cycproof.semantics is importlib.import_module("cycproof.semantics")
    with pytest.raises(AttributeError):
        cycproof.no_such_name  # noqa: B018
