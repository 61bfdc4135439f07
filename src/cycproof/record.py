"""Record classes: the part of ``dataclasses`` the package uses.

``@dataclass`` and ``@dataclass(frozen=True)`` give a class whose annotated
names are its fields, with the ``__init__``, ``__repr__``, ``__eq__`` and
(frozen) ``__hash__``, ``__setattr__`` and ``__delattr__`` that
``dataclasses`` generates.  The ``__init__`` is the generated one statement
for statement, so a call costs the same: it is compiled once per field
layout and shared by the classes that have it.  The other methods are
closures, so a class costs no compile beyond its ``__init__``:
``__repr__``, ``__eq__`` and ``__hash__`` read the field values as one tuple
(a 1-tuple for one field, ``()`` for none) through ``operator.attrgetter``
and print, compare and hash that tuple as the generated code does, so every
hash value, and every set and dict order, is the one ``dataclasses`` gives;
the frozen guards do not depend on the fields.  ``dataclasses`` compiles
each method of each class on its own and imports ``inspect`` to write
docstrings.  Not supported: methods of the class's own under those names
(they are replaced), ``field`` options other than ``default_factory``,
fields inherited from a record base class, ``ClassVar`` annotations,
``__match_args__`` and generated docstrings.  A frozen record still takes
attributes that are not fields through ``object.__setattr__``
(``canon._keep``).

``walk`` and ``height`` reach the records a term is made of through their
fields, so a function that only needs a term's parts (its height, its
``while`` statements, its divisions) lists no class of it.
"""

from __future__ import annotations

from operator import attrgetter


MISSING = object()  # no default, no default factory
_HAS_FACTORY = object()  # the __init__ default of a default_factory field


class FrozenInstanceError(AttributeError):
    """Assigning to or deleting a field of a frozen record."""


class Field:
    __slots__ = ("name", "default", "default_factory")

    def __init__(self, default=MISSING, default_factory=MISSING):
        self.name = ""
        self.default = default
        self.default_factory = default_factory


def field(*, default_factory) -> Field:
    return Field(default_factory=default_factory)


def fields(record) -> tuple:
    """The ``Field``s of a record class or instance, in declaration order;
    ``()`` for anything else."""
    return getattr(record, "__record_fields__", ())


def values(record) -> tuple:
    """The field values of a record, in declaration order; ``()`` for
    anything else."""
    get = _VALUES.get(type(record))
    return () if get is None else get(record)


def getter(cls):
    """The function that reads the field values of an instance of the record
    class ``cls`` as one tuple, as ``values`` does; None for any other
    class."""
    return _VALUES.get(cls)


def walk(root, skip=None):
    """Each record reached from ``root`` through fields and tuples, in
    preorder, left to right; a value that is neither a record nor a tuple is
    not visited, nor is a record for which ``skip`` is true, or its parts."""
    stack = [root]
    pop, push = stack.pop, stack.extend
    getter = _VALUES.get
    while stack:
        node = pop()
        get = getter(type(node))
        if get is not None:
            if skip is not None and skip(node):
                continue
            yield node
            push(get(node)[::-1])
        elif type(node) is tuple:
            push(node[::-1])


def height(root) -> int:
    """The number of levels of records in ``root``, at least 1: ``root`` is
    on the first, a record's parts on the level below it, and a tuple's
    elements on the tuple's own level.  Read level by level, so that no
    value is visited twice and no depth is kept per value."""
    levels = 0
    level = [root]
    getter = _VALUES.get
    while level:
        below: list = []
        extend = below.extend
        records = False
        for node in level:  # grows by the elements of its tuples
            get = getter(type(node))
            if get is not None:
                records = True
                extend(get(node))
            elif type(node) is tuple:
                level.extend(node)
        levels += records
        level = below
    return levels or 1


def dataclass(cls=None, /, *, frozen: bool = False):
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def _build(cls, frozen: bool):
    own = cls.__dict__
    env = {"__builtins_object": object, "_HAS_FACTORY": _HAS_FACTORY}
    flds, params, inits = [], ["self"], []
    for name in own.get("__annotations__", {}):
        f = own.get(name, MISSING)
        if not isinstance(f, Field):
            f = Field(default=f)
        f.name = name
        flds.append(f)
        value = name
        if f.default_factory is not MISSING:
            delattr(cls, name)
            env[f"_factory_{name}"] = f.default_factory
            params.append(f"{name}=_HAS_FACTORY")
            value = f"_factory_{name}() if {name} is _HAS_FACTORY else {name}"
        elif f.default is not MISSING:
            env[f"_dflt_{name}"] = f.default
            params.append(f"{name}=_dflt_{name}")
        else:
            params.append(name)
        inits.append(f"    __builtins_object.__setattr__(self, {name!r}, {value})" if frozen
                     else f"    self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        inits.append("    self.__post_init__()")
    names = tuple(f.name for f in flds)
    src = "\n".join([
        f"def __create__({', '.join(env)}):",
        f"  def __init__({', '.join(params)}):", *(inits or ["    pass"]),
        "  return __init__",
    ])
    create = _CREATORS.get(src)
    if create is None:
        ns: dict = {}
        exec(src, {}, ns)
        create = _CREATORS[src] = ns["__create__"]
    get = _VALUES[cls] = _values(names)
    made = (create(**env), *_value_methods(get, names, frozen))
    if frozen:
        made += _frozen_guards(cls, names)
    for fn in made:
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    if not frozen:
        cls.__hash__ = None  # a mutable record is not hashable, as in dataclasses
    cls.__record_fields__ = tuple(flds)
    return cls


# generated source -> the function that makes its ``__init__``, so records
# with the same fields and defaults share one compile; a pure memo, written
# once per field layout
_CREATORS: dict = {}
# record class -> the function that reads its field values as one tuple,
# written once per class, when it is built
_VALUES: dict = {}


def _values(names: tuple):
    """The function that reads the tuple of field values ``(self.a,
    self.b, ...)`` that the code ``dataclasses`` generates builds."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        value = attrgetter(*names)
        return lambda self: (value(self),)
    return lambda self: ()


def _value_methods(values, names: tuple, frozen: bool) -> tuple:
    """``__repr__``, ``__eq__`` and, when frozen, ``__hash__``, as closures
    over the tuple of field values that ``values`` reads."""

    def __repr__(self):
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    return (__repr__, __eq__, __hash__) if frozen else (__repr__, __eq__)


def _frozen_guards(cls, names: tuple) -> tuple:
    """The ``__setattr__`` and ``__delattr__`` ``dataclasses`` generates for
    a frozen class, as closures: their code does not depend on the fields."""

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    return __setattr__, __delattr__
