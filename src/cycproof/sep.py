"""Store-heap configurations and the four heap-manipulating statements.

The store maps every relevant variable to a value, the heap is a finite
partial map from addresses (integers) to values.  Satisfaction of the
separating conjunction is decided by exhaustive enumeration of heap splits,
so heaps are capped at a configurable split bound.

Allocation is deterministic: a monotone counter hands out fresh addresses
starting from a configurable base, which only strengthens the paper-level
requirement that new cells be fresh for the current heap.
"""

from __future__ import annotations

from itertools import combinations

from .record import dataclass
from .terms import (
    BaseFormula,
    Expr,
    Program,
    Refusal,
    TermError,
    closed,
    eval_bool,
    evaluate,
    term,
)


class SepError(Refusal):
    pass


class DanglingAddress(SepError):
    """Load, store, or dispose on an address outside the heap domain."""


class HeapTooLarge(SepError):
    """Split enumeration refused: the heap exceeds the split bound."""


@closed("substitution over non-store labels is not defined")
@dataclass(frozen=True)
class SepState:
    """A store-heap pair; both components are kept sorted for identity.

    As the label of a formula it is closed and binds its store's names
    there (``domain``); a substitution under it is refused.
    """

    store: tuple = ()   # ((name, int), ...)
    heap: tuple = ()    # ((addr, int), ...)

    @staticmethod
    def make(store: dict, heap: dict | None = None) -> "SepState":
        return SepState(
            tuple(sorted(store.items())),
            tuple(sorted((heap or {}).items())),
        )

    def store_map(self) -> dict:
        return dict(self.store)

    def domain(self) -> frozenset:
        return frozenset(x for x, _ in self.store)

    def heap_map(self) -> dict:
        return dict(self.heap)

    def with_store(self, name: str, value: int) -> "SepState":
        s = self.store_map()
        s[name] = value
        return SepState.make(s, self.heap_map())

    def with_heap(self, heap: dict) -> "SepState":
        return SepState.make(self.store_map(), heap)

    def __str__(self) -> str:
        store = ", ".join(f"{x}: {v}" for x, v in self.store)
        heap = ", ".join(f"{a}: {v}" for a, v in self.heap) or "empty"
        return f"({{{store}}}, {{{heap}}})"


def disjoint(h1: dict, h2: dict) -> bool:
    return not (set(h1) & set(h2))


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

class SepFormula:
    __slots__ = ()


@term
@dataclass(frozen=True)
class SBase(SepFormula):
    fml: BaseFormula


@term
@dataclass(frozen=True)
class PointsTo(SepFormula):
    addr: Expr
    value: Expr


@term
@dataclass(frozen=True)
class Star(SepFormula):
    left: SepFormula
    right: SepFormula


@term
@dataclass(frozen=True)
class SNot(SepFormula):
    body: SepFormula


@term
@dataclass(frozen=True)
class SAnd(SepFormula):
    left: SepFormula
    right: SepFormula


DEFAULT_SPLIT_BOUND = 16


def sep_app(state: SepState, phi: SepFormula, split_bound: int = DEFAULT_SPLIT_BOUND) -> bool:
    """Satisfaction at a concrete store-heap state.

    Pure formulas consult the store only.  A points-to atom requires the
    addressed cell to hold the stated value; the separating conjunction
    enumerates all splits of the heap into two disjoint halves.
    """
    store = state.store_map()
    heap = state.heap_map()
    return _sat(store, heap, phi, split_bound)


def _sat(store: dict, heap: dict, phi: SepFormula, split_bound: int) -> bool:
    if isinstance(phi, SBase):
        return eval_bool(store, phi.fml)
    if isinstance(phi, PointsTo):
        addr = evaluate(store, phi.addr)
        return addr in heap and heap[addr] == evaluate(store, phi.value)
    if isinstance(phi, SNot):
        return not _sat(store, heap, phi.body, split_bound)
    if isinstance(phi, SAnd):
        return _sat(store, heap, phi.left, split_bound) and _sat(
            store, heap, phi.right, split_bound
        )
    if isinstance(phi, Star):
        cells = sorted(heap)
        if len(cells) > split_bound:
            raise HeapTooLarge(f"{len(cells)} cells exceed split bound {split_bound}")
        for k in range(len(cells) + 1):
            for chosen in combinations(cells, k):
                h1 = {a: heap[a] for a in chosen}
                h2 = {a: heap[a] for a in cells if a not in h1}
                if _sat(store, h1, phi.left, split_bound) and _sat(
                    store, h2, phi.right, split_bound
                ):
                    return True
        return False
    raise TermError(f"not a separation formula: {phi!r}")


# ---------------------------------------------------------------------------
# Statements and behaviour
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Alloc(Program):
    target: str
    expr: Expr


@dataclass(frozen=True)
class HeapRead(Program):
    target: str
    addr: Expr


@dataclass(frozen=True)
class HeapWrite(Program):
    addr: Expr
    expr: Expr


@dataclass(frozen=True)
class Dispose(Program):
    addr: Expr


class Allocator:
    """Monotone fresh-address source; part of the run context, single writer."""

    def __init__(self, base: int = 37):
        self.next_addr = base

    def fresh(self, heap: dict) -> int:
        while self.next_addr in heap:
            self.next_addr += 1
        addr = self.next_addr
        self.next_addr += 1
        return addr


def sep_step(state: SepState, stmt: Program, allocator: Allocator) -> SepState:
    """One statement transition on a store-heap state."""
    store = state.store_map()
    heap = state.heap_map()
    if isinstance(stmt, Alloc):
        addr = allocator.fresh(heap)
        heap[addr] = evaluate(store, stmt.expr)
        return state.with_store(stmt.target, addr).with_heap(heap)
    if isinstance(stmt, HeapRead):
        addr = evaluate(store, stmt.addr)
        if addr not in heap:
            raise DanglingAddress(f"load from unmapped address {addr}")
        return state.with_store(stmt.target, heap[addr])
    if isinstance(stmt, HeapWrite):
        addr = evaluate(store, stmt.addr)
        if addr not in heap:
            raise DanglingAddress(f"store to unmapped address {addr}")
        heap[addr] = evaluate(store, stmt.expr)
        return state.with_heap(heap)
    if isinstance(stmt, Dispose):
        addr = evaluate(store, stmt.addr)
        if addr not in heap:
            raise DanglingAddress(f"dispose of unmapped address {addr}")
        del heap[addr]
        return state.with_heap(heap)
    raise TermError(f"not a heap statement: {stmt!r}")


def sep_run(state: SepState, stmts, allocator: Allocator | None = None) -> list:
    """Execute a statement list, returning every intermediate state."""
    allocator = allocator or Allocator()
    states = [state]
    for stmt in stmts:
        state = sep_step(state, stmt, allocator)
        states.append(state)
    return states
