from __future__ import annotations

import random
from itertools import combinations

from cycproof.semantics import mult_le, mult_lt, proper_suffix

# paths here are plain state tuples; the ordering is agnostic to what a
# state is, and the production code feeds it evaluated program states


def _suffixes(tr):
    return [tr[i:] for i in range(len(tr))]


def test_proper_suffix_basics():
    assert proper_suffix(("s", "t", "u"), ("t", "u"))
    assert not proper_suffix(("s", "t"), ("s", "t"))
    assert not proper_suffix(("t", "u"), ("s", "t", "u"))


def test_paper_style_replacement_example():
    tr1 = ("a", "a1", "a2", "a3", "end1")
    tr2 = ("a", "a1", "b1", "b2", "end2")
    tr3 = ("a", "end3")
    tr1p = tr1[1:]
    tr2p = tr2[1:]
    assert proper_suffix(tr1, tr1p) and proper_suffix(tr2, tr2p)
    c1 = {tr1, tr2, tr3}
    c2 = {tr1p, tr2p}
    assert mult_le(c2, c1) and mult_lt(c2, c1)
    assert not mult_le(c1, c2)


def test_reflexive():
    c = {("a", "b"), ("c",)}
    assert mult_le(c, c) and not mult_lt(c, c)


def _brute_force_le(c1: frozenset, c2: frozenset) -> bool:
    """Definition-level search: some nonempty replaced subset works."""
    if c1 == c2:
        return True
    members = sorted(c2)
    for k in range(1, len(members) + 1):
        for removed in combinations(members, k):
            kept = c2 - set(removed)
            if not kept <= c1:
                continue
            new = c1 - kept
            if all(any(proper_suffix(old, x) for old in removed) for x in new):
                return True
    return False


def _universe():
    m1 = ("a", "b", "c", "d", "e")
    m2 = ("x", "y", "d", "e")
    out = set(_suffixes(m1)) | set(_suffixes(m2))
    return sorted(out)


def test_characterization_matches_brute_force_exhaustively():
    universe = _universe()
    sets = [frozenset()]
    for k in (1, 2, 3, 4):
        sets.extend(frozenset(c) for c in combinations(universe, k))
    for c1 in sets:
        for c2 in sets:
            assert mult_le(c1, c2) == _brute_force_le(c1, c2), (c1, c2)


def _random_set(rng: random.Random, universe, max_size=4):
    return frozenset(rng.sample(universe, rng.randint(0, max_size)))


def test_partial_order_on_random_instances():
    universe = _universe()
    rng = random.Random(1)
    for _ in range(1000):
        c1 = _random_set(rng, universe)
        c2 = _random_set(rng, universe)
        c3 = _random_set(rng, universe)
        # reflexivity
        assert mult_le(c1, c1)
        # antisymmetry
        if mult_le(c1, c2) and mult_le(c2, c1):
            assert c1 == c2
        # transitivity
        if mult_le(c1, c2) and mult_le(c2, c3):
            assert mult_le(c1, c3), (c1, c2, c3)


def test_descending_chains_respect_the_suffix_count_bound():
    # random strict descents built from single-element shrink/remove steps;
    # each step loses at least one state, so a chain from total suffix
    # count k has at most k steps
    rng = random.Random(2)
    for _ in range(200):
        size = rng.randint(1, 4)
        current = set()
        while len(current) < size:
            length = rng.randint(1, 5)
            current.add(tuple(rng.randint(0, 9) for _ in range(length)))
        k = sum(len(tr) for tr in current)
        steps = 0
        while current:
            victim = rng.choice(sorted(current))
            nxt = set(current)
            nxt.remove(victim)
            if len(victim) > 1 and rng.random() < 0.7:
                nxt.add(victim[rng.randint(1, len(victim) - 1):])
            assert mult_lt(nxt, current) or nxt == current
            if nxt == current:
                break
            current = nxt
            steps += 1
        assert steps <= k
