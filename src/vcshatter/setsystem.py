"""Finite set systems over an indexed ground set, in canonical bitmask form.

The ground set is {0, ..., n-1} and every member set is a bitmask over those
indices. Families are deduplicated and stored in ascending mask order, so two
systems are equal exactly when they describe the same family of sets. All
operations are pure functions; nothing here mutates a system in place.
k-fold unions come from one bitset kernel, ``union_closure``, which box
gadgets share; k-fold intersections are its De Morgan dual.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb
from operator import and_, or_
from typing import Collection, Iterable, Sequence

VERIFY_GUARD = 24  # refuse exponential work over more than 2^24 subsets


def _check_guard(ground_size: int, operation: str) -> None:
    if ground_size > VERIFY_GUARD:
        raise ValueError(
            f"{operation} refused: ground size {ground_size} exceeds the guard of {VERIFY_GUARD}"
        )


def indices_to_mask(ground_size: int, indices: Iterable[int]) -> int:
    """Pack a collection of distinct indices into a bitmask, validating range."""
    mask = 0
    for i in indices:
        if not isinstance(i, int) or isinstance(i, bool):
            raise ValueError(f"set element {i!r} is not an integer index")
        if not 0 <= i < ground_size:
            raise ValueError(f"index {i} out of range for ground size {ground_size}")
        bit = 1 << i
        if mask & bit:
            raise ValueError(f"duplicate index {i} within a set")
        mask |= bit
    return mask


def mask_to_indices(mask: int) -> list[int]:
    """The indices of the set bits of a non-negative mask, ascending.

    One regex scan of its binary digits reversed, so digit i is bit i and
    the cost is linear in the bit length with no Python step per digit.
    """
    return list(map(re.Match.start, re.finditer("1", bin(mask)[:1:-1])))


def subset_mask(ground_size: int, subset: Iterable[int] | int) -> int:
    """A subset given as a bitmask or as an iterable of indices, as a bitmask.

    Repeated indices are allowed; a mask or index outside the ground set
    raises ValueError.
    """
    if isinstance(subset, int):
        # by shifting, not against 1 << ground_size: no integer that large is built
        if subset < 0 or subset >> ground_size:
            raise ValueError(f"subset mask {subset} out of range")
        return subset
    return indices_to_mask(ground_size, set(subset))


@dataclass(frozen=True)
class SetSystem:
    """A finite family of subsets of {0, ..., ground_size - 1}.

    ``sets`` must be strictly ascending bitmasks; use :meth:`from_masks` or
    :meth:`from_members` to canonicalize arbitrary input. The family may be
    empty, and the empty set may be a member.
    """

    ground_size: int
    sets: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.ground_size, int) or self.ground_size < 1:
            raise ValueError("ground_size must be a positive integer")
        # bit lengths, not 1 << ground_size: the ground size may come from a file
        prev = -1
        for mask in self.sets:
            if mask < 0 or mask.bit_length() > self.ground_size:
                raise ValueError(
                    f"set mask {mask} out of range for ground size {self.ground_size}"
                )
            if mask <= prev:
                raise ValueError("sets must be strictly ascending; build via from_masks()")
            prev = mask

    @classmethod
    def from_masks(cls, ground_size: int, masks: Iterable[int]) -> "SetSystem":
        return cls(ground_size, tuple(sorted(set(masks))))

    @classmethod
    def from_members(cls, ground_size: int, members: Iterable[Iterable[int]]) -> "SetSystem":
        return cls.from_masks(
            ground_size, (indices_to_mask(ground_size, member) for member in members)
        )

    def member_lists(self) -> list[list[int]]:
        """The family as sorted index lists, in canonical order."""
        return [mask_to_indices(m) for m in self.sets]

    def __len__(self) -> int:
        return len(self.sets)


def _validate_subset(system: SetSystem, elements: Iterable[int]) -> list[int]:
    """The distinct elements, ascending, checked as ``indices_to_mask`` checks them."""
    return mask_to_indices(indices_to_mask(system.ground_size, set(elements)))


def _projected_masks(system: SetSystem, ys: Sequence[int], stop_at: int | None = None) -> set[int]:
    """Project every member onto ys, re-indexed by position in ys.

    ``stop_at`` allows early exit once that many distinct projections exist.
    """
    out: set[int] = set()
    for mask in system.sets:
        small = 0
        for pos, y in enumerate(ys):
            if (mask >> y) & 1:
                small |= 1 << pos
        out.add(small)
        if stop_at is not None and len(out) >= stop_at:
            break
    return out


def project(system: SetSystem, elements: Iterable[int]) -> SetSystem:
    """The system induced on ``elements``: { Y ∩ R : R in the family }, re-indexed."""
    ys = _validate_subset(system, elements)
    if not ys:
        # Ground sets must be nonempty, so projection onto the empty set is
        # represented on a one-element ground set (only the empty set can occur).
        return SetSystem.from_masks(1, (0,) if system.sets else ())
    return SetSystem.from_masks(len(ys), _projected_masks(system, ys))


def shatters(system: SetSystem, elements: Iterable[int]) -> bool:
    """True iff every subset of ``elements`` arises as Y ∩ R for some member R."""
    ys = _validate_subset(system, elements)
    want = 1 << len(ys)
    return len(_projected_masks(system, ys, stop_at=want)) == want


def _shattered_masks(masks: Iterable[int]) -> list[int]:
    """Every set shattered by the nonempty family ``masks``, as bitmasks in
    ``itertools.combinations`` order within each size.

    The shattered-set recursion from the proof of Pajor's lemma, walked by
    smallest element: with F1 the members containing x and F0 the rest, a set
    S with smallest element x is shattered by F exactly when S - x is
    shattered by both F0 and F1. A node of the walk holds the classes of F by
    trace on S (deduplicated) and extends S only by larger elements that
    split every class, so each node is a shattered set. An element that
    fails to split a class never splits its sub-classes, so the traces are
    cut down to the elements still splitting, which merges classes too.
    """
    found: list[int] = []

    def walk(prefix: int, families: Iterable[frozenset[int]]) -> None:
        found.append(prefix)
        free = -1
        for family in families:
            free &= reduce(or_, family) & ~reduce(and_, family)
        while free:
            bit = free & -free
            free ^= bit
            split = set()
            for family in families:
                split.add(frozenset([m & free for m in family if m & bit]))
                split.add(frozenset([m & free for m in family if not m & bit]))
            walk(prefix | bit, split)

    walk(0, (frozenset(masks),))
    return found


def shattered_sets(system: SetSystem) -> SetSystem:
    """The family of all subsets of the ground set that ``system`` shatters.

    The result is downward closed and has at least len(system) members
    (Pajor's lemma). The empty family shatters nothing, not even the empty
    set.
    """
    _check_guard(system.ground_size, "shattered-set enumeration")
    found = _shattered_masks(system.sets) if system.sets else ()
    return SetSystem.from_masks(system.ground_size, found)


def vc_dim(system: SetSystem) -> tuple[int, tuple[int, ...]]:
    """The VC-dimension and a lexicographically smallest witness of that size.

    Both come from the shattered family: the dimension is its largest size
    and the witness is the first set of that size in
    ``itertools.combinations`` order. The cost follows the family and its
    shattered sets, not 2^n, so no ground-size guard applies; the full power
    set shatters the whole ground set and is answered without the walk.
    Raises ValueError for the empty family, whose VC-dimension is undefined
    here.
    """
    if not system.sets:
        raise ValueError("VC-dimension of an empty family is undefined")
    # the members are distinct subsets, so this holds exactly when there are 2^n of them
    if len(system.sets).bit_length() > system.ground_size:
        return system.ground_size, tuple(range(system.ground_size))
    found = _shattered_masks(system.sets)
    dim = max(m.bit_count() for m in found)
    witness = next(m for m in found if m.bit_count() == dim)
    return dim, tuple(mask_to_indices(witness))


def union_closure(masks: Collection[int], ground_size: int, k: int) -> int:
    """The unions of 1 to k of ``masks``, as one int with bit v set for each union v.

    ORing every reached union with a mask p moves bit v to bit v | p, one
    bit j of p at a time: the bits of the unions with bit j clear
    (``low[j]``) move up by 2^j. The folds stop once one adds nothing. Time
    and memory grow with 2^ground_size, not with the family: two masks over
    24 elements take about 0.1 s and 57 MB. Refuses ground sets larger than
    the 2^24 guard.
    """
    _check_guard(ground_size, "k-fold union")
    size = 1 << ground_size
    low = []
    for j in range(ground_size):
        # masks 0 .. 2^j - 1 have bit j clear, and the pattern repeats every 2^(j+1)
        mask, width = (1 << (1 << j)) - 1, 2 << j
        while width < size:
            mask |= mask << width
            width <<= 1
        low.append(mask)
    reached = 0
    for p in masks:
        reached |= 1 << p
    for _ in range(k - 1):
        grown = reached
        for p in masks:
            x = reached
            while p:
                j = (p & -p).bit_length() - 1
                p &= p - 1
                moved = x & low[j]
                x = (x ^ moved) | (moved << (1 << j))
            grown |= x
        if grown == reached:
            break
        reached = grown
    return reached


def k_fold_union(system: SetSystem, k: int) -> SetSystem:
    """Unions of k (not necessarily distinct) members; contains the input family."""
    if k < 1:
        raise ValueError("fold count k must be >= 1")
    if not system.sets:  # no members, no unions, at any ground size
        return system
    closure = union_closure(system.sets, system.ground_size, k)
    return SetSystem(system.ground_size, tuple(mask_to_indices(closure)))


def k_fold_intersection(system: SetSystem, k: int) -> SetSystem:
    """Intersections of k (not necessarily distinct) members, by De Morgan."""
    return complement_system(k_fold_union(complement_system(system), k))


def complement_system(system: SetSystem) -> SetSystem:
    """Replace every member by its complement within the ground set.

    Refused before any mask is built when ground size times member count,
    the output's size in bits, exceeds 2^VERIFY_GUARD. The full mask is
    built only for a family with members, so the empty family costs nothing
    at any ground size.
    """
    size = system.ground_size * len(system.sets)
    if size > 1 << VERIFY_GUARD:
        raise ValueError(f"complement refused: {size} output bits exceed 2^{VERIFY_GUARD}")
    if not system.sets:
        return system
    full = (1 << system.ground_size) - 1
    return SetSystem.from_masks(system.ground_size, (full ^ m for m in system.sets))


def growth_function(system: SetSystem, m: int) -> int:
    """Max number of distinct projections onto any m-element subset.

    Cost is C(ground_size, m) * len(sets); intended for small ground sets.
    """
    if not isinstance(m, int) or m < 0:
        raise ValueError("m must be a non-negative integer")
    if m > system.ground_size:
        raise ValueError(f"m={m} exceeds ground size {system.ground_size}")
    _check_guard(system.ground_size, "growth function")
    best = 0
    for ys in combinations(range(system.ground_size), m):
        best = max(best, len(_projected_masks(system, ys)))
        if best == 1 << m:
            break
    return best


def sauer_shelah_bound(n: int, d: int) -> int:
    """Sum of C(n, i) for i = 0..d, the maximum family size at VC-dimension d."""
    return sum(comb(n, i) for i in range(min(d, n) + 1))
