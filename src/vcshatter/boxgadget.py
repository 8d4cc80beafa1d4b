"""Box-family certificates and their verification.

A gadget is a family B of axis-parallel boxes with strictly positive
coordinates such that for EVERY sub-family S of B there is a point set Q of
at most 2^(n-1) points avoiding every box of S while hitting every box of
B \\ S. The certificate is checked exhaustively over all 2^|B| sub-families.
Witnesses come from a finite candidate menu (one generic point per cell of
the axis-parallel arrangement): the product of per-axis menus of midpoints
between consecutive endpoints. Hit patterns are built per axis: each
endpoint holds the XOR of the box bits it toggles (``_axis_toggles``), and
one XOR sweep over them in rank order (``_sweep``, the one menu rule)
gives one bitset of boxes per menu value. A product over the distinct
bitsets keeps only the distinct patterns. A gadget keeps, with each
pattern, the per-axis menu digits of the first menu point that has it
(``_patterns``), and hands out per axis the menu values those digits name
(``_menu``); the search's score needs the pattern set alone and takes it
from a plain set product. Q avoids S exactly when every hit pattern of Q
lies inside B \\ S, so S has a witness exactly when B \\ S is a union of
at most 2^(n-1) hit patterns: the gadget is a certificate when the
2^(n-1)-fold union of its hit-pattern system is the whole power set. A
fewest union needs at most |B| patterns, so every fold count is
``max_witness_size`` = min(2^(n-1), |B|). ``verify`` and the search's
score read that closure as one 2^|B|-bit integer from
``setsystem.union_closure``, the kernel of ``k_fold_union``. The same
closure kept as back-pointer tables (``_unions``) is read by one walk,
``_witness_tree``. Its fresh walk for one union, ``_pattern_numbers``,
gives the witness of ``witness_for`` and of the public witness functions
in ``constructions``; both theorem verifiers there walk it with their own
nodes. The tests' reference walk is in ``tests/oracles.py``. The search
climbs on plain integer boxes and carries the current family's per-axis
toggles and set of bitsets, so a proposal moves one box's bit in the
toggles of the one axis it moved and sweeps that axis alone. Its scores
are memoized by the per-axis bitset sets, which fix the pattern set and so
skip the product, and then by pattern set, which skips the closure. It
builds a ``BoxGadget`` only for the family it returns. A gadget counts as
verified when ``verify(gadget)`` reports ok.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Iterable, Sequence, TypeVar

from .geometry import AxisBox, Point
from .setsystem import VERIFY_GUARD, _check_guard, mask_to_indices, subset_mask, union_closure

_Node = TypeVar("_Node")


class ConstructionError(RuntimeError):
    """A witness could not be produced; signals an invalid instance or gadget."""


@dataclass(frozen=True)
class BoxGadget:
    """A certificate: a family of solid boxes with strictly positive coordinates."""

    n: int
    dim: int
    boxes: tuple[AxisBox, ...]

    def __post_init__(self) -> None:
        if self.n < 2 or self.dim < 2:
            raise ValueError("gadgets require n >= 2 and dim >= 2")
        for box in self.boxes:
            if box.dim != self.dim:
                raise ValueError("box dimension does not match gadget dimension")
            if any(a <= 0 for a in box.lo):
                raise ValueError("gadget boxes must have strictly positive coordinates")
            if any(a >= b_ for a, b_ in zip(box.lo, box.hi)):
                raise ValueError("gadget boxes must be solid (lo < hi per coordinate)")

    @property
    def max_witness_size(self) -> int:
        """min(2^(n-1), |B|) without building 2^(n-1): each pattern of a fewest
        union adds a box (with no boxes, the one witness is the empty pattern)."""
        nboxes = max(len(self.boxes), 1)
        return min(1 << min(self.n - 1, nboxes.bit_length()), nboxes)

    @cached_property
    def _patterns(self) -> tuple[tuple[list[Fraction], ...], dict[int, tuple[int, ...]]]:
        """``_hit_masks`` of the boxes, computed on first use: per axis its
        sorted distinct endpoints, and the distinct hit patterns with their
        digits. ``verify`` and ``_unions`` read the patterns from here, so
        they build no menu values."""
        return _hit_masks([(box.lo, box.hi) for box in self.boxes], self.dim)

    @cached_property
    def _menu(self) -> tuple[list[Fraction], ...]:
        """Per axis its menu values, menu digit m at index m, computed on first
        use from the endpoints in ``_patterns``.

        The gadget hands out its menu values, so no other module knows how a
        menu is built from the endpoints.
        """
        return tuple(
            [_menu_value(values, m) for m in range(len(values) + 1)]
            for values in self._patterns[0]
        )

    @cached_property
    def _pattern_points(self) -> tuple[Point, ...]:
        """The menu point of each distinct hit pattern, in pattern order, computed on first use."""
        digits = self._patterns[1].values()
        return tuple(Point(tuple(map(list.__getitem__, self._menu, m))) for m in digits)

    @cached_property
    def _closure(self) -> tuple[array, array]:
        """The union closure of ``_unions``, computed on first use."""
        return _unions(self)


def nominal_box_count(n: int, dim: int) -> int:
    """floor(dim/2) * (n+3) * 2^(n-2), the target family size for the search."""
    if n < 2 or dim < 2:
        raise ValueError("requires n >= 2 and dim >= 2")
    return (dim // 2) * (n + 3) * (1 << (n - 2))


def _menu_value(values: list[Fraction], m: int) -> Fraction:
    """Menu value m of an axis whose sorted distinct endpoints are ``values``."""
    if not values:
        return Fraction(1)
    if m == 0:
        return values[0] / 2
    if m == len(values):
        return values[-1] + 1
    return (values[m - 1] + values[m]) / 2


def _axis_toggles(boxes: Sequence[tuple[Sequence, Sequence]], i: int) -> dict:
    """Per distinct endpoint of axis i, the XOR of the bits of the boxes
    whose interval on that axis starts or ends there; never 0, since a
    solid box toggles its bit at two distinct endpoints."""
    toggles: dict = {}
    for j, (lo, hi) in enumerate(boxes):
        bit = 1 << j
        toggles[lo[i]] = toggles.get(lo[i], 0) ^ bit
        toggles[hi[i]] = toggles.get(hi[i], 0) ^ bit
    return toggles


def _sweep(toggles: dict) -> tuple[list, list[int]]:
    """The sorted distinct endpoints of an axis with these ``_axis_toggles``,
    and per menu value of the axis the bitset of the boxes whose interval on
    that axis contains it.

    Menu value m lies in a closed interval with endpoint ranks a and b
    exactly when a < m <= b, so box j's bit switches on at m = a + 1 and off
    at m = b + 1. One XOR sweep over the toggles in rank order gives every
    menu value's bitset, with no comparison of endpoint values beyond the
    sort. The boxes that contain an endpoint itself are the bitset below it
    OR its toggle. This is the one menu rule: ``_hit_masks`` and the
    search's climb both read it.
    """
    values = sorted(toggles)
    bits = 0
    bitsets = [bits]  # menu value 0 is below every box
    for v in values:
        # the endpoint of rank r toggles menu value r + 1
        bits ^= toggles[v]
        bitsets.append(bits)
    return values, bitsets


def _hit_masks(
    boxes: Sequence[tuple[Sequence, Sequence]], dim: int
) -> tuple[tuple[list, ...], dict[int, tuple[int, ...]]]:
    """Per axis, the sorted distinct endpoints, which ``BoxGadget._menu``
    turns into the axis's menu values; and each distinct hit pattern of the
    menu with the menu digits of the first menu point that has it, in that
    point order.

    The menu is the product of the per-axis menus of ``_menu_value``, in
    lexicographic order of the digits (m_1, ..., m_dim) of its points.

    ``boxes`` holds one ``(lo, hi)`` pair per box, of any ordered values:
    ``BoxGadget`` passes its ``Fraction`` boxes. Each axis gives one bitset
    of boxes per menu value (``_sweep``), with no point-in-box test. A
    point's pattern is the AND of its axes' bitsets; the product is taken
    axis by axis over the distinct bitsets only, each represented by its
    first menu value. Visiting the partial patterns in lexicographic order of
    their digits, which is the point order, keeps for every pattern the
    digits of its first point. Only the patterns' menu points need those
    digits (``BoxGadget._pattern_points`` and the Theorem 1 witness rows);
    the search's score takes the same pattern set from a plain set product
    (``_score``).
    """
    axes: list[list] = []
    patterns: dict[int, tuple[int, ...]] = {(1 << len(boxes)) - 1: ()}
    for i in range(dim):
        values, bits = _sweep(_axis_toggles(boxes, i))
        first: dict[int, int] = {}
        for m, am in enumerate(bits):
            first.setdefault(am, m)
        staged: dict[int, tuple[int, ...]] = {}
        for pm, digits in patterns.items():
            for am, m in first.items():
                p = pm & am
                if p not in staged:
                    staged[p] = (*digits, m)
        patterns = staged
        axes.append(values)
    return tuple(axes), patterns


def _unions(gadget: BoxGadget) -> tuple[array, array]:
    """The b-fold union closure of the menu's hit patterns, b = ``max_witness_size``.

    A subset S has a witness of at most b points exactly when the complement
    of S is the union of at most b hit patterns: every point avoids S, so its
    pattern lies inside the complement. Reached unions grow fold by fold from
    the distinct patterns of ``_patterns``, numbered in the order of their
    first menu points. Both tables are indexed by union mask: ``pick[v]`` is
    the number of the pattern added last (-1 where v is unreached) and
    ``prev[v]`` the union before it (-1 for none, so -1 names the witness
    tree's root, the witness of no pattern). Pattern numbers stay below
    2^|B|, so they fit the tables. A union is recorded at the first fold
    that reaches it, so walking the back-pointers gives a fewest-point
    witness. A union u is extended only by patterns numbered above
    ``pick[u]``, with the same tables as a scan of every pattern: the
    frontier is visited in lexicographic order of paths, so each path is the
    lexicographically first combination of the fewest pattern numbers with
    its union, which is strictly increasing; the pairs skipped never write
    an entry. A new union's pick is read from its last pattern's own entry:
    every pattern holds its number from the start, and the sweep writes
    only unreached entries, so it never overwrites one. The sweep stops at
    the first fold that reaches nothing, since every later fold would
    extend an empty frontier, and as soon as every union is reached, even
    within a fold, since no step can then write an entry. Only
    ``_witness_tree`` reads the tables; ``verify`` and the search read the
    same set of unions from ``union_closure``.
    """
    nboxes = len(gadget.boxes)
    _check_guard(nboxes, "exhaustive verification")
    patterns = list(gadget._patterns[1])
    # pick is a list during the sweep, which indexes faster than an array;
    # the frontier is an array, which holds no int objects
    pick = [-1] * (1 << nboxes)
    prev = array("i", [-1]) * (1 << nboxes)
    for i, p in enumerate(patterns):
        pick[p] = i
    # tails[i]: the patterns numbered above i, the only ones a union with pick i takes
    tails = [patterns[i + 1 :] for i in range(len(patterns))]
    frontier = array("i", patterns)
    missing = (1 << nboxes) - len(patterns)  # unions not yet reached
    for _ in range(gadget.max_witness_size - 1):
        reached = array("i")
        for u in frontier:
            for p in tails[pick[u]]:
                v = u | p
                if pick[v] < 0:
                    pick[v] = pick[p]
                    prev[v] = u
                    reached.append(v)
            if len(reached) == missing:
                break
        missing -= len(reached)
        if not reached or not missing:
            break
        frontier = reached
    return array("i", pick), prev


def _witness_tree(
    gadget: BoxGadget, root: _Node, grow: Callable[[_Node, int], _Node]
) -> Callable[[int], _Node]:
    """The one walk of the gadget's witness tree: a function of a union mask.

    Each reached union's witness is its tree parent's plus one pattern
    numbered above all of the parent's (``_unions``); the root, the witness
    of no pattern, is union -1. A union's node is ``grow(its parent's node,
    the number of the pattern it adds)``, so a caller chooses what a node is
    by its root and its step. The walk memoizes the node of every tree parent
    it meets by union mask, the root's under -1, and builds a missing parent
    by recursion. A union with no witness raises ConstructionError before
    any parent is built. Only this walk reads the ``_closure`` tables. The
    memo lives as long as the walk: ``_pattern_numbers`` drops it after one
    union, and each theorem verifier keeps it for one run.
    """
    pick, prev = gadget._closure
    return partial(_tree_node, pick, prev, {-1: root}, grow)


def _tree_node(pick: array, prev: array, nodes: dict, grow: Callable, union: int) -> object:
    """One call of a ``_witness_tree`` walk, whose memo is ``nodes``. A walk
    that called itself through a closure would be a reference cycle, which
    keeps a dropped walk's memo alive until the cyclic collector runs."""
    number = pick[union]
    parent = nodes.get(prev[union])
    if parent is None or number < 0:
        if number < 0:
            # one table entry per union mask, so len(pick) - 1 is the full mask
            avoid = (len(pick) - 1) & ~union
            raise ConstructionError(
                f"gadget has no witness for box subset {mask_to_indices(avoid)}; "
                "the certificate is invalid"
            )
        parent = nodes[prev[union]] = _tree_node(pick, prev, nodes, grow, prev[union])
    return grow(parent, number)


def _pattern_numbers(gadget: BoxGadget, union: int) -> tuple[int, ...]:
    """The ascending pattern numbers of the witness of a union mask, from a
    fresh ``_witness_tree`` walk, so nothing keeps a memo of it. A union with
    no witness raises ConstructionError. ``witness_for`` and the public
    witness functions of ``constructions`` all read their witness here."""
    return _witness_tree(gadget, (), lambda parent, number: parent + (number,))(union)


def witness_for(gadget: BoxGadget, subset: Iterable[int] | int) -> tuple[Point, ...] | None:
    """A fewest-point set avoiding the boxes of ``subset`` and hitting all others.

    Returns None when no such set of at most ``max_witness_size`` candidate
    points exists; infeasibility is a value, not an error. Refuses families
    larger than the 2^24 guard. Each call walks the witness tree afresh
    (``_pattern_numbers``), so the gadget keeps no memo of it.
    """
    nboxes = len(gadget.boxes)
    union = ((1 << nboxes) - 1) & ~subset_mask(nboxes, subset)
    try:
        numbers = _pattern_numbers(gadget, union)
    except ConstructionError:
        return None
    return tuple(map(gadget._pattern_points.__getitem__, numbers))


@dataclass(frozen=True)
class GadgetReport:
    ok: bool
    checked: int
    failing_subsets: tuple[tuple[int, ...], ...]


def verify(gadget: BoxGadget) -> tuple[GadgetReport, BoxGadget]:
    """Check every subset of boxes for a witness; failures in ascending bitmask order.

    Returns the report and the gadget itself. Refuses families larger than
    the 2^24 guard.
    """
    nboxes = len(gadget.boxes)
    _check_guard(nboxes, "exhaustive verification")  # before the patterns are built
    _, patterns = gadget._patterns
    reached = union_closure(patterns, nboxes, gadget.max_witness_size)
    full = (1 << nboxes) - 1
    # subset s fails when the union full ^ s of the boxes outside it is
    # unreached; descending unions give ascending subsets
    unreached = mask_to_indices(reached ^ ((1 << (full + 1)) - 1))
    failing = tuple(tuple(mask_to_indices(full ^ v)) for v in reversed(unreached))
    return GadgetReport(ok=not failing, checked=1 << nboxes, failing_subsets=failing), gadget


# ---------------------------------------------------------------------------
# randomized search
# ---------------------------------------------------------------------------

# A family of integer boxes, one (lo, hi) pair per box: the climb's state.
_Boxes = tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

# (lo step, hi step) of the moves lo-, lo+, hi-, hi+, shift- and shift+.
_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (1, 1))


def _moved_toggles(toggles: dict[int, int], bit: int, ends: Iterable[int]) -> dict[int, int]:
    """A copy of one axis's ``_axis_toggles`` after the box with this bit
    moved on that axis, where ``ends`` are its old and new lo and hi there.

    The bit is XORed at each of the four, so an end that did not move is
    toggled twice and stays, and an entry that becomes 0 is dropped, as a
    fresh ``_axis_toggles`` has none.
    """
    moved = toggles.copy()
    for v in ends:
        t = moved.get(v, 0) ^ bit
        if t:
            moved[v] = t
        else:
            del moved[v]
    return moved


# Per axis, the set of menu-value bitsets that ``_sweep`` gives.
_Sets = tuple[frozenset[int], ...]

# A search's scores in two levels: by (b, per-axis sets), which skips the
# product, and by (b, pattern set), which skips the closure. The closure's
# popcount depends on b and the pattern set alone, and the sets fix the
# pattern set.
_Memo = tuple[dict[tuple[int, _Sets], int], dict[tuple[int, frozenset[int]], int]]


def _score(sets: _Sets, nboxes: int, b: int, memo: _Memo) -> int:
    """Number of subsets of a family of ``nboxes`` boxes with these per-axis
    bitset sets that have a witness of at most b points; 2^nboxes is perfect.

    It is the popcount of the b-fold ``union_closure`` of the hit patterns.
    Every choice of one menu value per axis is a menu point, so the patterns
    are the distinct ANDs of one bitset from each axis's set: families whose
    bitsets on an axis are reordered or repeated, such as a mirrored axis,
    share a score. The product starts from the first axis's set and runs
    once per distinct ``(b, sets)``; the closure runs once per distinct
    ``(b, patterns)`` of ``memo``.
    """
    by_sets, by_patterns = memo
    score = by_sets.get((b, sets))
    if score is None:
        patterns = sets[0]
        for bits in sets[1:]:
            patterns = frozenset({p & a for p in patterns for a in bits})
        score = by_patterns.get((b, patterns))
        if score is None:
            score = by_patterns[b, patterns] = union_closure(patterns, nboxes, b).bit_count()
        by_sets[b, sets] = score
    return score


def _staircase_seed(rng: random.Random, dim: int, count: int) -> _Boxes:
    """A random 'wrapped staircase' start: per axis, interval slot i covers
    [2s, 2s + 2*count - 1] where s is a rotated (and possibly reflected)
    position of the box index. Long overlapping runs of this shape realize
    many stabbing patterns, which makes them good climbing starts."""
    length = 2 * count - 1
    axes_slots: list[list[int]] = []
    for _ in range(dim):
        rot = rng.randrange(count)
        flip = rng.random() < 0.5
        slots = [((i + rot) % count) for i in range(count)]
        if flip:
            slots = [count - 1 - s for s in slots]
        axes_slots.append(slots)
    boxes = []
    for i in range(count):
        lo = []
        for ax in range(dim):
            s = axes_slots[ax][i] + 1
            jitter = rng.randrange(-1, 2)
            lo.append(max(1, 2 * s + jitter))
        boxes.append((tuple(lo), tuple(a + length for a in lo)))
    return tuple(boxes)


def _uniform_seed(rng: random.Random, dim: int, count: int) -> _Boxes:
    """``count`` random solid boxes on the grid 1..4*count."""
    grid = 4 * count
    boxes = []
    for _ in range(count):
        pairs = []
        for _ in range(dim):
            a = rng.randint(1, grid - 1)
            pairs.append((a, rng.randint(a + 1, grid)))
        boxes.append(tuple(zip(*pairs)))
    return tuple(boxes)


def _mutate(
    rng: random.Random, boxes: _Boxes, dim: int, upper: int
) -> tuple[_Boxes, int, int] | None:
    """Grow, shrink or translate one box along one axis by one grid step.

    Returns the moved family, the index of the box it moved and the axis it
    moved on, or None when the moved box would leave (0, upper] or stop
    being solid.
    """
    bi = rng.randrange(len(boxes))
    ax = rng.randrange(dim)
    dlo, dhi = rng.choice(_MOVES)
    lo, hi = boxes[bi]
    a = lo[ax] + dlo
    b = hi[ax] + dhi
    if a <= 0 or a >= b or b > upper:
        return None
    moved = (lo[:ax] + (a,) + lo[ax + 1 :], hi[:ax] + (b,) + hi[ax + 1 :])
    return boxes[:bi] + (moved,) + boxes[bi + 1 :], bi, ax


class _Budget:
    """The number of scores charged so far, shared by restarts and nested searches."""

    def __init__(self) -> None:
        self.used = 0


def _translate(boxes: _Boxes, offset: int) -> _Boxes:
    return tuple(
        (tuple(v + offset for v in lo), tuple(v + offset for v in hi)) for lo, hi in boxes
    )


def _climb(
    rng: random.Random, start: _Boxes, dim: int, b: int, budget: _Budget, stop: int, memo: _Memo
) -> _Boxes | None:
    """Hill-climb from one start; returns a perfectly scoring family or None.

    A climb from m boxes charges one score for its start and one per
    proposal while ``budget.used`` is below ``stop``, at most 60m in all, and
    stops after 40m stalled proposals. The climb carries the current
    family's ``_axis_toggles`` and bitset set per axis. A proposal moved one
    box on one axis, so it copies that axis's toggles, moves the box's bit
    there (``_moved_toggles``) and sweeps that axis alone; it shares the
    other axes' sets.
    """
    nboxes = len(start)
    stop = min(stop, budget.used + 60 * nboxes)
    perfect = 1 << nboxes
    upper = max((v for _, hi in start for v in hi), default=1) + nboxes
    current = start
    toggles = [_axis_toggles(current, i) for i in range(dim)]
    sets = tuple(frozenset(_sweep(axis)[1]) for axis in toggles)
    current_score = _score(sets, nboxes, b, memo)
    budget.used += 1
    stall = 0
    while current_score != perfect and budget.used < stop and stall < 40 * nboxes:
        moved = _mutate(rng, current, dim, upper)
        if moved is None:
            stall += 1
            continue
        proposal, bi, ax = moved
        (lo, hi), (new_lo, new_hi) = current[bi], proposal[bi]
        ends = (lo[ax], hi[ax], new_lo[ax], new_hi[ax])
        moved_toggles = _moved_toggles(toggles[ax], 1 << bi, ends)
        proposal_sets = sets[:ax] + (frozenset(_sweep(moved_toggles)[1]),) + sets[ax + 1 :]
        proposal_score = _score(proposal_sets, nboxes, b, memo)
        budget.used += 1
        if proposal_score >= current_score:
            stall = stall + 1 if proposal_score == current_score else 0
            current, sets, current_score = proposal, proposal_sets, proposal_score
            toggles[ax] = moved_toggles
        else:
            stall += 1
    return current if current_score == perfect else None


def _search_impl(
    n: int, dim: int, rng: random.Random, budget: _Budget, stop: int, target: int, memo: _Memo
) -> _Boxes | None:
    """Restarted climbs for a family of ``target`` boxes while ``budget.used < stop``.

    A restart assembles clusters from nested n=2 searches, each charging at
    most 4,000 scores, or draws a seeded start; either ends in one climb.
    """
    groups = 1 << (n - 2)
    while budget.used < stop:
        if n >= 3 and rng.random() < 0.85:
            # Grouped restart: assemble well separated clusters, each found by
            # a nested n=2 search. A subset of the union splits per cluster,
            # so 2 points per cluster cover it and 2^(n-1) suffice globally.
            sizes = [target // groups + (1 if i < target % groups else 0) for i in range(groups)]
            candidate: _Boxes = ()
            for gi, size in enumerate(sizes):
                sub = _search_impl(2, dim, rng, budget, min(stop, budget.used + 4000), size, memo)
                if sub is None:
                    break
                candidate += _translate(sub, gi * 20 * target)
            if sub is None or budget.used >= stop:
                continue
        elif rng.random() < 0.5:
            candidate = _staircase_seed(rng, dim, target)
        else:
            candidate = _uniform_seed(rng, dim, target)
        found = _climb(rng, candidate, dim, 1 << (n - 1), budget, stop, memo)
        if found is not None:
            return found
    return None


def search(n: int, dim: int, seed: int, budget: int) -> BoxGadget | None:
    """Randomized-restart hill climbing for a fully verified gadget.

    Restarts draw either uniform random families, randomized staircase
    templates, or (for n >= 3) assemblies of separated clusters found by
    nested n=2 searches. The climb moves integer endpoints by one grid step
    and works on plain ``(lo, hi)`` integer tuples; each proposal is scored by
    the bitset kernel ``union_closure`` over its hit patterns, and only the
    winner is built, and validated, as a ``BoxGadget``. One two-level memo
    per call, shared by restarts and nested searches, keeps the score of each
    distinct (b, per-axis bitset sets) and of each distinct (b, pattern set):
    over the pinned n=3 searches (seeds 0, 3 and 6, budget 2500), 1,311 of
    2,629 scores skip the product, and 1,016 of the other 1,318 skip the
    closure.
    ``budget`` is one count of scores shared by every restart and nested
    search, memo hits included, so the memo changes no rng call and the
    result is deterministic for a fixed seed. A climb from m boxes charges
    at most 60m scores and stops after 40m stalled proposals; a nested
    cluster search charges at most 4,000. Returns the first gadget that
    scores every subset feasible, which is exactly what ``verify`` checks. A
    search that finds none charges exactly ``budget`` scores and returns
    None, so a zero budget always fails; a negative budget, or a target of
    more boxes than the 2^24 guard allows, raises ValueError before any search.
    """
    if n < 2 or dim < 2:
        raise ValueError("search requires n >= 2 and dim >= 2")
    if budget < 0:
        raise ValueError(f"search budget must be >= 0, got {budget}")
    # The target has at least 2^(n-2) boxes, so an n past the guard is refused
    # before that integer is built.
    if n - 2 >= VERIFY_GUARD.bit_length():
        raise ValueError(
            f"gadget search refused: n={n} asks for at least 2^{n - 2} boxes, "
            f"which exceeds the guard of {VERIFY_GUARD}"
        )
    target = nominal_box_count(n, dim)
    _check_guard(target, "gadget search")
    rng = random.Random(seed)
    found = _search_impl(n, dim, rng, _Budget(), budget, target, ({}, {}))
    if found is None:
        return None
    return BoxGadget(n=n, dim=dim, boxes=tuple(AxisBox(lo, hi) for lo, hi in found))
