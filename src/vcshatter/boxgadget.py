"""Box-family certificates and their verification.

A gadget is a family B of axis-parallel boxes with strictly positive
coordinates such that for EVERY sub-family S of B there is a point set Q of
at most 2^(n-1) points avoiding every box of S while hitting every box of
B \\ S. The certificate is checked exhaustively over all 2^|B| sub-families.
Witnesses come from a finite candidate menu (one generic point per cell of
the axis-parallel arrangement): the product of per-axis menus of midpoints
between consecutive endpoints. Hit patterns are built per axis, as one
bitset of boxes per menu value from an XOR sweep over the endpoint ranks,
and combined by a product over the distinct bitsets that keeps only the
distinct patterns. A gadget's menu keeps, with each pattern, the per-axis
menu digits of the first menu point that has it; the search's score needs
the pattern set alone and takes it from a plain set product. Q avoids S
exactly when every hit pattern of Q lies inside B \\ S, so S has a witness
exactly when B \\ S is a union of at most 2^(n-1) hit patterns: the gadget
is a certificate when the 2^(n-1)-fold union of its hit-pattern system is
the whole power set. ``verify`` and the search's score read that closure as
one 2^|B|-bit integer from ``setsystem.union_closure``, the kernel of
``k_fold_union``; ``witness_for`` reads a witness from the same closure
kept as back-pointer tables, one per reached union (``_unions``). The
search climbs on plain integer boxes and carries the current family's
per-axis bitsets, its columns, so a proposal re-sweeps only the one axis it
moved. Its scores are memoized by columns, which skips the product, and
then by pattern set, which skips the closure. It builds a ``BoxGadget``
only for the family it returns. A gadget counts as verified when
``verify(gadget)`` reports ok.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product
from operator import xor
from typing import Iterable, Sequence

from .geometry import AxisBox, Point
from .setsystem import VERIFY_GUARD, _check_guard, mask_to_indices, subset_mask, union_closure


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
        return 1 << (self.n - 1)

    @cached_property
    def _menu(self) -> tuple[tuple[list[Fraction], ...], dict[int, tuple[int, ...]]]:
        """The sorted endpoints per axis and the distinct hit patterns, computed on first use."""
        return _hit_masks([(box.lo, box.hi) for box in self.boxes], self.dim)

    @cached_property
    def _pattern_points(self) -> tuple[Point, ...]:
        """The menu point of each distinct hit pattern, in pattern order, computed on first use."""
        axes, patterns = self._menu
        return tuple(Point(tuple(map(_menu_value, axes, m))) for m in patterns.values())

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


def candidate_points(gadget: BoxGadget) -> tuple[Point, ...]:
    """A finite point menu meeting every full-dimensional arrangement cell.

    Per coordinate: all box endpoints, sorted; the menu holds the midpoints of
    consecutive distinct values plus one value below the minimum and one above
    the maximum. Menus avoid box boundaries entirely, and the cross product
    covers every open cell, including the all-outside region. The entries
    follow the product order of the per-axis menu digits, so digits
    (m_1, ..., m_dim) of ``_hit_masks`` name the entry with menu value m_i
    on axis i.
    """
    axes, _ = gadget._menu
    menus = [[_menu_value(values, m) for m in range(len(values) + 1)] for values in axes]
    return tuple(Point(coords) for coords in product(*menus))


def _axis_bitsets(boxes: Sequence[tuple[Sequence, Sequence]], i: int) -> tuple[list, list[int]]:
    """The sorted distinct endpoints of axis i, and per menu value of the axis
    the bitset of the boxes whose interval on that axis contains it.

    Menu value m lies in a closed interval with endpoint ranks a and b
    exactly when a < m <= b, so box j's bit switches on at m = a + 1 and off
    at m = b + 1. Each distinct endpoint holds the XOR of the bits it
    toggles, and one XOR sweep over them in rank order gives every menu
    value's bitset, with no comparison of endpoint values beyond the sort.
    """
    toggles: dict = {}
    for j, (lo, hi) in enumerate(boxes):
        bit = 1 << j
        toggles[lo[i]] = toggles.get(lo[i], 0) ^ bit
        toggles[hi[i]] = toggles.get(hi[i], 0) ^ bit
    values = sorted(toggles)
    # the endpoint of rank r toggles menu value r + 1; menu value 0 is below every box
    return values, [0, *accumulate(map(toggles.__getitem__, values), xor)]


def _hit_masks(
    boxes: Sequence[tuple[Sequence, Sequence]], dim: int
) -> tuple[tuple[list, ...], dict[int, tuple[int, ...]]]:
    """Per axis, the sorted distinct endpoints; and each distinct hit pattern
    of the menu with the menu digits of the first point of ``candidate_points``
    that has it, in that point order.

    ``boxes`` holds one ``(lo, hi)`` pair per box, of any ordered values:
    ``BoxGadget`` passes its ``Fraction`` boxes. Each axis gives one bitset
    of boxes per menu value (``_axis_bitsets``), with no point-in-box test. A
    point's pattern is the AND of its axes' bitsets; the product is taken
    axis by axis over the distinct bitsets only, each represented by its
    first menu value. Visiting the partial patterns in lexicographic order of
    their digits, which is the point order, keeps for every pattern the
    digits of its first point. Only ``BoxGadget._menu`` needs those digits;
    the search's score takes the same pattern set from ``_product``.
    """
    axes: list[list] = []
    patterns: dict[int, tuple[int, ...]] = {(1 << len(boxes)) - 1: ()}
    for i in range(dim):
        values, bits = _axis_bitsets(boxes, i)
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


# Per axis, the tuple of menu-value bitsets of ``_axis_bitsets``: a family's columns.
_Columns = tuple[tuple[int, ...], ...]


def _columns(boxes: Sequence[tuple[Sequence, Sequence]], dim: int) -> _Columns:
    return tuple(tuple(_axis_bitsets(boxes, i)[1]) for i in range(dim))


def _product(columns: _Columns, nboxes: int) -> frozenset[int]:
    """The distinct ANDs of one bitset per column: the hit patterns, with no menu digits."""
    patterns = {(1 << nboxes) - 1}
    for column in columns:
        bits = set(column)
        patterns = {p & a for p in patterns for a in bits}
    return frozenset(patterns)


def _patterns(boxes: Sequence[tuple[Sequence, Sequence]], dim: int) -> frozenset[int]:
    """The distinct hit patterns of the menu, the keys of ``_hit_masks``,
    from the product of the family's columns."""
    return _product(_columns(boxes, dim), len(boxes))


def _unions(gadget: BoxGadget) -> tuple[array, array]:
    """The b-fold union closure of the menu's hit patterns, b = 2^(n-1).

    A subset S has a witness of at most b points exactly when the complement
    of S is the union of at most b hit patterns: every point avoids S, so its
    pattern lies inside the complement. Reached unions grow fold by fold from
    the distinct patterns of ``_menu``, numbered in the order of their first
    menu points. Both tables are indexed by union mask: ``pick[v]`` is the
    number of the pattern added last (-1 where v is unreached) and
    ``prev[v]`` the union before it (-1 for none, so -1 names the witness
    tree's root, the witness of no pattern). Pattern numbers stay below
    2^|B|, so they fit the tables. A union is recorded at the first fold
    that reaches it, so walking the back-pointers gives a fewest-point
    witness. A union u is extended only by patterns numbered above
    ``pick[u]``, with the same tables as a scan of every pattern: the
    frontier is visited in lexicographic order of paths, so each path is the
    lexicographically first combination of the fewest pattern numbers with
    its union, which is strictly increasing; the pairs skipped never write
    an entry. Only ``witness_for`` needs the tables; ``verify`` and the
    search read the same set of unions from ``union_closure``.
    """
    nboxes = len(gadget.boxes)
    _check_guard(nboxes, "exhaustive verification")
    patterns = list(gadget._menu[1])
    pick = array("i", [-1]) * (1 << nboxes)
    prev = array("i", [-1]) * (1 << nboxes)
    for i, p in enumerate(patterns):
        pick[p] = i
    frontier = patterns
    for _ in range(gadget.max_witness_size - 1):
        reached = []
        for u in frontier:
            for i in range(pick[u] + 1, len(patterns)):
                v = u | patterns[i]
                if pick[v] < 0:
                    pick[v] = i
                    prev[v] = u
                    reached.append(v)
        frontier = reached
    return pick, prev


def _witness_step(gadget: BoxGadget, union: int) -> tuple[int, int] | None:
    """The parent of ``union`` on the witness tree and the pattern number added to it.

    The parent is the union before the last fold (-1 for a single pattern);
    None when no witness of at most b patterns has this union. Every
    witness is its parent's plus one pattern, numbered above all of the
    parent's (see ``_unions``).
    """
    pick, prev = gadget._closure
    if pick[union] < 0:
        return None
    return prev[union], pick[union]


def _witness_patterns(gadget: BoxGadget, subset: Iterable[int] | int) -> list[int] | None:
    """The pattern numbers of ``witness_for``'s witness, ascending; None when it has none.

    They are read up the witness tree, one per fold.
    """
    nboxes = len(gadget.boxes)
    union = ((1 << nboxes) - 1) & ~subset_mask(nboxes, subset)
    chosen = []
    while union >= 0:
        step = _witness_step(gadget, union)
        if step is None:
            return None
        union, number = step
        chosen.append(number)
    return chosen[::-1]


def witness_for(gadget: BoxGadget, subset: Iterable[int] | int) -> tuple[Point, ...] | None:
    """A fewest-point set avoiding the boxes of ``subset`` and hitting all others.

    Returns None when no such set of at most 2^(n-1) candidate points exists;
    infeasibility is a value, not an error. Refuses families larger than the
    2^24 guard.
    """
    numbers = _witness_patterns(gadget, subset)
    if numbers is None:
        return None
    points = gadget._pattern_points
    return tuple(points[i] for i in numbers)


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
    _check_guard(nboxes, "exhaustive verification")  # before the menu is built
    _, patterns = gadget._menu
    reached = union_closure(patterns, nboxes, gadget.max_witness_size)
    # digit s of the 2^|B|-digit binary string is bit (2^|B| - 1) ^ s: the
    # union of the boxes outside subset s
    digits = format(reached, f"0{1 << nboxes}b")
    failing = []
    smask = digits.find("0")
    while smask >= 0:
        failing.append(tuple(mask_to_indices(smask)))
        smask = digits.find("0", smask + 1)
    return GadgetReport(ok=not failing, checked=1 << nboxes, failing_subsets=tuple(failing)), gadget


# ---------------------------------------------------------------------------
# randomized search
# ---------------------------------------------------------------------------

# A family of integer boxes, one (lo, hi) pair per box: the climb's state.
_Boxes = tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

# (lo step, hi step) of the moves lo-, lo+, hi-, hi+, shift- and shift+.
_MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (1, 1))


def _moved_columns(columns: _Columns, boxes: _Boxes, ax: int) -> _Columns:
    """The columns of ``boxes``, given those of a family that differs from it on axis ax only."""
    return columns[:ax] + (tuple(_axis_bitsets(boxes, ax)[1]),) + columns[ax + 1 :]


# A search's scores in two levels: by (b, columns), which skips the product,
# and by (b, pattern set), which skips the closure. The closure's popcount
# depends on b and the pattern set alone, and the columns fix the pattern set.
_Memo = tuple[dict[tuple[int, _Columns], int], dict[tuple[int, frozenset[int]], int]]


def _score(columns: _Columns, nboxes: int, b: int, memo: _Memo) -> int:
    """Number of subsets of a family of ``nboxes`` boxes with these columns
    that have a witness of at most b points; 2^nboxes is perfect.

    It is the popcount of the b-fold ``union_closure`` of the hit patterns.
    The product runs once per distinct ``(b, columns)`` and the closure once
    per distinct ``(b, patterns)`` of ``memo``.
    """
    by_columns, by_patterns = memo
    score = by_columns.get((b, columns))
    if score is None:
        patterns = _product(columns, nboxes)
        score = by_patterns.get((b, patterns))
        if score is None:
            score = by_patterns[b, patterns] = union_closure(patterns, nboxes, b).bit_count()
        by_columns[b, columns] = score
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


def _mutate(rng: random.Random, boxes: _Boxes, dim: int, upper: int) -> tuple[_Boxes, int] | None:
    """Grow, shrink or translate one box along one axis by one grid step.

    Returns the moved family and the axis it moved on, or None when the
    moved box would leave (0, upper] or stop being solid.
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
    return boxes[:bi] + (moved,) + boxes[bi + 1 :], ax


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
    stops after 40m stalled proposals. A proposal moved one box on one axis,
    so it re-sweeps that axis of the carried columns and shares the others.
    """
    nboxes = len(start)
    stop = min(stop, budget.used + 60 * nboxes)
    perfect = 1 << nboxes
    upper = max((v for _, hi in start for v in hi), default=1) + nboxes
    current = start
    columns = _columns(current, dim)
    current_score = _score(columns, nboxes, b, memo)
    budget.used += 1
    stall = 0
    while current_score != perfect and budget.used < stop and stall < 40 * nboxes:
        moved = _mutate(rng, current, dim, upper)
        if moved is None:
            stall += 1
            continue
        proposal, ax = moved
        proposal_columns = _moved_columns(columns, proposal, ax)
        proposal_score = _score(proposal_columns, nboxes, b, memo)
        budget.used += 1
        if proposal_score >= current_score:
            stall = stall + 1 if proposal_score == current_score else 0
            current, columns, current_score = proposal, proposal_columns, proposal_score
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
    distinct (b, columns) and of each distinct (b, pattern set): over the
    pinned n=3 searches (seeds 0, 3 and 6, budget 2500), 1,119 of 2,629
    scores skip the product and 2,327 skip the closure.
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
