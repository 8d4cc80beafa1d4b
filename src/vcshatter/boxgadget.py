"""Box-family certificates and their verification.

A gadget is a family B of axis-parallel boxes with strictly positive
coordinates such that for EVERY sub-family S of B there is a point set Q of
at most 2^(n-1) points avoiding every box of S while hitting every box of
B \\ S. The certificate is checked exhaustively over all 2^|B| sub-families;
witnesses come from a finite candidate menu (one generic point per cell of
the axis-parallel arrangement), and the hit-set decision is solved by exact
branch and bound, never by a heuristic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product
from typing import Iterable, Mapping, Sequence

from .geometry import AxisBox, Point, box_contains
from .setsystem import VERIFY_GUARD, subset_mask


@dataclass(frozen=True)
class BoxGadget:
    """A certificate: box family plus optional cached per-subset witnesses.

    ``witnesses`` maps a subset-of-boxes bitmask S to the cached point list
    avoiding S and hitting the complement. Cached entries are never trusted
    blindly; they are re-validated with raw containment tests before use.
    """

    n: int
    dim: int
    boxes: tuple[AxisBox, ...]
    witnesses: Mapping[int, tuple[Point, ...]] | None = field(default=None, compare=False)

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
        if self.witnesses is not None:
            full = 1 << len(self.boxes)
            for mask, pts in self.witnesses.items():
                if not 0 <= mask < full:
                    raise ValueError(f"witness subset mask {mask} out of range")
                if len(pts) > self.max_witness_size:
                    raise ValueError(
                        f"cached witness for subset {mask} exceeds {self.max_witness_size} points"
                    )
                for p in pts:
                    if p.dim != self.dim:
                        raise ValueError("witness point dimension mismatch")

    @property
    def max_witness_size(self) -> int:
        return 1 << (self.n - 1)

    def is_fully_witnessed(self) -> bool:
        """Whether a cached witness exists for every subset of boxes."""
        if self.witnesses is None:
            return False
        return len(self.witnesses) == 1 << len(self.boxes)


def nominal_box_count(n: int, dim: int) -> int:
    """floor(dim/2) * (n+3) * 2^(n-2), the target family size for the search."""
    if n < 2 or dim < 2:
        raise ValueError("requires n >= 2 and dim >= 2")
    return (dim // 2) * (n + 3) * (1 << (n - 2))


def candidate_points(gadget: BoxGadget) -> tuple[Point, ...]:
    """A finite point menu meeting every full-dimensional arrangement cell.

    Per coordinate: all box endpoints, sorted; the menu holds the midpoints of
    consecutive distinct values plus one value below the minimum and one above
    the maximum. Menus avoid box boundaries entirely, and the cross product
    covers every open cell, including the all-outside region.
    """
    axes: list[list[Fraction]] = []
    for i in range(gadget.dim):
        values = sorted({box.lo[i] for box in gadget.boxes} | {box.hi[i] for box in gadget.boxes})
        if not values:
            axes.append([Fraction(1)])
            continue
        menu = [values[0] / 2]
        menu.extend((a + b) / 2 for a, b in zip(values, values[1:]))
        menu.append(values[-1] + 1)
        axes.append(menu)
    return tuple(Point(coords) for coords in product(*axes))


def _hit_masks(gadget: BoxGadget, candidates: Sequence[Point]) -> list[int]:
    masks = []
    for q in candidates:
        m = 0
        for j, box in enumerate(gadget.boxes):
            if box_contains(box, q):
                m |= 1 << j
        masks.append(m)
    return masks


def _witness_is_valid(gadget: BoxGadget, smask: int, pts: Sequence[Point]) -> bool:
    """Re-check a cached witness with raw containment tests."""
    if len(pts) > gadget.max_witness_size or not pts:
        return False
    for p in pts:
        if p.dim != gadget.dim:
            return False
    for j, box in enumerate(gadget.boxes):
        hit = any(box_contains(box, p) for p in pts)
        if (smask >> j) & 1:
            if hit:
                return False
        elif not hit:
            return False
    return True


def _solve_cover(
    smask: int,
    budget: int,
    candidates: Sequence[Point],
    hit_masks: Sequence[int],
    nboxes: int,
) -> list[int] | None:
    """Indices of <= budget candidates avoiding smask and covering its complement."""
    full = (1 << nboxes) - 1
    targets = full & ~smask
    if targets == 0:
        first = next((i for i, hm in enumerate(hit_masks) if hm & smask == 0), None)
        return [first] if first is not None else None
    # One representative per distinct usable hit pattern, then dominance
    # pruning: a pattern is dropped when another usable pattern covers a
    # strict superset of boxes.
    by_mask: dict[int, int] = {}
    for i, hm in enumerate(hit_masks):
        if hm & smask == 0 and hm != 0 and hm not in by_mask:
            by_mask[hm] = i
    usable = sorted(by_mask.values(), key=lambda i: (-bin(hit_masks[i]).count("1"), i))
    kept: list[int] = []
    for i in usable:
        hm = hit_masks[i]
        if any(hm & hit_masks[j] == hm for j in kept):
            continue
        kept.append(i)
    options_per_box: list[list[int]] = [[] for _ in range(nboxes)]
    for i in kept:
        hm = hit_masks[i]
        for j in range(nboxes):
            if (hm >> j) & 1:
                options_per_box[j].append(i)
    for j in range(nboxes):
        if (targets >> j) & 1 and not options_per_box[j]:
            return None

    best_hit = max(bin(hit_masks[i]).count("1") for i in kept)

    def dfs(left: int, chosen: list[int]) -> list[int] | None:
        if left == 0:
            return chosen
        remaining = budget - len(chosen)
        if remaining == 0:
            return None
        need = bin(left).count("1")
        if need > remaining * best_hit:
            return None
        # branch on the uncovered box with the fewest usable candidates
        pick = -1
        pick_opts: list[int] = []
        for j in range(nboxes):
            if (left >> j) & 1:
                opts = [i for i in options_per_box[j] if hit_masks[i] & left]
                if pick < 0 or len(opts) < len(pick_opts):
                    pick, pick_opts = j, opts
                    if len(opts) <= 1:
                        break
        if not pick_opts:
            return None
        pick_opts.sort(key=lambda i: (-bin(hit_masks[i] & left).count("1"), i))
        for i in pick_opts:
            res = dfs(left & ~hit_masks[i], chosen + [i])
            if res is not None:
                return res
        return None

    return dfs(targets, [])


def witness_for(gadget: BoxGadget, subset: Iterable[int] | int) -> tuple[Point, ...] | None:
    """A point set avoiding the boxes of ``subset`` and hitting all others.

    Returns None when no such set of at most 2^(n-1) candidate points exists;
    infeasibility is a value, not an error. Valid cached witnesses are reused.
    """
    smask = subset_mask(len(gadget.boxes), subset)
    if gadget.witnesses is not None and smask in gadget.witnesses:
        cached = tuple(gadget.witnesses[smask])
        if _witness_is_valid(gadget, smask, cached):
            return cached
    candidates = candidate_points(gadget)
    hits = _hit_masks(gadget, candidates)
    chosen = _solve_cover(smask, gadget.max_witness_size, candidates, hits, len(gadget.boxes))
    if chosen is None:
        return None
    return tuple(candidates[i] for i in sorted(chosen))


@dataclass(frozen=True)
class GadgetReport:
    ok: bool
    checked: int
    failing_subsets: tuple[tuple[int, ...], ...]


def verify(gadget: BoxGadget) -> tuple[GadgetReport, BoxGadget]:
    """Run witness_for over every subset of boxes, in ascending bitmask order.

    Returns the report and, on success, a copy of the gadget with its witness
    cache fully populated. Refuses families larger than the 2^24 guard.
    """
    nboxes = len(gadget.boxes)
    if nboxes > VERIFY_GUARD:
        raise ValueError(
            f"exhaustive verification refused: {nboxes} boxes exceeds the guard of {VERIFY_GUARD}"
        )
    candidates = candidate_points(gadget)
    hits = _hit_masks(gadget, candidates)
    failing: list[tuple[int, ...]] = []
    cache: dict[int, tuple[Point, ...]] = {}
    for smask in range(1 << nboxes):
        cached = None
        if gadget.witnesses is not None and smask in gadget.witnesses:
            candidate_cached = tuple(gadget.witnesses[smask])
            if _witness_is_valid(gadget, smask, candidate_cached):
                cached = candidate_cached
        if cached is None:
            chosen = _solve_cover(smask, gadget.max_witness_size, candidates, hits, nboxes)
            cached = tuple(candidates[i] for i in sorted(chosen)) if chosen is not None else None
        if cached is None:
            failing.append(tuple(i for i in range(nboxes) if (smask >> i) & 1))
        else:
            cache[smask] = cached
    ok = not failing
    report = GadgetReport(ok=ok, checked=1 << nboxes, failing_subsets=tuple(failing))
    return report, (replace(gadget, witnesses=cache) if ok else gadget)


# ---------------------------------------------------------------------------
# randomized search
# ---------------------------------------------------------------------------


def _score(gadget: BoxGadget, max_failures: int | None = None) -> int | None:
    """Number of feasible subsets; the target is 2^|boxes|.

    With ``max_failures`` set, returns None as soon as more subsets fail than
    allowed; hill climbing uses this to reject bad proposals early without
    changing which proposals are accepted.
    """
    candidates = candidate_points(gadget)
    hits = _hit_masks(gadget, candidates)
    nboxes = len(gadget.boxes)
    good = 0
    failures = 0
    for smask in range(1 << nboxes):
        if _solve_cover(smask, gadget.max_witness_size, candidates, hits, nboxes) is not None:
            good += 1
        else:
            failures += 1
            if max_failures is not None and failures > max_failures:
                return None
    return good


def _staircase_seed(rng: random.Random, n: int, dim: int, count: int) -> BoxGadget:
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
        hi = []
        for ax in range(dim):
            s = axes_slots[ax][i] + 1
            jitter = rng.randrange(-1, 2)
            start = max(1, 2 * s + jitter)
            lo.append(Fraction(start))
            hi.append(Fraction(start + length))
        boxes.append(AxisBox(tuple(lo), tuple(hi)))
    return BoxGadget(n=n, dim=dim, boxes=tuple(boxes))


def _uniform_seed(rng: random.Random, n: int, dim: int, count: int, grid: int) -> BoxGadget:
    boxes = []
    for _ in range(count):
        lo = []
        hi = []
        for _ in range(dim):
            a = rng.randint(1, grid - 1)
            b = rng.randint(a + 1, grid)
            lo.append(Fraction(a))
            hi.append(Fraction(b))
        boxes.append(AxisBox(tuple(lo), tuple(hi)))
    return BoxGadget(n=n, dim=dim, boxes=tuple(boxes))


def _mutate(rng: random.Random, gadget: BoxGadget, upper: Fraction) -> BoxGadget | None:
    """Grow, shrink or translate one box along one axis by one grid step."""
    boxes = list(gadget.boxes)
    bi = rng.randrange(len(boxes))
    ax = rng.randrange(gadget.dim)
    move = rng.choice(("lo-", "lo+", "hi-", "hi+", "shift-", "shift+"))
    lo = list(boxes[bi].lo)
    hi = list(boxes[bi].hi)
    step = Fraction(1)
    if move == "lo-":
        lo[ax] -= step
    elif move == "lo+":
        lo[ax] += step
    elif move == "hi-":
        hi[ax] -= step
    elif move == "hi+":
        hi[ax] += step
    elif move == "shift-":
        lo[ax] -= step
        hi[ax] -= step
    else:
        lo[ax] += step
        hi[ax] += step
    if lo[ax] <= 0 or lo[ax] >= hi[ax] or hi[ax] > upper:
        return None
    boxes[bi] = AxisBox(tuple(lo), tuple(hi))
    return BoxGadget(n=gadget.n, dim=gadget.dim, boxes=tuple(boxes))


class _Budget:
    """Shared evaluation counter across restarts and nested group searches."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def left(self) -> int:
        return self.limit - self.used

    def charge(self) -> None:
        self.used += 1


def _translate(gadget: BoxGadget, offset: Fraction) -> tuple[AxisBox, ...]:
    return tuple(
        AxisBox(tuple(v + offset for v in box.lo), tuple(v + offset for v in box.hi))
        for box in gadget.boxes
    )


def _climb(
    rng: random.Random,
    start: BoxGadget,
    budget: _Budget,
    cap: int,
    stall_limit: int,
) -> BoxGadget | None:
    """Hill-climb from one start; returns a perfectly scoring gadget or None."""
    perfect = 1 << len(start.boxes)
    upper = max((v for box in start.boxes for v in box.hi), default=Fraction(1)) + len(start.boxes)
    current = start
    current_score = _score(current)
    budget.charge()
    spent = 1
    stall = 0
    while current_score != perfect and spent < cap and budget.left() > 0 and stall < stall_limit:
        proposal = _mutate(rng, current, upper)
        if proposal is None:
            stall += 1
            continue
        proposal_score = _score(proposal, max_failures=perfect - current_score)
        budget.charge()
        spent += 1
        if proposal_score is not None and proposal_score >= current_score:
            stall = stall + 1 if proposal_score == current_score else 0
            current, current_score = proposal, proposal_score
        else:
            stall += 1
    return current if current_score == perfect else None


def _search_impl(
    n: int,
    dim: int,
    rng: random.Random,
    budget: _Budget,
    cap: int,
    target: int,
    grid_size: int,
) -> BoxGadget | None:
    spent_before = budget.used
    stall_limit = 40 * target
    groups = 1 << (n - 2)
    while budget.left() > 0 and budget.used - spent_before < cap:
        remaining_cap = cap - (budget.used - spent_before)
        if n >= 3 and groups <= target and rng.random() < 0.85:
            # Grouped restart: assemble well separated clusters, each found by
            # a nested n=2 search. A subset of the union splits per cluster,
            # so 2 points per cluster cover it and 2^(n-1) suffice globally.
            sizes = [
                target // groups + (1 if i < target % groups else 0) for i in range(groups)
            ]
            boxes: list[AxisBox] = []
            offset = Fraction(20 * target)
            ok = True
            for gi, size in enumerate(sizes):
                slice_cap = min(4000, remaining_cap)
                sub = _search_impl(
                    2, dim, rng, budget, slice_cap, size, 4 * size
                )
                remaining_cap = cap - (budget.used - spent_before)
                if sub is None:
                    ok = False
                    break
                boxes.extend(_translate(sub, gi * offset))
            if not ok or remaining_cap <= 0:
                continue
            candidate = BoxGadget(n=n, dim=dim, boxes=tuple(boxes))
        else:
            candidate = (
                _staircase_seed(rng, n, dim, target)
                if rng.random() < 0.5
                else _uniform_seed(rng, n, dim, target, grid_size)
            )
        restart_cap = min(remaining_cap, 60 * target)
        found = _climb(rng, candidate, budget, restart_cap, stall_limit)
        if found is not None:
            report, witnessed = verify(found)
            if report.ok:
                return witnessed
    return None


def search(
    n: int,
    dim: int,
    seed: int,
    budget: int,
    count: int | None = None,
    grid: int | None = None,
) -> BoxGadget | None:
    """Randomized-restart hill climbing for a fully verified gadget.

    Restarts draw either uniform random families, randomized staircase
    templates, or (for n >= 3) assemblies of separated clusters found by
    nested n=2 searches. ``budget`` caps the total number of scored candidate
    families across all restarts and nested searches; the result is
    deterministic for a fixed seed. Returns the first gadget that verifies
    exhaustively (with its witness cache attached), or None at budget
    exhaustion. A zero budget always fails.
    """
    if n < 2 or dim < 2:
        raise ValueError("search requires n >= 2 and dim >= 2")
    target = count if count is not None else nominal_box_count(n, dim)
    if target < 1:
        raise ValueError("box count must be positive")
    grid_size = grid if grid is not None else 4 * target
    rng = random.Random(seed)
    state = _Budget(budget)
    return _search_impl(n, dim, rng, state, budget, target, grid_size)
