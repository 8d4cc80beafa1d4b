from __future__ import annotations

import hashlib
import random
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    _witness_patterns,
    box_contains,
    brute_cover_feasible,
    finer_grid_points,
    full_scan_unions,
    sorted_tail_unions,
)
from vcshatter import boxgadget
from vcshatter.boxgadget import (
    BoxGadget,
    _axis_toggles,
    _hit_masks,
    _mutate,
    _score,
    _sweep,
    nominal_box_count,
    search,
    verify,
    witness_for,
)
from vcshatter.cli import BUNDLED_GADGET, BUNDLED_INSTANCE, _asset_path
from vcshatter.geometry import AxisBox, Point
from vcshatter.jsonio import (
    dump_json,
    gadget_from_dict,
    gadget_to_dict,
    instance_from_dict,
    instance_to_dict,
    load_json,
)
from vcshatter.setsystem import mask_to_indices, union_closure

F = Fraction
PINNED_GADGETS = Path(__file__).resolve().parents[1] / "perfbench" / "gadgets"


def make_gadget(boxes, n=2, dim=2) -> BoxGadget:
    return BoxGadget(n=n, dim=dim, boxes=tuple(AxisBox(lo, hi) for lo, hi in boxes))


def int_boxes(g: BoxGadget):
    """The boxes of an integer gadget as the search's (lo, hi) integer tuples."""
    assert all(v.denominator == 1 for box in g.boxes for v in (*box.lo, *box.hi))
    return tuple(
        (tuple(int(v) for v in box.lo), tuple(int(v) for v in box.hi)) for box in g.boxes
    )


def mutants(g: BoxGadget):
    """One proposal of the climb from ``g`` for each of the seeds 0-3, as integer boxes."""
    start = int_boxes(g)
    upper = max(v for _, hi in start for v in hi) + len(start)
    out = []
    for seed in range(4):
        rng = random.Random(seed)
        moved = None
        while moved is None:
            moved = _mutate(rng, start, g.dim, upper)
        out.append(moved[0])
    return out


def first_combinations(patterns: list[int], b: int) -> dict[int, list[int]]:
    """For each union of at most b patterns, the first combination of the
    fewest pattern numbers that gives it, in ``itertools.combinations`` order."""
    first: dict[int, list[int]] = {}
    for size in range(1, b + 1):
        for combo in combinations(range(len(patterns)), size):
            union = 0
            for i in combo:
                union |= patterns[i]
            first.setdefault(union, list(combo))
    return first


def reached_from_tables(g: BoxGadget) -> int:
    """The reached unions of the back-pointer tables, as bits of one int."""
    pick, _ = g._closure
    return sum(1 << v for v in range(len(pick)) if pick[v] >= 0)


# Few distinct coordinates, so boxes often share faces and touch at corners.
COORDS = (F(1), F(3, 2), F(2), F(3), F(4), F(6))


@st.composite
def box_families(draw):
    """Gadgets in dims 2-4 with 1-8 boxes, including nested and duplicate boxes."""
    dim = draw(st.integers(2, 4))
    boxes: list[AxisBox] = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("fresh", "nested", "duplicate"))) if boxes else "fresh"
        if kind == "duplicate":
            boxes.append(draw(st.sampled_from(boxes)))
            continue
        outer = draw(st.sampled_from(boxes)) if kind == "nested" else None
        lo, hi = [], []
        for i in range(dim):
            pool = [c for c in COORDS if outer is None or outer.lo[i] <= c <= outer.hi[i]]
            a, b = sorted(draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True)))
            lo.append(a)
            hi.append(b)
        boxes.append(AxisBox(tuple(lo), tuple(hi)))
    return BoxGadget(n=draw(st.integers(2, 3)), dim=dim, boxes=tuple(boxes))


def midpoint_axes(g: BoxGadget) -> list[list[Fraction]]:
    """The per-axis menus as first defined: the sorted endpoints of an axis
    give one value below them, the midpoints between neighbours and one above."""
    axes = []
    for i in range(g.dim):
        values = sorted({box.lo[i] for box in g.boxes} | {box.hi[i] for box in g.boxes})
        mids = [(a + b) / 2 for a, b in zip(values, values[1:])]
        axes.append([values[0] / 2, *mids, values[-1] + 1])
    return axes


def midpoint_menu(g: BoxGadget) -> list[tuple[Fraction, ...]]:
    """The candidate menu as first defined: the product of ``midpoint_axes``."""
    return list(product(*midpoint_axes(g)))


class TestConstruction:
    def test_rejects_small_parameters(self):
        with pytest.raises(ValueError):
            BoxGadget(n=1, dim=2, boxes=())
        with pytest.raises(ValueError):
            BoxGadget(n=2, dim=1, boxes=())

    def test_rejects_nonpositive_boxes(self):
        with pytest.raises(ValueError):
            make_gadget([((0, 1), (2, 2))])

    def test_rejects_flat_boxes(self):
        with pytest.raises(ValueError):
            make_gadget([((1, 1), (1, 2))])

    def test_nominal_count(self):
        assert nominal_box_count(2, 2) == 5
        assert nominal_box_count(3, 2) == 12
        assert nominal_box_count(2, 4) == 10


def axis_sets(boxes, dim: int) -> tuple[frozenset[int], ...]:
    """A family's per-axis bitset sets, the search's score key, from a fresh sweep."""
    return tuple(frozenset(_sweep(_axis_toggles(boxes, i))[1]) for i in range(dim))


def patterns_of(boxes, dim: int) -> frozenset[int]:
    """The search's pattern set of a family: the product that keys ``_score``'s second level."""
    memo: tuple[dict, dict] = ({}, {})
    _score(axis_sets(boxes, dim), len(boxes), 1, memo)
    [(_, patterns)] = memo[1]
    return patterns


class TestCandidatePoints:
    def test_single_box_menu(self):
        g = make_gadget([((1, 1), (2, 2))])
        menu = midpoint_menu(g)
        assert len(menu) == 9  # below/inside/above per axis
        assert list(g._patterns[1].items()) == [(0b0, (0, 0)), (0b1, (1, 1))]
        # the pattern points: the menu's first point outside, then its one point inside
        assert [q.coords for q in g._pattern_points] == [menu[0], menu[4]]
        assert menu[0] == (F(1, 2),) * 2 and menu[4] == (F(3, 2),) * 2

    def test_zero_boxes_single_candidate(self):
        # with no boxes the menu is one point, the witness of every (empty) subset
        g = BoxGadget(n=2, dim=2, boxes=())
        assert g._patterns[1] == {0: (0, 0)}
        assert witness_for(g, []) == (Point.of(1, 1),)

    @given(box_families())
    @settings(max_examples=80, deadline=None)
    def test_bitset_patterns_match_fraction_predicate(self, g):
        # the per-axis bitsets give exactly the distinct box_contains masks of
        # the menu, each with the menu digits of the first point that has it,
        # in point order; the pattern points are those first points
        digits = product(*(range(len(values)) for values in g._menu))
        lowest: dict[int, tuple[int, ...]] = {}
        first: dict[int, tuple[Fraction, ...]] = {}
        for coords, m in zip(midpoint_menu(g), digits, strict=True):
            q = Point(coords)
            mask = sum(1 << j for j, box in enumerate(g.boxes) if box_contains(box, q))
            lowest.setdefault(mask, m)
            first.setdefault(mask, coords)
        patterns = g._patterns[1]
        assert list(patterns.items()) == list(lowest.items())
        assert [q.coords for q in g._pattern_points] == list(first.values())
        assert patterns_of([(box.lo, box.hi) for box in g.boxes], g.dim) == set(lowest)

    def test_menu_values_are_the_midpoint_menu(self, bundled_gadget, n3_gadget):
        pinned = [gadget_from_dict(load_json(p)) for p in sorted(PINNED_GADGETS.glob("*.json"))]
        assert len(pinned) == 3
        for g in (bundled_gadget, n3_gadget, *pinned):
            assert list(g._menu) == midpoint_axes(g)

    def test_every_box_and_the_outside_get_candidates(self, bundled_gadget):
        points = bundled_gadget._pattern_points
        for box in bundled_gadget.boxes:
            assert any(box_contains(box, q) for q in points)
        assert any(
            not any(box_contains(box, q) for box in bundled_gadget.boxes) for q in points
        )


class TestWitnessFor:
    def test_all_boxes_excluded(self, bundled_gadget):
        full = list(range(len(bundled_gadget.boxes)))
        pts = witness_for(bundled_gadget, full)
        assert pts is not None and len(pts) == 1
        assert not any(box_contains(box, pts[0]) for box in bundled_gadget.boxes)

    def test_single_box_hit(self):
        g = make_gadget([((1, 1), (2, 2))])
        pts = witness_for(g, [])
        assert pts is not None and len(pts) == 1
        assert box_contains(g.boxes[0], pts[0])

    def test_bundled_every_subset_small(self, bundled_gadget):
        for smask in range(1 << len(bundled_gadget.boxes)):
            pts = witness_for(bundled_gadget, smask)
            assert pts is not None
            assert len(pts) <= bundled_gadget.max_witness_size

    def test_monotone_avoidance(self, bundled_gadget):
        # a witness for a larger excluded family also avoids any smaller one
        big = [0, 2, 3]
        small = [0, 3]
        pts = witness_for(bundled_gadget, big)
        assert pts is not None
        for i in small:
            assert not any(box_contains(bundled_gadget.boxes[i], q) for q in pts)

    def test_bad_index(self, bundled_gadget):
        with pytest.raises(ValueError):
            witness_for(bundled_gadget, [99])

    def test_matches_finer_grid_brute_force(self, bundled_gadget):
        # candidate menu completeness: the union closure over midpoint candidates
        # agrees with exhaustive search over a strictly denser grid
        families = [
            [((1, 1), (4, 4)), ((2, 2), (6, 3))],
            [((1, 1), (2, 2)), ((3, 3), (4, 4))],
            [((1, 1), (6, 6)), ((2, 2), (3, 3)), ((4, 4), (5, 5))],
            [((1, 2), (5, 6)), ((2, 1), (6, 5)), ((3, 3), (4, 4))],
            # pairwise disjoint: hitting all three takes 3 > 2^(n-1) points
            [((1, 1), (2, 2)), ((3, 3), (4, 4)), ((5, 5), (6, 6))],
        ]
        gadgets = [make_gadget(fam) for fam in families]
        assert witness_for(gadgets[4], []) is None
        start = int_boxes(bundled_gadget)
        moved = mutants(bundled_gadget)
        # the same four proposals the climb made when it moved Fraction boxes
        assert [[(i, box) for i, box in enumerate(m) if box != start[i]] for m in moved] == [
            [(3, ((6, 2), (14, 12)))],
            [(1, ((9, 9), (17, 18)))],
            [(0, ((7, 8), (17, 17)))],
            [(1, ((9, 9), (17, 18)))],
        ]
        gadgets.extend(make_gadget(m) for m in moved)
        for g in gadgets:
            grid = finer_grid_points(g.boxes, g.dim)
            for smask in range(1 << len(g.boxes)):
                mine = witness_for(g, smask) is not None
                brute = brute_cover_feasible(g.boxes, smask, g.max_witness_size, grid)
                assert mine == brute, (g.boxes, smask)

    def test_witnesses_have_fewest_points(self, bundled_gadget):
        g = bundled_gadget
        grid = finer_grid_points(g.boxes, g.dim)
        for smask in range(1 << len(g.boxes)):
            m = len(witness_for(g, smask))
            if m > 1:
                assert not brute_cover_feasible(g.boxes, smask, m - 1, grid), smask

    def test_menu_indices_past_32_bits(self):
        # 12 nested boxes in dim 8: the menu has 25^8 points, and the
        # innermost cell's mixed-radix index would not fit a 32-bit entry
        boxes = [(tuple([i + 1] * 8), tuple([30 - i] * 8)) for i in range(12)]
        g = make_gadget(boxes, dim=8)
        pts = witness_for(g, [])
        assert pts is not None and len(pts) == 1
        assert all(box_contains(box, pts[0]) for box in g.boxes)

    def test_adds_no_cache_to_the_gadget(self, bundled_gadget):
        # each call walks the witness tree afresh, so the gadget keeps only its
        # patterns, menu, pattern points and tables, with or without a witness
        fresh = BoxGadget(bundled_gadget.n, bundled_gadget.dim, bundled_gadget.boxes)
        nested = make_gadget([((1, 1), (4, 4)), ((2, 2), (3, 3))])
        for g, found in ((fresh, True), (nested, False)):
            fields = set(vars(g))
            for subset in ([0], [1], [0, 1]):
                assert (witness_for(g, subset) is not None) == (found or subset != [0])
            cached = set(vars(g)) - fields
            assert cached <= {"_patterns", "_menu", "_pattern_points", "_closure"}

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the menu holds open-cell midpoints only, so no candidate lies on the face A and B share",
    )
    def test_boxes_sharing_a_face(self):
        # {(2, 2), (10, 10)} hits exactly {A, B} and {C}
        g = make_gadget([((1, 1), (2, 3)), ((2, 1), (3, 3)), ((10, 10), (11, 11))])
        assert witness_for(g, []) is not None


class TestVerify:
    def test_bundled_certificate_passes(self, bundled_gadget):
        report, same = verify(bundled_gadget)
        assert report.ok
        assert report.checked == 1 << len(bundled_gadget.boxes)
        assert same is bundled_gadget

    @staticmethod
    def assert_witnesses_sound(g: BoxGadget) -> int:
        """Every witness is a set of menu points hitting exactly the boxes
        outside its subset; returns how many subsets have one."""
        menu = {Point(coords) for coords in midpoint_menu(g)}
        found = 0
        for smask in range(1 << len(g.boxes)):
            pts = witness_for(g, smask)
            if pts is None:
                continue
            found += 1
            assert 1 <= len(pts) <= g.max_witness_size
            assert menu.issuperset(pts)
            for j, box in enumerate(g.boxes):
                hit = any(box_contains(box, q) for q in pts)
                assert hit == (not (smask >> j) & 1)
        return found

    def test_every_witness_is_sound(self, bundled_gadget):
        g = bundled_gadget
        assert self.assert_witnesses_sound(g) == 1 << len(g.boxes)

    @given(box_families())
    @settings(max_examples=60, deadline=None)
    def test_every_witness_is_sound_on_random_families(self, g):
        self.assert_witnesses_sound(g)

    def test_nested_box_fails_with_counterexample(self, bundled_gadget):
        boxes = list(bundled_gadget.boxes)
        outer = boxes[1]
        inner = AxisBox(
            tuple(lo + F(1, 4) for lo in outer.lo),
            tuple(lo + F(1, 2) for lo in outer.lo),
        )
        boxes[0] = inner
        report, _ = verify(BoxGadget(n=2, dim=2, boxes=tuple(boxes)))
        assert not report.ok
        # every nonempty subset that leaves the inner box 0 to be hit
        assert report.failing_subsets == tuple(tuple(mask_to_indices(m)) for m in range(2, 32, 2))
        # the reported counterexample really is infeasible
        failing = report.failing_subsets[0]
        assert witness_for(BoxGadget(n=2, dim=2, boxes=tuple(boxes)), list(failing)) is None

    def test_empty_box_list_vacuously_ok(self):
        report, witnessed = verify(BoxGadget(n=2, dim=2, boxes=()))
        assert report.ok and report.checked == 1

    def test_guard_refuses_large_families(self):
        boxes = tuple(
            AxisBox((F(i + 1), F(1)), (F(i + 2), F(2))) for i in range(25)
        )
        g = BoxGadget(n=2, dim=2, boxes=boxes)
        with pytest.raises(ValueError, match="guard"):
            verify(g)
        with pytest.raises(ValueError, match="guard"):
            witness_for(g, [0])

    def test_witness_tables_stop_at_a_fold_that_reaches_nothing(self):
        # two disjoint boxes reach every union by fold 2; at n=40 the other
        # 2^39 - 2 folds would only extend an empty frontier
        boxes = [((1, 1), (2, 2)), ((3, 3), (4, 4))]
        small, large = make_gadget(boxes, n=2), make_gadget(boxes, n=40)
        assert witness_for(large, [0]) == witness_for(small, [0])
        assert large._closure == small._closure

    def test_fold_count_is_capped_at_the_box_count(self):
        # each pattern of a fewest union adds a box, so the count is
        # min(2^(n-1), |B|), taken without building 2^(n-1)
        boxes = [((1, 1), (2, 2)), ((3, 3), (4, 4)), ((5, 5), (6, 6))]
        sizes = [make_gadget(boxes, n=n).max_witness_size for n in (2, 3, 4, 10**9)]
        assert sizes == [2, 3, 3, 3]
        # with no boxes the one witness is the empty pattern's point
        assert make_gadget([], n=10**9).max_witness_size == 1
        assert witness_for(make_gadget([], n=10**9), []) == (Point.of(1, 1),)

    def test_verify_builds_no_menu_values(self, monkeypatch):
        calls = []
        monkeypatch.setattr(boxgadget, "_menu_value", lambda *args: calls.append(args))
        g = gadget_from_dict(load_json(PINNED_GADGETS / "n3-seed0.json"))
        assert verify(g)[0].ok
        assert calls == []


def doubled(g: BoxGadget) -> BoxGadget:
    """``g`` scaled by 2: the same hit patterns, and integer coordinates on ``COORDS``."""
    boxes = tuple(AxisBox(tuple(2 * v for v in b.lo), tuple(2 * v for v in b.hi)) for b in g.boxes)
    return BoxGadget(n=g.n, dim=g.dim, boxes=boxes)


class TestFastPath:
    """The bitset closure and the integer-box score against the back-pointer
    tables, and the tables against a scan of every pattern."""

    @staticmethod
    def assert_reached_matches_tables(g: BoxGadget) -> None:
        assert union_closure(g._patterns[1], len(g.boxes), g.max_witness_size) == reached_from_tables(g)
        pick, _ = g._closure
        full = len(pick) - 1
        failing = tuple(
            tuple(mask_to_indices(smask)) for smask in range(len(pick)) if pick[full ^ smask] < 0
        )
        assert verify(g)[0].failing_subsets == failing

    @staticmethod
    def assert_score_matches_gadget(g: BoxGadget) -> None:
        pick, _ = g._closure
        boxes = int_boxes(g)
        score = _score(axis_sets(boxes, g.dim), len(boxes), g.max_witness_size, ({}, {}))
        assert score == len(pick) - pick.count(-1)
        assert _hit_masks(boxes, g.dim)[1] == g._patterns[1]
        assert patterns_of(boxes, g.dim) == set(g._patterns[1])

    @staticmethod
    def assert_tables_match_full_scan(g: BoxGadget) -> None:
        pick, prev = g._closure
        assert (pick, prev) == full_scan_unions(list(g._patterns[1]), len(g.boxes), g.max_witness_size)
        # every path adds patterns in ascending number, which lets _unions
        # extend a union by higher-numbered patterns only
        assert all(pick[v] > pick[u] for v, u in enumerate(prev) if u >= 0)

    @staticmethod
    def assert_witnesses_are_first_combinations(g: BoxGadget) -> None:
        first = first_combinations(list(g._patterns[1]), g.max_witness_size)
        full = (1 << len(g.boxes)) - 1
        for smask in range(full + 1):
            assert _witness_patterns(g, smask) == first.get(full ^ smask), smask

    @given(box_families())
    @settings(max_examples=80, deadline=None)
    def test_reached_is_the_table_closure(self, g):
        self.assert_reached_matches_tables(g)
        self.assert_tables_match_full_scan(g)

    @given(box_families())
    @settings(max_examples=60, deadline=None)
    def test_witnesses_are_first_combinations(self, g):
        assume(comb(len(g._patterns[1]), g.max_witness_size) <= 20000)
        self.assert_witnesses_are_first_combinations(g)

    @given(box_families().map(doubled))
    @settings(max_examples=80, deadline=None)
    def test_integer_score_matches_gadget_closure(self, g):
        self.assert_score_matches_gadget(g)

    def test_bundled_mutant_and_failing_gadgets(self, bundled_gadget, n3_gadget):
        nested = list(bundled_gadget.boxes)
        nested[0] = AxisBox(
            tuple(lo + F(1, 4) for lo in nested[1].lo), tuple(lo + F(1, 2) for lo in nested[1].lo)
        )
        failing = [
            make_gadget([((1, 1), (2, 2)), ((3, 3), (4, 4)), ((5, 5), (6, 6))]),
            doubled(doubled(BoxGadget(n=2, dim=2, boxes=tuple(nested)))),
        ]
        gadgets = [bundled_gadget, n3_gadget, *failing]
        for g in (bundled_gadget, n3_gadget):
            gadgets.extend(make_gadget(m, n=g.n, dim=g.dim) for m in mutants(g))
        assert not any(verify(g)[0].ok for g in failing)
        for g in gadgets:
            self.assert_reached_matches_tables(g)
            self.assert_score_matches_gadget(g)
            self.assert_tables_match_full_scan(g)
        for g in (bundled_gadget, n3_gadget, *failing):
            self.assert_witnesses_are_first_combinations(g)

    def test_set_product_matches_staged_product_on_shared_faces(self):
        # ROADMAP item 1's A, B, C, halved: A and B share the face x = 1 and
        # both span y in [1/2, 3/2]. The menu misses the face, so no pattern
        # is {A, B}; both products miss it alike.
        g = make_gadget(
            [
                ((F(1, 2), F(1, 2)), (F(1), F(3, 2))),
                ((F(1), F(1, 2)), (F(3, 2), F(3, 2))),
                ((F(5), F(5)), (F(11, 2), F(11, 2))),
            ]
        )
        boxes = [(box.lo, box.hi) for box in g.boxes]
        assert patterns_of(boxes, g.dim) == set(g._patterns[1]) == {0b000, 0b001, 0b010, 0b100}

    def test_score_memo_is_keyed_by_pattern_set(self, n3_gadget, monkeypatch):
        boxes = int_boxes(n3_gadget)
        nboxes = len(boxes)
        b = n3_gadget.max_witness_size
        patterns = frozenset(_hit_masks(boxes, 2)[1])
        want = union_closure(patterns, nboxes, b).bit_count()
        closures = []

        def counted(*args):
            closures.append(args)
            return union_closure(*args)

        monkeypatch.setattr(boxgadget, "union_closure", counted)
        sets = axis_sets(boxes, 2)
        memo: tuple[dict, dict] = ({}, {})
        assert _score(sets, nboxes, b, memo) == want
        assert memo == ({(b, sets): want}, {(b, patterns): want})
        # a translated family has the same sets, so it reads the warm entry
        assert axis_sets(boxgadget._translate(boxes, 7), 2) == sets
        assert _score(axis_sets(boxgadget._translate(boxes, 7), 2), nboxes, b, memo) == want
        assert len(memo[0]) == len(memo[1]) == len(closures) == 1
        # b is part of both keys
        assert _score(sets, nboxes, b - 1, memo) < want
        assert len(memo[0]) == len(memo[1]) == len(closures) == 2
        # mirrored on axis 0, the family's bitsets on that axis come in
        # reverse order, but as sets they are the same: it hits the first level
        top = max(v for _, hi in boxes for v in hi) + 1
        mirrored = tuple(((top - hi[0], lo[1]), (top - lo[0], hi[1])) for lo, hi in boxes)
        column = _sweep(_axis_toggles(boxes, 0))[1]
        assert _sweep(_axis_toggles(mirrored, 0))[1] == column[::-1] != column
        assert axis_sets(mirrored, 2) == sets
        assert _score(axis_sets(mirrored, 2), nboxes, b, memo) == want
        assert len(memo[0]) == len(memo[1]) == len(closures) == 2
        # with its axes swapped, the family has new sets but the same
        # patterns, so it takes a product and shares the closure
        swapped = tuple(((lo[1], lo[0]), (hi[1], hi[0])) for lo, hi in boxes)
        assert axis_sets(swapped, 2) == sets[::-1] != sets
        assert _score(axis_sets(swapped, 2), nboxes, b, memo) == want
        assert len(memo[0]) == 3
        assert len(memo[1]) == len(closures) == 2

    @given(
        box_families().filter(lambda g: g.dim <= 3).map(doubled),
        st.integers(0, 2**32),
        st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_carried_columns_match_a_fresh_sweep(self, g, seed, stop):
        # instruments one climb: every proposal, after an accepted or a
        # rejected move, starts from the current family's toggles on its
        # axis, moves them to the proposal's, and scores the proposal's sets,
        # each equal to a fresh _axis_toggles plus sweep; every score, cold
        # or warm, is the closure's popcount
        start = int_boxes(g)
        moves: list[tuple] = []
        real = boxgadget._mutate, boxgadget._moved_toggles, boxgadget._score

        def mutate(rng, current, dim, upper):
            moved = real[0](rng, current, dim, upper)
            if moved is not None:
                moves.append((current, *moved))
            return moved

        def moved_toggles(toggles, bit, ends):
            current, proposal, bi, ax = moves[-1]
            assert bit == 1 << bi
            assert toggles == _axis_toggles(current, ax)
            moved = real[1](toggles, bit, ends)
            assert moved == _axis_toggles(proposal, ax)
            assert toggles == _axis_toggles(current, ax)  # the carried dict is copied
            return moved

        def score(sets, nboxes, b, memo):
            family = moves[-1][1] if moves else start
            assert sets == axis_sets(family, g.dim)
            want = union_closure(_hit_masks(family, g.dim)[1], nboxes, b).bit_count()
            assert real[2](sets, nboxes, b, ({}, {})) == want
            got = real[2](sets, nboxes, b, memo)
            assert got == real[2](sets, nboxes, b, memo) == want  # a certain hit
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(boxgadget, "_mutate", mutate)
            mp.setattr(boxgadget, "_moved_toggles", moved_toggles)
            mp.setattr(boxgadget, "_score", score)
            budget = boxgadget._Budget()
            rng = random.Random(seed)
            boxgadget._climb(rng, start, g.dim, g.max_witness_size, budget, stop, ({}, {}))
        assert budget.used == 1 + len(moves)

    def test_pinned_gadget_tables_match_full_scan(self):
        for path in sorted(PINNED_GADGETS.glob("*.json")):
            g = gadget_from_dict(load_json(path))
            for boxes in (int_boxes(g), *mutants(g)):
                self.assert_tables_match_full_scan(make_gadget(boxes, n=g.n, dim=g.dim))

    @staticmethod
    def pinned_gadgets() -> list[BoxGadget]:
        paths = sorted(PINNED_GADGETS.glob("*.json"))
        return [gadget_from_dict(load_json(path)) for path in paths]

    @staticmethod
    def sweep_args(g: BoxGadget) -> tuple[list[int], int, int]:
        return list(g._patterns[1]), len(g.boxes), g.max_witness_size

    def test_tables_equal_the_earlier_sweep(self, bundled_gadget, n3_gadget):
        for g in (bundled_gadget, n3_gadget, *self.pinned_gadgets()):
            pick, prev = g._closure
            assert isinstance(pick, array) and isinstance(prev, array)
            assert pick.typecode == prev.typecode == "i"
            want_pick, want_prev = sorted_tail_unions(*self.sweep_args(g))
            assert list(pick) == list(want_pick)
            assert list(prev) == list(want_prev)

    def test_sweep_peak_is_not_above_the_earlier_sweep(self):
        def peak(fn, *args) -> int:
            tracemalloc.start()
            try:
                fn(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for g in self.pinned_gadgets():
            assert len(g.boxes) == 12
            args = self.sweep_args(g)  # builds the menu before either sweep is traced
            assert peak(boxgadget._unions, g) <= peak(sorted_tail_unions, *args)


class TestSearch:
    def test_zero_budget_fails(self):
        assert search(2, 2, seed=0, budget=0) is None

    def test_finds_verified_gadget(self):
        g = search(2, 2, seed=0, budget=20000)
        assert g is not None
        assert len(g.boxes) == nominal_box_count(2, 2)
        report, _ = verify(BoxGadget(n=g.n, dim=g.dim, boxes=g.boxes))
        assert report.ok

    def test_deterministic_for_fixed_seed(self):
        a = search(2, 2, seed=3, budget=6000)
        b = search(2, 2, seed=3, budget=6000)
        if a is None:
            assert b is None
        else:
            assert b is not None and a.boxes == b.boxes

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            search(1, 2, seed=0, budget=10)

    def test_reproduces_bundled_n3_gadget(self, tmp_path, n3_gadget_path):
        # pins the climb: any change to scoring or proposals shows up here
        dump_json(gadget_to_dict(search(3, 2, seed=0, budget=2500)), tmp_path / "g.json")
        assert (tmp_path / "g.json").read_bytes() == n3_gadget_path.read_bytes()

    @pytest.mark.parametrize("seed", [3, 6])
    def test_reproduces_pinned_n3_gadgets(self, tmp_path, seed):
        dump_json(gadget_to_dict(search(3, 2, seed=seed, budget=2500)), tmp_path / "g.json")
        pinned = PINNED_GADGETS / f"n3-seed{seed}.json"
        assert (tmp_path / "g.json").read_bytes() == pinned.read_bytes()

    def test_reproduces_dim4_trajectory(self, tmp_path):
        # SHA-1 of the file the Fraction-box climb wrote for these arguments
        dump_json(gadget_to_dict(search(2, 4, seed=1, budget=20000)), tmp_path / "g.json")
        digest = hashlib.sha1((tmp_path / "g.json").read_bytes()).hexdigest()
        assert digest == "c4d48bd18a9cd16088f4f6a3fe9accdc5aa3de06"

    def test_reproduces_dim3_trajectory(self, tmp_path):
        # SHA-1 of the file written for these arguments when every proposal
        # re-swept all boxes on its axis: 12 boxes from grouped restarts,
        # whose proposals move boxes on axes 1 and 2 as well as axis 0
        dump_json(gadget_to_dict(search(3, 3, seed=0, budget=3000)), tmp_path / "g.json")
        digest = hashlib.sha1((tmp_path / "g.json").read_bytes()).hexdigest()
        assert digest == "546b24ac1446af2fed3a2cfda8b3959068937b25"

    def test_budget_charges_every_score_memo_hits_included(self, monkeypatch):
        budgets, hits = [], []
        score = boxgadget._score

        class Recorded(boxgadget._Budget):
            def __init__(self) -> None:
                super().__init__()
                budgets.append(self)

        def scored(sets, nboxes, b, memo):
            hits.append((b, sets) in memo[0])
            return score(sets, nboxes, b, memo)

        monkeypatch.setattr(boxgadget, "_Budget", Recorded)
        monkeypatch.setattr(boxgadget, "_score", scored)
        assert search(3, 2, seed=0, budget=2500) is not None
        [budget] = budgets
        assert budget.used == len(hits)
        assert 0 < sum(hits) < len(hits)

    def test_proposals_resweep_one_axis_and_closures_stay(self, monkeypatch):
        # pins the carried toggles: a climb builds and sweeps the toggles of
        # every axis of its start, and sweeps one axis per proposal; the
        # closures run as often as when every proposal swept every axis
        calls, budgets = Counter(), []

        def counting(name):
            real = getattr(boxgadget, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(boxgadget, name, counted)

        class Recorded(boxgadget._Budget):
            def __init__(self) -> None:
                super().__init__()
                budgets.append(self)

        for name in ("union_closure", "_axis_toggles", "_sweep", "_climb"):
            counting(name)
        monkeypatch.setattr(boxgadget, "_Budget", Recorded)
        assert search(3, 2, seed=0, budget=2500) is not None
        [budget] = budgets
        climbs, scored = calls["_climb"], budget.used
        assert (climbs, scored) == (8, 1864)
        assert calls["union_closure"] == 186
        assert calls["_axis_toggles"] == 2 * climbs
        assert calls["_sweep"] == 2 * climbs + (scored - climbs) == 1872

    @pytest.mark.parametrize(
        "seed, scores, entries, closures",
        [(0, 1864, 903, 186), (3, 465, 247, 86), (6, 300, 168, 30)],
    )
    def test_memo_counts_of_pinned_searches(self, monkeypatch, seed, scores, entries, closures):
        # one memo per search: a first-level entry per distinct (b, sets)
        # and a second-level entry, and one closure, per distinct (b, patterns)
        memos, calls = [], Counter()
        score = boxgadget._score

        def scored(sets, nboxes, b, memo):
            memos.append(memo)
            return score(sets, nboxes, b, memo)

        def counted(*args):
            calls["union_closure"] += 1
            return union_closure(*args)

        monkeypatch.setattr(boxgadget, "_score", scored)
        monkeypatch.setattr(boxgadget, "union_closure", counted)
        assert search(3, 2, seed=seed, budget=2500) is not None
        memo = memos[0]
        assert all(m is memo for m in memos)
        assert len(memos) == scores
        assert len(memo[0]) == entries
        assert len(memo[1]) == calls["union_closure"] == closures

    @staticmethod
    def recorded_search(monkeypatch, n, seed, budget):
        """The search's result and the number of scores it charged."""
        budgets = []

        class Recorded(boxgadget._Budget):
            def __init__(self) -> None:
                super().__init__()
                budgets.append(self)

        monkeypatch.setattr(boxgadget, "_Budget", Recorded)
        found = search(n, 2, seed=seed, budget=budget)
        [recorded] = budgets
        return found, recorded.used

    def test_bundled_search_needs_exactly_its_scores(self, monkeypatch, n3_gadget):
        found, used = self.recorded_search(monkeypatch, 3, 0, 1864)
        assert found == n3_gadget and used == 1864
        assert self.recorded_search(monkeypatch, 3, 0, 1863) == (None, 1863)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("budget", [1, 60, 300, 1000])
    def test_failed_search_charges_exactly_its_budget(self, monkeypatch, n, seed, budget):
        found, used = self.recorded_search(monkeypatch, n, seed, budget)
        if found is None:
            assert used == budget
        else:
            assert 0 < used <= budget
            assert verify(found)[0].ok

    @pytest.mark.parametrize("n, budget", [(2, -5), (5, 3000)])
    def test_refuses_bad_arguments_before_searching(self, monkeypatch, n, budget):
        # a negative budget, or n=5's 64-box target over the guard of 24
        def no_search(*args):
            raise AssertionError("searched before checking the arguments")

        monkeypatch.setattr(boxgadget, "_search_impl", no_search)
        with pytest.raises(ValueError):
            search(n, 2, seed=0, budget=budget)


class TestJsonRoundTrip:
    def test_round_trip_with_witnesses(self, bundled_gadget):
        # a "witnesses" key is accepted and ignored, even one no reader could parse
        data = gadget_to_dict(bundled_gadget)
        data["witnesses"] = {"not a mask": [["1/0"]], "0": [["1", "2", "3"]], "-5": "junk"}
        loaded = gadget_from_dict(data)
        assert loaded == bundled_gadget
        assert verify(loaded)[0].ok
        assert gadget_to_dict(loaded) == {key: data[key] for key in ("n", "dim", "boxes")}

    def test_round_trip_without_witnesses(self, bundled_gadget):
        again = gadget_from_dict(gadget_to_dict(bundled_gadget))
        assert again == bundled_gadget
        assert set(gadget_to_dict(again)) == {"n", "dim", "boxes"}

    @pytest.mark.parametrize(
        "name, read, write",
        [
            (BUNDLED_GADGET, gadget_from_dict, gadget_to_dict),
            ("gadget_n3_dim2.json", gadget_from_dict, gadget_to_dict),
            (BUNDLED_INSTANCE, instance_from_dict, instance_to_dict),
        ],
    )
    def test_bundled_assets_are_writer_output(self, tmp_path, name, read, write):
        path = _asset_path(name)
        dump_json(write(read(load_json(path))), tmp_path / name)
        assert (tmp_path / name).read_bytes() == path.read_bytes()
