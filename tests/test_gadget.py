from __future__ import annotations

from fractions import Fraction

import pytest

from oracles import brute_cover_feasible, finer_grid_points
from vcshatter.boxgadget import (
    BoxGadget,
    candidate_points,
    nominal_box_count,
    search,
    verify,
    witness_for,
)
from vcshatter.cli import BUNDLED_INSTANCE, _asset_path
from vcshatter.geometry import AxisBox, box_contains
from vcshatter.jsonio import gadget_from_dict, gadget_to_dict, instance_from_dict, load_json

F = Fraction


def make_gadget(boxes, n=2, dim=2) -> BoxGadget:
    return BoxGadget(n=n, dim=dim, boxes=tuple(AxisBox(lo, hi) for lo, hi in boxes))


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


class TestCandidatePoints:
    def test_single_box_menu(self):
        g = make_gadget([((1, 1), (2, 2))])
        cands = candidate_points(g)
        assert len(cands) == 9  # below/inside/above per axis
        inside = [q for q in cands if box_contains(g.boxes[0], q)]
        assert len(inside) == 1
        corners = [
            q for q in cands if all(c < 1 or c > 2 for c in q.coords)
        ]
        assert len(corners) == 4
        assert all(all(c > 0 for c in q.coords) for q in cands)

    def test_zero_boxes_single_candidate(self):
        g = BoxGadget(n=2, dim=2, boxes=())
        assert len(candidate_points(g)) == 1

    def test_every_box_and_the_outside_get_candidates(self, bundled_gadget):
        cands = candidate_points(bundled_gadget)
        for box in bundled_gadget.boxes:
            assert any(box_contains(box, q) for q in cands)
        assert any(
            not any(box_contains(box, q) for box in bundled_gadget.boxes) for q in cands
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

    def test_matches_finer_grid_brute_force(self):
        # candidate menu completeness: the exact solver over midpoint candidates
        # agrees with exhaustive search over a strictly denser grid
        families = [
            [((1, 1), (4, 4)), ((2, 2), (6, 3))],
            [((1, 1), (2, 2)), ((3, 3), (4, 4))],
            [((1, 1), (6, 6)), ((2, 2), (3, 3)), ((4, 4), (5, 5))],
            [((1, 2), (5, 6)), ((2, 1), (6, 5)), ((3, 3), (4, 4))],
        ]
        for fam in families:
            g = make_gadget(fam)
            grid = finer_grid_points(g.boxes, g.dim)
            for smask in range(1 << len(g.boxes)):
                mine = witness_for(g, smask) is not None
                brute = brute_cover_feasible(g.boxes, smask, g.max_witness_size, grid)
                assert mine == brute, (fam, smask)


class TestVerify:
    def test_bundled_certificate_passes(self, bundled_gadget):
        report, same = verify(bundled_gadget)
        assert report.ok
        assert report.checked == 1 << len(bundled_gadget.boxes)
        assert same is bundled_gadget

    def test_every_witness_is_sound(self, bundled_gadget):
        g = bundled_gadget
        for smask in range(1 << len(g.boxes)):
            pts = witness_for(g, smask)
            assert pts is not None and 1 <= len(pts) <= g.max_witness_size
            for j, box in enumerate(g.boxes):
                hit = any(box_contains(box, q) for q in pts)
                assert hit == (not (smask >> j) & 1)

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
        assert report.failing_subsets
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
        with pytest.raises(ValueError, match="guard"):
            verify(BoxGadget(n=2, dim=2, boxes=boxes))


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

    def test_instance_bundle_with_boxes_only_gadget(self, bundled_instance):
        data = load_json(_asset_path(BUNDLED_INSTANCE))
        del data["gadget"]["witnesses"]
        inst = instance_from_dict(data)
        assert inst.points == bundled_instance.points
        assert inst.alpha == bundled_instance.alpha
