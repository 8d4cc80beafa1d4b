from __future__ import annotations

import dataclasses
import gc
from array import array
import random
import re
import weakref
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _witness_patterns,
    box_contains,
    halfspace_contains,
    halfspace_cut,
    reference_verify_theorem1,
    reference_verify_theorem2,
    side_of,
    sign_masks,
    simplex_hyperplane_intersects,
)
import vcshatter
from vcshatter import boxgadget, cli, constructions, geometry, jsonio, setsystem
from vcshatter.boxgadget import BoxGadget, verify, witness_for
from vcshatter.constructions import (
    ConstructionError,
    _lift,
    build_theorem1,
    build_theorem2,
    lift_box,
    required_gadget_n,
    rescale,
    simplex_witness,
    snap,
    union_witness,
    verify_theorem1,
    verify_theorem2,
)
from vcshatter.geometry import (
    AxisBox,
    DegenerateSimplexError,
    OpenSimplex,
    Point,
    RestrictedHalfspace,
    _halfspace_mask,
    dual_halfspace_to_point,
    dual_point_to_hyperplane,
)
from vcshatter.setsystem import (
    SetSystem,
    complement_system,
    k_fold_intersection,
    k_fold_union,
    mask_to_indices,
    subset_mask,
    union_closure,
    vc_dim,
)

F = Fraction


def halfspace_system(points, halfspaces) -> SetSystem:
    """The sets the half-spaces cut out of the points, by the integer kernel."""
    columns = [p._vertex_column for p in points]
    return SetSystem.from_masks(
        len(points), (_halfspace_mask(h.b, h.tau, columns) for h in halfspaces)
    )


positive = st.fractions(min_value=F(1, 8), max_value=F(16))


@st.composite
def positive_boxes(draw, dim=2):
    lo = []
    hi = []
    for _ in range(dim):
        a = draw(positive)
        b = draw(positive)
        lo.append(min(a, b))
        hi.append(max(a, b))
    return AxisBox(tuple(lo), tuple(hi))


def _nested_box_gadget(gadget: BoxGadget) -> BoxGadget:
    """Box 0 moved strictly inside box 1: no point hits box 0 and avoids box 1."""
    boxes = list(gadget.boxes)
    outer = boxes[1]
    boxes[0] = AxisBox(
        tuple(lo + F(1, 4) for lo in outer.lo),
        tuple(lo + F(1, 2) for lo in outer.lo),
    )
    return BoxGadget(n=gadget.n, dim=gadget.dim, boxes=tuple(boxes))


def _patch_tables(monkeypatch, gadget: BoxGadget, entries: dict[int, tuple[int, int]]) -> None:
    """Give each union mask of ``entries`` the (pick, prev) entry there in the
    gadget's witness tables, which every walk built afterwards reads: -1 for
    an unreached union, or another union's entry for its witness."""
    pick, prev = (array("i", table) for table in gadget._closure)
    for union, (number, parent) in entries.items():
        pick[union], prev[union] = number, parent
    monkeypatch.setitem(gadget.__dict__, "_closure", (pick, prev))


def _swapped_entries(gadget: BoxGadget, union: int, other: int) -> dict[int, tuple[int, int]]:
    """The table entry that gives ``union`` the witness of ``other``."""
    pick, prev = gadget._closure
    return {union: (pick[other], prev[other])}


def _counting(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that records its calls; returns the record."""
    calls = []
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def _disjoint_boxes(count: int) -> tuple[AxisBox, ...]:
    """Boxes [2i+1, 2i+2] x [1, 3]: pairwise-disjoint x ranges, one shared y range."""
    return tuple(AxisBox((2 * i + 1, 1), (2 * i + 2, 3)) for i in range(count))


class TestLiftBox:
    def test_example(self):
        assert lift_box(AxisBox((1, 3), (2, 4))).coords == (F(1), F(1, 2), F(3), F(1, 4))

    def test_degenerate_unit_box(self):
        assert lift_box(AxisBox((1, 1), (1, 1))).coords == (F(1), F(1), F(1), F(1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lift_box(AxisBox((0, 1), (1, 2)))

    @given(positive_boxes(), positive_boxes())
    @settings(max_examples=60, deadline=None)
    def test_distinct_boxes_distinct_lifts(self, b1, b2):
        if (b1.lo, b1.hi) != (b2.lo, b2.hi):
            assert lift_box(b1).coords != lift_box(b2).coords


def _dominated(lower, upper) -> bool:
    return all(a <= b for a, b in zip(lower, upper, strict=True))


class TestAnchoredBox:
    """The anchored box [0, _lift(q, q)] of a witness point q, held as its corner."""

    def test_example(self):
        q = Point.of(F(3, 2), F(7, 2))
        assert _lift(q.coords, q.coords) == (F(3, 2), F(2, 3), F(7, 2), F(2, 7))

    def test_membership_equivalence_example(self):
        box = AxisBox((1, 3), (2, 4))
        q = Point.of(F(3, 2), F(7, 2))
        assert box_contains(box, q)
        assert _dominated(lift_box(box).coords, _lift(q.coords, q.coords))

    def test_membership_equivalence_on_boundaries(self):
        box = AxisBox((1, 3), (2, 4))
        values_x = [F(1, 2), F(1), F(3, 2), F(2), F(3)]
        values_y = [F(2), F(3), F(7, 2), F(4), F(5)]
        for qx, qy in product(values_x, values_y):
            q = Point.of(qx, qy)
            assert box_contains(box, q) == _dominated(
                lift_box(box).coords, _lift(q.coords, q.coords)
            )

    @given(positive_boxes(), st.tuples(positive, positive))
    @settings(max_examples=80, deadline=None)
    def test_membership_equivalence_random(self, box, q_coords):
        q = Point(q_coords)
        assert box_contains(box, q) == _dominated(lift_box(box).coords, _lift(q.coords, q.coords))


class TestRescale:
    def test_values_become_powers(self):
        pts = [Point.of(F(1, 2), F(1, 2)), Point.of(3, F(1, 2))]
        rescaled, alpha = rescale(pts, 2)
        # d + 1 = 3: first coordinate has two distinct values 1/2 < 3 -> 3, 9
        assert [p.coords[0] for p in rescaled] == [F(3), F(9)]
        assert alpha[0] == ((F(1, 2), F(3)), (F(3), F(9)))

    def test_example_with_d4(self):
        pts = [Point.of(F(1, 2), 1, 1, 1), Point.of(3, 1, 1, 1)]
        rescaled, _ = rescale(pts, 4)
        assert sorted(p.coords[0] for p in rescaled) == [F(5), F(25)]

    def test_consecutive_ratio_exceeds_d(self):
        rng = random.Random(5)
        pts = [
            Point(tuple(F(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(4)))
            for _ in range(6)
        ]
        _, alpha = rescale(pts, 4)
        for table in alpha:
            for (_, img1), (_, img2) in zip(table, table[1:]):
                assert img2 / img1 == 5 > 4

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rescale([Point.of(0, 1)], 2)


class TestSnapAndHalfspace:
    def test_snap_exact_value(self):
        pts = [Point.of(1, 2), Point.of(2, 1)]
        rescaled, alpha = rescale(pts, 2)
        assert snap((F(1), F(2)), alpha) == (F(3), F(9))  # images of 1 and 2

    def test_snap_below_everything_excludes(self):
        pts = [Point.of(2, 2), Point.of(3, 3)]
        rescaled, alpha = rescale(pts, 2)
        bounds = snap((F(1), F(1)), alpha)
        assert bounds == (F(1), F(1))
        for p in rescaled:
            assert not _dominated(p.coords, bounds)

    def test_snap_rejects_dimension_mismatch(self):
        _, alpha = rescale([Point.of(1, 1)], 2)
        with pytest.raises(ValueError, match="dimension"):
            snap((F(1), F(1), F(1)), alpha)

    def test_halfspace_boundary_cases(self):
        d = 4
        h = RestrictedHalfspace(b=(F(5), F(25), F(5), F(5)), tau=F(2 * d + 1, 2))
        corner = Point.of(F(5), F(25), F(5), F(5))  # every term equals 1
        assert halfspace_contains(h, corner)
        bumped = Point.of(F(25), F(25), F(5), F(5))  # one term equals d + 1
        assert not halfspace_contains(h, bumped)

    def test_union_witness_taus_inside_the_window(self, bundled_instance, n3_gadget):
        for inst in (bundled_instance, build_theorem1(4, 4, n3_gadget)):
            for pmask in range(1 << len(inst.points)):
                witness = union_witness(inst, pmask)
                taus = [h.tau for h in witness]
                assert len(witness) <= inst.k
                assert len(set(taus)) == len(taus)
                assert all(inst.d < t < inst.d + 1 for t in taus)

    def test_instance_refuses_a_gadget_n_that_does_not_match_k(self, bundled_instance):
        # the bundled gadget has n=2, which serves k=2 and k=3 only
        with pytest.raises(ValueError, match="k=4 requires n=3"):
            dataclasses.replace(bundled_instance, k=4)
        with pytest.raises(ValueError, match="fold count k must be >= 2"):
            dataclasses.replace(bundled_instance, k=1)
        inst3 = dataclasses.replace(bundled_instance, k=3)
        for pmask in range(1 << len(inst3.points)):
            taus = [h.tau for h in union_witness(inst3, pmask)]
            assert all(inst3.d < t < inst3.d + 1 for t in taus)

    def test_every_slot_of_an_accepted_instance_is_inside_the_window(self):
        # each of an instance's P patterns holds one threshold, at position
        # p < P of its taus: d + 1/2 <= d + 1/2 + p/(4P) < d + 3/4 for every
        # P, so no pattern count or k moves a threshold out of (d, d+1)
        for count in (*range(1, 130), 1 << 24):
            for d in (4, 6, 8):
                last = F(2 * count * (2 * d + 1) + count - 1, 4 * count)
                assert d < F(2 * d + 1, 2) <= last < F(4 * d + 3, 4) < d + 1

    def test_full_pipeline_membership_match(self, bundled_instance):
        # p under the snapped corner of q  <=>  lifted point under the corner of q
        inst = bundled_instance
        lifted = [lift_box(box) for box in inst.gadget.boxes]
        for smask in range(1 << len(inst.gadget.boxes)):
            for q in witness_for(inst.gadget, smask):
                corner = _lift(q.coords, q.coords)
                bounds = snap(corner, inst.alpha)
                h = RestrictedHalfspace(b=bounds, tau=F(2 * inst.d + 1, 2))
                for i, p in enumerate(inst.points):
                    in_original = _dominated(lifted[i].coords, corner)
                    assert _dominated(p.coords, bounds) == in_original
                    assert halfspace_contains(h, p) == in_original


class TestBuildTheorem1:
    def test_bundled_shape(self, bundled_instance):
        assert bundled_instance.d == 4 and bundled_instance.k == 2
        assert len(bundled_instance.points) == 5
        assert len({p.coords for p in bundled_instance.points}) == 5
        assert all(v > 0 for p in bundled_instance.points for v in p.coords)

    def test_k3_reuses_the_same_gadget(self, bundled_gadget, bundled_instance):
        assert required_gadget_n(2) == required_gadget_n(3) == 2
        inst3 = build_theorem1(4, 3, bundled_gadget)
        assert inst3.points == bundled_instance.points
        assert inst3.alpha == bundled_instance.alpha

    def test_odd_d_rejected(self, bundled_gadget):
        with pytest.raises(ValueError, match="even"):
            build_theorem1(5, 2, bundled_gadget)

    def test_unverified_gadget_refused(self, bundled_gadget):
        # a duplicated box lifts to a repeated point, but no point hits one
        # copy and avoids the other, so verify refuses it before any lift
        nested = _nested_box_gadget(bundled_gadget)
        duplicated = BoxGadget(n=2, dim=2, boxes=(*bundled_gadget.boxes, bundled_gadget.boxes[0]))
        for gadget in (nested, duplicated):
            failing = len(verify(gadget)[0].failing_subsets)
            assert failing > 0
            message = f"failed verification on {failing} subsets"
            with pytest.raises(ConstructionError, match=message):
                build_theorem1(4, 2, gadget)

    def test_one_error_class_for_every_module(self):
        assert constructions.ConstructionError is boxgadget.ConstructionError
        assert cli.ConstructionError is vcshatter.ConstructionError is ConstructionError
        assert ConstructionError is boxgadget.ConstructionError

    def test_verify_returns_a_gadget_that_builds(self, bundled_gadget):
        report, gadget = verify(bundled_gadget)
        assert report.ok
        inst = build_theorem1(4, 2, gadget)
        assert inst.gadget is bundled_gadget

    def test_parameter_mismatches(self, bundled_gadget):
        with pytest.raises(ValueError, match="n="):
            build_theorem1(4, 4, bundled_gadget)  # k=4 needs n=3
        with pytest.raises(ValueError, match="dimension"):
            build_theorem1(8, 2, bundled_gadget)  # d=8 needs gadget dim 4


class TestUnionWitness:
    def test_pattern_thresholds(self, bundled_instance, n3_gadget):
        # pattern p of P has tau d + 1/2 + p/(4P): distinct, strictly inside
        # (d, d+1), and with denominators dividing 4P, whatever k is
        two_boxes = BoxGadget(n=41, dim=2, boxes=_disjoint_boxes(2))
        instances = (
            dataclasses.replace(bundled_instance),
            build_theorem1(4, 4, n3_gadget),
            build_theorem1(4, 1 << 40, two_boxes),
        )
        for inst in instances:
            count = len(inst.gadget._pattern_points)
            assert len(inst._bounds) == len(inst._taus) == len(set(inst._taus)) == count
            assert all(inst.d < tau < inst.d + 1 for tau in inst._taus)
            low = 2 * count * (2 * inst.d + 1)
            assert [tau * 4 * count for tau in inst._taus] == list(range(low, low + count))
            assert inst._taus[1].denominator == 4 * count

    def test_taus_hold_one_threshold_per_pattern(self, bundled_gadget, n3_gadget):
        # k enters no threshold: the same gadget gives the same taus at every
        # k it serves, one per pattern, even at k = 2^40
        cases = [
            (bundled_gadget, 2),
            (bundled_gadget, 3),
            (n3_gadget, 4),
            (BoxGadget(n=4, dim=2, boxes=_disjoint_boxes(8)), 8),
            (BoxGadget(n=3, dim=2, boxes=_disjoint_boxes(3)), 4),
            (BoxGadget(n=41, dim=2, boxes=_disjoint_boxes(2)), 1 << 40),
        ]
        taus = {}
        for gadget, k in cases:
            inst = build_theorem1(4, k, gadget)
            assert len(inst._taus) == len(gadget._pattern_points)
            assert taus.setdefault(gadget, inst._taus) == inst._taus
            inst2 = build_theorem2(inst)
            assert verify_theorem1(inst).shattered
            assert verify_theorem2(inst2).checked == 1 << len(gadget.boxes)

    def test_empty_subset_covers_nothing(self, bundled_instance):
        witness = union_witness(bundled_instance, [])
        for p in bundled_instance.points:
            assert not any(halfspace_contains(h, p) for h in witness)

    def test_full_subset_covers_everything(self, bundled_instance):
        witness = union_witness(bundled_instance, range(5))
        for p in bundled_instance.points:
            assert any(halfspace_contains(h, p) for h in witness)

    def test_size_bound(self, bundled_instance):
        limit = 1 << (bundled_instance.gadget.n - 1)
        assert limit <= bundled_instance.k
        for mask in range(1 << 5):
            assert len(union_witness(bundled_instance, mask)) <= limit

    def test_broken_gadget_raises_construction_error(self, bundled_instance):
        # build_theorem1 refuses a failing gadget, so swap one into a built instance
        broken = _nested_box_gadget(bundled_instance.gadget)
        report, _ = verify(broken)
        assert not report.ok
        inst = dataclasses.replace(bundled_instance, gadget=broken)
        failing_mask = 0
        for i in report.failing_subsets[0]:
            failing_mask |= 1 << i
        with pytest.raises(ConstructionError):
            union_witness(inst, ((1 << 5) - 1) & ~failing_mask)


class TestVerifyTheorem1:
    def test_exhaustive_shatters(self, bundled_instance):
        report = verify_theorem1(bundled_instance, mode="exhaustive", compute_vc_dim=True)
        assert report.shattered
        assert report.checked == 32
        assert report.max_witness_size <= 2
        assert report.union_vc_dim == 5
        assert report.failing_subsets == ()

    def test_integer_kernel_matches_fraction_masks(self, bundled_instance):
        inst = bundled_instance
        for pmask in range(1 << len(inst.points)):
            for h in union_witness(inst, pmask):
                expected = sum(
                    1 << i for i, p in enumerate(inst.points) if halfspace_contains(h, p)
                )
                assert halfspace_system(inst.points, [h]).sets == (expected,)

    def test_mutated_point_fails(self, bundled_instance):
        # bump one coordinate of one point a full rescale level up
        points = list(bundled_instance.points)
        p0 = list(points[0].coords)
        p0[0] *= bundled_instance.d + 1
        points[0] = Point(tuple(p0))
        mutated = dataclasses.replace(bundled_instance, points=tuple(points))
        report = verify_theorem1(mutated, mode="exhaustive")
        assert not report.shattered
        assert report.failing_subsets

    def test_sample_mode_is_reproducible(self, bundled_instance):
        a = verify_theorem1(bundled_instance, mode="sample", count=10, seed=42)
        b = verify_theorem1(bundled_instance, mode="sample", count=10, seed=42)
        assert a == b
        assert a.shattered

    def test_sample_mode_needs_seed(self, bundled_instance):
        with pytest.raises(ValueError, match="seed"):
            verify_theorem1(bundled_instance, mode="sample", count=5)

    def test_guard_on_instance_size(self, bundled_instance):
        with pytest.raises(ValueError, match="mode"):
            verify_theorem1(bundled_instance, mode="bogus")

    def test_sample_count_beyond_the_subsets_checks_them_all(self, bundled_instance):
        report = verify_theorem1(bundled_instance, mode="sample", count=100, seed=3)
        assert report.checked == 32
        assert report.shattered

    def test_vc_dim_of_a_closure_that_is_not_full(self, n3_gadget, monkeypatch):
        # five sampled subsets cut too few sets for their 4-fold union to be
        # the power set, so the report comes from vc_dim, not the popcount
        inst = build_theorem1(4, 4, n3_gadget)
        # the run folds the cut sets once, and vc_dim reads that same closure
        closures = [_counting(monkeypatch, m, "union_closure") for m in (constructions, setsystem)]
        report = verify_theorem1(inst, mode="sample", count=5, seed=1, compute_vc_dim=True)
        assert sum(map(len, closures)) == 1
        masks = constructions._selected_masks(12, "sample", 5, 1)
        assert report.shattered and len(masks) == 5
        # the verifier checks the public witnesses of the sampled subsets
        halfspaces = [h for mask in masks for h in union_witness(inst, mask)]
        system = halfspace_system(inst.points, halfspaces)
        assert union_closure(system.sets, 12, 4).bit_count() < 1 << 12
        assert report.union_vc_dim == vc_dim(k_fold_union(system, 4))[0]

    def test_witness_error_is_a_failing_subset(self, bundled_instance, monkeypatch):
        # union 13, a leaf of the witness tree, is unreached
        _patch_tables(monkeypatch, bundled_instance.gadget, {13: (-1, -1)})
        inst = dataclasses.replace(bundled_instance)
        with pytest.raises(ConstructionError):
            union_witness(inst, 13)
        report = verify_theorem1(inst, mode="exhaustive", compute_vc_dim=True)
        assert not report.shattered
        assert report.checked == 32
        assert report.failing_subsets == ((0, 2, 3),)

    def test_memoized_masks_never_hide_a_wrong_witness(self, bundled_instance, monkeypatch):
        # mask 13 gets the half-spaces of mask 11, whose masks the run has already memoized
        gadget = bundled_instance.gadget
        _patch_tables(monkeypatch, gadget, _swapped_entries(gadget, 13, 11))
        inst = dataclasses.replace(bundled_instance)
        assert union_witness(inst, 13) == union_witness(inst, 11)
        report = verify_theorem1(inst, mode="exhaustive", compute_vc_dim=True)
        assert not report.shattered
        assert report.checked == 32
        assert report.failing_subsets == ((0, 2, 3),)

    def test_witness_beyond_k_is_a_failing_subset(self, bundled_instance, monkeypatch):
        # the instance's k drops by one after its rows are built: every
        # witness still cuts out its subset exactly, so only the size bound
        # can reject those of the old k half-spaces
        inst = dataclasses.replace(bundled_instance)
        assert verify_theorem1(inst, mode="exhaustive").shattered
        sizes = {m: len(union_witness(inst, m)) for m in range(32)}
        monkeypatch.setitem(inst.__dict__, "k", inst.k - 1)
        beyond = [m for m, size in sizes.items() if size > inst.k]
        assert beyond and max(sizes.values()) == inst.k + 1
        report = verify_theorem1(inst, mode="exhaustive")
        assert not report.shattered
        assert report.failing_subsets == tuple(tuple(mask_to_indices(m)) for m in beyond)
        assert report.max_witness_size == inst.k + 1


class TestHalfspaceKernel:
    """The one half-space per pattern behind ``verify_theorem1``."""

    def test_pattern_masks_match_the_oracle(self, n3_gadget):
        # each pattern's bounds under every threshold of the instance: any
        # tau inside (d, d+1) cuts out the same points
        inst = build_theorem1(4, 4, n3_gadget)
        columns = [p._vertex_column for p in inst.points]
        for number, b in enumerate(inst._bounds):
            h = RestrictedHalfspace(b, inst._taus[number])
            want = sum(1 << i for i, p in enumerate(inst.points) if halfspace_contains(h, p))
            assert {_halfspace_mask(b, tau, columns) for tau in inst._taus} == {want}

    def test_bound_sums_once_per_bound_tuple(self, n3_gadget, monkeypatch):
        # one _halfspace_mask per pattern: the 57 distinct witness half-spaces
        inst = build_theorem1(4, 4, n3_gadget)
        made = _counting(monkeypatch, constructions, "_halfspace_mask")
        assert verify_theorem1(inst, compute_vc_dim=True).shattered
        halfspaces = {h for mask in range(1 << 12) for h in union_witness(inst, mask)}
        assert len(halfspaces) == len({h.b for h in halfspaces}) == 57
        assert sorted((b, tau) for b, tau, _ in made) == sorted((h.b, h.tau) for h in halfspaces)

    def test_halfspaces_share_their_pattern_bounds_and_taus(self, bundled_gadget, n3_gadget):
        # every half-space of every witness is made on its pattern's bound
        # tuple and tau, the objects the instance keeps, wherever it sits in
        # its witness; every pattern is some witness's
        for inst in (build_theorem1(4, 3, bundled_gadget), build_theorem1(4, 4, n3_gadget)):
            full = (1 << len(inst.points)) - 1
            used = set()
            for mask in range(full + 1):
                numbers = _witness_patterns(inst.gadget, full & ~mask)
                witness = union_witness(inst, mask)
                assert len(witness) == len(numbers) <= inst.gadget.max_witness_size
                for h, number in zip(witness, numbers):
                    assert h.b is inst._bounds[number] and h.tau is inst._taus[number]
                    used.add(number)
            assert used == set(range(len(inst._taus)))


class TestTheorem2:
    def test_build_counts(self, bundled_instance):
        inst2 = build_theorem2(bundled_instance)
        assert len(inst2.hyperplanes) == 5
        assert len({h.p.coords for h in inst2.hyperplanes}) == 5
        assert inst2.k == 2

    def test_empty_subset_simplex_misses_everything(self, bundled_instance):
        inst2 = build_theorem2(bundled_instance)
        simplex = simplex_witness(inst2, [])
        assert not any(simplex_hyperplane_intersects(simplex, h) for h in inst2.hyperplanes)

    def test_full_subset_simplex_meets_everything(self, bundled_instance):
        inst2 = build_theorem2(bundled_instance)
        simplex = simplex_witness(inst2, range(5))
        assert all(simplex_hyperplane_intersects(simplex, h) for h in inst2.hyperplanes)

    def test_simplex_dimension_bound(self, bundled_instance):
        inst2 = build_theorem2(bundled_instance)
        for mask in range(32):
            simplex = simplex_witness(inst2, mask)
            assert simplex.simplex_dim <= inst2.k

    def test_exhaustive_shatters_with_strict_signs(self, bundled_instance):
        inst2 = build_theorem2(bundled_instance)
        report = verify_theorem2(inst2, mode="exhaustive")
        assert report.shattered
        assert report.checked == 32
        assert report.zero_signs == 0

    def test_simplex_error_is_a_failing_subset(self, bundled_instance, monkeypatch):
        # union 13, a leaf of the witness tree, is unreached
        gadget = bundled_instance.gadget
        _patch_tables(monkeypatch, gadget, {13: (-1, -1)})
        inst2 = build_theorem2(dataclasses.replace(bundled_instance))
        with pytest.raises(ConstructionError):
            simplex_witness(inst2, 13)
        report = verify_theorem2(inst2, mode="exhaustive")
        assert not report.shattered
        assert report.checked == 32
        assert report.failing_subsets == ((0, 2, 3),)
        assert report.zero_signs == 0
        monkeypatch.undo()
        # the vertex of union 13's last pattern is the apex, on which every
        # simplex already stands: each witness that takes that pattern is
        # affinely dependent
        inst2 = build_theorem2(dataclasses.replace(bundled_instance))
        bad = _witness_patterns(gadget, 31 & ~13)[-1]
        bad_halfspace = RestrictedHalfspace(inst2.base._bounds[bad], inst2.base._taus[bad])

        def dual(h, dual=dual_halfspace_to_point):
            return constructions._apex(4) if h == bad_halfspace else dual(h)

        monkeypatch.setattr(constructions, "dual_halfspace_to_point", dual)
        with pytest.raises(ConstructionError, match="affinely dependent"):
            simplex_witness(inst2, 13)
        dependent = [
            tuple(mask_to_indices(m)) for m in range(32) if bad in _witness_patterns(gadget, 31 & ~m)
        ]
        assert (0, 2, 3) in dependent and len(dependent) > 1
        report = verify_theorem2(inst2, mode="exhaustive")
        assert report.failing_subsets == tuple(dependent)
        assert report.zero_signs == 0

    def test_simplex_beyond_k_is_a_failing_subset(self, bundled_instance, monkeypatch):
        # the base instance's k drops by one after the dual vertices are
        # built: every simplex is still crossed by exactly its subset, so
        # only the dimension bound can reject those of dimension the old k
        inst = dataclasses.replace(bundled_instance)
        inst2 = build_theorem2(inst)
        assert verify_theorem2(inst2, mode="exhaustive").shattered
        dims = {m: simplex_witness(inst2, m).simplex_dim for m in range(32)}
        monkeypatch.setitem(inst.__dict__, "k", inst.k - 1)
        beyond = [m for m, dim in dims.items() if dim > inst2.k]
        assert beyond and max(dims.values()) == inst2.k + 1
        report = verify_theorem2(inst2, mode="exhaustive")
        assert not report.shattered
        assert report.failing_subsets == tuple(tuple(mask_to_indices(m)) for m in beyond)
        assert report.max_witness_size == inst2.k + 1
        assert report.zero_signs == 0

    def test_memoized_signs_never_hide_a_wrong_witness(self, bundled_instance, monkeypatch):
        # mask 13 gets the simplex of mask 11, whose vertex signs the run has already memoized
        gadget = bundled_instance.gadget
        _patch_tables(monkeypatch, gadget, _swapped_entries(gadget, 13, 11))
        inst2 = build_theorem2(dataclasses.replace(bundled_instance))
        assert simplex_witness(inst2, 13).vertices == simplex_witness(inst2, 11).vertices
        report = verify_theorem2(inst2, mode="exhaustive")
        assert not report.shattered
        assert report.checked == 32
        assert report.failing_subsets == ((0, 2, 3),)
        assert report.zero_signs == 0

    def test_each_distinct_witness_is_processed_once(self, n3_gadget, monkeypatch):
        # each run makes what it checks once per pattern that its witnesses
        # take: all 57
        inst = build_theorem1(4, 4, n3_gadget)
        calls = {
            name: _counting(monkeypatch, constructions, name)
            for name in ("snap", "_halfspace_mask", "RestrictedHalfspace",
                         "dual_halfspace_to_point", "_vertex_signs")
        }
        assert verify_theorem1(inst, mode="exhaustive", compute_vc_dim=True).shattered
        counts = {name: len(record) for name, record in calls.items()}
        # one snap per menu value of each gadget axis, not one per pattern
        assert counts.pop("snap") == sum(len(values) for values in n3_gadget._menu)
        assert counts == {"_halfspace_mask": 57, "RestrictedHalfspace": 0,
                          "dual_halfspace_to_point": 0, "_vertex_signs": 0}
        inst2 = build_theorem2(inst)
        for run in (1, 2):
            assert verify_theorem2(inst2, mode="exhaustive").shattered
            # each run has its own memo, so the second makes them again
            assert len(calls["dual_halfspace_to_point"]) == len(calls["RestrictedHalfspace"])
            assert len(calls["dual_halfspace_to_point"]) == 57 * run
            assert len(calls["_vertex_signs"]) == 58 * run  # the apex's too
        assert len(calls["_halfspace_mask"]) == 57
        assert len(calls["snap"]) == sum(len(values) for values in n3_gadget._menu)

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=10**6, max_denominator=10**6).filter(
                lambda x: x > 0
            ),
            min_size=2,
            max_size=8,
        )
    )
    def test_apex_is_above_every_positive_hyperplane(self, coords):
        h = dual_point_to_hyperplane(Point(tuple(coords)))
        assert side_of(h, constructions._apex(len(coords))) == 1

    def test_degenerate_masks_at_k4_build(self, n3_gadget):
        # Each of these masks has a witness point with equal coordinates on
        # both gadget axes, which puts every dual vertex in the hyperplane
        # x_1 = x_3; the simplex is full only if the apex lies off it.
        inst2 = build_theorem2(build_theorem1(4, 4, n3_gadget))
        for mask in (1748, 1750, 1781, 2474, 2488, 2490, 2538, 2552, 2554):
            simplex = simplex_witness(inst2, mask)
            crossed = [simplex_hyperplane_intersects(simplex, h) for h in inst2.hyperplanes]
            assert crossed == [bool(mask >> i & 1) for i in range(12)], mask

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="witness points with equal coordinates on both gadget axes give "
        "affinely dependent dual vertices, so four-point subsets fail too",
    )
    def test_only_subsets_past_d_fail_on_diagonal_squares(self):
        # 8 squares [2i+1, 2i+2]^2 on the diagonal: a valid n=4 gadget
        squares = tuple(AxisBox((2 * i + 1,) * 2, (2 * i + 2,) * 2) for i in range(8))
        inst = build_theorem1(4, 8, BoxGadget(n=4, dim=2, boxes=squares))
        assert verify_theorem1(inst, mode="exhaustive", compute_vc_dim=True).union_vc_dim == 8
        report = verify_theorem2(build_theorem2(inst), mode="exhaustive")
        subsets = [tuple(mask_to_indices(mask)) for mask in range(256)]
        assert set(report.failing_subsets) == {s for s in subsets if len(s) > 4}

    def test_distinct_taus_keep_four_point_simplices_independent(self, monkeypatch):
        # 8 x-disjoint boxes (n=4, d=4, k=8): with the pattern taus only the
        # 93 subsets of more than d = 4 points fail; under one tau d + 1/2
        # for every pattern, the dual vertices of all 70 four-point subsets
        # are affinely dependent too
        inst = build_theorem1(4, 8, BoxGadget(n=4, dim=2, boxes=_disjoint_boxes(8)))
        subsets = [tuple(mask_to_indices(mask)) for mask in range(256)]
        report = verify_theorem2(build_theorem2(inst))
        assert set(report.failing_subsets) == {s for s in subsets if len(s) > 4}
        assert len(report.failing_subsets) == 93
        monkeypatch.setitem(inst.__dict__, "_taus", (F(9, 2),) * len(inst._taus))
        report = verify_theorem2(build_theorem2(inst))
        assert set(report.failing_subsets) == {s for s in subsets if len(s) >= 4}
        assert len(report.failing_subsets) == 163
        assert report.zero_signs == 0

    def test_apex_on_a_hyperplane_counts_zero_signs(self, bundled_instance, monkeypatch):
        inst2 = build_theorem2(bundled_instance)
        height = bundled_instance.points[0].coords[-1]
        monkeypatch.setattr(constructions, "_apex", lambda d: Point((0,) * (d - 1) + (height,)))
        assert side_of(inst2.hyperplanes[0], constructions._apex(4)) == 0
        report = verify_theorem2(inst2, mode="exhaustive")
        # One zero per simplex: the apex lies on H(p_0) and off the others.
        assert report.zero_signs == report.checked == 32

    def test_apex_above_everything_breaks_the_construction(self, bundled_instance, monkeypatch):
        inst2 = build_theorem2(bundled_instance)
        top = max(p.coords[-1] for p in bundled_instance.points)
        monkeypatch.setattr(constructions, "_apex", lambda d: Point((0,) * (d - 1) + (2 * top,)))
        report = verify_theorem2(inst2, mode="exhaustive")
        assert not report.shattered
        assert report.failing_subsets


def _pinned_gadget(seed: int) -> BoxGadget:
    """One of the n=3 gadgets that perfbench pins."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gadgets" / f"n3-seed{seed}.json"
    return jsonio.gadget_from_dict(jsonio.load_json(path))


def _scratch_halfspaces(inst, pmask: int):
    """The witness half-spaces of the subset mask, built from its full pattern
    list, in ascending pattern order: pattern p's corner snapped here, under
    the threshold d + 1/2 + p/(4P), P the gadget's pattern count."""
    numbers = _witness_patterns(inst.gadget, ((1 << len(inst.points)) - 1) & ~pmask)
    if numbers is None:
        raise ConstructionError(f"no witness for subset mask {pmask}")
    menu = inst.gadget._pattern_points
    return [
        RestrictedHalfspace(
            b=snap(_lift(menu[p].coords, menu[p].coords), inst.alpha),
            tau=F(2 * inst.d + 1, 2) + F(p, 4 * len(menu)),
        )
        for p in numbers
    ]


def _scratch_union_witness(inst, subset):
    return tuple(_scratch_halfspaces(inst, subset_mask(len(inst.points), subset)))


def _scratch_simplex_witness(inst2, subset):
    """The witness vertices followed by the apex, checked by the full constructor."""
    base = inst2.base
    halfspaces = _scratch_halfspaces(base, subset_mask(len(base.points), subset))
    vertices = [dual_halfspace_to_point(h) for h in halfspaces]
    try:
        return OpenSimplex(base.d, (*vertices, constructions._apex(base.d)))
    except DegenerateSimplexError as err:
        raise ConstructionError(str(err)) from err


def _memo(walk) -> dict:
    """The nodes a witness-tree walk memoizes, by the union mask of a tree
    parent: the memo a verifier's walk passes to each step."""
    _, _, nodes, _ = walk.args
    return nodes


def _recorded_walks(monkeypatch) -> list:
    """Record the walk each verifier builds; returns the record."""
    walks = []
    for name in ("_union_walk", "_simplex_walk"):

        def recorded(*args, build=getattr(constructions, name)):
            walks.append(build(*args))
            return walks[-1]

        monkeypatch.setattr(constructions, name, recorded)
    return walks


def _tree_parents(gadget: BoxGadget, unions) -> set[int]:
    """The unions that are the witness-tree parent of one of ``unions``."""
    pick, prev = gadget._closure
    return {prev[u] for u in unions if pick[u] >= 0 and prev[u] >= 0}


class TestWitnessTree:
    """Witnesses grown along the witness tree equal witnesses built per subset."""

    @staticmethod
    def instances(bundled_instance, n3_gadget):
        """Fresh copies of the bundled d=4, k=2 instance and the seed-0 d=4, k=4 one,
        so every memo starts empty."""
        return dataclasses.replace(bundled_instance), build_theorem1(4, 4, n3_gadget)

    @staticmethod
    def matched_report(inst, theorem2: bool):
        """The verifier's report on inst, asserted equal to the report of the
        per-subset reference verifier on scratch-built witnesses."""
        fresh = dataclasses.replace(inst)
        if theorem2:
            got = verify_theorem2(build_theorem2(inst))
            want = reference_verify_theorem2(build_theorem2(fresh), _scratch_simplex_witness)
        else:
            got = verify_theorem1(inst, compute_vc_dim=True)
            want = reference_verify_theorem1(fresh, _scratch_union_witness, compute_vc_dim=True)
        assert got == want
        return got

    def test_witnesses_match_scratch(self, bundled_instance, n3_gadget):
        for inst in self.instances(bundled_instance, n3_gadget):
            inst2 = build_theorem2(inst)
            apex = constructions._apex(inst.d)
            for mask in range(1 << len(inst.points)):
                assert union_witness(inst, mask) == _scratch_union_witness(inst, mask)
                simplex = simplex_witness(inst2, mask)
                scratch = _scratch_simplex_witness(inst2, mask)
                assert set(simplex.vertices) == set(scratch.vertices)
                assert simplex.vertices == (apex, *scratch.vertices[:-1])

    def test_reports_match_scratch(self, bundled_instance, n3_gadget):
        for inst in self.instances(bundled_instance, n3_gadget):
            for theorem2 in (False, True):
                assert self.matched_report(inst, theorem2).shattered

    @staticmethod
    def mutants(bundled_instance):
        """The bundled instance with a failing gadget swapped in, and with
        point 0 moved one grid step up in its first coordinate."""
        broken = dataclasses.replace(
            bundled_instance, gadget=_nested_box_gadget(bundled_instance.gadget)
        )
        points = list(bundled_instance.points)
        points[0] = Point((points[0].coords[0] * (bundled_instance.d + 1), *points[0].coords[1:]))
        return broken, dataclasses.replace(bundled_instance, points=tuple(points))

    def test_reports_match_scratch_on_mutants(self, bundled_instance, monkeypatch):
        for inst in self.mutants(bundled_instance):
            for theorem2 in (False, True):
                assert self.matched_report(inst, theorem2).failing_subsets
        # an apex on H(p_0), then one above every hyperplane
        top = max(p.coords[-1] for p in bundled_instance.points)
        for height in (bundled_instance.points[0].coords[-1], 2 * top):
            monkeypatch.setattr(constructions, "_apex", lambda d: Point((0,) * (d - 1) + (height,)))
            inst2 = build_theorem2(dataclasses.replace(bundled_instance))
            got = verify_theorem2(inst2)
            assert got.zero_signs or got.failing_subsets
            assert reference_verify_theorem2(inst2, _scratch_simplex_witness) == got
            monkeypatch.undo()

    def test_patterns_sharing_bounds_fail_without_raising(self, n3_gadget, monkeypatch):
        # pattern 1's row of half-spaces takes pattern 0's bounds, so the two
        # share one bound tuple
        inst = build_theorem1(4, 4, n3_gadget)
        bounds = list(inst._bounds)
        bounds[1] = bounds[0]
        monkeypatch.setitem(inst.__dict__, "_bounds", tuple(bounds))
        assert inst._bounds[1] is inst._bounds[0]
        full = (1 << len(inst.points)) - 1
        for report in (verify_theorem1(inst), verify_theorem2(build_theorem2(inst))):
            assert report.failing_subsets
            # only witnesses that use pattern 1 changed
            for subset in report.failing_subsets:
                mask = subset_mask(len(inst.points), subset)
                assert 1 in _witness_patterns(n3_gadget, full & ~mask)

    def test_memos_hold_exactly_the_parents(self, bundled_instance, n3_gadget, monkeypatch):
        for inst in self.instances(bundled_instance, n3_gadget):
            inst2 = build_theorem2(inst)
            walks = _recorded_walks(monkeypatch)
            annihilations = _counting(monkeypatch, geometry, "_annihilate")
            assert verify_theorem2(inst2).shattered
            assert verify_theorem1(inst).shattered
            parents = _tree_parents(inst.gadget, range(1 << len(inst.points)))
            assert len(walks) == 2
            assert set(_memo(walks[0])) == set(_memo(walks[1])) == parents | {-1}
            # the apex's own fold, then at most one step per parent simplex
            assert len(annihilations) <= 1 + len(parents)
            monkeypatch.undo()

    def test_rows_equal_the_snapped_pattern_corners(self, bundled_instance, n3_gadget):
        # the bundled n=2 and n=3 gadgets, the three pinned perfbench gadgets
        # and both mutants; the broken one pairs another gadget with the
        # bundled alpha, which its rows must still snap against
        instances = [
            *self.instances(bundled_instance, n3_gadget),
            *(build_theorem1(4, 4, _pinned_gadget(seed)) for seed in (0, 3, 6)),
            *self.mutants(bundled_instance),
        ]
        for inst in instances:
            menu = inst.gadget._pattern_points
            assert len(inst._bounds) == len(menu)
            for bounds, q in zip(inst._bounds, menu):
                assert bounds == snap(_lift(q.coords, q.coords), inst.alpha)

    def test_single_subsets_on_fresh_instances(self, bundled_instance, n3_gadget):
        # every call is the first on its instance, so it builds the tables itself
        for inst in self.instances(bundled_instance, n3_gadget):
            npoints = len(inst.points)
            masks = {0, (1 << npoints) - 1, *random.Random(1).sample(range(1 << npoints), 24)}
            for mask in sorted(masks):
                fresh = dataclasses.replace(inst)
                assert union_witness(fresh, mask) == _scratch_union_witness(inst, mask)
                fresh2 = build_theorem2(dataclasses.replace(inst))
                got = simplex_witness(fresh2, mask)
                assert got.vertices[1:] == _scratch_simplex_witness(fresh2, mask).vertices[:-1]

    def test_a_subset_with_no_witness_raises(self, bundled_instance):
        # every subset the gadget fails raises, on either theorem
        broken, _ = self.mutants(bundled_instance)
        report, _ = verify(broken.gadget)
        assert report.failing_subsets
        for avoid in report.failing_subsets:
            mask = ((1 << len(broken.points)) - 1) & ~subset_mask(len(broken.points), avoid)
            message = re.escape(
                f"gadget has no witness for box subset {list(avoid)}; the certificate is invalid"
            )
            with pytest.raises(ConstructionError, match=f"^{message}$"):
                union_witness(dataclasses.replace(broken), mask)
            with pytest.raises(ConstructionError, match=f"^{message}$"):
                simplex_witness(build_theorem2(dataclasses.replace(broken)), mask)

    def test_instances_keep_only_their_tables(self, n3_gadget, monkeypatch):
        # public witnesses and verifier runs leave no walk or memo behind on
        # an instance, so the dual vertices a run makes are freed when it
        # returns, without the cyclic collector
        made = []

        def dual(h, dual=dual_halfspace_to_point):
            vertex = dual(h)
            made.append(weakref.ref(vertex))
            return vertex

        gc.disable()
        try:
            inst = build_theorem1(4, 4, n3_gadget)
            inst2 = build_theorem2(inst)
            for mask in range(1 << 12):
                union_witness(inst, mask)
                simplex_witness(inst2, mask)
            assert verify_theorem1(inst, compute_vc_dim=True).shattered
            monkeypatch.setattr(constructions, "dual_halfspace_to_point", dual)
            assert verify_theorem2(inst2).shattered
            fields = {f.name for f in dataclasses.fields(inst)}
            assert set(inst.__dict__) - fields == {"_bounds", "_taus"}
            assert set(inst2.__dict__) == {"base", "hyperplanes"}
            assert len(made) == 57
            assert all(vertex() is None for vertex in made)
        finally:
            gc.enable()

    def test_query_order_does_not_matter(self, n3_gadget):
        masks = list(range(1 << 12))
        shuffled = random.Random(0).sample(masks, len(masks))
        for order in (masks[::-1], shuffled):
            inst = build_theorem1(4, 4, n3_gadget)
            inst2 = build_theorem2(inst)
            for mask in order:
                assert union_witness(inst, mask) == _scratch_union_witness(inst, mask)
                got = simplex_witness(inst2, mask)
                assert got.vertices[1:] == _scratch_simplex_witness(inst2, mask).vertices[:-1]

    @pytest.mark.parametrize("seed", [3, 6])
    def test_other_pinned_gadgets_match_scratch(self, seed):
        inst = build_theorem1(4, 4, _pinned_gadget(seed))
        t1 = self.matched_report(inst, theorem2=False)
        t2 = self.matched_report(inst, theorem2=True)
        assert t1.shattered and t2.shattered
        assert t1.checked == t2.checked == 4096
        assert t1.union_vc_dim == 12
        assert t2.zero_signs == 0

    def test_sample_mode_memoizes_the_sampled_ancestors(self, n3_gadget, monkeypatch):
        inst = build_theorem1(4, 4, n3_gadget)
        masks = constructions._selected_masks(12, "sample", 64, 5)
        walks = _recorded_walks(monkeypatch)
        assert verify_theorem1(inst, mode="sample", count=64, seed=5).shattered
        assert verify_theorem2(build_theorem2(inst), mode="sample", count=64, seed=5).shattered
        ancestors = set()
        frontier = set(masks)
        while frontier:
            frontier = _tree_parents(inst.gadget, frontier)
            ancestors |= frontier
        assert len(walks) == 2
        assert set(_memo(walks[0])) == set(_memo(walks[1])) == ancestors | {-1}

    def test_sample_mode_makes_the_sampled_items(self, n3_gadget, monkeypatch):
        # each sampled run makes what it checks for exactly the patterns of
        # its sampled subsets' witnesses, each pattern once
        inst = build_theorem1(4, 4, n3_gadget)
        full = (1 << 12) - 1
        items = {
            number
            for mask in constructions._selected_masks(12, "sample", 64, 5)
            for number in _witness_patterns(n3_gadget, full & ~mask)
        }
        names = ("_halfspace_mask", "dual_halfspace_to_point", "_vertex_signs")
        calls = {name: _counting(monkeypatch, constructions, name) for name in names}
        assert verify_theorem1(inst, mode="sample", count=64, seed=5).shattered
        assert verify_theorem2(build_theorem2(inst), mode="sample", count=64, seed=5).shattered
        assert 0 < len(items) < 57
        bounds, taus = inst._bounds, inst._taus
        masks = [(bounds.index(b), taus.index(tau)) for b, tau, _ in calls["_halfspace_mask"]]
        made = [(bounds.index(h.b), taus.index(h.tau)) for (h,) in calls["dual_halfspace_to_point"]]
        assert sorted(masks) == sorted(made) == sorted((p, p) for p in items)
        assert len(calls["_vertex_signs"]) == len(items) + 1  # the apex's too

    def test_each_subset_mask_is_validated_once(self, n3_gadget, monkeypatch):
        # the verifiers make their own masks and validate none; a public
        # witness call validates its one
        inst = build_theorem1(4, 4, n3_gadget)
        inst2 = build_theorem2(inst)
        calls = [_counting(monkeypatch, m, "subset_mask") for m in (constructions, boxgadget)]
        report = verify_theorem1(inst, compute_vc_dim=True)
        assert report.shattered and report.checked == 4096
        assert verify_theorem2(inst2).shattered
        assert sum(map(len, calls)) == 0
        for mask in (0, 0b111, 4095):
            union_witness(inst, mask)
            simplex_witness(inst2, mask)
        # simplex_witness validates its subset and hands that mask to
        # union_witness, which checks its range again
        assert sum(map(len, calls)) == 9

    def test_verifier_walks_follow_the_public_witnesses(self, bundled_instance, n3_gadget):
        # per subset, the node of each verifier's walk is the one derived
        # from the public witness with the oracle predicates, and the union
        # walk's memo holds each pattern's mask under its number
        for inst in self.instances(bundled_instance, n3_gadget):
            inst2 = build_theorem2(inst)
            pattern_masks = {}
            union_walk = constructions._union_walk(inst, pattern_masks)
            simplex_walk = constructions._simplex_walk(inst2)
            cut = {}
            signs = {}
            for mask in range(1 << len(inst.points)):
                witness = union_witness(inst, mask)
                got = 0
                for h in witness:
                    if h not in cut:
                        cut[h] = halfspace_cut(h, inst.points)
                    got |= cut[h]
                assert union_walk(mask) == (got, len(witness))
                simplex = simplex_witness(inst2, mask)
                pos = neg = zeros = 0
                on = (1 << len(inst.points)) - 1
                for v in simplex.vertices:
                    if v not in signs:
                        signs[v] = sign_masks(v, inst2.hyperplanes)
                    p, n, z = signs[v]
                    pos, neg, on, zeros = pos | p, neg | n, on & z, zeros + z.bit_count()
                node = simplex_walk(mask)
                assert node[0].vertices == simplex.vertices
                assert node[1:] == (pos, neg, on, zeros)
            halfspaces = map(RestrictedHalfspace, inst._bounds, inst._taus)
            assert pattern_masks == {p: cut[h] for p, h in enumerate(halfspaces)}


class TestFiniteLevelIdentities:
    def test_de_morgan_on_induced_systems(self, bundled_instance):
        halfspaces = []
        for mask in range(32):
            halfspaces.extend(union_witness(bundled_instance, mask))
        system = halfspace_system(bundled_instance.points, halfspaces)
        for k in (1, 2, 3):
            lhs = complement_system(k_fold_intersection(system, k))
            rhs = k_fold_union(complement_system(system), k)
            assert lhs == rhs

    def test_union_family_realizes_the_lower_bound(self, bundled_instance):
        halfspaces = []
        for mask in range(32):
            halfspaces.extend(union_witness(bundled_instance, mask))
        system = halfspace_system(bundled_instance.points, halfspaces)
        folded = k_fold_union(system, bundled_instance.k)
        assert vc_dim(folded)[0] == len(bundled_instance.points)
