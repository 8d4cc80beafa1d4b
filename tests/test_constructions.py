from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcshatter import constructions
from vcshatter.boxgadget import BoxGadget, verify
from vcshatter.constructions import (
    ConstructionError,
    anchored_box_of,
    box_to_halfspace,
    build_theorem1,
    build_theorem2,
    lift_box,
    required_gadget_n,
    rescale,
    simplex_witness,
    snap_anchored_box,
    union_witness,
    verify_theorem1,
    verify_theorem2,
)
from vcshatter.geometry import (
    AxisBox,
    Point,
    box_contains,
    halfspace_contains,
    induced_system_points_in_halfspaces,
)
from vcshatter.setsystem import (
    complement_system,
    k_fold_intersection,
    k_fold_union,
    vc_dim,
)

F = Fraction

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


class TestAnchoredBox:
    def test_example(self):
        box = anchored_box_of(Point.of(F(3, 2), F(7, 2)))
        assert box.lo == (F(0), F(0), F(0), F(0))
        assert box.hi == (F(3, 2), F(2, 3), F(7, 2), F(2, 7))

    def test_membership_equivalence_example(self):
        box = AxisBox((1, 3), (2, 4))
        q = Point.of(F(3, 2), F(7, 2))
        assert box_contains(box, q)
        assert box_contains(anchored_box_of(q), lift_box(box))

    def test_membership_equivalence_on_boundaries(self):
        box = AxisBox((1, 3), (2, 4))
        values_x = [F(1, 2), F(1), F(3, 2), F(2), F(3)]
        values_y = [F(2), F(3), F(7, 2), F(4), F(5)]
        for qx, qy in product(values_x, values_y):
            q = Point.of(qx, qy)
            assert box_contains(box, q) == box_contains(anchored_box_of(q), lift_box(box))

    @given(positive_boxes(), st.tuples(positive, positive))
    @settings(max_examples=80, deadline=None)
    def test_membership_equivalence_random(self, box, q_coords):
        q = Point(q_coords)
        assert box_contains(box, q) == box_contains(anchored_box_of(q), lift_box(box))


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
        box = AxisBox((0, 0), (1, 2))  # hi equals the original values (1, 2)
        snapped = snap_anchored_box(box, alpha)
        assert snapped.hi == (F(3), F(9))  # images of 1 and 2

    def test_snap_below_everything_excludes(self):
        pts = [Point.of(2, 2), Point.of(3, 3)]
        rescaled, alpha = rescale(pts, 2)
        snapped = snap_anchored_box(AxisBox((0, 0), (1, 1)), alpha)
        assert snapped.hi == (F(1), F(1))
        for p in rescaled:
            assert not box_contains(snapped, p)

    def test_snap_requires_anchored(self):
        _, alpha = rescale([Point.of(1, 1)], 2)
        with pytest.raises(ValueError):
            snap_anchored_box(AxisBox((1, 1), (2, 2)), alpha)

    def test_halfspace_boundary_cases(self):
        d = 4
        box = AxisBox((0,) * d, (F(5), F(25), F(5), F(5)))
        h = box_to_halfspace(box, d)
        corner = Point.of(F(5), F(25), F(5), F(5))  # every term equals 1
        assert halfspace_contains(h, corner)
        bumped = Point.of(F(25), F(25), F(5), F(5))  # one term equals d + 1
        assert not halfspace_contains(h, bumped)

    def test_halfspace_rejects_bad_tau(self):
        box = AxisBox((0, 0), (1, 1))
        with pytest.raises(ValueError):
            box_to_halfspace(box, 2, tau=F(2))
        with pytest.raises(ValueError):
            box_to_halfspace(box, 2, tau=F(3))

    def test_full_pipeline_membership_match(self, bundled_instance):
        # p in snapped anchored box of q  <=>  lifted point in original B(q)
        inst = bundled_instance
        lifted = [lift_box(box) for box in inst.gadget.boxes]
        for smask, q_points in sorted(inst.gadget.witnesses.items()):
            for q in q_points:
                original = anchored_box_of(q)
                snapped = snap_anchored_box(original, inst.alpha)
                h = box_to_halfspace(snapped, inst.d)
                for i, p in enumerate(inst.points):
                    in_original = box_contains(original, lifted[i])
                    assert box_contains(snapped, p) == in_original
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
        bare = BoxGadget(
            n=bundled_gadget.n, dim=bundled_gadget.dim, boxes=bundled_gadget.boxes
        )
        with pytest.raises(ValueError, match="unverified"):
            build_theorem1(4, 2, bare)

    def test_parameter_mismatches(self, bundled_gadget):
        with pytest.raises(ValueError, match="n="):
            build_theorem1(4, 4, bundled_gadget)  # k=4 needs n=3
        with pytest.raises(ValueError, match="dimension"):
            build_theorem1(8, 2, bundled_gadget)  # d=8 needs gadget dim 4


class TestUnionWitness:
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
        # a witness table claiming infeasibility everywhere cannot fool the
        # validator, so drop to a gadget whose cache is empty and whose boxes
        # are made uncoverable by nesting one inside another
        boxes = list(bundled_instance.gadget.boxes)
        outer = boxes[1]
        boxes[0] = AxisBox(
            tuple(lo + F(1, 3) for lo in outer.lo),
            tuple(lo + F(2, 3) for lo in outer.lo),
        )
        broken = BoxGadget(n=2, dim=2, boxes=tuple(boxes))
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
                assert induced_system_points_in_halfspaces(inst.points, [h]).sets == (expected,)

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


class TestTheorem2:
    def test_build_counts(self, bundled_instance):
        inst2 = build_theorem2(bundled_instance)
        assert len(inst2.hyperplanes) == 5
        assert len({h.p.coords for h in inst2.hyperplanes}) == 5
        assert inst2.k == 2

    def test_k_mismatch_rejected(self, bundled_instance):
        with pytest.raises(ValueError):
            build_theorem2(bundled_instance, k=3)

    def test_empty_subset_simplex_misses_everything(self, bundled_instance):
        inst2 = build_theorem2(bundled_instance)
        simplex = simplex_witness(inst2, [])
        from vcshatter.geometry import simplex_hyperplane_intersects

        assert not any(simplex_hyperplane_intersects(simplex, h) for h in inst2.hyperplanes)

    def test_full_subset_simplex_meets_everything(self, bundled_instance):
        inst2 = build_theorem2(bundled_instance)
        simplex = simplex_witness(inst2, range(5))
        from vcshatter.geometry import simplex_hyperplane_intersects

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

    def test_apex_above_everything_breaks_the_construction(self, bundled_instance, monkeypatch):
        inst2 = build_theorem2(bundled_instance)
        top = max(p.coords[-1] for p in bundled_instance.points)
        monkeypatch.setattr(constructions, "_apex_height", lambda inst: 2 * top)
        report = verify_theorem2(inst2, mode="exhaustive")
        assert not report.shattered
        assert report.failing_subsets


class TestFiniteLevelIdentities:
    def test_de_morgan_on_induced_systems(self, bundled_instance):
        halfspaces = []
        for mask in range(32):
            halfspaces.extend(union_witness(bundled_instance, mask))
        system = induced_system_points_in_halfspaces(bundled_instance.points, halfspaces)
        for k in (1, 2, 3):
            lhs = complement_system(k_fold_intersection(system, k))
            rhs = k_fold_union(complement_system(system), k)
            assert lhs == rhs

    def test_union_family_realizes_the_lower_bound(self, bundled_instance):
        halfspaces = []
        for mask in range(32):
            halfspaces.extend(union_witness(bundled_instance, mask))
        system = induced_system_points_in_halfspaces(bundled_instance.points, halfspaces)
        folded = k_fold_union(system, bundled_instance.k)
        assert vc_dim(folded)[0] == len(bundled_instance.points)
