from __future__ import annotations

import dataclasses
import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import box_contains, halfspace_contains, side_of, simplex_hyperplane_intersects
from vcshatter import boxgadget, constructions, geometry, jsonio
from vcshatter.boxgadget import BoxGadget, _witness_patterns, verify, witness_for
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
    _hyperplane_row,
    _vertex_signs,
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
    return SetSystem.from_masks(len(points), (_halfspace_mask(h, columns) for h in halfspaces))


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


def _raising_on(witness, bad_mask: int):
    """``witness`` with ConstructionError raised for one subset mask."""

    def wrapped(inst, subset, *args, **kwargs):
        if subset == bad_mask:
            raise ConstructionError(f"no witness for subset mask {bad_mask}")
        return witness(inst, subset, *args, **kwargs)

    return wrapped


def _swapped_on(witness, bad_mask: int, other_mask: int):
    """``witness`` with the witness of ``other_mask`` returned for ``bad_mask``."""

    def wrapped(inst, subset, *args, **kwargs):
        return witness(inst, other_mask if subset == bad_mask else subset, *args, **kwargs)

    return wrapped


def _counting(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that records its calls; returns the record."""
    calls = []
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


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
        # a witness has at most b = 2^(n-1) patterns, so its slots are j < b <= k
        for k in range(2, 130):
            b = 1 << (required_gadget_n(k) - 1)
            assert b <= k
            for d in (4, 6, 8):
                tau = F(2 * d + 1, 2) + F(b - 1, 4 * k)
                assert d < tau < d + 1

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
        nested = _nested_box_gadget(bundled_gadget)
        failing = len(verify(nested)[0].failing_subsets)
        assert failing > 0
        with pytest.raises(ConstructionError, match=f"failed verification on {failing} subsets"):
            build_theorem1(4, 2, nested)

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
    def test_slot_thresholds(self, bundled_instance, n3_gadget):
        for inst in (dataclasses.replace(bundled_instance), build_theorem1(4, 4, n3_gadget)):
            assert inst.d == 4
            for number in range(len(inst.gadget._pattern_points)):
                for j in range(inst.k):
                    want = F(2 * inst.d + 1, 2) + F(j, 4 * inst.k)
                    assert inst._slot(number, j).tau == want

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
        witnesses = []

        def recorded(*args):
            witnesses.append(union_witness(*args))
            return witnesses[-1]

        monkeypatch.setattr(constructions, "union_witness", recorded)
        report = verify_theorem1(inst, mode="sample", count=5, seed=1, compute_vc_dim=True)
        assert report.shattered and len(witnesses) == 5
        halfspaces = [h for witness in witnesses for h in witness]
        system = halfspace_system(inst.points, halfspaces)
        assert union_closure(system.sets, 12, 4).bit_count() < 1 << 12
        assert report.union_vc_dim == vc_dim(k_fold_union(system, 4))[0]

    def test_witness_error_is_a_failing_subset(self, bundled_instance, monkeypatch):
        monkeypatch.setattr(
            constructions, "union_witness", _raising_on(constructions.union_witness, 13)
        )
        report = verify_theorem1(bundled_instance, mode="exhaustive", compute_vc_dim=True)
        assert not report.shattered
        assert report.checked == 32
        assert report.failing_subsets == ((0, 2, 3),)

    def test_memoized_masks_never_hide_a_wrong_witness(self, bundled_instance, monkeypatch):
        # mask 13 gets the half-spaces of mask 11, whose masks the run has already memoized
        monkeypatch.setattr(
            constructions, "union_witness", _swapped_on(constructions.union_witness, 13, 11)
        )
        report = verify_theorem1(bundled_instance, mode="exhaustive", compute_vc_dim=True)
        assert not report.shattered
        assert report.checked == 32
        assert report.failing_subsets == ((0, 2, 3),)

    def test_witness_beyond_k_is_a_failing_subset(self, bundled_instance, monkeypatch):
        # every nonempty witness padded to k+1 members with repeats of its
        # first half-space: its union is unchanged, so only the size bound
        # can reject it
        inst = bundled_instance
        real = constructions.union_witness

        def padded(inst, subset):
            witness = real(inst, subset)
            return witness + witness[:1] * (inst.k + 1 - len(witness)) if witness else witness

        padded_masks = [m for m in range(32) if real(inst, m)]
        assert padded_masks
        for m in padded_masks:
            witness = padded(inst, m)
            assert len(witness) == inst.k + 1
            covered = [any(halfspace_contains(h, p) for h in witness) for p in inst.points]
            assert covered == [bool(m >> i & 1) for i in range(5)]
        monkeypatch.setattr(constructions, "union_witness", padded)
        report = verify_theorem1(inst, mode="exhaustive")
        assert not report.shattered
        assert report.failing_subsets == tuple(tuple(mask_to_indices(m)) for m in padded_masks)
        assert report.max_witness_size == inst.k + 1


class TestHalfspaceKernel:
    """The per-bound-tuple sums and per-slot taus behind ``verify_theorem1``."""

    def test_slot_masks_match_the_oracle(self, n3_gadget):
        inst = build_theorem1(4, 4, n3_gadget)
        columns = [p._vertex_column for p in inst.points]
        slots = [
            inst._slot(number, j) for number in range(len(inst._witness_rows)) for j in range(4)
        ]
        assert len(slots) == 228
        for h in slots:
            want = sum(1 << i for i, p in enumerate(inst.points) if halfspace_contains(h, p))
            assert _halfspace_mask(h, columns) == want

    def test_bound_sums_once_per_bound_tuple(self, n3_gadget, monkeypatch):
        inst = build_theorem1(4, 4, n3_gadget)
        sums = _counting(monkeypatch, constructions, "_bound_sums")
        assert verify_theorem1(inst, compute_vc_dim=True).shattered
        halfspaces = {h for mask in range(1 << 12) for h in union_witness(inst, mask)}
        assert len(halfspaces) == 147
        assert len(sums) == len({h.b for h in halfspaces}) == 57

    def test_slots_share_their_row_bounds_and_the_k_taus(self, n3_gadget):
        inst = build_theorem1(4, 4, n3_gadget)
        taus = {}
        for number, (bounds, _) in enumerate(inst._witness_rows):
            for j in range(inst.k):
                h = inst._slot(number, j)
                assert h.b is bounds
                taus[id(h.tau)] = h.tau
        assert len(taus) == inst.k


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
        inst2 = build_theorem2(bundled_instance)
        monkeypatch.setattr(
            constructions, "simplex_witness", _raising_on(constructions.simplex_witness, 13)
        )
        report = verify_theorem2(inst2, mode="exhaustive")
        assert not report.shattered
        assert report.checked == 32
        assert report.failing_subsets == ((0, 2, 3),)
        assert report.zero_signs == 0

    def test_simplex_beyond_k_is_a_failing_subset(self, bundled_instance, monkeypatch):
        # each simplex of dimension k gains the dual vertex of its first
        # pattern at slot 1, whose signs equal those of the slot-0 vertex it
        # already has: the crossings are unchanged, so only the dimension
        # bound can reject it
        inst2 = build_theorem2(dataclasses.replace(bundled_instance))
        rows = [_hyperplane_row(h) for h in inst2.hyperplanes]
        real = constructions.simplex_witness

        def extended(inst2, subset):
            simplex = real(inst2, subset)
            if simplex.simplex_dim < inst2.k:
                return simplex
            first = simplex.vertices[1]
            [number] = [n for (n, j), v in inst2._vertices.items() if v is first and j == 0]
            other = dual_halfspace_to_point(inst2.base._slot(number, 1))
            assert _vertex_signs(rows, other) == _vertex_signs(rows, first)
            return OpenSimplex(simplex.ambient_dim, simplex.vertices + (other,))

        extended_masks = [m for m in range(32) if real(inst2, m).simplex_dim == inst2.k]
        assert extended_masks
        for m in extended_masks:
            simplex = extended(inst2, m)
            crossed = [simplex_hyperplane_intersects(simplex, h) for h in inst2.hyperplanes]
            assert crossed == [bool(m >> i & 1) for i in range(5)]
        monkeypatch.setattr(constructions, "simplex_witness", extended)
        report = verify_theorem2(inst2, mode="exhaustive")
        assert not report.shattered
        assert report.failing_subsets == tuple(tuple(mask_to_indices(m)) for m in extended_masks)
        assert report.max_witness_size == inst2.k + 1
        assert report.zero_signs == 0

    def test_memoized_signs_never_hide_a_wrong_witness(self, bundled_instance, monkeypatch):
        # mask 13 gets the simplex of mask 11, whose vertex signs the run has already memoized
        inst2 = build_theorem2(bundled_instance)
        monkeypatch.setattr(
            constructions, "simplex_witness", _swapped_on(constructions.simplex_witness, 13, 11)
        )
        report = verify_theorem2(inst2, mode="exhaustive")
        assert not report.shattered
        assert report.checked == 32
        assert report.failing_subsets == ((0, 2, 3),)
        assert report.zero_signs == 0

    def test_each_distinct_witness_is_processed_once(self, n3_gadget, monkeypatch):
        inst = build_theorem1(4, 4, n3_gadget)
        snaps = _counting(monkeypatch, constructions, "snap")
        duals = _counting(monkeypatch, constructions, "dual_halfspace_to_point")
        assert verify_theorem1(inst, mode="exhaustive", compute_vc_dim=True).shattered
        assert duals == []  # only Theorem 2 reads dual vertices
        assert verify_theorem2(build_theorem2(inst), mode="exhaustive").shattered
        halfspaces = {h for mask in range(1 << 12) for h in union_witness(inst, mask)}
        # one snap per menu value of each gadget axis, not one per pattern
        assert len(snaps) <= sum(len(values) + 1 for values in n3_gadget._menu[0])
        assert len(duals) <= len(halfspaces)

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


def _scratch_slots(inst, pmask: int):
    """The witness half-spaces of the subset mask, built from its full pattern
    list: each pattern's corner snapped here, then one threshold slot per
    distinct bound tuple, in ascending pattern order."""
    numbers = _witness_patterns(inst.gadget, ((1 << len(inst.points)) - 1) & ~pmask)
    if numbers is None:
        raise ConstructionError(f"no witness for subset mask {pmask}")
    menu = inst.gadget._pattern_points
    corners = dict.fromkeys(snap(_lift(menu[i].coords, menu[i].coords), inst.alpha)
                            for i in numbers)
    taus = (F(2 * inst.d + 1, 2) + F(j, 4 * inst.k) for j in range(len(corners)))
    return [RestrictedHalfspace(b=b, tau=tau) for b, tau in zip(corners, taus)]


def _scratch_union_witness(inst, subset):
    return tuple(_scratch_slots(inst, subset_mask(len(inst.points), subset)))


def _scratch_simplex_witness(inst2, subset):
    """The witness vertices followed by the apex, checked by the full constructor."""
    base = inst2.base
    halfspaces = _scratch_slots(base, subset_mask(len(base.points), subset))
    vertices = [dual_halfspace_to_point(h) for h in halfspaces]
    try:
        return OpenSimplex(base.d, (*vertices, constructions._apex(base.d)))
    except DegenerateSimplexError as err:
        raise ConstructionError(str(err)) from err


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
    def matched_report(inst, monkeypatch, theorem2: bool):
        """The verifier's report on inst, asserted equal to the scratch build's."""
        fresh = dataclasses.replace(inst)
        if theorem2:
            got = verify_theorem2(build_theorem2(inst))
            monkeypatch.setattr(constructions, "simplex_witness", _scratch_simplex_witness)
            want = verify_theorem2(build_theorem2(fresh))
        else:
            got = verify_theorem1(inst, compute_vc_dim=True)
            monkeypatch.setattr(constructions, "union_witness", _scratch_union_witness)
            want = verify_theorem1(fresh, compute_vc_dim=True)
        monkeypatch.undo()
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

    def test_reports_match_scratch(self, bundled_instance, n3_gadget, monkeypatch):
        for inst in self.instances(bundled_instance, n3_gadget):
            for theorem2 in (False, True):
                self.matched_report(inst, monkeypatch, theorem2)

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
                assert self.matched_report(inst, monkeypatch, theorem2).failing_subsets
        # an apex on H(p_0), then one above every hyperplane
        top = max(p.coords[-1] for p in bundled_instance.points)
        for height in (bundled_instance.points[0].coords[-1], 2 * top):
            monkeypatch.setattr(constructions, "_apex", lambda d: Point((0,) * (d - 1) + (height,)))
            inst2 = build_theorem2(dataclasses.replace(bundled_instance))
            got = verify_theorem2(inst2)
            assert got.zero_signs or got.failing_subsets
            monkeypatch.setattr(constructions, "simplex_witness", _scratch_simplex_witness)
            assert verify_theorem2(inst2) == got
            monkeypatch.undo()

    def test_patterns_sharing_bounds_fail_without_raising(self, n3_gadget, monkeypatch):
        # pattern 1's row takes pattern 0's bounds, so the two share one bound tuple
        inst = build_theorem1(4, 4, n3_gadget)
        rows = list(inst._witness_rows)
        rows[1] = (rows[0][0], {})
        monkeypatch.setitem(inst.__dict__, "_witness_rows", tuple(rows))
        assert inst._witness_rows[0][0] == inst._witness_rows[1][0]
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
            annihilations = _counting(monkeypatch, geometry, "_annihilate")
            assert verify_theorem2(inst2).shattered
            assert verify_theorem1(inst).shattered
            parents = _tree_parents(inst.gadget, range(1 << len(inst.points)))
            assert set(inst._nodes) == set(inst2._nodes) == parents | {-1}
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
            assert len(inst._witness_rows) == len(menu)
            for (bounds, _), q in zip(inst._witness_rows, menu):
                assert bounds == snap(_lift(q.coords, q.coords), inst.alpha)

    def test_single_subsets_on_fresh_instances(self, bundled_instance, n3_gadget):
        # every call starts from an empty memo, so it builds its parents itself
        for inst in self.instances(bundled_instance, n3_gadget):
            npoints = len(inst.points)
            masks = {0, (1 << npoints) - 1, *random.Random(1).sample(range(1 << npoints), 24)}
            for mask in sorted(masks):
                fresh = dataclasses.replace(inst)
                assert union_witness(fresh, mask) == _scratch_union_witness(inst, mask)
                fresh2 = build_theorem2(dataclasses.replace(inst))
                got = simplex_witness(fresh2, mask)
                assert got.vertices[1:] == _scratch_simplex_witness(fresh2, mask).vertices[:-1]
                ancestors = set()
                frontier = {mask}
                while frontier:
                    frontier = _tree_parents(inst.gadget, frontier)
                    ancestors |= frontier
                assert set(fresh._nodes) == set(fresh2._nodes) == ancestors | {-1}

    def test_a_subset_with_no_witness_raises(self, bundled_instance):
        broken, _ = self.mutants(bundled_instance)
        report, _ = verify(broken.gadget)
        avoid = report.failing_subsets[0]
        mask = ((1 << len(broken.points)) - 1) & ~subset_mask(len(broken.points), avoid)
        message = re.escape(
            f"gadget has no witness for box subset {list(avoid)}; the certificate is invalid"
        )
        with pytest.raises(ConstructionError, match=f"^{message}$"):
            union_witness(dataclasses.replace(broken), mask)
        with pytest.raises(ConstructionError, match=f"^{message}$"):
            simplex_witness(build_theorem2(dataclasses.replace(broken)), mask)

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
            parents = _tree_parents(inst.gadget, order)
            assert set(inst._nodes) == set(inst2._nodes) == parents | {-1}

    @pytest.mark.parametrize("seed", [3, 6])
    def test_other_pinned_gadgets_match_scratch(self, seed, monkeypatch):
        inst = build_theorem1(4, 4, _pinned_gadget(seed))
        t1 = self.matched_report(inst, monkeypatch, theorem2=False)
        t2 = self.matched_report(inst, monkeypatch, theorem2=True)
        assert t1.shattered and t2.shattered
        assert t1.checked == t2.checked == 4096
        assert t1.union_vc_dim == 12
        assert t2.zero_signs == 0

    def test_sample_mode_memoizes_the_sampled_ancestors(self, n3_gadget):
        inst = build_theorem1(4, 4, n3_gadget)
        masks = constructions._selected_masks(12, "sample", 64, 5)
        assert verify_theorem1(inst, mode="sample", count=64, seed=5).shattered
        ancestors = set()
        frontier = set(masks)
        while frontier:
            frontier = _tree_parents(inst.gadget, frontier)
            ancestors |= frontier
        assert set(inst._nodes) == ancestors | {-1}

    def test_each_subset_mask_is_validated_once(self, n3_gadget, monkeypatch):
        inst = build_theorem1(4, 4, n3_gadget)
        calls = _counting(monkeypatch, constructions, "subset_mask")
        calls += _counting(monkeypatch, boxgadget, "subset_mask")
        report = verify_theorem1(inst, compute_vc_dim=True)
        assert report.shattered and report.checked == 4096
        assert len(calls) == 4096


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
