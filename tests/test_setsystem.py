from __future__ import annotations

import math
import random
import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_system
from oracles import brute_force_vc_dim, set_k_fold_intersection, set_k_fold_union
from vcshatter.setsystem import (
    SetSystem,
    _shattered_masks,
    complement_system,
    growth_function,
    k_fold_intersection,
    k_fold_union,
    mask_to_indices,
    project,
    sauer_shelah_bound,
    shattered_sets,
    shatters,
    subset_mask,
    vc_dim,
)


@st.composite
def systems(draw, max_ground=6, min_sets=1, max_sets=20):
    n = draw(st.integers(1, max_ground))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=min_sets, max_size=max_sets))
    return SetSystem.from_masks(n, masks)


def powerset_system(n: int) -> SetSystem:
    return SetSystem.from_masks(n, range(1 << n))


class TestConstruction:
    def test_dedupes_and_sorts(self):
        s = SetSystem.from_members(3, [[2, 0], [0, 2], [1]])
        assert s.sets == (0b010, 0b101)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SetSystem.from_members(2, [[2]])
        for mask in (-1, 8, 9, 1 << 40):
            with pytest.raises(ValueError, match=f"^set mask {mask} out of range for ground size 3$"):
                SetSystem(3, (mask,))
        assert SetSystem(3, (0, 7)).sets == (0, 7)

    def test_rejects_duplicate_indices_within_set(self):
        with pytest.raises(ValueError, match="duplicate"):
            SetSystem.from_members(3, [[1, 1]])

    def test_rejects_nonpositive_ground(self):
        with pytest.raises(ValueError):
            SetSystem(0, ())

    def test_a_huge_ground_size_builds_no_huge_integer(self):
        # the ground size may come from a file: validation and vc_dim must
        # not build 1 << ground_size, which is 25 MB here
        tracemalloc.start()
        try:
            system = SetSystem(2 * 10**8, (1, 2))
            assert vc_dim(system) == (1, (0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestProject:
    def test_basic(self):
        s = SetSystem.from_members(2, [[0], [1], [0, 1]])
        assert project(s, [0]).sets == (0, 1)  # {} from {1}, {0} from the others

    def test_full_ground_is_identity(self):
        s = SetSystem.from_members(3, [[0, 2], [1]])
        assert project(s, [0, 1, 2]) == s

    def test_out_of_range_element(self):
        s = SetSystem.from_members(2, [[0]])
        with pytest.raises(ValueError):
            project(s, [2])

    @given(systems(), st.data())
    def test_idempotent(self, s, data):
        ys = data.draw(st.sets(st.integers(0, s.ground_size - 1)))
        once = project(s, sorted(ys))
        twice = project(once, range(once.ground_size))
        assert once == twice


class TestShatters:
    def test_powerset_shatters_everything(self):
        s = powerset_system(3)
        assert shatters(s, [0, 1, 2])

    def test_singletons_do_not_shatter_pairs(self):
        s = SetSystem.from_members(2, [[0], [1]])
        assert not shatters(s, [0, 1])

    def test_empty_subset_conventions(self):
        nonempty = SetSystem.from_members(2, [[0]])
        assert shatters(nonempty, [])
        empty = SetSystem.from_masks(2, ())
        assert not shatters(empty, [])

    @given(systems(), st.data())
    def test_monotone_under_subsets(self, s, data):
        ys = sorted(data.draw(st.sets(st.integers(0, s.ground_size - 1), max_size=4)))
        sub = [y for y in ys if data.draw(st.booleans())]
        if shatters(s, ys):
            assert shatters(s, sub)


class TestVcDim:
    def test_singletons(self):
        s = SetSystem.from_members(5, [[i] for i in range(5)])
        assert vc_dim(s)[0] == 1

    def test_powerset(self):
        dim, witness = vc_dim(powerset_system(4))
        assert dim == 4 and witness == (0, 1, 2, 3)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            vc_dim(SetSystem.from_masks(3, ()))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_power_set_answer_matches_the_walk(self, n):
        # the full power set is answered without the walk; the power set
        # minus its top member still takes the walk
        for s in (powerset_system(n), SetSystem.from_masks(n, range((1 << n) - 1))):
            found = _shattered_masks(s.sets)
            dim = max(m.bit_count() for m in found)
            first = next(m for m in found if m.bit_count() == dim)
            assert vc_dim(s) == (dim, tuple(mask_to_indices(first)))
            assert dim == brute_force_vc_dim(s)
        assert vc_dim(powerset_system(n)) == (n, tuple(range(n)))

    def test_matches_brute_force_seeded(self):
        rng = random.Random(20240817)
        for _ in range(60):
            s = random_system(rng, max_ground=7, max_sets=24)
            dim, witness = vc_dim(s)
            assert dim == brute_force_vc_dim(s)
            first = next(ys for ys in combinations(range(s.ground_size), dim) if shatters(s, ys))
            assert witness == first

    @given(systems())
    @settings(max_examples=60, deadline=None)
    def test_log_bound(self, s):
        dim, _ = vc_dim(s)
        assert dim <= int(math.log2(len(s.sets))) if len(s.sets) > 1 else dim == 0

    @given(systems())
    @settings(max_examples=60, deadline=None)
    def test_sauer_shelah(self, s):
        dim, _ = vc_dim(s)
        assert len(s.sets) <= sauer_shelah_bound(s.ground_size, dim)


class TestShatteredSets:
    @given(systems())
    @settings(max_examples=80, deadline=None)
    def test_is_exactly_the_shattered_subsets(self, s):
        expected = {
            mask for mask in range(1 << s.ground_size) if shatters(s, mask_to_indices(mask))
        }
        assert set(shattered_sets(s).sets) == expected

    @given(systems(max_ground=8, max_sets=40))
    @settings(max_examples=80, deadline=None)
    def test_downward_closed_and_pajor(self, s):
        family = set(shattered_sets(s).sets)
        assert len(family) >= len(s.sets)
        for mask in family:
            for i in mask_to_indices(mask):
                assert mask & ~(1 << i) in family

    def test_empty_family_shatters_nothing(self):
        assert shattered_sets(SetSystem.from_masks(3, ())).sets == ()

    def test_powerset_shatters_every_subset(self):
        assert shattered_sets(powerset_system(5)).sets == tuple(range(1 << 5))


class TestGuards:
    @pytest.mark.parametrize(
        "operation",
        [
            lambda s: k_fold_union(s, 2),
            lambda s: k_fold_intersection(s, 2),
            lambda s: growth_function(s, 2),
            shattered_sets,
        ],
        ids=["k_fold_union", "k_fold_intersection", "growth_function", "shattered_sets"],
    )
    def test_refuses_ground_above_guard(self, operation):
        s = SetSystem.from_members(25, [[0], [1, 24]])
        with pytest.raises(ValueError, match="guard"):
            operation(s)

    def test_ground_at_guard_is_allowed(self):
        s = SetSystem.from_members(24, [[0], [1, 23]])
        assert k_fold_union(s, 2).member_lists() == [[0], [1, 23], [0, 1, 23]]
        assert vc_dim(s) == (1, (0,))

    def test_vc_dim_has_no_guard(self):
        # Sparse families over more than VERIFY_GUARD elements stay cheap; the
        # expected answers are the level walk's that vc_dim used before.
        s = SetSystem.from_members(30, [[], [3], [27], [3, 5, 27], [29]])
        assert vc_dim(s) == (2, (3, 27))
        rng = random.Random(7)
        s = SetSystem.from_masks(40, [sum(1 << i for i in rng.sample(range(40), 5)) for _ in range(80)])
        assert vc_dim(s) == (3, (0, 9, 38))


class TestSubsetMask:
    def test_mask_and_indices_agree(self):
        assert subset_mask(4, 0b1010) == subset_mask(4, [1, 3]) == subset_mask(4, (3, 1, 3))

    @pytest.mark.parametrize("subset", [16, -1, [4], [-1]])
    def test_out_of_range(self, subset):
        with pytest.raises(ValueError, match="out of range"):
            subset_mask(4, subset)

    def test_largest_mask_is_in_range(self):
        assert subset_mask(4, 15) == 15
        assert subset_mask(10**6, (1 << 10**6) - 1) == (1 << 10**6) - 1


class TestMaskToIndices:
    def test_small_masks(self):
        assert mask_to_indices(0) == []
        assert mask_to_indices(1) == [0]
        assert mask_to_indices(0b101100) == [2, 3, 5]

    def test_a_mask_of_ten_to_the_five_bits(self):
        size = 10**5
        reference = sorted({0, size - 1, *random.Random(53).sample(range(size), 2000)})
        chosen = set(reference)
        # built from its binary digits, highest first, rather than by shifting
        mask = int("".join("1" if i in chosen else "0" for i in reversed(range(size))), 2)
        assert mask.bit_length() == size
        assert mask_to_indices(mask) == reference


class TestKFold:
    def test_union_identity_at_one(self):
        s = SetSystem.from_members(3, [[0], [1, 2]])
        assert k_fold_union(s, 1) == s

    def test_union_pair(self):
        s = SetSystem.from_members(2, [[0], [1]])
        assert k_fold_union(s, 2).member_lists() == [[0], [1], [0, 1]]

    def test_intersection_identity_at_one(self):
        s = SetSystem.from_members(3, [[0], [1, 2]])
        assert k_fold_intersection(s, 1) == s

    def test_intersection_pair(self):
        s = SetSystem.from_members(3, [[0, 1], [1, 2]])
        assert k_fold_intersection(s, 2).member_lists() == [[1], [0, 1], [1, 2]]

    def test_invalid_k(self):
        s = SetSystem.from_members(2, [[0]])
        with pytest.raises(ValueError):
            k_fold_union(s, 0)

    @given(systems(), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_contains_input_and_monotone_in_k(self, s, k):
        folded = k_fold_union(s, k)
        next_folded = k_fold_union(s, k + 1)
        assert set(s.sets) <= set(folded.sets)
        assert set(folded.sets) <= set(next_folded.sets)
        assert set(s.sets) <= set(k_fold_intersection(s, k).sets)
        assert vc_dim(folded)[0] <= vc_dim(next_folded)[0]

    @given(systems(), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_de_morgan(self, s, k):
        # k_fold_intersection is built this way, so the oracle test below is
        # the one that can fail
        lhs = complement_system(k_fold_intersection(s, k))
        rhs = k_fold_union(complement_system(s), k)
        assert lhs == rhs

    @given(systems(max_ground=8, min_sets=0), st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_matches_set_oracle(self, s, k):
        assert k_fold_union(s, k) == set_k_fold_union(s, k)
        assert k_fold_intersection(s, k) == set_k_fold_intersection(s, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "s",
        [
            SetSystem.from_masks(3, ()),
            SetSystem.from_members(4, [[], [0, 2], [1], [3]]),
            powerset_system(5),
        ],
        ids=["empty-family", "with-empty-set", "power-set"],
    )
    def test_edge_families_match_set_oracle(self, s, k):
        assert k_fold_union(s, k) == set_k_fold_union(s, k)
        assert k_fold_intersection(s, k) == set_k_fold_intersection(s, k)

    @given(systems(max_ground=8, min_sets=0))
    @settings(max_examples=50, deadline=None)
    def test_huge_k_stops_once_the_family_stops_growing(self, s):
        # a union of any number of members is one of at most len(s) distinct members
        k = max(len(s), 1)
        assert k_fold_union(s, 10**9) == k_fold_union(s, k)
        assert k_fold_intersection(s, 10**9) == k_fold_intersection(s, k)


class TestComplement:
    def test_basic(self):
        s = SetSystem.from_members(2, [[0]])
        assert complement_system(s).member_lists() == [[1]]

    @given(systems())
    def test_involution(self, s):
        assert complement_system(complement_system(s)) == s

    def test_a_huge_output_is_refused_before_any_mask(self):
        # 10^9 bits for one member: refused at once, with nothing built
        tracemalloc.start()
        try:
            started = time.perf_counter()
            with pytest.raises(ValueError, match="complement refused"):
                complement_system(SetSystem(10**9, (1,)))
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 1 << 20

    def test_a_thousand_element_complement_works(self):
        members = complement_system(SetSystem(1000, (1,))).member_lists()
        assert members == [list(range(1, 1000))]


class TestGrowth:
    def test_m_zero(self):
        s = SetSystem.from_members(3, [[0]])
        assert growth_function(s, 0) == 1

    def test_powerset(self):
        assert growth_function(powerset_system(4), 2) == 4

    def test_m_too_large(self):
        with pytest.raises(ValueError):
            growth_function(powerset_system(2), 3)

    @given(systems(max_ground=6, max_sets=12))
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_sauer_shelah(self, s):
        dim, _ = vc_dim(s)
        for m in range(s.ground_size + 1):
            assert growth_function(s, m) <= sauer_shelah_bound(m, dim)
