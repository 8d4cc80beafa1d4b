from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from functools import partial
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    box_contains,
    brute_halfspace_dichotomy_masks,
    fraction_rank,
    halfspace_contains,
    integer_rank,
    side_of,
    simplex_hyperplane_intersects,
)
from vcshatter import geometry
from vcshatter.geometry import (
    AxisBox,
    DualHyperplane,
    DegenerateSimplexError,
    OpenSimplex,
    Point,
    RestrictedHalfspace,
    _annihilate,
    _halfspace_mask,
    _hyperplane_row,
    _vertex_signs,
    as_scalar,
    dual_halfspace_to_point,
    dual_point_to_hyperplane,
    realizable_halfspace_subsets,
)
from vcshatter.setsystem import vc_dim

F = Fraction


def kernel_contains(h: RestrictedHalfspace, x: Point) -> bool:
    """Membership of x in h, read from ``_halfspace_mask``."""
    return _halfspace_mask(h.b, h.tau, [x._vertex_column]) == 1


def kernel_side(h: DualHyperplane, x: Point) -> int:
    """The sign of s_p(x), read from ``_vertex_signs``."""
    pos, neg, _ = _vertex_signs([_hyperplane_row(h)], x)
    return pos - neg


def kernel_crossings(hyperplanes: list[DualHyperplane], simplex: OpenSimplex) -> int:
    """Bit i set when the simplex crosses hyperplane i, folded from the
    vertices' ``_vertex_signs``: some vertex is strictly on each side of it,
    or every vertex lies on it."""
    rows = [_hyperplane_row(h) for h in hyperplanes]
    pos = neg = 0
    on = -1
    for v in simplex.vertices:
        p, n, z = _vertex_signs(rows, v)
        pos |= p
        neg |= n
        on &= z
    return (pos & neg) | on


def _sub(a, b) -> list[Fraction]:
    return [x - y for x, y in zip(a, b)]


positive_scalars = st.fractions(min_value=F(1, 20), max_value=F(40))
scalars = st.fractions(min_value=F(-30), max_value=F(30))


class TestAsScalar:
    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"^bad rational '1/0' "):
            as_scalar("1/0")
        with pytest.raises(ValueError, match=r"^bad rational '1/0' "):
            Point.of(1, "1/0")


class TestBoxContains:
    def test_inside(self):
        assert box_contains(AxisBox((1, 3), (2, 4)), Point.of(F(3, 2), F(7, 2)))

    def test_boundary_is_inside(self):
        assert box_contains(AxisBox((1, 3), (2, 4)), Point.of(1, 4))

    def test_outside(self):
        assert not box_contains(AxisBox((1, 3), (2, 4)), Point.of(F(5, 2), F(7, 2)))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            box_contains(AxisBox((1,), (2,)), Point.of(1, 1))

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            AxisBox((2,), (1,))


class TestHalfspaceContains:
    def test_boundary(self):
        h = RestrictedHalfspace(b=(1, 1), tau=2)
        assert halfspace_contains(h, Point.of(1, 1))
        assert kernel_contains(h, Point.of(1, 1))

    def test_origin_always_inside(self):
        h = RestrictedHalfspace(b=(1, 1), tau=2)
        assert halfspace_contains(h, Point.of(0, 0))
        assert kernel_contains(h, Point.of(0, 0))

    def test_outside(self):
        h = RestrictedHalfspace(b=(1, 1), tau=2)
        assert not halfspace_contains(h, Point.of(3, 0))
        assert not kernel_contains(h, Point.of(3, 0))

    def test_a_tuple_of_fractions_is_shared_not_copied(self):
        b = (F(1), F(3, 2))
        assert RestrictedHalfspace(b=b, tau=2).b is b
        assert Point(b).coords is b
        assert RestrictedHalfspace(b=(1, F(3, 2)), tau=2).b == b
        assert RestrictedHalfspace(b=[F(1), F(3, 2)], tau=2).b == b

    def test_invalid_coefficients(self):
        for bad in (0, F(-1, 3), "-2"):
            with pytest.raises(ValueError, match=r"^all b_i must be strictly positive$"):
                RestrictedHalfspace(b=(bad, 1), tau=2)
        for bad in (0, F(-1, 2)):
            with pytest.raises(ValueError, match=r"^tau must be strictly positive$"):
                RestrictedHalfspace(b=(1, 1), tau=bad)


class TestSideOf:
    def test_horizontal_hyperplane(self):
        h = dual_point_to_hyperplane(Point.of(0, 0))  # x_2 = 0
        assert side_of(h, Point.of(1, 2)) == kernel_side(h, Point.of(1, 2)) == -1

    def test_hand_evaluations(self):
        h = dual_point_to_hyperplane(Point.of(1, F(1, 2)))
        assert side_of(h, Point.of(1, 2)) == kernel_side(h, Point.of(1, 2)) == -1  # -1/2
        h10 = dual_point_to_hyperplane(Point.of(10, 10))
        assert side_of(h10, Point.of(1, 2)) == kernel_side(h10, Point.of(1, 2)) == 1  # 18

    def test_on_hyperplane(self):
        h = dual_point_to_hyperplane(Point.of(1, 0))  # x_2 = x_1
        assert side_of(h, Point.of(3, 3)) == kernel_side(h, Point.of(3, 3)) == 0

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_direct_evaluation(self, d, data):
        p = Point(tuple(data.draw(scalars) for _ in range(d)))
        x = Point(tuple(data.draw(scalars) for _ in range(d)))
        s = sum(p.coords[i] * x.coords[i] for i in range(d - 1)) + p.coords[-1] - x.coords[-1]
        expected = (s > 0) - (s < 0)
        h = dual_point_to_hyperplane(p)
        assert side_of(h, x) == kernel_side(h, x) == expected

    def test_needs_dim_two(self):
        with pytest.raises(ValueError):
            dual_point_to_hyperplane(Point.of(1))


class TestDuality:
    def test_dual_point_formula(self):
        h = RestrictedHalfspace(b=(1, 1), tau=2)
        assert dual_halfspace_to_point(h).coords == (F(1), F(2))

    def test_membership_matches_side(self):
        h = RestrictedHalfspace(b=(1, 1), tau=2)
        dh = dual_halfspace_to_point(h)
        inside = Point.of(1, F(1, 2))  # sum 3/2 < 2
        outside = Point.of(10, 10)  # sum 20 > 2
        assert side_of(dual_point_to_hyperplane(inside), dh) == -1
        assert side_of(dual_point_to_hyperplane(outside), dh) == 1

    @given(st.integers(2, 5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_sign_identity(self, d, data):
        p = Point(tuple(data.draw(positive_scalars) for _ in range(d)))
        b = tuple(data.draw(positive_scalars) for _ in range(d))
        tau = data.draw(positive_scalars)
        h = RestrictedHalfspace(b=b, tau=tau)
        total = sum(pi / bi for pi, bi in zip(p.coords, b))
        expected = ((total - tau) > 0) - ((total - tau) < 0)
        hp, dh = dual_point_to_hyperplane(p), dual_halfspace_to_point(h)
        assert side_of(hp, dh) == kernel_side(hp, dh) == expected

    def test_boundary_case_sum_equals_tau(self):
        # engineered incidence: p on the bounding hyperplane dualizes to sign 0
        b = (F(2), F(3), F(5))
        p = Point.of(1, F(3, 2), F(5, 2))  # 1/2 + 1/2 + 1/2 = 3/2
        h = RestrictedHalfspace(b=b, tau=F(3, 2))
        hp, dh = dual_point_to_hyperplane(p), dual_halfspace_to_point(h)
        assert side_of(hp, dh) == kernel_side(hp, dh) == 0


class TestSimplexIntersection:
    def test_mixed_signs(self):
        h = dual_point_to_hyperplane(Point.of(0, 0))  # sign of -x_2
        s = OpenSimplex(2, (Point.of(0, -1), Point.of(1, 2), Point.of(3, -2)))
        assert simplex_hyperplane_intersects(s, h)

    def test_zero_vertex_alone_is_not_enough(self):
        h = dual_point_to_hyperplane(Point.of(0, 0))
        s = OpenSimplex(2, (Point.of(0, -1), Point.of(1, -2), Point.of(3, 0)))
        assert not simplex_hyperplane_intersects(s, h)

    def test_simplex_inside_hyperplane(self):
        h = dual_point_to_hyperplane(Point.of(0, 0))
        s = OpenSimplex(2, (Point.of(1, 0), Point.of(2, 0)))
        assert simplex_hyperplane_intersects(s, h)

    def test_degenerate_vertices_rejected(self):
        with pytest.raises(DegenerateSimplexError):
            OpenSimplex(2, (Point.of(0, 0), Point.of(1, 1), Point.of(2, 2)))
        with pytest.raises(DegenerateSimplexError):
            OpenSimplex(2, (Point.of(0, 0), Point.of(1, 0), Point.of(0, 1), Point.of(1, 1)))

    def test_against_segment_bisection_oracle(self):
        rng = random.Random(7)
        for _ in range(120):
            d = rng.choice((2, 3))
            p = Point(tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)))
            h = dual_point_to_hyperplane(p)

            def s_val(x: Point) -> Fraction:
                return (
                    sum(p.coords[i] * x.coords[i] for i in range(d - 1))
                    + p.coords[-1]
                    - x.coords[-1]
                )

            nverts = rng.randint(1, d + 1)
            while True:
                verts = tuple(
                    Point(tuple(F(rng.randint(-20, 20), rng.randint(1, 3)) for _ in range(d)))
                    for _ in range(nverts)
                )
                try:
                    simplex = OpenSimplex(d, verts)
                    break
                except DegenerateSimplexError:
                    continue
            got = simplex_hyperplane_intersects(simplex, h)
            assert got == bool(kernel_crossings([h], simplex))
            values = [s_val(v) for v in verts]
            if got and any(v != 0 for v in values):
                u = next(i for i, v in enumerate(values) if v > 0)
                w = next(i for i, v in enumerate(values) if v < 0)
                # exact crossing of the open segment between the two vertices
                t = values[u] / (values[u] - values[w])
                assert 0 < t < 1
                crossing = Point(
                    tuple(
                        (1 - t) * a + t * b
                        for a, b in zip(verts[u].coords, verts[w].coords)
                    )
                )
                assert s_val(crossing) == 0
            elif not got:
                strict = {(v > 0) - (v < 0) for v in values}
                assert strict in ({1}, {-1}, {1, 0}, {-1, 0})


@st.composite
def vertex_sets(draw):
    """Small rational vertex sets in dimensions 2-5, some forced affinely
    dependent: a repeated vertex, the midpoint of two others, or more than
    d + 1 vertices."""
    d = draw(st.integers(2, 5))
    coords = st.builds(F, st.integers(-12, 12), st.integers(1, 4))
    vertex = st.tuples(*[coords] * d)
    vertices = draw(st.lists(vertex, min_size=1, max_size=d + 1))
    kind = draw(st.sampled_from(("free", "repeat", "midpoint", "too-many")))
    if kind == "repeat":
        vertices.append(draw(st.sampled_from(vertices)))
    elif kind == "midpoint" and len(vertices) >= 2:
        index = st.integers(0, len(vertices) - 1)
        i, j = draw(st.lists(index, min_size=2, max_size=2, unique=True))
        vertices.append(tuple((x + y) / 2 for x, y in zip(vertices[i], vertices[j])))
    elif kind == "too-many":
        vertices += draw(st.lists(vertex, min_size=d + 2 - len(vertices), max_size=d + 3))
    return d, [Point(v) for v in draw(st.permutations(vertices))]


class TestIntegerRank:
    @given(vertex_sets())
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_rank_on_vertex_columns(self, case):
        d, vertices = case
        affine = fraction_rank([_sub(v.coords, vertices[0].coords) for v in vertices[1:]])
        columns = [v._vertex_column for v in vertices]
        assert integer_rank(columns) == fraction_rank(columns) == affine + 1
        try:
            OpenSimplex(d, tuple(vertices))
            degenerate = False
        except DegenerateSimplexError:
            degenerate = True
        assert degenerate == (affine != len(vertices) - 1)

    @given(
        st.integers(1, 5).flatmap(
            lambda ncols: st.lists(
                st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), max_size=6
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_rank_on_integer_matrices(self, rows):
        # small entries give zero columns and repeated rows, so pivots get skipped
        assert integer_rank(rows) == fraction_rank(rows)


def _fold(columns, n: int):
    """``_annihilate`` folded over the columns from the identity of size n."""
    basis = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for c in columns:
        basis = _annihilate(basis, c)
    return basis


def _assert_annihilates(basis, columns, n: int) -> None:
    """basis is a primitive integer basis of the complement of span(columns)."""
    assert len(basis) == n - len(columns)
    assert all(sum(a * b for a, b in zip(v, c)) == 0 for v in basis for c in columns)
    assert all(gcd(*v) == 1 for v in basis)
    assert integer_rank([*columns, *basis]) == n


class TestAnnihilator:
    @given(vertex_sets())
    @settings(max_examples=150, deadline=None)
    def test_fold_accepts_exactly_the_independent_vertex_sets(self, case):
        d, vertices = case
        columns = [v._vertex_column for v in vertices]
        independent = integer_rank(columns) == len(columns)
        assert independent == (fraction_rank(columns) == len(columns))
        try:
            basis = _fold(columns, d + 1)
        except DegenerateSimplexError:
            assert not independent
        else:
            assert independent
            _assert_annihilates(basis, columns, d + 1)
        # the constructor folds the same columns, so it succeeds exactly on
        # the independent sets
        try:
            OpenSimplex(d, tuple(vertices))
        except DegenerateSimplexError:
            assert not independent
        else:
            assert independent

    @given(
        st.integers(1, 5).flatmap(
            lambda ncols: st.lists(
                st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), max_size=6
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_fold_accepts_exactly_the_full_rank_integer_matrices(self, rows):
        ncols = len(rows[0]) if rows else 1
        try:
            basis = _fold(rows, ncols)
        except DegenerateSimplexError:
            assert integer_rank(rows) < len(rows)
        else:
            assert integer_rank(rows) == len(rows)
            _assert_annihilates(basis, rows, ncols)

    @pytest.mark.parametrize(
        "coords",
        [
            [(0, 0), (1, 0), (1, 0)],  # the last vertex repeated
            [(0, 0), (1, 0), (0, 1), (1, 0)],  # an earlier vertex repeated
            [(0, 0), (2, 2), (1, 1)],  # a midpoint
            [(1, 2, 3), (4, 5, 6), (0, 1, 0), (2, 3, 1), (5, 5, 5)],  # too many
        ],
    )
    def test_constructor_rejects_dependent_vertices(self, coords):
        with pytest.raises(DegenerateSimplexError):
            OpenSimplex(len(coords[0]), tuple(Point.of(*c) for c in coords))

    def test_constructor_checks_the_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            OpenSimplex(2, (Point.of(0, 0), Point.of(1, 1, 1)))


class TestRealizableSubsets:
    def test_single_point(self):
        system = realizable_halfspace_subsets([Point.of(2, 3)])
        assert system.sets == (0, 1)

    def test_three_independent_points_shatter(self):
        pts = [Point.of(0, 0), Point.of(1, 0), Point.of(0, 1)]
        system = realizable_halfspace_subsets(pts)
        assert len(system.sets) == 8
        assert vc_dim(system)[0] == 3

    def test_square_misses_diagonals(self):
        pts = [Point.of(0, 0), Point.of(1, 0), Point.of(1, 1), Point.of(0, 1)]
        system = realizable_halfspace_subsets(pts)
        masks = set(system.sets)
        assert 0b0101 not in masks and 0b1010 not in masks  # the two diagonals
        assert len(masks) == 14
        assert vc_dim(system)[0] == 3

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            realizable_halfspace_subsets([Point.of(1, 1), Point.of(1, 1)])

    def test_collinear_points(self):
        pts = [Point.of(0, 0), Point.of(1, 1), Point.of(2, 2), Point.of(3, 3)]
        system = realizable_halfspace_subsets(pts)
        # only prefixes and suffixes of the line order are realizable
        expected = {0b0000, 0b0001, 0b0011, 0b0111, 0b1111, 0b1110, 0b1100, 0b1000}
        assert set(system.sets) == expected

    def test_matches_lp_oracle_on_degenerate_configs(self):
        configs = [
            # collinear triple plus one point off the line
            [Point.of(0, 0), Point.of(1, 0), Point.of(2, 0), Point.of(1, 1)],
            # 3x2 grid
            [Point.of(x, y) for x in range(3) for y in range(2)],
            # three points on a vertical line in R^3, two off it
            [
                Point.of(0, 0, 0),
                Point.of(0, 0, 1),
                Point.of(0, 0, 2),
                Point.of(1, 1, 0),
                Point.of(2, 1, 1),
            ],
        ]
        for pts in configs:
            got = set(realizable_halfspace_subsets(pts).sets)
            want = brute_halfspace_dichotomy_masks(pts)
            assert got == want

    def test_matches_lp_oracle_on_random_configs(self):
        rng = random.Random(99)

        def coords(d: int) -> tuple[Fraction, ...]:
            return tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))

        def on_line(base, direction) -> tuple[Fraction, ...]:
            (t,) = coords(1)
            return tuple(a + t * v for a, v in zip(base, direction))

        def on_hyperplane(w, offset) -> tuple[Fraction, ...]:
            # the last coordinate solves (w, 1) . x = offset
            x = coords(len(w))
            return (*x, offset - sum(a * b for a, b in zip(w, x)))

        def check(draw, n: int) -> None:
            pts = set()
            while len(pts) < n:
                pts.add(draw())
            points = [Point(c) for c in sorted(pts)]
            got = set(realizable_halfspace_subsets(points).sets)
            want = brute_halfspace_dichotomy_masks(points)
            assert got == want

        for trial in range(12):
            d = 2 if trial % 2 == 0 else 3
            check(partial(coords, d), rng.randint(2, 6))
        for d, n in ((1, 4), (1, 6), (4, 6), (4, 7)):
            check(partial(coords, d), n)
        for n in (4, 5):  # on a line in R^3
            check(partial(on_line, coords(3), (1, *coords(2))), n)
        for n in (6, 7):  # on a hyperplane in R^4
            check(partial(on_hyperplane, coords(3), coords(1)[0]), n)

    def test_each_zero_set_is_classified_once(self, monkeypatch):
        # 12 points with many coplanar and collinear subsets: every flat they
        # span is classified once, not once per (r-1)-subset of its points
        calls = 0
        dichotomies = geometry._halfspace_dichotomy_masks

        def counted(*args):
            nonlocal calls
            calls += 1
            return dichotomies(*args)

        monkeypatch.setattr(geometry, "_halfspace_dichotomy_masks", counted)
        grid = [Point.of(x, y, z) for x in range(2) for y in range(2) for z in range(3)]
        masks = sorted(realizable_halfspace_subsets(grid).sets)
        assert calls <= 128
        # the sets the classification gave before zero sets were deduplicated
        assert len(masks) == 298
        digest = hashlib.sha1(repr(masks).encode()).hexdigest()
        assert digest == "fac1c3d5c81ad1219ce83fff4013974c1d7a71d8"

    def test_closed_under_complement(self):
        rng = random.Random(4)
        for n in range(3, 7):
            pts = set()
            while len(pts) < n:
                pts.add((F(rng.randint(-9, 9)), F(rng.randint(-9, 9))))
            points = [Point(c) for c in sorted(pts)]
            masks = set(realizable_halfspace_subsets(points).sets)
            full = (1 << n) - 1
            assert all(full ^ m in masks for m in masks)

    def test_vc_at_most_dim_plus_one(self):
        rng = random.Random(11)
        for d in (2, 3):
            for _ in range(6):
                pts = set()
                while len(pts) < d + 3:
                    pts.add(tuple(F(rng.randint(-8, 8)) for _ in range(d)))
                points = [Point(c) for c in sorted(pts)]
                system = realizable_halfspace_subsets(points)
                assert vc_dim(system)[0] <= d + 1


@st.composite
def points_and_halfspaces(draw):
    """Rational points and half-spaces in dimensions 1-5, with duplicated
    half-spaces and half-spaces built so that some point lies exactly on
    the boundary (sum_i x_i / b_i == tau)."""
    d = draw(st.integers(1, 5))
    coords = st.fractions(min_value=F(-30), max_value=F(30), max_denominator=60)
    pts = draw(st.lists(st.tuples(*[coords] * d), min_size=1, max_size=7))
    points = [Point(c) for c in pts]
    coefficients = st.fractions(min_value=F(1, 50), max_value=F(50), max_denominator=60)
    halfspaces = []
    for _ in range(draw(st.integers(0, 6))):
        b = draw(st.tuples(*[coefficients] * d))
        boundary = sum((x / v for x, v in zip(draw(st.sampled_from(pts)), b)), start=F(0))
        if boundary > 0 and draw(st.booleans()):
            tau = boundary
        else:
            tau = draw(st.fractions(min_value=F(1, 50), max_value=F(60), max_denominator=60))
        halfspaces.append(RestrictedHalfspace(b=b, tau=tau))
    if halfspaces:
        halfspaces += draw(st.lists(st.sampled_from(halfspaces), max_size=3))
    return points, halfspaces


@st.composite
def hyperplanes_and_simplex(draw):
    """Rational hyperplanes (negative entries allowed) in dimensions 2-6 and
    an open simplex whose vertices have mixed denominators; some vertices
    are moved exactly onto a hyperplane, sometimes all onto the first."""
    d = draw(st.integers(2, 6))
    coords = st.fractions(min_value=F(-30), max_value=F(30), max_denominator=60)
    ps = draw(st.lists(st.tuples(*[coords] * d), min_size=1, max_size=6))
    hyperplanes = [DualHyperplane(Point(p)) for p in ps]
    all_on_first = draw(st.booleans())
    vertices = []
    for _ in range(draw(st.integers(1, d if all_on_first else d + 1))):
        x = list(draw(st.tuples(*[coords] * d)))
        target = 0 if all_on_first else draw(st.one_of(st.none(), st.integers(0, len(ps) - 1)))
        if target is not None:
            p = ps[target]
            x[-1] = sum((pi * xi for pi, xi in zip(p[:-1], x[:-1])), start=p[-1])
        vertices.append(Point(tuple(x)))
    try:
        simplex = OpenSimplex(d, tuple(vertices))
    except DegenerateSimplexError:
        assume(False)
    return hyperplanes, simplex


class TestInducedSystems:
    """The integer kernels the verifiers run, against the ``Fraction`` oracles."""

    @given(hyperplanes_and_simplex())
    @settings(max_examples=100, deadline=None)
    def test_integer_signs_match_fraction_predicates(self, case):
        # every (hyperplane, vertex) pair, with vertices moved exactly onto
        # hyperplanes; then the crossing rule against the simplex oracle
        hyperplanes, simplex = case
        rows = [_hyperplane_row(h) for h in hyperplanes]
        for v in simplex.vertices:
            pos, neg, on = _vertex_signs(rows, v)
            signs = [side_of(h, v) for h in hyperplanes]
            assert pos == sum(1 << i for i, s in enumerate(signs) if s > 0)
            assert neg == sum(1 << i for i, s in enumerate(signs) if s < 0)
            assert on == sum(1 << i for i, s in enumerate(signs) if s == 0)
        crossed = kernel_crossings(hyperplanes, simplex)
        for i, h in enumerate(hyperplanes):
            assert bool(crossed >> i & 1) == simplex_hyperplane_intersects(simplex, h)

    @given(points_and_halfspaces())
    @settings(max_examples=120, deadline=None)
    def test_integer_kernel_matches_fraction_predicate(self, case):
        points, halfspaces = case
        columns = [p._vertex_column for p in points]
        for h in halfspaces:
            totals = [sum(x / v for x, v in zip(p.coords, h.b)) for p in points]
            want = sum(1 << i for i, p in enumerate(points) if halfspace_contains(h, p))
            on = sum(1 << i for i, total in enumerate(totals) if total == h.tau)
            mask = _halfspace_mask(h.b, h.tau, columns)
            assert mask == want
            assert mask & on == on  # the boundary belongs to the closed half-space
            # moved onto each point's exact sum, tau keeps exactly the points
            # whose sums are at most that one, the point itself included
            for total in set(totals):
                below = sum(1 << i for i, t in enumerate(totals) if t <= total)
                assert _halfspace_mask(h.b, total, columns) == below

    def test_integer_kernel_on_boundary_with_denominators(self):
        # 1/2 / (3/4) + (5/3) / (7/2) = 2/3 + 10/21 = 8/7, exactly on the boundary
        pts = [Point.of(F(1, 2), F(5, 3)), Point.of(F(1, 2), F(12, 7))]
        h = RestrictedHalfspace(b=(F(3, 4), F(7, 2)), tau=F(8, 7))
        assert _halfspace_mask(h.b, h.tau, [p._vertex_column for p in pts]) == 0b01

    def test_no_halfspaces_gives_empty_family(self):
        # over no points, a half-space cuts out the empty set
        h = RestrictedHalfspace(b=(1, 1), tau=2)
        assert _halfspace_mask(h.b, h.tau, []) == 0

    def test_halfspace_containing_everything(self):
        pts = [Point.of(1, 1), Point.of(2, 1)]
        h = RestrictedHalfspace(b=(100, 100), tau=2)
        assert _halfspace_mask(h.b, h.tau, [p._vertex_column for p in pts]) == 0b11

    def test_no_simplices_gives_empty_family(self):
        # against no hyperplanes, a vertex has no sign bits
        assert _vertex_signs([], Point.of(1, 1)) == (0, 0, 0)

    def test_simplex_crossing_everything(self):
        hs = [
            dual_point_to_hyperplane(Point.of(0, 1)),
            dual_point_to_hyperplane(Point.of(0, 2)),
        ]
        simplex = OpenSimplex(2, (Point.of(0, 0), Point.of(0, 3)))
        assert kernel_crossings(hs, simplex) == 0b11
        assert all(simplex_hyperplane_intersects(simplex, h) for h in hs)

    def test_dim_mismatch(self):
        h = RestrictedHalfspace(b=(1, 1), tau=2)
        with pytest.raises(ValueError, match="dimension 2 != point dimension 3"):
            columns = [Point.of(1, 1)._vertex_column, Point.of(1, 1, 1)._vertex_column]
            _halfspace_mask(h.b, h.tau, columns)
        with pytest.raises(ValueError):
            simplex_hyperplane_intersects(
                OpenSimplex(3, (Point.of(0, 0, 0),)), dual_point_to_hyperplane(Point.of(1, 1))
            )
