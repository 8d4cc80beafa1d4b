"""Exact rational geometry: points, axis-parallel boxes, origin-side
half-spaces, dual hyperplanes and open simplices, plus the finite set
systems these objects induce on point and hyperplane collections.

Every predicate is decided in exact rational arithmetic. There is no
floating point and no tolerance parameter anywhere in this module.

Orientation convention
----------------------
A point p = (p_1, ..., p_d) dualizes to the hyperplane

    H(p) = { x : p_1 x_1 + ... + p_{d-1} x_{d-1} + p_d = x_d }.

``side_of(H(p), x)`` returns the sign of

    s_p(x) = p_1 x_1 + ... + p_{d-1} x_{d-1} + p_d - x_d,

so +1 means x_d is smaller than the hyperplane's height at x (x sits below
the hyperplane in the x_d sense), -1 means above, 0 means on it. All
membership logic downstream is phrased in terms of this sign, never in
prose direction words.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .setsystem import SetSystem

Scalar = Fraction


def as_scalar(value) -> Fraction:
    """Coerce ints, 'num/den' strings and Fractions to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError("booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ValueError(f"cannot interpret {value!r} as an exact rational")


def _scalar_tuple(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(as_scalar(v) for v in values)


class DegenerateSimplexError(ValueError):
    """Vertex list is affinely dependent, so it spans no simplex of its size."""


@dataclass(frozen=True)
class Point:
    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _scalar_tuple(self.coords))
        if not self.coords:
            raise ValueError("points need at least one coordinate")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @classmethod
    def of(cls, *values) -> "Point":
        return cls(tuple(values))

    @cached_property
    def _vertex_column(self) -> tuple[int, ...]:
        """M * (x_1, ..., x_{d-1}, 1, x_d) with M the lcm of the denominators,
        computed on first use.

        It is the homogeneous vector (x, 1), permuted and scaled by M > 0, so
        it has the rank and signs of (x, 1). Every exact predicate here is the
        sign of an integer row times this column: ``_hyperplane_row`` for
        ``side_of``, ``_halfspace_row`` for ``halfspace_contains``, and the
        ``_annihilate`` bases of simplices and half-space dichotomies.
        """
        m = lcm(*(v.denominator for v in self.coords))
        scaled = [v.numerator * (m // v.denominator) for v in self.coords]
        return (*scaled[:-1], m, scaled[-1])


@dataclass(frozen=True)
class AxisBox:
    """A closed axis-parallel box, lo_i <= x_i <= hi_i per coordinate."""

    lo: tuple[Fraction, ...]
    hi: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", _scalar_tuple(self.lo))
        object.__setattr__(self, "hi", _scalar_tuple(self.hi))
        if len(self.lo) != len(self.hi) or not self.lo:
            raise ValueError("lo and hi must be nonempty tuples of equal length")
        for a, b in zip(self.lo, self.hi):
            if a > b:
                raise ValueError(f"box has lo={a} > hi={b} in some coordinate")

    @property
    def dim(self) -> int:
        return len(self.lo)


@dataclass(frozen=True)
class RestrictedHalfspace:
    """The closed half-space { x : sum_i x_i / b_i <= tau } with all b_i > 0.

    With tau > 0 it always contains the origin, and the large positive
    orthant direction is outside: the half-space faces downward toward the
    origin. This is the only half-space shape the construction pipelines emit.
    """

    b: tuple[Fraction, ...]
    tau: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "b", _scalar_tuple(self.b))
        object.__setattr__(self, "tau", as_scalar(self.tau))
        if not self.b:
            raise ValueError("half-space needs at least one coefficient")
        if any(v <= 0 for v in self.b):
            raise ValueError("all b_i must be strictly positive")
        if self.tau <= 0:
            raise ValueError("tau must be strictly positive")

    @property
    def dim(self) -> int:
        return len(self.b)


@dataclass(frozen=True)
class DualHyperplane:
    """The hyperplane x_d = p_1 x_1 + ... + p_{d-1} x_{d-1} + p_d generated by p."""

    p: Point

    def __post_init__(self) -> None:
        if self.p.dim < 2:
            raise ValueError("dual hyperplanes live in dimension >= 2")

    @property
    def dim(self) -> int:
        return self.p.dim


@dataclass(frozen=True)
class OpenSimplex:
    """The relative interior of the convex hull of affinely independent vertices."""

    ambient_dim: int
    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("a simplex needs at least one vertex")
        for v in self.vertices:
            if v.dim != self.ambient_dim:
                raise ValueError("vertex dimension does not match ambient dimension")
        # Affine independence of the vertices is linear independence of their
        # (v, 1) vectors, which the integer vertex columns permute and scale.
        # The identity annihilates the empty span; every column is folded in.
        object.__setattr__(self, "_grown_from", (_identity(self.ambient_dim + 1), 0))
        self._annihilator  # raises DegenerateSimplexError on a dependent column

    @cached_property
    def _annihilator(self) -> tuple[tuple[int, ...], ...]:
        """An integer basis of the vectors orthogonal to every vertex column.

        Folded by ``_annihilate`` from the basis this simplex was built with,
        over the columns that basis does not yet annihilate; computed on first
        use, so a simplex made by ``_extended`` pays for it only once it is
        extended in turn.
        """
        basis, done = self._grown_from
        for v in self.vertices[done:]:
            basis = _annihilate(basis, v._vertex_column)
        return basis

    def _extended(self, vertex: Point) -> "OpenSimplex":
        """This simplex with one more vertex, checked against this simplex's annihilator.

        The new column is independent of the others exactly when some vector
        of ``_annihilator`` is not orthogonal to it, as ``_annihilate``
        decides; raises DegenerateSimplexError otherwise.
        """
        if vertex.dim != self.ambient_dim:
            raise ValueError("vertex dimension does not match ambient dimension")
        basis = self._annihilator
        column = vertex._vertex_column
        for n in basis:
            if sum(map(mul, n, column)):
                break
        else:
            raise DegenerateSimplexError("vertices are affinely dependent")
        child = object.__new__(OpenSimplex)
        child.__dict__.update(
            ambient_dim=self.ambient_dim,
            vertices=self.vertices + (vertex,),
            _grown_from=(basis, len(self.vertices)),
        )
        return child

    @property
    def simplex_dim(self) -> int:
        return len(self.vertices) - 1


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------


def box_contains(box: AxisBox, q: Point) -> bool:
    if box.dim != q.dim:
        raise ValueError(f"box dimension {box.dim} != point dimension {q.dim}")
    return all(a <= x <= b for a, x, b in zip(box.lo, q.coords, box.hi))


def halfspace_contains(h: RestrictedHalfspace, x: Point) -> bool:
    if h.dim != x.dim:
        raise ValueError(f"half-space dimension {h.dim} != point dimension {x.dim}")
    total = sum((xi / bi for xi, bi in zip(x.coords, h.b)), start=Fraction(0))
    return total <= h.tau


def side_of(h: DualHyperplane, x: Point) -> int:
    """Sign of s_p(x); +1 below (smaller x_d), -1 above, 0 on the hyperplane."""
    if h.dim != x.dim:
        raise ValueError(f"hyperplane dimension {h.dim} != point dimension {x.dim}")
    p = h.p.coords
    s = sum((pi * xi for pi, xi in zip(p[:-1], x.coords[:-1])), start=Fraction(0))
    s += p[-1] - x.coords[-1]
    return (s > 0) - (s < 0)


def dual_point_to_hyperplane(p: Point) -> DualHyperplane:
    if p.dim < 2:
        raise ValueError("point-to-hyperplane duality needs dimension >= 2")
    return DualHyperplane(p)


def dual_halfspace_to_point(h: RestrictedHalfspace) -> Point:
    """The point D(H) = (b_d/b_1, ..., b_d/b_{d-1}, tau * b_d).

    For every p the exact identity s_p(D(H)) = b_d * (sum_i p_i/b_i - tau)
    holds, so membership of p in H is equivalent to side_of(H(p), D(H)) <= 0,
    strictly whenever sum_i p_i/b_i != tau.
    """
    if h.dim < 2:
        raise ValueError("half-space-to-point duality needs dimension >= 2")
    bd = h.b[-1]
    return Point(tuple(bd / bi for bi in h.b[:-1]) + (h.tau * bd,))


def simplex_hyperplane_intersects(simplex: OpenSimplex, h: DualHyperplane) -> bool:
    """Whether the open simplex meets the hyperplane.

    Points of the relative interior are strictly positive affine combinations
    of the vertices and s_p is affine, so the interior meets the hyperplane
    exactly when the vertex signs are mixed, or all vertices lie on it.
    """
    if simplex.ambient_dim != h.dim:
        raise ValueError("ambient dimensions differ")
    signs = {side_of(h, v) for v in simplex.vertices}
    return (1 in signs and -1 in signs) or signs == {0}


# ---------------------------------------------------------------------------
# exact linear algebra helpers
# ---------------------------------------------------------------------------


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    """The n x n identity, an integer basis of everything the empty span annihilates."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _annihilate(
    basis: Sequence[tuple[int, ...]], column: Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """The vectors of span(basis) orthogonal to ``column``, as an integer basis.

    ``basis`` is an integer basis of the orthogonal complement of a span V;
    the result is one of the complement of V + span(column), one vector
    shorter. With n the first basis vector whose dot product s with the
    column is nonzero, every other basis vector m, with dot product t,
    becomes s*m - t*n divided by the gcd of its entries, so no rational is
    built. When every dot product is zero the column lies in V, and
    DegenerateSimplexError is raised.
    """
    dots = [sum(map(mul, n, column)) for n in basis]
    for pivot, s in enumerate(dots):
        if s:
            break
    else:
        raise DegenerateSimplexError("vertices are affinely dependent")
    n = basis[pivot]
    out = []
    for i, (m, t) in enumerate(zip(basis, dots)):
        if i == pivot:
            continue
        if t:
            m = [s * a - t * b for a, b in zip(m, n)]
            g = gcd(*m)
            m = tuple(a // g for a in m)
        out.append(m)
    return tuple(out)


# ---------------------------------------------------------------------------
# half-space dichotomies of a finite point set
# ---------------------------------------------------------------------------


def _halfspace_dichotomy_masks(columns: Sequence[tuple[int, ...]]) -> set[int]:
    """All subsets realizable as (closed half-space) ∩ points, as bitmasks.

    ``columns`` are the points' ``_vertex_column``s: their homogeneous
    vectors (x, 1), permuted and scaled by a positive factor, so ranks and
    signs are those of (x, 1), and a closed half-space is the set of columns
    on which some linear form is <= 0. Folding every column into the identity
    with ``_annihilate``, skipping dependent ones, gives their rank r, the
    affine dimension of the hull plus one. Candidate boundaries pass through
    r - 1 independent columns: folding just those leaves a basis in which any
    vector with a nonzero dot product on some column is the boundary's normal
    within the hull, unique up to sign. Points on a boundary are classified
    recursively by the dichotomies of their own columns (any tilt of the
    boundary induces such a sub-dichotomy, and every sub-dichotomy is
    reachable by an exact rational tilt); the recursion is intrinsic to the
    hull, so no chart is needed.
    """
    n = len(columns)
    out = {0, (1 << n) - 1}
    if n <= 1:
        return out
    identity = _identity(len(columns[0]))
    basis = identity
    for c in columns:
        with suppress(DegenerateSimplexError):
            basis = _annihilate(basis, c)
    for hyperplane in combinations(columns, len(identity) - len(basis) - 1):
        try:
            normals = reduce(_annihilate, hyperplane, identity)
        except DegenerateSimplexError:
            continue
        for normal in normals:
            dots = [sum(map(mul, normal, c)) for c in columns]
            if any(dots):
                break
        neg = sum(1 << i for i, s in enumerate(dots) if s < 0)
        pos = sum(1 << i for i, s in enumerate(dots) if s > 0)
        on = [i for i, s in enumerate(dots) if not s]
        for small in _halfspace_dichotomy_masks([columns[i] for i in on]):
            scattered = sum(1 << i for bit, i in enumerate(on) if small >> bit & 1)
            out.add(neg | scattered)
            out.add(pos | scattered)
    return out


def realizable_halfspace_subsets(points: Sequence[Point]) -> SetSystem:
    """The system of all subsets of ``points`` cut out by closed half-spaces.

    A subset T is realizable when some closed half-space contains exactly the
    points of T, with the rest strictly outside; equivalently, when the convex
    hulls of T and of its complement are disjoint. Decided on the points'
    integer vertex columns by ``_halfspace_dichotomy_masks``. Intended for
    small dimension (<= 4) and at most ~16 points.
    """
    if not points:
        raise ValueError("need at least one point")
    d = points[0].dim
    seen: set[tuple[Fraction, ...]] = set()
    for p in points:
        if p.dim != d:
            raise ValueError("all points must share one dimension")
        if p.coords in seen:
            raise ValueError(f"duplicate point {p.coords}")
        seen.add(p.coords)
    masks = _halfspace_dichotomy_masks([p._vertex_column for p in points])
    return SetSystem.from_masks(len(points), masks)


# ---------------------------------------------------------------------------
# induced finite systems
# ---------------------------------------------------------------------------


def _halfspace_row(h: RestrictedHalfspace) -> tuple[int, ...]:
    """N * (1/b_1, ..., 1/b_{d-1}, -tau, 1/b_d), N = lcm(tau's denominator, b_i's numerators).

    Its dot product with ``x._vertex_column`` is N * M * (sum_i x_i/b_i - tau),
    with N, M > 0, so it is <= 0 exactly when ``halfspace_contains(h, x)``.
    """
    n = lcm(h.tau.denominator, *(v.numerator for v in h.b))
    weights = [v.denominator * (n // v.numerator) for v in h.b]
    return (*weights[:-1], -h.tau.numerator * (n // h.tau.denominator), weights[-1])


def _halfspace_mask(h: RestrictedHalfspace, columns: Sequence[tuple[int, ...]]) -> int:
    """Bit i set when the point with vertex column ``columns[i]`` lies in h.

    Decided by the sign of one integer dot product per point with
    ``_halfspace_row(h)``, so it equals ``halfspace_contains`` point by
    point, exactly.
    """
    mismatched = {len(c) - 1 for c in columns} - {h.dim}
    if mismatched:
        raise ValueError(f"half-space dimension {h.dim} != point dimension {min(mismatched)}")
    row = _halfspace_row(h)
    mask = 0
    for i, c in enumerate(columns):
        if sum(map(mul, row, c)) <= 0:
            mask |= 1 << i
    return mask


def induced_system_points_in_halfspaces(
    points: Sequence[Point], halfspaces: Sequence[RestrictedHalfspace]
) -> SetSystem:
    """Ground set = point indices; one member set per half-space (deduplicated).

    Membership is decided in integers: each distinct half-space becomes one
    integer row, dotted with every point's ``_vertex_column`` (see
    ``_halfspace_mask``).
    """
    if not points:
        raise ValueError("need at least one point")
    columns = [p._vertex_column for p in points]
    masks = [_halfspace_mask(h, columns) for h in dict.fromkeys(halfspaces)]
    return SetSystem.from_masks(len(points), masks)


def _hyperplane_row(h: DualHyperplane) -> tuple[int, ...]:
    """L * (p_1, ..., p_{d-1}, p_d, -1) with L the lcm of p's denominators.

    Its dot product with ``x._vertex_column`` is L * M * s_p(x), with
    L, M > 0, so it has the sign of ``side_of(h, x)`` for any rationals.
    """
    p = h.p.coords
    n = lcm(*(v.denominator for v in p))
    return tuple(v.numerator * (n // v.denominator) for v in p) + (-n,)


def _vertex_signs(rows: Sequence[tuple[int, ...]], x: Point) -> tuple[int, int, int]:
    """Bitmasks of the rows i with side_of > 0, < 0 and == 0 at vertex x.

    ``rows`` are ``_hyperplane_row`` images of hyperplanes of x's dimension;
    each sign is one integer dot product with ``x._vertex_column``.
    """
    column = x._vertex_column
    pos = neg = on = 0
    for i, row in enumerate(rows):
        s = sum(map(mul, row, column))
        if s > 0:
            pos |= 1 << i
        elif s < 0:
            neg |= 1 << i
        else:
            on |= 1 << i
    return pos, neg, on


def _crossings(rows: Sequence[tuple[int, ...]], vertices: Sequence[Point]) -> tuple[int, int]:
    """Which of the hyperplanes with these ``rows`` an open simplex with these
    (at least one) vertices meets, and how many (hyperplane, vertex) signs
    are zero.

    Bit i is ``simplex_hyperplane_intersects`` for hyperplane i: some vertex
    is strictly on each side, or every vertex lies on it. Each sign is
    evaluated once, in integers (``_vertex_signs``).
    """
    pos = neg = zeros = 0
    on = -1
    for v in vertices:
        p, n, z = _vertex_signs(rows, v)
        pos |= p
        neg |= n
        on &= z
        zeros += z.bit_count()
    return (pos & neg) | on, zeros


def induced_system_hyperplanes_in_simplices(
    hyperplanes: Sequence[DualHyperplane], simplices: Sequence[OpenSimplex]
) -> SetSystem:
    """Ground set = hyperplane indices; one member set per simplex (deduplicated).

    Signs are decided in integers (see ``_crossings``), so the result equals
    ``simplex_hyperplane_intersects`` pair by pair, exactly.
    """
    if not hyperplanes:
        raise ValueError("need at least one hyperplane")
    dims = {h.dim for h in hyperplanes}
    rows = [_hyperplane_row(h) for h in hyperplanes]
    masks = []
    for s in simplices:
        if dims != {s.ambient_dim}:
            raise ValueError("ambient dimensions differ")
        masks.append(_crossings(rows, s.vertices)[0])
    return SetSystem.from_masks(len(hyperplanes), masks)
