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

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
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
    """Vertex list is affinely dependent; callers may perturb and retry."""


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

    def is_anchored(self) -> bool:
        return all(a == 0 for a in self.lo)


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
        if len(self.vertices) > self.ambient_dim + 1:
            raise DegenerateSimplexError(
                f"{len(self.vertices)} vertices cannot be affinely independent "
                f"in dimension {self.ambient_dim}"
            )
        diffs = [_sub(v.coords, self.vertices[0].coords) for v in self.vertices[1:]]
        if _rank(diffs) != len(diffs):
            raise DegenerateSimplexError("vertices are affinely dependent")

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


def _sub(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> list[Fraction]:
    return [x - y for x, y in zip(a, b)]


def _echelon(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Forward Gaussian elimination over the rationals.

    Returns the nonzero rows of a row echelon form of ``rows`` and the pivot
    column of each; the number of pivots is the rank.
    """
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(mat):
            break
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        for r in range(rank + 1, len(mat)):
            if mat[r][col] != 0:
                f = mat[r][col] / prow[col]
                mat[r] = [x - f * y for x, y in zip(mat[r], prow)]
        pivots.append(col)
    return mat[: len(pivots)], pivots


def _rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(_echelon(rows)[1])


def _normal_through(points: Sequence[tuple[Fraction, ...]]) -> tuple[Fraction, ...] | None:
    """A nonzero normal of the hyperplane through d affinely independent points.

    Returns None when the points are affinely dependent (no unique hyperplane).
    The normal is canonicalized so its first nonzero entry is +1.
    """
    d = len(points[0])
    echelon, pivots = _echelon([_sub(p, points[0]) for p in points[1:]])
    if len(pivots) != d - 1:
        return None
    # The null space is one-dimensional: fix the free coordinate to 1 and
    # back-substitute through the echelon rows, last pivot first.
    a = [Fraction(0)] * d
    a[next(c for c in range(d) if c not in pivots)] = Fraction(1)
    for row, col in reversed(list(zip(echelon, pivots))):
        a[col] = -sum((row[c] * a[c] for c in range(col + 1, d)), start=Fraction(0)) / row[col]
    lead = next(x for x in a if x != 0)
    return tuple(x / lead for x in a)


def _affine_chart(points: Sequence[tuple[Fraction, ...]]) -> tuple[int, list[tuple[Fraction, ...]]]:
    """Affinely map the points onto the coordinates of their affine hull.

    Returns (m, charted_points) where m is the affine dimension. Projection
    onto the pivot coordinates of the difference matrix is injective on the
    hull, so the chart preserves all half-space dichotomies.
    """
    base = points[0]
    _, cols = _echelon([_sub(p, base) for p in points[1:]])
    m = len(cols)
    charted = [tuple(p[c] for c in cols) for p in points]
    return m, charted


# ---------------------------------------------------------------------------
# half-space dichotomies of a finite point set
# ---------------------------------------------------------------------------


def _halfspace_dichotomy_masks(points: list[tuple[Fraction, ...]]) -> set[int]:
    """All subsets realizable as (closed half-space) ∩ points, as bitmasks.

    Candidate boundary hyperplanes pass through d affinely independent input
    points; points incident to a candidate are classified recursively by the
    half-space dichotomies within the hyperplane itself (any tilt of the
    boundary induces such a sub-dichotomy, and every sub-dichotomy is
    reachable by an exact rational tilt). Point sets that do not affinely
    span are first charted onto their hull, which changes no dichotomy.
    """
    n = len(points)
    full = (1 << n) - 1
    out = {0, full}
    if n <= 1:
        return out
    d = len(points[0])
    m, charted = _affine_chart(points)
    if m < d:
        return _halfspace_dichotomy_masks(charted)
    for idx in combinations(range(n), d):
        normal = _normal_through([points[i] for i in idx])
        if normal is None:
            continue
        offset = sum((a * x for a, x in zip(normal, points[idx[0]])), start=Fraction(0))
        neg = 0
        pos = 0
        on: list[int] = []
        for i, p in enumerate(points):
            val = sum((a * x for a, x in zip(normal, p)), start=Fraction(0))
            if val < offset:
                neg |= 1 << i
            elif val > offset:
                pos |= 1 << i
            else:
                on.append(i)
        chart_dim, on_charted = _affine_chart([points[i] for i in on])
        sub = _halfspace_dichotomy_masks(on_charted) if chart_dim >= 1 else {0, (1 << len(on)) - 1}
        for small in sub:
            scattered = 0
            for pos_bit, i in enumerate(on):
                if (small >> pos_bit) & 1:
                    scattered |= 1 << i
            out.add(neg | scattered)
            out.add(pos | scattered)
    return out


def realizable_halfspace_subsets(points: Sequence[Point]) -> SetSystem:
    """The system of all subsets of ``points`` cut out by closed half-spaces.

    A subset T is realizable when some closed half-space contains exactly the
    points of T, with the rest strictly outside; equivalently, when the convex
    hulls of T and of its complement are disjoint. Intended for small
    dimension (<= 4) and at most ~16 points.
    """
    if not points:
        raise ValueError("need at least one point")
    d = points[0].dim
    coord_list: list[tuple[Fraction, ...]] = []
    seen: set[tuple[Fraction, ...]] = set()
    for p in points:
        if p.dim != d:
            raise ValueError("all points must share one dimension")
        if p.coords in seen:
            raise ValueError(f"duplicate point {p.coords}")
        seen.add(p.coords)
        coord_list.append(p.coords)
    return SetSystem.from_masks(len(points), _halfspace_dichotomy_masks(coord_list))


# ---------------------------------------------------------------------------
# induced finite systems
# ---------------------------------------------------------------------------


def _integer_row(h: RestrictedHalfspace, scale: int) -> tuple[tuple[int, ...], int]:
    """Integer weights w and bound r with: sum_i x_i / b_i <= tau exactly when
    sum_i w_i * (scale * x_i) <= r, for any point x with scale * x integral.

    With b_i = p_i/q_i, tau = s/t and N = lcm(t, p_1, ..., p_d), multiplying
    the inequality by N * scale > 0 gives w_i = q_i * N / p_i and
    r = s * (N / t) * scale.
    """
    n = lcm(h.tau.denominator, *(v.numerator for v in h.b))
    weights = tuple(v.denominator * (n // v.numerator) for v in h.b)
    return weights, h.tau.numerator * (n // h.tau.denominator) * scale


def induced_system_points_in_halfspaces(
    points: Sequence[Point], halfspaces: Sequence[RestrictedHalfspace]
) -> SetSystem:
    """Ground set = point indices; one member set per half-space (deduplicated).

    Membership is decided in integers: the points are scaled once by the lcm
    of their coordinate denominators and every distinct half-space becomes
    one integer row (see ``_integer_row``), so the result equals
    ``halfspace_contains`` point by point, exactly.
    """
    if not points:
        raise ValueError("need at least one point")
    scale = lcm(*(x.denominator for p in points for x in p.coords))
    scaled = [tuple(x.numerator * (scale // x.denominator) for x in p.coords) for p in points]
    dims = {p.dim for p in points}
    masks = []
    for h in dict.fromkeys(halfspaces):
        mismatched = dims - {h.dim}
        if mismatched:
            raise ValueError(
                f"half-space dimension {h.dim} != point dimension {min(mismatched)}"
            )
        weights, bound = _integer_row(h, scale)
        mask = 0
        for i, xs in enumerate(scaled):
            if sum(map(mul, weights, xs)) <= bound:
                mask |= 1 << i
        masks.append(mask)
    return SetSystem.from_masks(len(points), masks)


def induced_system_hyperplanes_in_simplices(
    hyperplanes: Sequence[DualHyperplane], simplices: Sequence[OpenSimplex]
) -> SetSystem:
    """Ground set = hyperplane indices; one member set per simplex (deduplicated)."""
    if not hyperplanes:
        raise ValueError("need at least one hyperplane")
    masks = []
    for s in simplices:
        mask = 0
        for i, h in enumerate(hyperplanes):
            if simplex_hyperplane_intersects(s, h):
                mask |= 1 << i
        masks.append(mask)
    return SetSystem.from_masks(len(hyperplanes), masks)
