"""Exact rational geometry: points, axis-parallel boxes, origin-side
half-spaces, dual hyperplanes and open simplices, plus the half-space
dichotomies of a finite point set.

Every predicate is decided exactly, in integers, from a point's vertex
column: the side of a dual hyperplane by the sign of an integer row times
it, half-space membership by comparing tau with A/D = sum_j x_j/b_j, whose
A is an integer row times it (``_halfspace_mask``).
There is no floating point and no tolerance parameter anywhere here.

Orientation convention
----------------------
A point p = (p_1, ..., p_d) dualizes to the hyperplane

    H(p) = { x : p_1 x_1 + ... + p_{d-1} x_{d-1} + p_d = x_d }.

The side of x with respect to H(p) is the sign of

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


def as_scalar(value) -> Fraction:
    """Coerce ints, 'num/den' strings and Fractions to an exact rational;
    anything else, a zero denominator included, raises ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError("booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as err:
            raise ValueError(f"bad rational {value!r} ({err})") from None
    raise ValueError(f"cannot interpret {value!r} as an exact rational")


def _scalar_tuple(values: Iterable) -> tuple[Fraction, ...]:
    # a tuple that already holds only Fractions is shared, not copied
    if type(values) is tuple and all(isinstance(v, Fraction) for v in values):
        return values
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
        it has the rank and signs of (x, 1). Every exact predicate here reads
        this column: ``_hyperplane_row`` times it for the sign of s_p(x),
        ``_halfspace_mask`` for half-space membership, and the ``_annihilate``
        bases of simplices and half-space dichotomies.
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
        # a Fraction's sign is its numerator's, and the numerator is cheaper to compare
        if any(v.numerator <= 0 for v in self.b):
            raise ValueError("all b_i must be strictly positive")
        if self.tau.numerator <= 0:
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
# duality maps
# ---------------------------------------------------------------------------


def dual_point_to_hyperplane(p: Point) -> DualHyperplane:
    if p.dim < 2:
        raise ValueError("point-to-hyperplane duality needs dimension >= 2")
    return DualHyperplane(p)


def dual_halfspace_to_point(h: RestrictedHalfspace) -> Point:
    """The point D(H) = (b_d/b_1, ..., b_d/b_{d-1}, tau * b_d).

    For every p the exact identity s_p(D(H)) = b_d * (sum_i p_i/b_i - tau)
    holds, so p lies in H exactly when s_p(D(H)) <= 0, with s_p(D(H)) < 0
    whenever sum_i p_i/b_i != tau.
    """
    if h.dim < 2:
        raise ValueError("half-space-to-point duality needs dimension >= 2")
    bd = h.b[-1]
    return Point(tuple(bd / bi for bi in h.b[:-1]) + (h.tau * bd,))


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


def _halfspace_dichotomy_masks(
    columns: Sequence[tuple[int, ...]], members: int, classified: dict[int, set[int]]
) -> set[int]:
    """The subsets of the points in ``members`` realizable as (closed
    half-space) ∩ those points, all as bitmasks over ``columns``.

    ``columns`` are the points' ``_vertex_column``s: their homogeneous
    vectors (x, 1), permuted and scaled by a positive factor, so ranks and
    signs are those of (x, 1), and a closed half-space is the set of columns
    on which some linear form is <= 0. Folding every member's column into
    the identity with ``_annihilate``, skipping dependent ones, gives their
    rank r, the affine dimension of the hull plus one. Candidate boundaries
    pass through r - 1 independent columns: folding just those leaves a
    basis in which any vector with a nonzero dot product on some member is
    the boundary's normal within the hull, unique up to sign. Points on a
    boundary are classified recursively by the dichotomies of their own
    columns (any tilt of the boundary induces such a sub-dichotomy, and
    every sub-dichotomy is reachable by an exact rational tilt); the
    recursion is intrinsic to the hull, so no chart is needed. A boundary is
    the span of its zero set, so a zero set met twice in one call is
    skipped, and ``classified`` keeps each zero set's dichotomies for the
    whole recursion.
    """
    out = {0, members}
    indices = [i for i in range(len(columns)) if members >> i & 1]
    if len(indices) <= 1:
        return out
    identity = _identity(len(columns[0]))
    basis = identity
    for i in indices:
        with suppress(DegenerateSimplexError):
            basis = _annihilate(basis, columns[i])
    boundaries: set[int] = set()
    for hyperplane in combinations(indices, len(identity) - len(basis) - 1):
        try:
            normals = reduce(_annihilate, (columns[i] for i in hyperplane), identity)
        except DegenerateSimplexError:
            continue
        for normal in normals:
            dots = [sum(map(mul, normal, columns[i])) for i in indices]
            if any(dots):
                break
        on = sum(1 << i for i, s in zip(indices, dots) if not s)
        if on in boundaries:
            continue
        boundaries.add(on)
        neg = sum(1 << i for i, s in zip(indices, dots) if s < 0)
        pos = sum(1 << i for i, s in zip(indices, dots) if s > 0)
        if on not in classified:
            classified[on] = _halfspace_dichotomy_masks(columns, on, classified)
        for small in classified[on]:
            out.add(neg | small)
            out.add(pos | small)
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
    columns = [p._vertex_column for p in points]
    masks = _halfspace_dichotomy_masks(columns, (1 << len(columns)) - 1, {})
    return SetSystem.from_masks(len(points), masks)


# ---------------------------------------------------------------------------
# integer sign kernels
# ---------------------------------------------------------------------------


def _halfspace_mask(
    b: Sequence[Fraction], tau: Fraction, columns: Sequence[tuple[int, ...]]
) -> int:
    """Bit i set when the point x with vertex column ``columns[i]`` lies in
    the half-space sum_j x_j/b_j <= tau.

    With N the lcm of the b_j's numerators, the column's dot product with
    N * (1/b_1, ..., 1/b_{d-1}, 0, 1/b_d) is A and N times its entry M > 0 is
    D, so A/D = sum_j x_j/b_j. The point lies in the half-space when
    A * tau's denominator <= tau's numerator * D, as D > 0.
    """
    mismatched = {len(c) - 1 for c in columns} - {len(b)}
    if mismatched:
        raise ValueError(f"half-space dimension {len(b)} != point dimension {min(mismatched)}")
    n = lcm(*(v.numerator for v in b))
    weights = [v.denominator * (n // v.numerator) for v in b]
    row = (*weights[:-1], 0, weights[-1])
    num, den = tau.numerator, tau.denominator
    mask = 0
    for i, c in enumerate(columns):
        if sum(map(mul, row, c)) * den <= num * n * c[-2]:
            mask |= 1 << i
    return mask


def _hyperplane_row(h: DualHyperplane) -> tuple[int, ...]:
    """L * (p_1, ..., p_{d-1}, p_d, -1) with L the lcm of p's denominators.

    Its dot product with ``x._vertex_column`` is L * M * s_p(x), with
    L, M > 0, so it has the sign of s_p(x) for any rationals.
    """
    p = h.p.coords
    n = lcm(*(v.denominator for v in p))
    return tuple(v.numerator * (n // v.denominator) for v in p) + (-n,)


def _vertex_signs(rows: Sequence[tuple[int, ...]], x: Point) -> tuple[int, int, int]:
    """Bitmasks of the rows i with s_p(x) > 0, < 0 and == 0 at vertex x.

    ``rows`` are ``_hyperplane_row`` images of hyperplanes H(p) of x's dimension;
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
