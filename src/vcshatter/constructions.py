"""The two shattering pipelines.

Theorem 1 (points vs. k-fold unions of half-spaces): a verified box family
in dimension d/2 lifts to a point set P in R^d such that every subset of P
is exactly the intersection of P with a union of at most k origin-side
half-spaces of the form sum_i x_i / b_i <= tau.

Theorem 2 (hyperplanes vs. open k-simplices): the same instance dualizes
into a hyperplane family shattered by open simplices of dimension at most
k. Every step is exact; verification never tolerates a sign of zero.

The chain behind Theorem 1, per subset P' of P:

  boxes of P \\ P'  --witness_for-->  points Q in R^{d/2}
  q in Q  --lift-->  corner (q_1, 1/q_1, ..., q_m, 1/q_m) in R^d
         --snap to the rescaled value grid-->  bounds (b_1, ..., b_d)
         --half-space-->  { x : sum x_i / b_i <= tau }

A box B lifts to (lo_1, 1/hi_1, ...), and q lies in B exactly when
lift(B) <= lift([q, q]) coordinatewise, so the corner alone encodes which
boxes q hits. Coordinates of P are rescaled to powers of d+1 per coordinate,
so a point beyond a snapped bound overshoots some b_i by a factor of at
least d+1, making half-space membership match corner dominance with strict
slack on both sides for any tau strictly between d and d+1.

Witness points are menu points of the gadget's distinct hit patterns. A
menu point's corner snaps coordinate by coordinate, so an instance snaps
each menu value q that the gadget hands out for each of its axes once, as
the pair (q, 1/q), and joins the pairs named by a pattern's menu digits
into that pattern's bound tuple. Pattern number p of P names one witness
half-space, wherever it sits in a witness: its bound tuple under the
threshold d + 1/2 + p/(4P). A Theorem 1 instance keeps only that table of
P half-spaces (``_halfspaces``), and a Theorem 2 instance only its
hyperplanes. Distinct patterns snap to distinct bounds, since the bounds
decide which points lie below them, and take distinct thresholds, which
keep the dual vertices of a witness apart: under one threshold for all,
they are affinely dependent far more often. Gadget witnesses form a tree:
each is its parent's plus one pattern numbered above all of the parent's,
so a witness's ascending patterns give its half-spaces and, by duality,
its vertices after the apex.
Every witness comes from a walk of that tree through
``boxgadget._witness_tree``, whose caller supplies only the root and the
step, so this module never reads the gadget's tables. ``union_witness``
walks afresh with the witness as its node, and ``simplex_witness`` extends
the apex by the duals of its half-spaces; a union with no witness raises.
A new vertex's affine independence is checked against the integer
annihilator of the simplex before it, usually by one dot product. Each
verifier first makes what it checks per half-space, in one table by
pattern number: its point mask, or its dual vertex with that vertex's
signs. Its walk then memoizes every tree parent for that run, with its own
nodes, which hold exactly what it checks (``_union_walk``,
``_simplex_walk``): it checks the witnesses the public functions return,
at one tree step, one table read and one OR per subset, and validates none
of the masks it makes itself. Both verifiers count a subset with no
witness, a dependent vertex, a witness of more than k half-spaces, or a
simplex of dimension above k, as failing.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from . import boxgadget  # boxgadget.verify is looked up where perfbench's tracer wraps it
from .boxgadget import BoxGadget, ConstructionError, _witness_tree
from .geometry import (
    AxisBox,
    DegenerateSimplexError,
    DualHyperplane,
    OpenSimplex,
    Point,
    RestrictedHalfspace,
    _halfspace_mask,
    _hyperplane_row,
    _vertex_signs,
    dual_halfspace_to_point,
    dual_point_to_hyperplane,
)
from .setsystem import SetSystem, _check_guard, mask_to_indices, subset_mask
from .setsystem import union_closure, vc_dim

AlphaTables = tuple[tuple[tuple[Fraction, Fraction], ...], ...]
Halfspaces = tuple[RestrictedHalfspace, ...]


def _lift(lo: Sequence[Fraction], hi: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """(lo_1, 1/hi_1, ..., lo_m, 1/hi_m), the lifted corner of the box [lo, hi].

    A point q lies in the box exactly when _lift(lo, hi) <= _lift(q, q)
    coordinatewise.
    """
    if any(v <= 0 for v in lo):
        raise ValueError("lifting requires strictly positive coordinates")
    return tuple(c for a, b in zip(lo, hi) for c in (a, Fraction(1) / b))


def lift_box(box: AxisBox) -> Point:
    """Map a positive box in R^m to (lo_1, 1/hi_1, ..., lo_m, 1/hi_m) in R^{2m}."""
    return Point(_lift(box.lo, box.hi))


def rescale(points: Sequence[Point], d: int) -> tuple[tuple[Point, ...], AlphaTables]:
    """Per coordinate, send the j-th smallest distinct value (1-based) to (d+1)^j.

    Order within each coordinate is preserved and consecutive distinct values
    end up at ratio exactly d+1 > d. Returns the rescaled points and, per
    coordinate, the sorted (original, rescaled) value table used for snapping.
    """
    if not points:
        raise ValueError("need at least one point")
    if any(p.dim != d for p in points):
        raise ValueError("point dimension does not match d")
    if any(v <= 0 for p in points for v in p.coords):
        raise ValueError("rescaling requires strictly positive coordinates")
    base = Fraction(d + 1)
    tables: list[tuple[tuple[Fraction, Fraction], ...]] = []
    maps: list[dict[Fraction, Fraction]] = []
    for i in range(d):
        values = sorted({p.coords[i] for p in points})
        table = tuple((v, base ** (j + 1)) for j, v in enumerate(values))
        tables.append(table)
        maps.append(dict(table))
    rescaled = tuple(
        Point(tuple(maps[i][p.coords[i]] for i in range(d))) for p in points
    )
    return rescaled, tuple(tables)


def snap(corner: Sequence[Fraction], alpha: AlphaTables) -> tuple[Fraction, ...]:
    """Snap a lifted corner down onto the rescaled value grid.

    Per coordinate the bound is the rescaled image of the largest original
    value <= the corner's; when every original value exceeds it, the bound is
    1, which sits strictly below the smallest rescaled value and therefore
    keeps every point out in that coordinate. A rescaled point lies below the
    snapped bounds exactly when its original lies below the corner.
    """
    if len(alpha) != len(corner):
        raise ValueError("alpha tables do not match corner dimension")
    bounds: list[Fraction] = []
    for table, value in zip(alpha, corner):
        j = bisect_right(table, value, key=itemgetter(0))
        bounds.append(table[j - 1][1] if j else Fraction(1))
    return tuple(bounds)


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem1Instance:
    """A lifted, rescaled point set in R^d together with its source gadget.

    points[i] is the rescaled lift of gadget.boxes[i]; the index is the
    bijection between boxes and points.
    """

    d: int
    k: int
    gadget: BoxGadget
    points: tuple[Point, ...]
    alpha: AlphaTables

    def __post_init__(self) -> None:
        if len(self.points) != len(self.gadget.boxes):
            raise ValueError("one point per gadget box required")
        # A witness has at most b = min(2^(n-1), |B|) <= k half-spaces.
        _check_gadget_n(self.gadget, self.k)

    @cached_property
    def _halfspaces(self) -> Halfspaces:
        """Per gadget pattern number p < P, its witness half-space: the
        snapped corner of its menu point under the threshold d + 1/2 + p/(4P)
        = (2P(2d+1) + p)/(4P), inside (d, d+1).

        A menu point q lifts to (q_1, 1/q_1, ..., q_m, 1/q_m), and ``snap``
        treats each coordinate alone, so the corner snaps axis by axis: each
        menu value q of axis i snaps once, as the pair (q, 1/q) against
        alpha's tables 2i and 2i+1, and a pattern's bound tuple joins the
        pairs named by its menu digits.
        """
        pairs = [
            [snap(_lift((q,), (q,)), self.alpha[2 * i : 2 * i + 2]) for q in values]
            for i, values in enumerate(self.gadget._menu)
        ]
        patterns = self.gadget._patterns[1].values()
        count = len(patterns)
        return tuple(
            RestrictedHalfspace(
                tuple(c for axis, m in zip(pairs, digits) for c in axis[m]),
                Fraction(2 * count * (2 * self.d + 1) + p, 4 * count),
            )
            for p, digits in enumerate(patterns)
        )


@dataclass(frozen=True)
class Theorem2Instance:
    """The dual view: one hyperplane per point of the base instance."""

    base: Theorem1Instance

    @property
    def k(self) -> int:
        return self.base.k

    @cached_property
    def hyperplanes(self) -> tuple[DualHyperplane, ...]:
        """H(p) for every point p of the base instance, in its order."""
        return tuple(dual_point_to_hyperplane(p) for p in self.base.points)


def required_gadget_n(k: int) -> int:
    """floor(log2 k) + 1, the gadget parameter matching fold count k."""
    if k < 2:
        raise ValueError("fold count k must be >= 2")
    return k.bit_length()


def _check_gadget_n(gadget: BoxGadget, k: int) -> None:
    """Refuse a gadget whose n is not ``required_gadget_n(k)``."""
    expected_n = required_gadget_n(k)
    if gadget.n != expected_n:
        raise ValueError(f"gadget has n={gadget.n}, but k={k} requires n={expected_n}")


def build_theorem1(d: int, k: int, gadget: BoxGadget) -> Theorem1Instance:
    """Assemble the point set for dimension d (even, >= 4) and fold count k.

    The gadget must match d and k (its dimension is d/2 and its n parameter
    is floor(log2 k) + 1) and pass ``verify``; a gadget that fails raises
    ConstructionError with the number of failing subsets.
    """
    if d % 2 != 0 or d < 4:
        raise ValueError("d must be an even integer >= 4 (odd d delegates to d-1)")
    if k < 2:
        raise ValueError("fold count k must be >= 2")
    if gadget.dim != d // 2:
        raise ValueError(f"gadget dimension {gadget.dim} != d/2 = {d // 2}")
    _check_gadget_n(gadget, k)
    report, _ = boxgadget.verify(gadget)
    if not report.ok:
        raise ConstructionError(
            f"gadget failed verification on {len(report.failing_subsets)} subsets"
        )
    points, alpha = rescale([lift_box(box) for box in gadget.boxes], d)
    return Theorem1Instance(d=d, k=k, gadget=gadget, points=points, alpha=alpha)


def union_witness(
    inst: Theorem1Instance, subset: Iterable[int] | int
) -> tuple[RestrictedHalfspace, ...]:
    """At most k half-spaces whose union meets P exactly in the given subset.

    The boxes of the complement subset are handed to the gadget; each witness
    point lifts to its corner, which snaps onto the rescaled grid and gives
    the bounds of one half-space, under its pattern's threshold; the
    witness holds the instance's own half-spaces. Each call walks the
    witness tree afresh, with the witness as its node, so the instance
    keeps no memo of it.
    """
    halfspaces = inst._halfspaces

    def grow(parent: Halfspaces, number: int) -> Halfspaces:
        return parent + (halfspaces[number],)

    return _witness_tree(inst.gadget, (), grow)(subset_mask(len(inst.points), subset))


@dataclass(frozen=True)
class VerificationReport:
    shattered: bool
    checked: int
    failing_subsets: tuple[tuple[int, ...], ...]
    max_witness_size: int
    mode: str
    seed: int | None = None
    zero_signs: int | None = None
    union_vc_dim: int | None = None


def _selected_masks(
    npoints: int, mode: str, count: int | None, seed: int | None
) -> Sequence[int]:
    if mode == "exhaustive":
        _check_guard(npoints, "exhaustive verification")
        return range(1 << npoints)
    if mode == "sample":
        if count is None or count < 1:
            raise ValueError("sample mode requires a positive count")
        if seed is None:
            raise ValueError("sample mode requires a seed")
        # Draw until there are enough distinct masks; random.sample over
        # range(1 << npoints) would overflow len() past 63 points.
        rng = random.Random(seed)
        wanted = min(count, 1 << npoints)
        masks: set[int] = set()
        while len(masks) < wanted:
            masks.add(rng.getrandbits(npoints))
        return sorted(masks)
    raise ValueError(f"unknown mode {mode!r}; expected 'exhaustive' or 'sample'")


def _union_walk(
    gadget: BoxGadget, masks: Sequence[int]
) -> Callable[[int], tuple[int, int]]:
    """The verifier's walk of the gadget's witness tree: per union mask, the
    pair (OR of the point masks of its witness half-spaces, their number).

    ``masks`` holds, per pattern number, the point mask of that pattern's
    half-space. A union's node is its parent's with its pattern's mask ORed
    in, so each subset costs one tree step, one list read and one OR.
    """

    def grow(parent: tuple[int, int], number: int) -> tuple[int, int]:
        return parent[0] | masks[number], parent[1] + 1

    return _witness_tree(gadget, (0, 0), grow)


def verify_theorem1(
    inst: Theorem1Instance,
    mode: str = "exhaustive",
    count: int | None = None,
    seed: int | None = None,
    compute_vc_dim: bool = False,
) -> VerificationReport:
    """Check that every selected subset is realized exactly by its witness union.

    The witnesses are those of ``union_witness``, read from the verifier's
    own walk of the witness tree (``_union_walk``), whose node per subset is
    the OR of its half-spaces' masks and their number. Each of the
    instance's P half-spaces is cut against P once, by ``_halfspace_mask``
    on the points' vertex columns, before the walk. A subset whose witness
    cannot be built, or has more than k half-spaces, counts as failing. With
    compute_vc_dim, additionally reports the VC-dimension of the k-fold
    union of the sets those P half-spaces cut out of P (it must reach |P|
    when the instance shatters), in either mode, so a sample run reports
    what an exhaustive one does. That union shatters P exactly when it is
    the whole power set, so the report is |P| when the popcount of its
    ``union_closure`` is 2^|P|; only a closure that is not full becomes the
    ``SetSystem`` of its members for ``vc_dim``.
    """
    masks = _selected_masks(len(inst.points), mode, count, seed)
    k = inst.k
    failing: list[tuple[int, ...]] = []
    max_size = 0
    columns = [p._vertex_column for p in inst.points]
    pattern_masks = [_halfspace_mask(h.b, h.tau, columns) for h in inst._halfspaces]
    walk = _union_walk(inst.gadget, pattern_masks)
    for pmask in masks:
        try:
            got, size = walk(pmask)
        except ConstructionError:
            failing.append(tuple(mask_to_indices(pmask)))
            continue
        if size > max_size:
            max_size = size
        if got != pmask or size > k:
            failing.append(tuple(mask_to_indices(pmask)))
    union_dim: int | None = None
    if compute_vc_dim:
        npoints = len(inst.points)
        closure = union_closure(set(pattern_masks), npoints, inst.k)
        if closure.bit_count() == 1 << npoints:
            union_dim = npoints
        else:
            union_dim = vc_dim(SetSystem(npoints, tuple(mask_to_indices(closure))))[0]
    return VerificationReport(
        shattered=not failing,
        checked=len(masks),
        failing_subsets=tuple(failing),
        max_witness_size=max_size,
        mode=mode,
        seed=seed,
        union_vc_dim=union_dim,
    )


def build_theorem2(inst: Theorem1Instance) -> Theorem2Instance:
    """The dual instance, whose hyperplanes are built on first read."""
    return Theorem2Instance(inst)


def _apex(d: int) -> Point:
    """The apex (1, 2, ..., d-1, 0) shared by every witness simplex.

    Every rescaled p is strictly positive, so s_p(apex) = sum_{i<d} i*p_i + p_d
    > 0: the apex lies strictly on the +1 side of every H(p).
    """
    return Point(tuple(Fraction(i) for i in range(1, d)) + (Fraction(0),))


def simplex_witness(inst2: Theorem2Instance, subset: Iterable[int] | int) -> OpenSimplex:
    """An open simplex meeting exactly the hyperplanes of the given subset.

    Vertices are the apex (1, 2, ..., d-1, 0), then the dual points of the
    union witness for the generating points. Every vertex lands strictly on
    the +1 side of each hyperplane except that a witness half-space containing
    p puts its dual vertex strictly on the -1 side of H(p), so the open hull
    crosses H(p) exactly when p is selected. Affinely dependent vertices raise
    ConstructionError. Each call grows the apex by the duals of
    ``union_witness``'s half-spaces, so the instance keeps no memo of it;
    each new vertex's independence is checked against the integer
    annihilator of the simplex before it (``OpenSimplex._extended``).
    """
    d = inst2.base.d
    pmask = subset_mask(len(inst2.base.points), subset)
    simplex = OpenSimplex(ambient_dim=d, vertices=(_apex(d),))
    try:
        for h in union_witness(inst2.base, pmask):
            simplex = simplex._extended(dual_halfspace_to_point(h))
    except DegenerateSimplexError as err:
        raise ConstructionError(
            f"could not build an affinely independent simplex for subset mask {pmask}: {err}"
        ) from err
    return simplex


def _simplex_walk(
    inst2: Theorem2Instance,
) -> Callable[[int], tuple[OpenSimplex, int, int, int, int]]:
    """The verifier's walk of inst2's witness tree: per union mask, the tuple
    (simplex, pos, neg, on, zero-sign count) of its witness simplex.

    pos, neg and on are the masks of the hyperplanes with some vertex
    strictly on the +1 side, some strictly on the -1 side, and every vertex
    on it; the count adds up the zero signs of every vertex. A union's node
    extends its parent's simplex by the dual vertex of its pattern's
    half-space (``OpenSimplex._extended`` raises DegenerateSimplexError on a
    dependent one) and folds that vertex's signs in. Before the walk, each
    of the base instance's P half-spaces gives its dual vertex, whose signs
    are evaluated once, in integers, over every hyperplane.
    """
    d = inst2.base.d
    signs_of = partial(_vertex_signs, [_hyperplane_row(h) for h in inst2.hyperplanes])
    made = [  # per pattern number: its vertex and the vertex's sign masks
        (v, *signs_of(v)) for v in map(dual_halfspace_to_point, inst2.base._halfspaces)
    ]

    def grow(parent: tuple, number: int) -> tuple[OpenSimplex, int, int, int, int]:
        simplex, pos, neg, on, zeros = parent
        v, p, n, z = made[number]
        return simplex._extended(v), pos | p, neg | n, on & z, zeros + z.bit_count()

    apex = _apex(d)
    pos, neg, on = signs_of(apex)
    root = (OpenSimplex(ambient_dim=d, vertices=(apex,)), pos, neg, on, on.bit_count())
    return _witness_tree(inst2.base.gadget, root, grow)


def verify_theorem2(
    inst2: Theorem2Instance,
    mode: str = "exhaustive",
    count: int | None = None,
    seed: int | None = None,
) -> VerificationReport:
    """Check each selected hyperplane subset against its witness simplex.

    The simplices are those of ``simplex_witness``, read from the verifier's
    own walk of the witness tree (``_simplex_walk``), whose node per subset
    carries the simplex's crossing masks and zero-sign count. Hyperplane i
    is crossed when some vertex is strictly on each side of it, or every
    vertex lies on it. Also counts sign-zero evaluations across every
    (vertex, hyperplane) pair; a sound run reports zero_signs == 0, since
    all incidences were engineered away by the threshold choice and the
    apex. A subset whose simplex cannot be built, or has dimension above k,
    counts as failing.
    """
    masks = _selected_masks(len(inst2.hyperplanes), mode, count, seed)
    k = inst2.k
    failing: list[tuple[int, ...]] = []
    zero_signs = 0
    max_size = 0
    walk = _simplex_walk(inst2)
    for hmask in masks:
        try:
            simplex, pos, neg, on, zeros = walk(hmask)
        except (ConstructionError, DegenerateSimplexError):
            failing.append(tuple(mask_to_indices(hmask)))
            continue
        size = len(simplex.vertices) - 1
        if size > max_size:
            max_size = size
        zero_signs += zeros
        if (pos & neg) | on != hmask or size > k:
            failing.append(tuple(mask_to_indices(hmask)))
    return VerificationReport(
        shattered=not failing,
        checked=len(masks),
        failing_subsets=tuple(failing),
        max_witness_size=max_size,
        mode=mode,
        seed=seed,
        zero_signs=zero_signs,
    )
