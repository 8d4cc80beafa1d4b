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
each menu value q of each gadget axis once, as the pair (q, 1/q), and joins
the pairs named by a pattern's menu digits into its row. A pattern's
half-space at threshold slot j is built once, keyed by (pattern number, j)
(``Theorem1Instance._slot``), and so is its dual vertex on a Theorem 2
instance. Distinct patterns snap to distinct bounds, since the bounds
decide which points lie below them. Gadget witnesses form a tree: each is
its parent's plus one pattern numbered above all of the parent's
(read from the gadget's ``_closure`` tables); the root, the witness of no
pattern, is union -1. So a witness is its parent's plus that pattern's
half-space (or dual vertex) at the slot given by the parent's size. Each
instance memoizes the witness of every witness-tree parent by union mask,
the root's first: its half-spaces, or on a Theorem 2 instance its simplex.
A leaf then costs one call, the instance's ``_node``: one tree step, one
memo lookup and at most one new slot or vertex. Only a missing parent or a
union with no witness takes the shared slow path, ``_tree_parent``. A new
vertex's affine independence is checked against the parent's integer
annihilator, usually by one dot product. The verifiers check whatever the
public witness functions return. Theorem 1 memoizes the exact integer sums
of the points against each bound-tuple object it receives (a pattern's
slots share their row's tuple) and the mask of each half-space object;
Theorem 2 memoizes the sign masks of each vertex object. Both count a
witness of more than k half-spaces, or a simplex of dimension above k, as
failing.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from operator import itemgetter
from typing import Iterable, Sequence

from . import boxgadget  # boxgadget.verify is looked up where perfbench's tracer wraps it
from .boxgadget import BoxGadget, _menu_value
from .geometry import (
    AxisBox,
    DegenerateSimplexError,
    DualHyperplane,
    OpenSimplex,
    Point,
    RestrictedHalfspace,
    _bound_sums,
    _hyperplane_row,
    _tau_mask,
    _vertex_signs,
    dual_halfspace_to_point,
    dual_point_to_hyperplane,
)
from .setsystem import SetSystem, _check_guard, k_fold_union, mask_to_indices, subset_mask
from .setsystem import union_closure, vc_dim

AlphaTables = tuple[tuple[tuple[Fraction, Fraction], ...], ...]
# A pattern's snapped bounds and the half-spaces built from them so far, by
# threshold slot.
Row = tuple[tuple[Fraction, ...], dict[int, RestrictedHalfspace]]
Halfspaces = tuple[RestrictedHalfspace, ...]


class ConstructionError(RuntimeError):
    """A witness could not be produced; signals an invalid instance or gadget."""


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
        # A witness has at most 2^(n-1) <= k patterns, so every threshold
        # slot j < k has d + 1/2 + j/(4k) inside (d, d+1).
        _check_gadget_n(self.gadget, self.k)

    @cached_property
    def _witness_rows(self) -> tuple[Row, ...]:
        """Per gadget pattern number, the snapped corner of its menu point.

        A menu point q lifts to (q_1, 1/q_1, ..., q_m, 1/q_m), and ``snap``
        treats each coordinate alone, so the corner snaps axis by axis: menu
        value q of axis i snaps once, as the pair (q, 1/q) against alpha's
        tables 2i and 2i+1, and a pattern's row joins the pairs named by its
        menu digits. The table is built on first use; slots are added by
        ``_slot``.
        """
        axes, patterns = self.gadget._menu
        pairs = [
            [
                snap(_lift((q,), (q,)), self.alpha[2 * i : 2 * i + 2])
                for q in map(partial(_menu_value, values), range(len(values) + 1))
            ]
            for i, values in enumerate(axes)
        ]
        return tuple(
            (tuple(c for axis, m in zip(pairs, digits) for c in axis[m]), {})
            for digits in patterns.values()
        )

    @cached_property
    def _nodes(self) -> dict[int, Halfspaces]:
        """The half-spaces of each union met as a witness-tree parent, by
        union mask, the j-th at slot j; the root's, none, under -1."""
        return {-1: ()}

    @cached_property
    def _taus(self) -> tuple[Fraction, ...]:
        """Per slot j < k, its threshold d + 1/2 + j/(4k) = (2k(2d+1) + j)/(4k)."""
        return tuple(Fraction(2 * self.k * (2 * self.d + 1) + j, 4 * self.k) for j in range(self.k))

    def _slot(self, number: int, j: int) -> RestrictedHalfspace:
        """Pattern ``number``'s half-space at threshold slot j, built once on
        its row's bound tuple."""
        bounds, slots = self._witness_rows[number]
        h = slots.get(j)
        if h is None:
            h = slots[j] = RestrictedHalfspace(b=bounds, tau=self._taus[j])
        return h

    @cached_property
    def _tree(self) -> tuple[array, array, dict[int, Halfspaces], tuple[Row, ...]]:
        """What ``_node`` reads, behind one attribute: the gadget's ``_closure``
        tables, ``_nodes`` and ``_witness_rows``."""
        return (*self.gadget._closure, self._nodes, self._witness_rows)

    def _node(self, union: int) -> Halfspaces:
        """The witness half-spaces of ``union``: its tree parent's, then the
        half-space of the pattern it adds, at the slot given by the parent's size."""
        pick, prev, nodes, rows = self._tree
        number = pick[union]
        node = nodes.get(prev[union])
        if node is None or number < 0:
            number, node = _tree_parent(self, union)
        h = rows[number][1].get(len(node))
        return (*node, h if h is not None else self._slot(number, len(node)))


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

    @cached_property
    def _nodes(self) -> dict[int, OpenSimplex]:
        """The simplex of each union met as a witness-tree parent, by union
        mask: the apex, then one dual vertex per pattern; the root's, the apex
        alone, under -1."""
        return {-1: OpenSimplex(ambient_dim=self.base.d, vertices=(_apex(self.base.d),))}

    @cached_property
    def _vertices(self) -> dict[tuple[int, int], Point]:
        """The dual vertex of ``base._slot(number, j)``, by (number, j), built on first read."""
        return {}

    @cached_property
    def _tree(self) -> tuple[array, array, dict[int, OpenSimplex], dict[tuple[int, int], Point]]:
        """What ``_node`` reads, behind one attribute: the gadget's ``_closure``
        tables, ``_nodes`` and ``_vertices``."""
        return (*self.base.gadget._closure, self._nodes, self._vertices)

    def _node(self, union: int) -> OpenSimplex:
        """The witness simplex of ``union``: its tree parent's, extended by the
        dual vertex of the pattern it adds and checked against the parent's
        annihilator."""
        pick, prev, nodes, vertices = self._tree
        number = pick[union]
        node = nodes.get(prev[union])
        if node is None or number < 0:
            number, node = _tree_parent(self, union)
        key = (number, len(node.vertices) - 1)
        v = vertices.get(key)
        if v is None:
            v = vertices[key] = dual_halfspace_to_point(self.base._slot(*key))
        return node._extended(v)


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
    lifted = [lift_box(box) for box in gadget.boxes]
    if len({p.coords for p in lifted}) != len(lifted):
        raise ValueError("gadget boxes must lift to distinct points")
    points, alpha = rescale(lifted, d)
    return Theorem1Instance(d=d, k=k, gadget=gadget, points=points, alpha=alpha)


def _tree_parent(
    owner: Theorem1Instance | Theorem2Instance, union: int
) -> tuple[int, Halfspaces | OpenSimplex]:
    """The pattern that ``union`` adds to its witness-tree parent, and the
    parent's witness on the owner instance: the slow path of ``owner._node``.

    A witness is its tree parent's plus one pattern numbered above all of
    the parent's: the gadget's ``_closure`` tables give that pattern
    (``pick``) and the parent (``prev``) by union mask. The witnesses of
    parents are memoized on the owner, which starts with the root's under
    -1; a missing one is built here, by ``owner._node``. A union the tables
    never reached raises ConstructionError.
    """
    pick, prev, nodes, _ = owner._tree
    number = pick[union]
    if number < 0:
        # one table entry per union mask, so len(pick) - 1 is the full mask
        avoid = (len(pick) - 1) & ~union
        raise ConstructionError(
            f"gadget has no witness for box subset {mask_to_indices(avoid)}; "
            "the certificate is invalid"
        )
    parent = prev[union]
    node = nodes.get(parent)
    if node is None:
        node = nodes[parent] = owner._node(parent)
    return number, node


def union_witness(
    inst: Theorem1Instance, subset: Iterable[int] | int
) -> tuple[RestrictedHalfspace, ...]:
    """At most k half-spaces whose union meets P exactly in the given subset.

    The boxes of the complement subset are handed to the gadget; each witness
    point lifts to its corner, which snaps onto the rescaled grid and gives
    the bounds of one half-space. The j-th witness pattern's half-space has
    threshold d + 1/2 + j/(4k), strictly inside (d, d+1) since j < k. The
    half-spaces are the witness-tree parent's plus one, taken in one call
    (``Theorem1Instance._node``); only a missing parent or a subset with no
    witness goes on to ``_tree_parent``.
    """
    return inst._node(subset_mask(len(inst.points), subset))


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
        # Draw until enough distinct masks are held; random.sample over
        # range(1 << npoints) would overflow len() past 63 points.
        rng = random.Random(seed)
        wanted = min(count, 1 << npoints)
        masks: set[int] = set()
        while len(masks) < wanted:
            masks.add(rng.getrandbits(npoints))
        return sorted(masks)
    raise ValueError(f"unknown mode {mode!r}; expected 'exhaustive' or 'sample'")


def verify_theorem1(
    inst: Theorem1Instance,
    mode: str = "exhaustive",
    count: int | None = None,
    seed: int | None = None,
    compute_vc_dim: bool = False,
) -> VerificationReport:
    """Check that every selected subset is realized exactly by its witness union.

    A subset whose witness cannot be built, or has more than k half-spaces,
    counts as failing. With compute_vc_dim, additionally collects the sets
    that the witness half-spaces of the run cut out of P and reports the
    VC-dimension of the k-fold union of that system (it must reach |P| when
    the instance shatters). That union shatters P exactly when it is the
    whole power set, so the report is |P| when the popcount of its
    ``union_closure`` is 2^|P|; only a closure that is not full builds the
    ``SetSystem`` for ``vc_dim``. The exact integer sums of the points'
    vertex columns against each bound-tuple object received (``_bound_sums``)
    are computed once, and so is each half-space object's mask, their
    ``_tau_mask`` at its tau.
    """
    masks = _selected_masks(len(inst.points), mode, count, seed)
    columns = [p._vertex_column for p in inst.points]
    k = inst.k
    failing: list[tuple[int, ...]] = []
    max_size = 0
    # By id: ``held`` keeps each half-space received, and so its bound
    # tuple, alive, so no other object can take those ids during the run.
    held: list[RestrictedHalfspace] = []
    sums_of: dict[int, tuple[tuple[int, int], ...]] = {}
    seen: dict[int, int] = {}
    for pmask in masks:
        try:
            witness = union_witness(inst, pmask)
        except ConstructionError:
            failing.append(tuple(mask_to_indices(pmask)))
            continue
        size = len(witness)
        if size > max_size:
            max_size = size
        got = 0
        for h in witness:
            m = seen.get(id(h))
            if m is None:
                held.append(h)
                sums = sums_of.get(id(h.b))
                if sums is None:
                    sums = sums_of[id(h.b)] = _bound_sums(h.b, columns)
                m = seen[id(h)] = _tau_mask(sums, h.tau)
            got |= m
        if got != pmask or size > k:
            failing.append(tuple(mask_to_indices(pmask)))
    union_dim: int | None = None
    if compute_vc_dim and seen:
        npoints = len(inst.points)
        cut = set(seen.values())
        if union_closure(cut, npoints, inst.k).bit_count() == 1 << npoints:
            union_dim = npoints
        else:
            union_dim = vc_dim(k_fold_union(SetSystem.from_masks(npoints, cut), inst.k))[0]
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
    ConstructionError. The simplex is its witness-tree parent's plus one
    vertex, taken in one call (``Theorem2Instance._node``); only a missing
    parent or a subset with no witness goes on to ``_tree_parent``. The new
    vertex's independence is checked against the parent's integer
    annihilator (``OpenSimplex._extended``).
    """
    pmask = subset_mask(len(inst2.base.points), subset)
    try:
        return inst2._node(pmask)
    except DegenerateSimplexError as err:
        raise ConstructionError(
            f"could not build an affinely independent simplex for subset mask {pmask}: {err}"
        ) from err


def verify_theorem2(
    inst2: Theorem2Instance,
    mode: str = "exhaustive",
    count: int | None = None,
    seed: int | None = None,
) -> VerificationReport:
    """Check each selected hyperplane subset against its witness simplex.

    Also counts sign-zero evaluations across every (vertex, hyperplane) pair;
    a sound run reports zero_signs == 0, since all incidences were engineered
    away by the threshold choice and the apex. The signs of each vertex object
    received are evaluated once, in integers, over every hyperplane, and give
    both the count and the crossing mask. A subset whose simplex cannot be
    built, or has dimension above k, counts as failing.
    """
    masks = _selected_masks(len(inst2.hyperplanes), mode, count, seed)
    k = inst2.k
    signs_of = partial(_vertex_signs, [_hyperplane_row(h) for h in inst2.hyperplanes])
    failing: list[tuple[int, ...]] = []
    zero_signs = 0
    max_size = 0
    # By id; each entry holds its vertex, then the vertex's (pos, neg, on) masks.
    seen: dict[int, tuple[object, int, int, int]] = {}
    for hmask in masks:
        try:
            simplex = simplex_witness(inst2, hmask)
        except ConstructionError:
            failing.append(tuple(mask_to_indices(hmask)))
            continue
        size = len(simplex.vertices) - 1
        if size > max_size:
            max_size = size
        # Hyperplane i is crossed when some vertex is strictly on each side
        # of it, or every vertex lies on it.
        pos = neg = 0
        on = -1
        for v in simplex.vertices:
            entry = seen.get(id(v))
            if entry is None:
                entry = seen[id(v)] = (v, *signs_of(v))
            _, p, n, z = entry
            pos |= p
            neg |= n
            on &= z
            zero_signs += z.bit_count()
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
