"""Independent brute-force oracles used to cross-check the library.

Nothing here shares code with the implementation paths under test. The
one-point predicates (box and half-space membership, the side of a dual
hyperplane, simplex crossing) are evaluated directly in ``Fraction``
arithmetic, where the library takes the sign of integer dot products; VC
dimension is recomputed over every subset, half-space separability is
decided by exact linear programming over convex hulls, k-fold unions and
intersections are grown as Python sets of masks, the union back-pointer
tables are rebuilt by a full scan and by the earlier sorted-tail sweep,
box-gadget covers are re-solved by exhaustive combination search over a
finer grid, and matrix rank is taken by Bareiss elimination over the
integers and by Gaussian elimination over the rationals.

One helper reads the library on purpose. ``_witness_patterns`` is the
reference walk up the gadget's back-pointer tables, one loop per witness,
that the tests hold ``boxgadget._witness_tree`` and its users to.

``reference_verify_theorem1`` and ``reference_verify_theorem2`` are the
verifiers done one subset at a time: each takes the witness of every subset
from a given witness function and decides it with ``halfspace_contains`` or
``simplex_hyperplane_intersects``, so their reports can be held against the
library verifiers, which walk the witness tree with masks.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Sequence

from vcshatter.boxgadget import BoxGadget, ConstructionError
from vcshatter.constructions import VerificationReport
from vcshatter.geometry import (
    AxisBox,
    DualHyperplane,
    OpenSimplex,
    Point,
    RestrictedHalfspace,
)
from vcshatter.setsystem import SetSystem, shatters, subset_mask


def box_contains(box: AxisBox, q: Point) -> bool:
    if box.dim != q.dim:
        raise ValueError(f"box dimension {box.dim} != point dimension {q.dim}")
    return all(a <= x <= b for a, x, b in zip(box.lo, q.coords, box.hi))


def halfspace_contains(h: RestrictedHalfspace, x: Point) -> bool:
    """Whether sum_i x_i / b_i <= tau."""
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


def halfspace_cut(h: RestrictedHalfspace, points: Sequence[Point]) -> int:
    """The mask of the points that lie in h."""
    return sum(1 << i for i, p in enumerate(points) if halfspace_contains(h, p))


def sign_masks(x: Point, hyperplanes: Sequence[DualHyperplane]) -> tuple[int, int, int]:
    """The masks of the hyperplanes with x strictly on the +1 side, strictly
    on the -1 side, and on the hyperplane."""
    signs = [side_of(h, x) for h in hyperplanes]
    return tuple(sum(1 << i for i, s in enumerate(signs) if s == want) for want in (1, -1, 0))


def reference_verify_theorem1(inst, witness, compute_vc_dim: bool = False) -> VerificationReport:
    """The exhaustive ``verify_theorem1`` report, one subset at a time.

    Subset mask m fails when ``witness(inst, m)`` raises ConstructionError,
    has more than k half-spaces, or cuts out of the points, by
    ``halfspace_contains``, another set than m. The VC-dimension is taken by
    brute force over the k-fold union, grown as sets, of the sets the
    witness half-spaces cut.
    """
    npoints = len(inst.points)
    failing = []
    max_size = 0
    cut: dict[RestrictedHalfspace, int] = {}  # by value: equal half-spaces cut equal sets
    for mask in range(1 << npoints):
        members = tuple(i for i in range(npoints) if mask >> i & 1)
        try:
            halfspaces = witness(inst, mask)
        except ConstructionError:
            failing.append(members)
            continue
        max_size = max(max_size, len(halfspaces))
        covered = 0
        for h in halfspaces:
            if h not in cut:
                cut[h] = halfspace_cut(h, inst.points)
            covered |= cut[h]
        if covered != mask or len(halfspaces) > inst.k:
            failing.append(members)
    union_dim = None
    if compute_vc_dim and cut:
        system = SetSystem.from_masks(npoints, cut.values())
        union_dim = brute_force_vc_dim(set_k_fold_union(system, inst.k))
    return VerificationReport(
        shattered=not failing,
        checked=1 << npoints,
        failing_subsets=tuple(failing),
        max_witness_size=max_size,
        mode="exhaustive",
        union_vc_dim=union_dim,
    )


def reference_verify_theorem2(inst2, witness) -> VerificationReport:
    """The exhaustive ``verify_theorem2`` report, one subset at a time.

    Subset mask m fails when ``witness(inst2, m)`` raises ConstructionError,
    has dimension above k, or is not crossed, by
    ``simplex_hyperplane_intersects``, by exactly the hyperplanes of m. The
    zero signs are the ``side_of`` zeros of every vertex of every simplex
    built, against every hyperplane.
    """
    hyperplanes = inst2.hyperplanes
    failing = []
    max_size = zero_signs = 0
    zeros: dict[Point, int] = {}  # by value: equal vertices have equal signs
    for mask in range(1 << len(hyperplanes)):
        members = tuple(i for i in range(len(hyperplanes)) if mask >> i & 1)
        try:
            simplex = witness(inst2, mask)
        except ConstructionError:
            failing.append(members)
            continue
        max_size = max(max_size, simplex.simplex_dim)
        for v in simplex.vertices:
            if v not in zeros:
                zeros[v] = sum(side_of(h, v) == 0 for h in hyperplanes)
            zero_signs += zeros[v]
        crossed = tuple(
            i for i, h in enumerate(hyperplanes) if simplex_hyperplane_intersects(simplex, h)
        )
        if crossed != members or simplex.simplex_dim > inst2.k:
            failing.append(members)
    return VerificationReport(
        shattered=not failing,
        checked=1 << len(hyperplanes),
        failing_subsets=tuple(failing),
        max_witness_size=max_size,
        mode="exhaustive",
        zero_signs=zero_signs,
    )


def brute_force_vc_dim(system: SetSystem) -> int:
    """Max size of a shattered subset, checked over every subset of the ground set."""
    best = 0
    n = system.ground_size
    for size in range(n, 0, -1):
        if size <= best:
            break
        for ys in combinations(range(n), size):
            if shatters(system, ys):
                best = size
                break
    return best


def set_k_fold_union(system: SetSystem, k: int) -> SetSystem:
    """Unions of k (not necessarily distinct) members, one set of masks per fold."""
    acc = set(system.sets)
    for _ in range(k - 1):
        acc = {a | b for a in acc for b in system.sets}
    return SetSystem.from_masks(system.ground_size, acc)


def set_k_fold_intersection(system: SetSystem, k: int) -> SetSystem:
    """Intersections of k (not necessarily distinct) members, one set of masks per fold."""
    acc = set(system.sets)
    for _ in range(k - 1):
        acc = {a & b for a in acc for b in system.sets}
    return SetSystem.from_masks(system.ground_size, acc)


def _witness_patterns(gadget: BoxGadget, subset: Iterable[int] | int) -> list[int] | None:
    """The pattern numbers of ``witness_for``'s witness, ascending; None when it has none.

    They are read up the witness tree, one per fold: ``pick`` names the
    pattern added last and ``prev`` the union before it (see ``boxgadget._unions``).
    """
    nboxes = len(gadget.boxes)
    union = ((1 << nboxes) - 1) & ~subset_mask(nboxes, subset)
    pick, prev = gadget._closure
    chosen = []
    while union >= 0:
        if pick[union] < 0:
            return None
        chosen.append(pick[union])
        union = prev[union]
    return chosen[::-1]


def full_scan_unions(patterns: list[int], nboxes: int, b: int) -> tuple[array, array]:
    """The ``pick``/``prev`` back-pointer tables of the b-fold union closure,
    extending every reached union by every pattern."""
    pick = array("i", [-1]) * (1 << nboxes)
    prev = array("i", [-1]) * (1 << nboxes)
    for i, p in enumerate(patterns):
        pick[p] = i
    frontier = list(patterns)
    for _ in range(b - 1):
        reached = []
        for u in frontier:
            for i, p in enumerate(patterns):
                v = u | p
                if pick[v] < 0:
                    pick[v] = i
                    prev[v] = u
                    reached.append(v)
        frontier = reached
    return pick, prev


def sorted_tail_unions(patterns: list[int], nboxes: int, b: int) -> tuple[array, array]:
    """The same tables by the earlier ``boxgadget._unions`` sweep, kept as it was:
    both tables are arrays throughout, the frontier is a list, and a union
    with ``pick`` i is extended by the patterns numbered above i."""
    pick = array("i", [-1]) * (1 << nboxes)
    prev = array("i", [-1]) * (1 << nboxes)
    for i, p in enumerate(patterns):
        pick[p] = i
    frontier = patterns
    for _ in range(b - 1):
        reached = []
        for u in frontier:
            for i in range(pick[u] + 1, len(patterns)):
                v = u | patterns[i]
                if pick[v] < 0:
                    pick[v] = i
                    prev[v] = u
                    reached.append(v)
        frontier = reached
    return pick, prev


def integer_rank(rows: list[list[int]] | list[tuple[int, ...]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    After each pivot step every remaining entry is a minor of the input, so
    the division by the previous pivot is exact and no rational is built.
    """
    mat = [list(r) for r in rows]
    rank = 0
    last = 1
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        p = prow[col]
        for r in range(rank + 1, len(mat)):
            a = mat[r][col]
            mat[r] = [(p * x - a * y) // last for x, y in zip(mat[r], prow)]
        last = p
        rank += 1
        if rank == len(mat):
            break
    return rank


def fraction_rank(rows) -> int:
    """Rank of a rational matrix by Gaussian elimination over ``Fraction``s."""
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        prow = mat[rank]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col] / prow[col]
            mat[r] = [x - f * y for x, y in zip(mat[r], prow)]
        rank += 1
        if rank == len(mat):
            break
    return rank


def lp_feasible_nonneg(A: list[list[Fraction]], b: list[Fraction]) -> bool:
    """Whether some x >= 0 solves Ax = b, by exact phase-1 simplex.

    Bland's rule (smallest entering index, smallest leaving basis index)
    guarantees termination; all arithmetic is in Fractions.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(m):
        if b[i] < 0:
            rows.append([-x for x in A[i]])
            rhs.append(-b[i])
        else:
            rows.append(list(A[i]))
            rhs.append(b[i])
    tab = [
        rows[i]
        + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        + [rhs[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]
    obj = [Fraction(0)] * (n + m + 1)
    for j in range(n):
        obj[j] = -sum(tab[i][j] for i in range(m))
    obj[-1] = -sum(rhs)
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best_ratio = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            return False  # unbounded; cannot happen in phase 1 but stay safe
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter
    return obj[-1] == 0


def hulls_intersect(pts_a: list[tuple[Fraction, ...]], pts_b: list[tuple[Fraction, ...]]) -> bool:
    """Whether conv(A) and conv(B) share a point: a feasibility LP over weights."""
    if not pts_a or not pts_b:
        return False
    d = len(pts_a[0])
    na, nb = len(pts_a), len(pts_b)
    A: list[list[Fraction]] = []
    b: list[Fraction] = []
    for i in range(d):
        A.append([p[i] for p in pts_a] + [-q[i] for q in pts_b])
        b.append(Fraction(0))
    A.append([Fraction(1)] * na + [Fraction(0)] * nb)
    b.append(Fraction(1))
    A.append([Fraction(0)] * na + [Fraction(1)] * nb)
    b.append(Fraction(1))
    return lp_feasible_nonneg(A, b)


def brute_halfspace_dichotomy_masks(points: list[Point]) -> set[int]:
    """All realizable half-space dichotomies, one separability LP per subset.

    T is realizable exactly when conv(T) and conv(P minus T) are disjoint.
    """
    n = len(points)
    full = (1 << n) - 1
    out = {0, full}
    coords = [p.coords for p in points]
    for mask in range(1, full):
        inside = [coords[i] for i in range(n) if (mask >> i) & 1]
        outside = [coords[i] for i in range(n) if not (mask >> i) & 1]
        if not hulls_intersect(inside, outside):
            out.add(mask)
    return out


def finer_grid_points(boxes, dim: int) -> list[Point]:
    """A strictly denser generic grid than the candidate menu: three interior
    points per gap instead of one, two flanking points per side."""
    axes = []
    for i in range(dim):
        values = sorted({b.lo[i] for b in boxes} | {b.hi[i] for b in boxes})
        if not values:
            axes.append([Fraction(1), Fraction(2)])
            continue
        menu = [values[0] / 3, values[0] / 2]
        for a, b in zip(values, values[1:]):
            gap = b - a
            menu.extend([a + gap / 4, a + gap / 2, a + 3 * gap / 4])
        menu.extend([values[-1] + 1, values[-1] + 2])
        axes.append([v for v in menu if v > 0])
    return [Point(c) for c in product(*axes)]


def brute_cover_feasible(boxes, smask: int, budget: int, candidates: list[Point]) -> bool:
    """Exhaustively test whether <= budget candidate points avoid the boxes in
    smask while hitting every other box."""
    nboxes = len(boxes)
    usable = []
    for q in candidates:
        hit = 0
        ok = True
        for j, box in enumerate(boxes):
            if box_contains(box, q):
                if (smask >> j) & 1:
                    ok = False
                    break
                hit |= 1 << j
        if ok:
            usable.append(hit)
    targets = ((1 << nboxes) - 1) & ~smask
    if targets == 0:
        return bool(usable)
    usable = sorted(set(usable))
    for size in range(1, budget + 1):
        for combo in combinations(usable, size):
            got = 0
            for h in combo:
                got |= h
            if got & targets == targets:
                return True
    return False
