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
  q in Q  --anchored_box_of-->  box [0, q_1] x [0, 1/q_1] x ... in R^d
         --snap to the rescaled value grid-->  box [0, b_1] x ... x [0, b_d]
         --box_to_halfspace-->  { x : sum x_i / b_i <= tau }

Coordinates of P are rescaled to powers of d+1 per coordinate, so a point
outside a snapped box overshoots some b_i by a factor of at least d+1,
making half-space membership match box membership with strict slack on
both sides for any tau strictly between d and d+1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import boxgadget  # boxgadget.verify is looked up where perfbench's tracer wraps it
from .boxgadget import BoxGadget, witness_for
from .geometry import (
    AxisBox,
    DegenerateSimplexError,
    DualHyperplane,
    OpenSimplex,
    Point,
    RestrictedHalfspace,
    dual_halfspace_to_point,
    dual_point_to_hyperplane,
    induced_system_hyperplanes_in_simplices,
    induced_system_points_in_halfspaces,
    side_of,
)
from .setsystem import VERIFY_GUARD, SetSystem, k_fold_union, mask_to_indices, subset_mask, vc_dim

AlphaTables = tuple[tuple[tuple[Fraction, Fraction], ...], ...]


class ConstructionError(RuntimeError):
    """A witness could not be produced; signals an invalid instance or gadget."""


def lift_box(box: AxisBox) -> Point:
    """Map a positive box in R^m to (lo_1, 1/hi_1, ..., lo_m, 1/hi_m) in R^{2m}."""
    if any(v <= 0 for v in box.lo):
        raise ValueError("lifting requires strictly positive box coordinates")
    coords: list[Fraction] = []
    for lo, hi in zip(box.lo, box.hi):
        coords.append(lo)
        coords.append(Fraction(1) / hi)
    return Point(tuple(coords))


def anchored_box_of(q: Point) -> AxisBox:
    """The box [0, q_1] x [0, 1/q_1] x ... whose membership encodes membership
    of q in original boxes: q lies in B exactly when lift_box(B) lies here."""
    if any(v <= 0 for v in q.coords):
        raise ValueError("anchored boxes require strictly positive coordinates")
    hi: list[Fraction] = []
    for v in q.coords:
        hi.append(v)
        hi.append(Fraction(1) / v)
    return AxisBox(tuple(Fraction(0) for _ in hi), tuple(hi))


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


def snap_anchored_box(box: AxisBox, alpha: AlphaTables) -> AxisBox:
    """Snap an anchored box's upper corner down onto the rescaled value grid.

    Per coordinate the new hi is the rescaled image of the largest original
    value <= hi; when every original value exceeds hi, the coordinate snaps
    to 1, which sits strictly below the smallest rescaled value and therefore
    keeps every point out in that coordinate. Intersection with the rescaled
    point set is exactly the intersection the original box had with the
    original points.
    """
    if not box.is_anchored():
        raise ValueError("snapping applies to anchored boxes (lo = 0)")
    if len(alpha) != box.dim:
        raise ValueError("alpha tables do not match box dimension")
    hi: list[Fraction] = []
    for i, bound in enumerate(box.hi):
        snapped = Fraction(1)
        for original, image in alpha[i]:
            if original <= bound:
                snapped = image
            else:
                break
        hi.append(snapped)
    return AxisBox(tuple(Fraction(0) for _ in hi), tuple(hi))


def box_to_halfspace(box: AxisBox, d: int, tau: Fraction | None = None) -> RestrictedHalfspace:
    """The half-space { x : sum_i x_i / hi_i <= tau } of a snapped anchored box.

    tau defaults to d + 1/2. Any tau strictly between d and d+1 works: points
    of the box contribute at most 1 per term (sum <= d < tau) and points
    outside overshoot one term by a factor >= d+1 (sum >= d+1 > tau).
    """
    if box.dim != d:
        raise ValueError("box dimension does not match d")
    if not box.is_anchored():
        raise ValueError("expected an anchored box")
    if any(v <= 0 for v in box.hi):
        raise ValueError("half-space coefficients must be strictly positive")
    t = Fraction(2 * d + 1, 2) if tau is None else Fraction(tau)
    if not Fraction(d) < t < Fraction(d + 1):
        raise ValueError(f"tau must lie strictly between {d} and {d + 1}, got {t}")
    return RestrictedHalfspace(b=box.hi, tau=t)


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


@dataclass(frozen=True)
class Theorem2Instance:
    """The dual view: one hyperplane per point of the base instance."""

    base: Theorem1Instance
    hyperplanes: tuple[DualHyperplane, ...]
    k: int

    def __post_init__(self) -> None:
        if len(self.hyperplanes) != len(self.base.points):
            raise ValueError("one hyperplane per base point required")


def required_gadget_n(k: int) -> int:
    """floor(log2 k) + 1, the gadget parameter matching fold count k."""
    if k < 2:
        raise ValueError("fold count k must be >= 2")
    return k.bit_length()


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
    expected_n = required_gadget_n(k)
    if gadget.n != expected_n:
        raise ValueError(f"gadget has n={gadget.n}, but k={k} requires n={expected_n}")
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


def union_witness(
    inst: Theorem1Instance,
    subset: Iterable[int] | int,
    tau_step: Fraction | None = None,
) -> tuple[RestrictedHalfspace, ...]:
    """At most k half-spaces whose union meets P exactly in the given subset.

    The boxes of the complement subset are handed to the gadget; each witness
    point becomes an anchored box, snaps onto the rescaled grid and turns into
    one half-space. Duplicate half-spaces are merged before thresholds are
    assigned; thresholds are d + 1/2 + j*step with step defaulting to 1/(4k),
    so they stay strictly inside (d, d+1) and distinct per half-space.
    """
    pmask = subset_mask(len(inst.points), subset)
    nboxes = len(inst.gadget.boxes)
    avoid = [i for i in range(nboxes) if not (pmask >> i) & 1]
    q_points = witness_for(inst.gadget, avoid)
    if q_points is None:
        raise ConstructionError(
            f"gadget has no witness for box subset {avoid}; the certificate is invalid"
        )
    step = Fraction(1, 4 * inst.k) if tau_step is None else Fraction(tau_step)
    snapped: list[AxisBox] = []
    seen: set[tuple[Fraction, ...]] = set()
    for q in q_points:
        box = snap_anchored_box(anchored_box_of(q), inst.alpha)
        if box.hi not in seen:
            seen.add(box.hi)
            snapped.append(box)
    base = Fraction(2 * inst.d + 1, 2)
    return tuple(
        box_to_halfspace(box, inst.d, tau=base + j * step) for j, box in enumerate(snapped)
    )


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
) -> list[int]:
    if mode == "exhaustive":
        if npoints > VERIFY_GUARD:
            raise ValueError(
                f"exhaustive verification refused: {npoints} points exceeds the guard of {VERIFY_GUARD}"
            )
        return list(range(1 << npoints))
    if mode == "sample":
        if count is None or count < 1:
            raise ValueError("sample mode requires a positive count")
        if seed is None:
            raise ValueError("sample mode requires a seed")
        rng = random.Random(seed)
        masks = {rng.getrandbits(npoints) for _ in range(count)}
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

    A subset whose witness cannot be built counts as failing. With
    compute_vc_dim, additionally collects the sets that the witness
    half-spaces of the run cut out of P and reports the VC-dimension of the
    k-fold union of that system (it must reach |P| when the instance
    shatters).
    """
    masks = _selected_masks(len(inst.points), mode, count, seed)
    failing: list[tuple[int, ...]] = []
    max_size = 0
    members: set[int] = set()
    for pmask in masks:
        try:
            witness = union_witness(inst, pmask)
        except ConstructionError:
            failing.append(tuple(mask_to_indices(pmask)))
            continue
        max_size = max(max_size, len(witness))
        induced = induced_system_points_in_halfspaces(inst.points, witness)
        if compute_vc_dim:
            members.update(induced.sets)
        got = 0
        for member in induced.sets:
            got |= member
        if got != pmask:
            failing.append(tuple(mask_to_indices(pmask)))
    union_dim: int | None = None
    if compute_vc_dim and members:
        system = SetSystem.from_masks(len(inst.points), members)
        union_dim = vc_dim(k_fold_union(system, inst.k))[0]
    return VerificationReport(
        shattered=not failing,
        checked=len(masks),
        failing_subsets=tuple(failing),
        max_witness_size=max_size,
        mode=mode,
        seed=seed,
        union_vc_dim=union_dim,
    )


def build_theorem2(inst: Theorem1Instance, k: int | None = None) -> Theorem2Instance:
    """Dualize every point of the base instance into a hyperplane."""
    if k is not None and k != inst.k:
        raise ValueError(f"fold count {k} does not match the instance's k={inst.k}")
    hyperplanes = tuple(dual_point_to_hyperplane(p) for p in inst.points)
    return Theorem2Instance(base=inst, hyperplanes=hyperplanes, k=inst.k)


# Numerators m for threshold spacing m/(8k); the first matches the default
# 1/(4k). All keep j * step < 1/2 for j < k, so tau stays inside (d, d+1).
_TAU_STEP_NUMERATORS = (2, 1, 3, 4)


def _apex_height(inst: Theorem1Instance) -> Fraction:
    return min(p.coords[-1] for p in inst.points) / 2


def simplex_witness(inst2: Theorem2Instance, subset: Iterable[int] | int) -> OpenSimplex:
    """An open simplex meeting exactly the hyperplanes of the given subset.

    Vertices are the dual points of the union witness for the generating
    points, plus the apex (0, ..., 0, t) with t = (min_p p_d) / 2. Every
    vertex lands strictly on the +1 side of each hyperplane except that a
    witness half-space containing p puts its dual vertex strictly on the -1
    side of H(p), so the open hull crosses H(p) exactly when p is selected.
    Affine independence is retried over alternative threshold spacings.
    """
    base = inst2.base
    pmask = subset_mask(len(base.points), subset)
    apex = Point(tuple(Fraction(0) for _ in range(base.d - 1)) + (_apex_height(base),))
    last_error: Exception | None = None
    for numerator in _TAU_STEP_NUMERATORS:
        step = Fraction(numerator, 8 * inst2.k)
        witness = union_witness(base, pmask, tau_step=step)
        vertices: list[Point] = []
        seen: set[tuple[Fraction, ...]] = set()
        for h in witness:
            v = dual_halfspace_to_point(h)
            if v.coords not in seen:
                seen.add(v.coords)
                vertices.append(v)
        vertices.append(apex)
        try:
            return OpenSimplex(ambient_dim=base.d, vertices=tuple(vertices))
        except DegenerateSimplexError as err:
            last_error = err
    raise ConstructionError(
        f"could not build an affinely independent simplex for subset mask {pmask}: {last_error}"
    )


def verify_theorem2(
    inst2: Theorem2Instance,
    mode: str = "exhaustive",
    count: int | None = None,
    seed: int | None = None,
) -> VerificationReport:
    """Check each selected hyperplane subset against its witness simplex.

    Also counts sign-zero evaluations across every (vertex, hyperplane) pair;
    a sound run reports zero_signs == 0, since all incidences were engineered
    away by the threshold choice and the apex height. A subset whose simplex
    cannot be built counts as failing.
    """
    masks = _selected_masks(len(inst2.hyperplanes), mode, count, seed)
    failing: list[tuple[int, ...]] = []
    zero_signs = 0
    max_size = 0
    for hmask in masks:
        try:
            simplex = simplex_witness(inst2, hmask)
        except ConstructionError:
            failing.append(tuple(mask_to_indices(hmask)))
            continue
        max_size = max(max_size, len(simplex.vertices) - 1)
        for h in inst2.hyperplanes:
            zero_signs += sum(1 for v in simplex.vertices if side_of(h, v) == 0)
        induced = induced_system_hyperplanes_in_simplices(inst2.hyperplanes, [simplex])
        got = induced.sets[0] if induced.sets else 0
        if got != hmask:
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
