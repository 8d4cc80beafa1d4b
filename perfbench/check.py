"""Independent exactness checks for the benchmark.

Everything here is recomputed from raw rationals with ``fractions.Fraction``.
Nothing is imported from vcshatter: witnesses are read through their plain
attributes (``coords``, ``b``, ``tau``, ``vertices``, ``lo``, ``hi``), so a
fast path in the program cannot pass a check by sharing the predicate it is
checked against. Each ``*_problem`` function returns None for a valid witness
and a one-line description of the first defect otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vector = tuple[Fraction, ...]


def parse_boxes(gadget_json: dict) -> list[tuple[Vector, Vector]]:
    """(lo, hi) per box from a gadget file, parsed without the program's reader."""
    return [
        (tuple(Fraction(v) for v in box["lo"]), tuple(Fraction(v) for v in box["hi"]))
        for box in gadget_json["boxes"]
    ]


def theorem1_points(boxes: Sequence[tuple[Vector, Vector]], d: int) -> list[Vector]:
    """The rescaled lifted point set of Theorem 1, derived from the boxes alone.

    A box lifts to (lo_1, 1/hi_1, lo_2, 1/hi_2, ...); per coordinate the j-th
    smallest distinct value (1-based) becomes (d+1)^j.
    """
    lifted = []
    for lo, hi in boxes:
        coords: list[Fraction] = []
        for a, b in zip(lo, hi):
            coords += [a, 1 / b]
        lifted.append(tuple(coords))
    ranks = []
    for i in range(d):
        values = sorted({p[i] for p in lifted})
        ranks.append({v: Fraction(d + 1) ** (j + 1) for j, v in enumerate(values)})
    return [tuple(ranks[i][p[i]] for i in range(d)) for p in lifted]


def _mask(bits: Sequence[bool]) -> int:
    return sum(1 << i for i, bit in enumerate(bits) if bit)


def gadget_witness_problem(
    boxes: Sequence[tuple[Vector, Vector]], avoided: int, points, max_size: int
) -> str | None:
    """The points must avoid every box in ``avoided`` and hit every other box."""
    pts = [tuple(p.coords) for p in points]
    if not 1 <= len(pts) <= max_size:
        return f"{len(pts)} witness points, expected 1..{max_size}"
    hit = _mask(
        [
            any(all(a <= x <= b for a, x, b in zip(lo, p, hi)) for p in pts)
            for lo, hi in boxes
        ]
    )
    want = ((1 << len(boxes)) - 1) & ~avoided
    return None if hit == want else f"hits boxes {hit:#x}, expected {want:#x}"


def union_witness_problem(
    points: Sequence[Vector], halfspaces, mask: int, k: int
) -> str | None:
    """At most k half-spaces sum_i x_i/b_i <= tau whose union meets P in ``mask``."""
    if not 1 <= len(halfspaces) <= k:
        return f"{len(halfspaces)} half-spaces, expected 1..{k}"
    got = 0
    for h in halfspaces:
        b, tau = tuple(h.b), h.tau
        if len(b) != len(points[0]) or any(v <= 0 for v in b):
            return f"bad coefficients {b}"
        got |= _mask([sum(x / bi for x, bi in zip(p, b)) <= tau for p in points])
    return None if got == mask else f"union meets {got:#x}, expected {mask:#x}"


def _rank(rows: list[list[Fraction]]) -> int:
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def simplex_witness_problem(
    points: Sequence[Vector], simplex, mask: int, k: int
) -> str | None:
    """An open simplex of dimension <= k crossing exactly the hyperplanes in ``mask``.

    Hyperplane H(p) is x_d = p_1 x_1 + ... + p_{d-1} x_{d-1} + p_d; the open
    simplex crosses it exactly when the vertex signs of
    s_p(v) = sum_{i<d} p_i v_i + p_d - v_d are mixed. A zero sign is a defect.
    """
    verts = [tuple(v.coords) for v in simplex.vertices]
    d = len(points[0])
    if not 1 <= len(verts) <= k + 1:
        return f"{len(verts)} vertices, expected 1..{k + 1}"
    if any(len(v) != d for v in verts):
        return "vertex dimension mismatch"
    diffs = [[a - b for a, b in zip(v, verts[0])] for v in verts[1:]]
    if _rank(diffs) != len(diffs):
        return "vertices are affinely dependent"
    crossed = []
    for p in points:
        signs = set()
        for v in verts:
            s = sum(pi * vi for pi, vi in zip(p[:-1], v[:-1])) + p[-1] - v[-1]
            if s == 0:
                return f"vertex {v} lies on a hyperplane"
            signs.add(s > 0)
        crossed.append(len(signs) == 2)
    got = _mask(crossed)
    return None if got == mask else f"simplex crosses {got:#x}, expected {mask:#x}"
