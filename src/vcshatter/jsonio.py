"""JSON schemas for every on-disk artifact.

Rationals travel as exact "num/den" strings (plain integer strings are
accepted on input). Readers validate shape and ranges and raise SchemaError
naming the offending field; writers emit canonical, deterministic JSON.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .boxgadget import BoxGadget
from .constructions import Theorem1Instance, Theorem2Instance, build_theorem1, build_theorem2
from .geometry import (
    AxisBox,
    DualHyperplane,
    OpenSimplex,
    Point,
    RestrictedHalfspace,
)
from .setsystem import SetSystem, indices_to_mask


class SchemaError(ValueError):
    pass


def format_scalar(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def parse_scalar(value: Any, where: str) -> Fraction:
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as err:
            raise SchemaError(f"{where}: bad rational {value!r} ({err})") from None
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise SchemaError(f"{where}: expected a 'num/den' string, got {value!r}")


def _require(data: Any, key: str, where: str) -> Any:
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in data:
        raise SchemaError(f"{where}: missing field {key!r}")
    return data[key]


def _int_field(data: Any, key: str, where: str, minimum: int | None = None) -> int:
    value = _require(data, key, where)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{where}.{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{where}.{key}: must be >= {minimum}, got {value}")
    return value


def _scalar_list(value: Any, where: str) -> tuple[Fraction, ...]:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list")
    return tuple(parse_scalar(v, f"{where}[{i}]") for i, v in enumerate(value))


# -- set systems -------------------------------------------------------------


def set_system_to_dict(system: SetSystem) -> dict:
    return {"ground_size": system.ground_size, "sets": system.member_lists()}


def set_system_from_dict(data: Any) -> tuple[SetSystem, int]:
    """Returns the system plus the number of duplicate member sets dropped."""
    n = _int_field(data, "ground_size", "set system", minimum=1)
    raw = _require(data, "sets", "set system")
    if not isinstance(raw, list):
        raise SchemaError("set system.sets: expected a list of index lists")
    masks = []
    for i, member in enumerate(raw):
        if not isinstance(member, list):
            raise SchemaError(f"set system.sets[{i}]: expected a list of indices")
        try:
            masks.append(indices_to_mask(n, member))
        except ValueError as err:
            raise SchemaError(f"set system.sets[{i}]: {err}") from None
    system = SetSystem.from_masks(n, masks)
    return system, len(masks) - len(system.sets)


# -- geometry ----------------------------------------------------------------


def point_set_to_dict(points: tuple[Point, ...] | list[Point]) -> dict:
    if not points:
        raise ValueError("cannot serialize an empty point set")
    return {
        "dim": points[0].dim,
        "points": [[format_scalar(c) for c in p.coords] for p in points],
    }


def point_set_from_dict(data: Any) -> tuple[Point, ...]:
    dim = _int_field(data, "dim", "point set", minimum=1)
    raw = _require(data, "points", "point set")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("point set.points: expected a nonempty list")
    points = []
    for i, coords in enumerate(raw):
        values = _scalar_list(coords, f"point set.points[{i}]")
        if len(values) != dim:
            raise SchemaError(f"point set.points[{i}]: expected {dim} coordinates")
        points.append(Point(values))
    return tuple(points)


def halfspace_to_dict(h: RestrictedHalfspace) -> dict:
    return {
        "dim": h.dim,
        "b": [format_scalar(v) for v in h.b],
        "tau": format_scalar(h.tau),
    }


def halfspace_from_dict(data: Any) -> RestrictedHalfspace:
    dim = _int_field(data, "dim", "halfspace", minimum=1)
    b = _scalar_list(_require(data, "b", "halfspace"), "halfspace.b")
    if len(b) != dim:
        raise SchemaError(f"halfspace.b: expected {dim} coefficients")
    tau = parse_scalar(_require(data, "tau", "halfspace"), "halfspace.tau")
    try:
        return RestrictedHalfspace(b=b, tau=tau)
    except ValueError as err:
        raise SchemaError(f"halfspace: {err}") from None


def hyperplane_to_dict(h: DualHyperplane) -> dict:
    return {"p": [format_scalar(v) for v in h.p.coords]}


def hyperplane_from_dict(data: Any) -> DualHyperplane:
    p = _scalar_list(_require(data, "p", "hyperplane"), "hyperplane.p")
    try:
        return DualHyperplane(Point(p))
    except ValueError as err:
        raise SchemaError(f"hyperplane: {err}") from None


def simplex_to_dict(s: OpenSimplex) -> dict:
    return {
        "ambient_dim": s.ambient_dim,
        "vertices": [[format_scalar(c) for c in v.coords] for v in s.vertices],
    }


def simplex_from_dict(data: Any) -> OpenSimplex:
    dim = _int_field(data, "ambient_dim", "simplex", minimum=1)
    raw = _require(data, "vertices", "simplex")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("simplex.vertices: expected a nonempty list")
    vertices = []
    for i, coords in enumerate(raw):
        values = _scalar_list(coords, f"simplex.vertices[{i}]")
        if len(values) != dim:
            raise SchemaError(f"simplex.vertices[{i}]: expected {dim} coordinates")
        vertices.append(Point(values))
    try:
        return OpenSimplex(ambient_dim=dim, vertices=tuple(vertices))
    except ValueError as err:
        raise SchemaError(f"simplex: {err}") from None


# -- gadget certificates -----------------------------------------------------


def gadget_to_dict(gadget: BoxGadget) -> dict:
    return {
        "n": gadget.n,
        "dim": gadget.dim,
        "boxes": [
            {"lo": [format_scalar(v) for v in box.lo], "hi": [format_scalar(v) for v in box.hi]}
            for box in gadget.boxes
        ],
    }


def gadget_from_dict(data: Any) -> BoxGadget:
    # Reads n, dim and boxes only; a "witnesses" key from older files is ignored.
    n = _int_field(data, "n", "gadget", minimum=2)
    dim = _int_field(data, "dim", "gadget", minimum=2)
    raw_boxes = _require(data, "boxes", "gadget")
    if not isinstance(raw_boxes, list):
        raise SchemaError("gadget.boxes: expected a list")
    boxes = []
    for i, rb in enumerate(raw_boxes):
        lo = _scalar_list(_require(rb, "lo", f"gadget.boxes[{i}]"), f"gadget.boxes[{i}].lo")
        hi = _scalar_list(_require(rb, "hi", f"gadget.boxes[{i}]"), f"gadget.boxes[{i}].hi")
        if len(lo) != dim or len(hi) != dim:
            raise SchemaError(f"gadget.boxes[{i}]: expected {dim} coordinates")
        try:
            boxes.append(AxisBox(lo, hi))
        except ValueError as err:
            raise SchemaError(f"gadget.boxes[{i}]: {err}") from None
    try:
        return BoxGadget(n=n, dim=dim, boxes=tuple(boxes))
    except ValueError as err:
        raise SchemaError(f"gadget: {err}") from None


# -- instances and witness bundles -------------------------------------------


def instance_to_dict(inst: Theorem1Instance) -> dict:
    return {
        "d": inst.d,
        "k": inst.k,
        "gadget": gadget_to_dict(inst.gadget),
        "points": point_set_to_dict(inst.points),
        "alpha": [
            [[format_scalar(orig), format_scalar(img)] for orig, img in table]
            for table in inst.alpha
        ],
    }


def instance_from_dict(data: Any) -> Theorem1Instance:
    """Rebuild and cross-check an instance bundle.

    The points and alpha tables are rederived from the embedded gadget and
    must match the stored ones exactly; a mismatch means a corrupted bundle.
    """
    d = _int_field(data, "d", "instance", minimum=4)
    k = _int_field(data, "k", "instance", minimum=2)
    gadget = gadget_from_dict(_require(data, "gadget", "instance"))
    try:
        inst = build_theorem1(d, k, gadget)
    except ValueError as err:
        raise SchemaError(f"instance: {err}") from None
    stored_points = point_set_from_dict(_require(data, "points", "instance"))
    if stored_points != inst.points:
        raise SchemaError("instance.points: stored points do not match the gadget derivation")
    raw_alpha = _require(data, "alpha", "instance")
    if not isinstance(raw_alpha, list) or len(raw_alpha) != d:
        raise SchemaError(f"instance.alpha: expected {d} per-coordinate tables")
    for i, table in enumerate(raw_alpha):
        derived = inst.alpha[i]
        if not isinstance(table, list) or len(table) != len(derived):
            raise SchemaError(f"instance.alpha[{i}]: table length mismatch")
        for j, pair in enumerate(table):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(f"instance.alpha[{i}][{j}]: expected [original, rescaled]")
            orig = parse_scalar(pair[0], f"instance.alpha[{i}][{j}][0]")
            img = parse_scalar(pair[1], f"instance.alpha[{i}][{j}][1]")
            if (orig, img) != derived[j]:
                raise SchemaError(f"instance.alpha[{i}][{j}]: does not match the derivation")
    return inst


def dual_instance_to_dict(inst2: Theorem2Instance) -> dict:
    out = instance_to_dict(inst2.base)
    out["hyperplanes"] = [hyperplane_to_dict(h) for h in inst2.hyperplanes]
    return out


def dual_instance_from_dict(data: Any) -> Theorem2Instance:
    base = instance_from_dict(data)
    inst2 = build_theorem2(base)
    if isinstance(data, dict) and "hyperplanes" in data:
        stored = [hyperplane_from_dict(h) for h in data["hyperplanes"]]
        if tuple(stored) != inst2.hyperplanes:
            raise SchemaError("instance.hyperplanes: stored hyperplanes do not match the points")
    return inst2


def union_witness_to_dict(subset: list[int], halfspaces) -> dict:
    return {"subset": subset, "halfspaces": [halfspace_to_dict(h) for h in halfspaces]}


def simplex_witness_to_dict(subset: list[int], simplex: OpenSimplex) -> dict:
    return {"subset": subset, "simplex": simplex_to_dict(simplex)}


# -- files -------------------------------------------------------------------


def dump_json(data: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_json(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise SchemaError(f"file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}: malformed JSON ({err})") from None
