"""SHA-1 digests of the Theorem 1 and Theorem 2 outputs on the seed-0 d=4, k=4 instance.

The report digest was taken before the witness-tree step was flattened, and
the half-space and vertex digests when each threshold became keyed by its
pattern instead of by its position in a witness (the reports did not change
then). Any change to a witness half-space, a simplex vertex or a verify
report shows here. Recompute them only for an intended change of the
construction.
"""

from __future__ import annotations

import dataclasses
import hashlib

from vcshatter.constructions import (
    build_theorem1,
    build_theorem2,
    simplex_witness,
    union_witness,
    verify_theorem1,
    verify_theorem2,
)


def _digest(lines) -> str:
    return hashlib.sha1("\n".join(lines).encode()).hexdigest()


def _coords(values) -> str:
    return ",".join(map(str, values))


def test_seed0_d4k4_outputs_are_pinned(n3_gadget):
    inst = build_theorem1(4, 4, n3_gadget)
    inst2 = build_theorem2(inst)
    masks = range(1 << len(inst.points))
    halfspaces = _digest(
        f"{mask}:" + ";".join(f"{_coords(h.b)}/{h.tau}" for h in union_witness(inst, mask))
        for mask in masks
    )
    vertices = _digest(
        f"{mask}:" + ";".join(_coords(v.coords) for v in simplex_witness(inst2, mask).vertices)
        for mask in masks
    )
    reports = _digest(
        repr(dataclasses.astuple(report))
        for report in (verify_theorem1(inst, compute_vc_dim=True), verify_theorem2(inst2))
    )
    assert halfspaces == "7802b1edb547f0a14daaad95fb4de99b7f381a77"
    assert vertices == "4786399ef04b6da69425a84ffdce1307bd3c57fb"
    assert reports == "6b408def11f5aeab31552a9d0ebda561ada973c7"
