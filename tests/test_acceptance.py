"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 9 is a stretch goal and only runs with RUN_STRETCH=1.
"""

from __future__ import annotations

import json
import os
import random
import time
from fractions import Fraction

import pytest

from oracles import brute_force_vc_dim
from vcshatter.boxgadget import BoxGadget, search, verify, witness_for
from vcshatter.cli import cli_main
from vcshatter.constructions import build_theorem1, verify_theorem1
from vcshatter.geometry import (
    AxisBox,
    Point,
    RestrictedHalfspace,
    dual_halfspace_to_point,
    dual_point_to_hyperplane,
    realizable_halfspace_subsets,
    side_of,
)
from vcshatter.setsystem import (
    SetSystem,
    complement_system,
    k_fold_intersection,
    k_fold_union,
    shatters,
    vc_dim,
)

F = Fraction


def report_pass(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def run_cli_json(capsys, *argv) -> tuple[int, dict]:
    code = cli_main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_criterion_1_theorem1_desk_instance(capsys):
    started = time.monotonic()
    code, _ = run_cli_json(capsys, "construct", "theorem1", "--d", "4", "--k", "2")
    assert code == 0
    code, report = run_cli_json(capsys, "verify", "theorem1", "--mode", "exhaustive")
    elapsed = time.monotonic() - started
    assert code == 0
    result = report["result"]
    assert result["points"] == 5
    assert result["checked_subsets"] == 32
    assert result["shattered"] is True
    assert result["max_witness_size"] <= 2
    assert report["failing"] == []
    assert elapsed < 10.0
    report_pass(
        "1 theorem1 desk instance",
        f"5 points in R^4, 32/32 subsets by unions of <= 2 half-spaces, {elapsed:.2f}s",
    )


def test_criterion_2_theorem2_desk_instance(capsys):
    started = time.monotonic()
    code, report = run_cli_json(capsys, "verify", "theorem2", "--mode", "exhaustive")
    elapsed = time.monotonic() - started
    assert code == 0
    result = report["result"]
    assert result["checked_subsets"] == 32
    assert result["shattered"] is True
    assert result["zero_signs"] == 0
    assert result["max_witness_size"] <= 2  # simplex dimension bound
    assert elapsed < 10.0
    report_pass(
        "2 theorem2 desk instance",
        f"32/32 hyperplane subsets by open <=2-simplices, 0 zero signs, {elapsed:.2f}s",
    )


def _two_fold_halfplane_union(points: list[Point]) -> SetSystem:
    return k_fold_union(realizable_halfspace_subsets(points), 2)


def test_criterion_3_planar_two_k_plus_one_bound():
    started = time.monotonic()

    # (a) some 5-point configuration is shattered by 2-fold unions
    rng = random.Random(31415)
    candidates: list[list[Point]] = [
        # convex position (strictly convex pentagon with rational coordinates)
        [Point.of(0, 0), Point.of(4, 0), Point.of(6, 3), Point.of(3, 6), Point.of(-1, 3)],
    ]
    for _ in range(9):
        pts: set[tuple[Fraction, Fraction]] = set()
        while len(pts) < 5:
            pts.add((F(rng.randint(-20, 20)), F(rng.randint(-20, 20))))
        candidates.append([Point(c) for c in sorted(pts)])
    winner = None
    for config in candidates:
        folded = _two_fold_halfplane_union(config)
        if shatters(folded, range(5)):
            assert vc_dim(folded)[0] == 5
            winner = config
            break
    assert winner is not None, "no candidate 5-point configuration was shattered"

    # (b) no 6-point set is ever shattered by 2-fold unions
    rng = random.Random(27182)
    for trial in range(100):
        pts = set()
        while len(pts) < 6:
            pts.add((F(rng.randint(-30, 30)), F(rng.randint(-30, 30))))
        folded = _two_fold_halfplane_union([Point(c) for c in sorted(pts)])
        assert not shatters(folded, range(6)), f"trial {trial} unexpectedly shattered"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report_pass(
        "3 planar 2k+1 bound (k=2)",
        f"one 5-point witness shattered, 100/100 random 6-point sets unshattered, {elapsed:.1f}s",
    )


def test_criterion_4_halfspace_vc_dimension_fact():
    started = time.monotonic()
    simplex_corners = {
        2: [Point.of(0, 0), Point.of(1, 0), Point.of(0, 1)],
        3: [Point.of(0, 0, 0), Point.of(1, 0, 0), Point.of(0, 1, 0), Point.of(0, 0, 1)],
    }
    for d, pts in simplex_corners.items():
        system = realizable_halfspace_subsets(pts)
        assert vc_dim(system)[0] == d + 1, f"affinely independent P in R^{d}"
    rng = random.Random(16180)
    checked = 0
    for d in (2, 3):
        for _ in range(25):
            size = rng.randint(d + 1, d + 3)
            pts = set()
            while len(pts) < size:
                pts.add(tuple(F(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(d)))
            system = realizable_halfspace_subsets([Point(c) for c in sorted(pts)])
            assert vc_dim(system)[0] <= d + 1
            checked += 1
    elapsed = time.monotonic() - started
    report_pass(
        "4 half-space VC fact",
        f"equality at d+1 for d=2,3 and <= d+1 on {checked} random sets, {elapsed:.1f}s",
    )


def test_criterion_5_vc_dim_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(14142)
    for trial in range(200):
        n = rng.randint(1, 8)
        count = rng.randint(1, 40)
        system = SetSystem.from_masks(n, [rng.getrandbits(n) for _ in range(count)])
        assert vc_dim(system)[0] == brute_force_vc_dim(system), f"trial {trial}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report_pass("5 oracle equivalence", f"200 systems matched the brute force, {elapsed:.1f}s")


def test_criterion_6_de_morgan_identity():
    started = time.monotonic()
    rng = random.Random(17320)
    for trial in range(100):
        n = rng.randint(1, 7)
        count = rng.randint(1, 24)
        system = SetSystem.from_masks(n, [rng.getrandbits(n) for _ in range(count)])
        for k in (1, 2, 3):
            lhs = complement_system(k_fold_intersection(system, k))
            rhs = k_fold_union(complement_system(system), k)
            assert lhs == rhs, f"trial {trial}, k={k}"
    elapsed = time.monotonic() - started
    report_pass("6 De Morgan identity", f"100 systems x k in {{1,2,3}}, {elapsed:.1f}s")


def test_criterion_7_duality_sign_identity():
    started = time.monotonic()
    rng = random.Random(12020)

    def random_positive() -> Fraction:
        return F(rng.randint(1, 400), rng.randint(1, 40))

    zeros = 0
    for trial in range(1000):
        d = 2 + trial % 4
        p = Point(tuple(random_positive() for _ in range(d)))
        b = tuple(random_positive() for _ in range(d))
        total = sum(pi / bi for pi, bi in zip(p.coords, b))
        if trial % 10 == 0:
            tau = total  # engineered incidence: the sign must be exactly zero
        else:
            tau = random_positive()
        h = RestrictedHalfspace(b=b, tau=tau)
        diff = total - tau
        expected = (diff > 0) - (diff < 0)
        got = side_of(dual_point_to_hyperplane(p), dual_halfspace_to_point(h))
        assert got == expected, f"trial {trial}"
        zeros += got == 0
    assert zeros >= 100  # the engineered boundary cases were actually exercised
    elapsed = time.monotonic() - started
    report_pass("7 duality identity", f"1000 triples incl. {zeros} boundary cases, {elapsed:.1f}s")


def _mutated_gadgets(gadget: BoxGadget) -> list[tuple[str, BoxGadget]]:
    boxes = list(gadget.boxes)
    fixtures = []

    twin = list(boxes)
    twin[0] = boxes[1]
    fixtures.append(("twin of box 1", twin))

    twin2 = list(boxes)
    twin2[0] = boxes[2]
    fixtures.append(("twin of box 2", twin2))

    inner = list(boxes)
    inner[0] = AxisBox(
        tuple(lo + F(1, 4) for lo in boxes[1].lo),
        tuple(lo + F(1, 2) for lo in boxes[1].lo),
    )
    fixtures.append(("box 0 nested inside box 1", inner))

    outer = list(boxes)
    outer[0] = AxisBox(
        tuple(lo - F(1, 2) for lo in boxes[1].lo),
        tuple(hi + F(1, 2) for hi in boxes[1].hi),
    )
    fixtures.append(("box 0 swallows box 1", outer))

    scattered = [
        AxisBox(
            tuple(lo + 100 * i for lo in box.lo),
            tuple(hi + 100 * i for hi in box.hi),
        )
        for i, box in enumerate(boxes)
    ]
    fixtures.append(("pairwise far apart", scattered))

    return [
        (name, BoxGadget(n=gadget.n, dim=gadget.dim, boxes=tuple(bs)))
        for name, bs in fixtures
    ]


def test_criterion_8_gadget_soundness(bundled_gadget):
    started = time.monotonic()
    report, same = verify(bundled_gadget)
    assert report.ok and report.checked == 32
    assert same is bundled_gadget
    for name, mutant in _mutated_gadgets(bundled_gadget):
        m_report, _ = verify(mutant)
        assert not m_report.ok, f"mutation {name!r} unexpectedly verified"
        assert m_report.failing_subsets, f"mutation {name!r} reported no counterexample"
        counterexample = list(m_report.failing_subsets[0])
        assert witness_for(mutant, counterexample) is None
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report_pass(
        "8 gadget soundness",
        f"bundled certificate ok, 5/5 mutants fail with counterexamples, {elapsed:.1f}s",
    )


@pytest.mark.skipif(
    os.environ.get("RUN_STRETCH") != "1",
    reason="stretch criterion (not gating); set RUN_STRETCH=1 to attempt it",
)
def test_criterion_9_stretch_n3_search():
    deadline = time.monotonic() + 600.0
    found = None
    seed = 0
    while time.monotonic() < deadline and found is None:
        found = search(3, 2, seed=seed, budget=2500)
        seed += 1
    if found is None:
        pytest.skip("stretch: no verified n=3 gadget found within the 10-minute budget")
    assert len(found.boxes) == 12
    inst = build_theorem1(4, 4, found)
    report = verify_theorem1(inst, mode="exhaustive")
    assert report.shattered and report.checked == 4096
    report_pass("9 stretch n=3", f"12 points, 4096/4096 subsets with <= 4 half-spaces")
