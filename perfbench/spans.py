"""Spans and counts at vcshatter's module boundaries, for the traced run.

The tracer rebinds a function's name in the module where its callers look
it up (``constructions.witness_for``, ``geometry.side_of``, ...), so no
program file changes. Every call records a span (name, start, end, parent)
in flat arrays, which keeps a run of several hundred thousand calls small;
hooks add counts taken from arguments and results. ``per_layer`` derives the
metrics listed in BENCHMARK.json from the spans and counts. Counts depend
only on the inputs, so they repeat exactly across runs; times do not.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable

Hook = Callable[[Counter, tuple, object], None]


def _menu_hook(counts: Counter, args: tuple, menu) -> None:
    counts["boxgadget.menu_points"] += len(menu)
    counts["boxgadget.hit_tests"] += len(menu) * len(args[0].boxes)


def _witness_for_hook(counts: Counter, args: tuple, witness) -> None:
    if witness is None:
        counts["boxgadget.witness_for.none"] += 1


def _union_witness_hook(counts: Counter, args: tuple, halfspaces) -> None:
    counts["constructions.union_witness.halfspaces"] += len(halfspaces)
    bits = max(
        (
            max(v.numerator.bit_length(), v.denominator.bit_length())
            for h in halfspaces
            for v in (*h.b, h.tau)
        ),
        default=0,
    )
    counts["constructions.max_bits"] = max(counts["constructions.max_bits"], bits)


def _k_fold_hook(counts: Counter, args: tuple, system) -> None:
    counts["setsystem.k_fold_union.sets"] += len(system.sets)


# (module, name its callers look up, span name, hook). A function called from
# two modules is bound in both; names a later version drops are skipped.
SITES: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("jsonio", "load_json", "jsonio.load_json", None),
    ("jsonio", "gadget_from_dict", "jsonio.gadget_from_dict", None),
    ("jsonio", "instance_from_dict", "jsonio.instance_from_dict", None),
    ("jsonio", "gadget_to_dict", "jsonio.gadget_to_dict", None),
    ("jsonio", "dump_json", "jsonio.dump_json", None),
    ("jsonio", "build_theorem1", "constructions.build_theorem1", None),
    ("boxgadget", "search", "boxgadget.search", None),
    ("boxgadget", "verify", "boxgadget.verify", None),
    ("boxgadget", "candidate_points", "boxgadget.candidate_points", _menu_hook),
    ("boxgadget", "_hit_masks", "boxgadget.hit_masks", None),
    ("boxgadget", "_score", "boxgadget.score", None),
    ("boxgadget", "witness_for", "boxgadget.witness_for", _witness_for_hook),
    ("constructions", "witness_for", "boxgadget.witness_for", _witness_for_hook),
    ("constructions", "build_theorem1", "constructions.build_theorem1", None),
    ("constructions", "build_theorem2", "constructions.build_theorem2", None),
    ("constructions", "verify_theorem1", "constructions.verify_theorem1", None),
    ("constructions", "verify_theorem2", "constructions.verify_theorem2", None),
    ("constructions", "union_witness", "constructions.union_witness", _union_witness_hook),
    ("constructions", "simplex_witness", "constructions.simplex_witness", None),
    ("constructions", "induced_system_points_in_halfspaces", "geometry.points_in_halfspaces", None),
    (
        "constructions",
        "induced_system_hyperplanes_in_simplices",
        "geometry.hyperplanes_in_simplices",
        None,
    ),
    ("constructions", "side_of", "geometry.side_of", None),
    ("geometry", "side_of", "geometry.side_of", None),
    ("geometry", "halfspace_contains", "geometry.halfspace_contains", None),
    ("geometry", "_rank", "geometry.rank", None),
    ("constructions", "k_fold_union", "setsystem.k_fold_union", _k_fold_hook),
    ("constructions", "vc_dim", "setsystem.vc_dim", None),
    ("setsystem", "k_fold_union", "setsystem.k_fold_union", _k_fold_hook),
    ("setsystem", "vc_dim", "setsystem.vc_dim", None),
)

# Per-layer metric -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS: dict[str, str] = {
    "boxgadget.candidate_points.calls": "count",
    "boxgadget.candidate_points.self_s": "s",
    "boxgadget.menu_points": "count",
    "boxgadget.hit_tests": "count",
    "boxgadget.hit_masks.self_s": "s",
    "boxgadget.score.calls": "count",
    "boxgadget.score.self_s": "s",
    "boxgadget.witness_for.calls": "count",
    "boxgadget.witness_for.self_s": "s",
    "boxgadget.witness_for.none": "count",
    "boxgadget.verify.self_s": "s",
    "constructions.union_witness.calls": "count",
    "constructions.union_witness.self_s": "s",
    "constructions.union_witness.halfspaces": "count",
    "constructions.max_bits": "bits",
    "constructions.simplex_witness.calls": "count",
    "constructions.simplex_witness.self_s": "s",
    "constructions.simplex_witness.failed": "count",
    "constructions.simplex_witness.attempts_per_success": "ratio",
    "geometry.points_in_halfspaces.self_s": "s",
    "geometry.halfspace_contains.calls": "count",
    "geometry.halfspace_contains.self_s": "s",
    "geometry.hyperplanes_in_simplices.self_s": "s",
    "geometry.side_of.calls": "count",
    "geometry.side_of.self_s": "s",
    "geometry.side_of.per_subset": "ratio",
    "geometry.rank.calls": "count",
    "setsystem.k_fold_union.self_s": "s",
    "setsystem.k_fold_union.sets": "count",
    "setsystem.vc_dim.self_s": "s",
    "jsonio.load_s": "s",
    "jsonio.dump_s": "s",
    "cli.self_s": "s",
    "trace_overhead": "ratio",
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.raised = array("b")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, start, end, parent, raised = (
            self.name_id, self.start, self.end, self.parent, self.raised
        )
        stack, counts = self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            raised.append(0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Bind a traced wrapper at every site in SITES that the program has."""
        for module_name, attr, span, hook in SITES:
            module = modules[module_name]
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self.wrap(span, original, hook))
            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, calls that raised, and self seconds.

        A span's self time is its duration minus the durations of its direct
        children; wrapped calls nest strictly, so children never overlap.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "raised": 0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["raised"] += self.raised[i]
            row["self_s"] += self.end[i] - self.start[i] - child[i]
        return out

    def calls_under(self, name: str, parent_name: str) -> int:
        """Spans called ``name`` whose direct parent is called ``parent_name``."""
        nid, pid = self._ids.get(name), self._ids.get(parent_name)
        return sum(
            1
            for i in range(len(self.start))
            if self.name_id[i] == nid and self.parent[i] >= 0
            and self.name_id[self.parent[i]] == pid
        )

    def outer_total(self, names: tuple[str, ...]) -> float:
        """Seconds inside spans called any of ``names``, nested ones counted once."""
        ids = {self._ids[n] for n in names if n in self._ids}
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name_id[i] in ids
            and not (self.parent[i] >= 0 and self.name_id[self.parent[i]] in ids)
        )

    def write(self, path: Path) -> None:
        """All spans as gzipped JSON columns, for inspection after the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "names": self.names,
            "name": list(self.name_id),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "raised": list(self.raised),
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)

    def per_layer(self, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Every metric of PER_LAYER_UNITS; layers that did not run read 0."""
        t = self.totals()
        zero = {"calls": 0, "raised": 0, "self_s": 0.0}

        def row(name: str) -> dict[str, float]:
            return t.get(name, zero)

        m: dict[str, float] = {}
        for span in (
            "boxgadget.candidate_points", "boxgadget.score", "boxgadget.witness_for",
            "constructions.union_witness", "constructions.simplex_witness",
            "geometry.halfspace_contains", "geometry.side_of", "geometry.rank",
        ):
            m[f"{span}.calls"] = row(span)["calls"]
        for span in (
            "boxgadget.candidate_points", "boxgadget.hit_masks", "boxgadget.score",
            "boxgadget.witness_for", "boxgadget.verify", "constructions.union_witness",
            "constructions.simplex_witness", "geometry.points_in_halfspaces",
            "geometry.halfspace_contains", "geometry.hyperplanes_in_simplices",
            "geometry.side_of", "setsystem.k_fold_union", "setsystem.vc_dim", "cli",
        ):
            m[f"{span}.self_s"] = row(span)["self_s"]
        for key in (
            "boxgadget.menu_points", "boxgadget.hit_tests", "boxgadget.witness_for.none",
            "constructions.union_witness.halfspaces", "constructions.max_bits",
            "setsystem.k_fold_union.sets",
        ):
            m[key] = self.counts[key]
        simplex = row("constructions.simplex_witness")
        successes = simplex["calls"] - simplex["raised"]
        m["constructions.simplex_witness.failed"] = simplex["raised"]
        m["constructions.simplex_witness.attempts_per_success"] = (
            self.calls_under("constructions.union_witness", "constructions.simplex_witness")
            / successes
            if successes
            else 0.0
        )
        m["geometry.side_of.per_subset"] = (
            row("geometry.side_of")["calls"] / simplex["calls"] if simplex["calls"] else 0.0
        )
        m["jsonio.load_s"] = self.outer_total(
            ("jsonio.load_json", "jsonio.gadget_from_dict", "jsonio.instance_from_dict")
        )
        m["jsonio.dump_s"] = self.outer_total(("jsonio.gadget_to_dict", "jsonio.dump_json"))
        m["trace_overhead"] = traced_s / untraced_s
        return {key: m[key] for key in PER_LAYER_UNITS}
