"""Self-test of the benchmark harness on the smallest inputs.

    python3 perfbench/selftest.py

Runs the harness on the bundled d=4, k=2 instance and an n=2 search, traced
and untraced, and checks that every metric BENCHMARK.json names is emitted
and that per-layer counts repeat exactly across two traced runs.
Then checks that failures reach fail_share: a mutated gadget (box 0 swallows
box 1), and witnesses corrupted between the program and the independent
check. Finally regenerates every pinned gadget from its seed and compares
the bytes with the stored copy (about 10 s). Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
T1 = run.Workload("t1-d4k2", "theorem1", k=2, gadget=None)
T2 = run.Workload("t2-d4k2", "theorem2", k=2, gadget=None)
SEARCH = run.Workload("search-n2", "search", n=2, search_seeds=(0,), budget=20000)


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def check_emits_every_metric() -> None:
    for w in (SEARCH, T1, T2):
        counts = []
        for seed, trace, key in ((7, False, "end_to_end"), (7, True, "per_layer"),
                                 (8, True, "per_layer")):
            result, record = run.measure(w, seed=seed, seconds=1, trace=trace)
            names = {m["name"] for m in SPEC[key]}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{w.name} trace={int(trace)}: result has exactly the four keys")
            expect(set(result["metrics"]) == names,
                   f"{w.name} trace={int(trace)}: emits every {key} metric")
            expect(result["correct"] and result["failed"] == 0 and record["fail_share"] == 0,
                   f"{w.name} trace={int(trace)}: correct, nothing failed")
            expect(all(key in record for key in ("subsets_per_s", "fail_share", "search_s")),
                   f"{w.name} trace={int(trace)}: record has search_s, subsets_per_s, fail_share")
            if trace:
                counts.append({name: m["value"] for name, m in result["metrics"].items()
                               if m["unit"] in ("count", "bits")})
        expect(counts[0] == counts[1], f"{w.name}: per-layer counts repeat across traced runs")


def check_mutated_gadget() -> None:
    bundled = json.loads(run.BUNDLED_INSTANCE.read_text())["gadget"]
    lo1 = [Fraction(v) for v in bundled["boxes"][1]["lo"]]
    hi1 = [Fraction(v) for v in bundled["boxes"][1]["hi"]]
    bundled["boxes"][0] = {
        "lo": [str(v - Fraction(1, 2)) for v in lo1],
        "hi": [str(v + Fraction(1, 2)) for v in hi1],
    }
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / "selftest-mutated-gadget.json"
    path.write_text(json.dumps(bundled))
    for w in (T1, T2):
        result, record = run.measure(replace(w, gadget=path), seed=7, seconds=1, trace=False)
        expect(record["fail_share"] == 1 and result["failed"] == result["attempted"],
               f"{w.name} on a mutated gadget: fail_share = 1")


def _corrupting(module_name: str, attr: str):
    """Wrap a check so the witnesses it fetches belong to the neighbouring subset."""
    def wrap(check_fn):
        def corrupted(w, inp, *rest):
            module = inp.modules[module_name]
            real = getattr(module, attr)
            setattr(module, attr, lambda obj, mask, *a, **kw: real(obj, mask ^ 1, *a, **kw))
            try:
                return check_fn(w, inp, *rest)
            finally:
                setattr(module, attr, real)
        return corrupted
    return wrap


def check_corrupted_witness() -> None:
    cases = (
        (T1, "check_theorem", "constructions", "union_witness"),
        (T2, "check_theorem", "constructions", "simplex_witness"),
        (SEARCH, "check_search", "boxgadget", "witness_for"),
    )
    for w, check_name, module_name, attr in cases:
        original = getattr(run, check_name)
        setattr(run, check_name, _corrupting(module_name, attr)(original))
        try:
            result, record = run.measure(w, seed=7, seconds=1, trace=False)
        finally:
            setattr(run, check_name, original)
        expect(record["fail_share"] > 0 and not result["correct"],
               f"{w.name} with corrupted {attr}: fail_share > 0 and correct = false")


def check_pinned_gadgets() -> None:
    modules = run.import_program()
    for path in sorted(run.GADGETS.glob("n*-seed*.json")):
        n, seed = (int(part[len(tag):]) for part, tag in zip(path.stem.split("-"), ("n", "seed")))
        gadget = modules["boxgadget"].search(n, 2, seed=seed, budget=run.SEARCH_BUDGET)
        data = modules["jsonio"].gadget_to_dict(gadget)
        data.pop("witnesses", None)
        regenerated = json.dumps(data, indent=2, sort_keys=True) + "\n"
        expect(regenerated == path.read_text(), f"{path.name} regenerates byte for byte")


if __name__ == "__main__":
    check_emits_every_metric()
    check_mutated_gadget()
    check_corrupted_witness()
    check_pinned_gadgets()
    print("selftest: all checks passed")
