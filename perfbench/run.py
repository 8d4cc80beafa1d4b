"""Benchmark of the vcshatter command line, run in-process through cli_main.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and perfbench/README.md for why each exists):

  search-n3  ``gadget search --n 3 --dim 2 --seed s --budget 2500`` for each
             seed of SEARCH_SEEDS, each result re-verified by ``gadget verify``
  t1-d4k4    ``verify theorem1 --d 4 --k 4 --gadget G --vcdim``
  t2-d4k4    ``verify theorem2 --d 4 --k 4 --gadget G``

G is the 12-box gadget that seed 0 of the search finds, pinned boxes-only in
perfbench/gadgets/. One pass runs the workload's commands once; the run
repeats passes while another one fits in ``--seconds`` and times each
command by its median over the passes, scaled to a host of fixed speed by
the probe in perfbench/speed.py.
``--seed`` rotates the order of the search seeds and picks which subsets the
independent check (perfbench/check.py) re-derives after the timed region.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` one untraced and one traced pass give the per-layer metrics
(perfbench/spans.py) and the tracing overhead. The line before it is a
record of the run: context, per-command outcomes, failures and checks.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import random
import re
import resource
import statistics
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GADGETS = BENCH / "gadgets"
BUNDLED_INSTANCE = SRC / "vcshatter" / "assets" / "instance_d4_k2.json"
OUT = ROOT / ".perfbench_out"

# Seed 0 is the search the t1/t2 gadget comes from (about 1.9k scored
# proposals); 3 and 6 add two short searches so a pass stays near 10 s and
# three passes fit in a run. Seeds 2 and 15 take over 40 s (seed 2 about 221 s).
SEARCH_SEEDS = (0, 3, 6)
SEARCH_BUDGET = 2500
CHECK_SAMPLE = 64
SETUP_REPEATS = 7
END_TO_END_UNITS = {"setup_s": "s", "ms_per_certified_subset": "ms", "peak_rss_mb": "MB"}

sys.path.insert(0, str(BENCH))
import check  # noqa: E402
from spans import PER_LAYER_UNITS, Tracer  # noqa: E402
from speed import timed  # noqa: E402


class BenchError(RuntimeError):
    """The harness cannot produce a result; the run exits non-zero."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "search", "theorem1" or "theorem2"
    d: int = 4
    k: int = 4
    gadget: Path | None = GADGETS / "n3-seed0.json"  # None: the CLI's bundled instance
    n: int = 3
    search_seeds: tuple[int, ...] = SEARCH_SEEDS
    budget: int = SEARCH_BUDGET


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search-n3", "search"),
        Workload("t1-d4k4", "theorem1"),
        Workload("t2-d4k4", "theorem2"),
    )
}


# -- program loading ------------------------------------------------------------


def import_program() -> dict[str, object]:
    """Import vcshatter afresh from this checkout's src/ (never an installed copy)."""
    for name in [m for m in sys.modules if m == "vcshatter" or m.startswith("vcshatter.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("vcshatter.cli")
    except ImportError as err:
        raise BenchError(f"cannot import vcshatter from {SRC}: {err}") from None
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"vcshatter imported from {cli.__file__}, not from {SRC}")
    return {
        name: sys.modules[f"vcshatter.{name}"]
        for name in ("cli", "jsonio", "boxgadget", "constructions", "geometry", "setsystem")
    }


@dataclass
class Inputs:
    modules: dict[str, object]
    gadgets: dict[int, dict]  # pinned gadget JSON per search seed, or {0: G}
    sample: list[int]  # subset masks the independent check re-derives
    nsub: int  # subsets per command: 2^(boxes or points)


def set_up(w: Workload, seed: int) -> Inputs:
    """Import the program and load the pinned inputs; timed as setup_s."""
    modules = import_program()
    jsonio = modules["jsonio"]
    if w.kind == "search":
        paths = {s: GADGETS / f"n{w.n}-seed{s}.json" for s in w.search_seeds}
        gadgets = {s: jsonio.load_json(p) for s, p in paths.items() if p.exists()}
        nsub = 1 << modules["boxgadget"].nominal_box_count(w.n, 2)
    else:
        path = w.gadget if w.gadget is not None else BUNDLED_INSTANCE
        gadgets = {0: jsonio.load_json(path)}
        if w.gadget is None:
            gadgets[0] = gadgets[0]["gadget"]
        nsub = 1 << len(gadgets[0]["boxes"])
    for g in gadgets.values():
        jsonio.gadget_from_dict(g)
    sample = sorted(random.Random(seed).sample(range(nsub), min(CHECK_SAMPLE, nsub)))
    return Inputs(modules, gadgets, sample, nsub)


# -- commands -------------------------------------------------------------------


def run_cli(cli_main, argv: list[str]) -> tuple[int, dict, float, float]:
    """One command through cli_main: exit code, JSON report, wall and scaled seconds."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code, wall, scaled = timed(cli_main, argv)
    report = json.loads(out.getvalue())
    if code not in (0, 1):
        raise BenchError(f"vcshatter {' '.join(argv)} exited {code}: {report}")
    return code, report, wall, scaled


def _mask(indices) -> int:
    return sum(1 << i for i in indices)


def theorem_pass(w: Workload, inp: Inputs, cli_main) -> list[dict]:
    """One ``verify theoremN`` command; its units are the 2^n subsets."""
    argv = ["verify", w.kind]
    if w.gadget is not None:
        argv += ["--d", str(w.d), "--k", str(w.k), "--gadget", str(w.gadget)]
    if w.kind == "theorem1":
        argv.append("--vcdim")
    code, report, wall, scaled = run_cli(cli_main, argv)
    item = {"key": "verify", "argv": argv, "exit": code, "wall_s": wall, "scaled_s": scaled,
            "units": inp.nsub, "subsets_per_unit": 1, "problems": []}
    if "error" in report:
        # The command aborted: no subset was certified.
        item["error"] = report["error"]
        found = re.search(r"subset mask (\d+)", report["error"])
        item["failing_mask"] = int(found.group(1)) if found else None
        item["failed"] = set(range(inp.nsub))
        return [item]
    result = report["result"]
    item["failed"] = {_mask(s) for s in report["failing"]}
    item["union_vc_dim"] = result.get("union_vc_dim")
    npoints = inp.nsub.bit_length() - 1
    problems = item["problems"]
    if result["checked_subsets"] != inp.nsub:
        problems.append(f"checked {result['checked_subsets']} of {inp.nsub} subsets")
    if result["shattered"] != (code == 0 and not item["failed"]):
        problems.append("shattered flag disagrees with exit code and failing list")
    if w.kind == "theorem1" and result["shattered"] and result.get("union_vc_dim") != npoints:
        problems.append(f"union_vc_dim {result.get('union_vc_dim')} != {npoints}")
    if w.kind == "theorem2" and result["shattered"] and result.get("zero_signs") != 0:
        problems.append(f"zero_signs {result.get('zero_signs')} != 0")
    return [item]


def search_pass(
    w: Workload, inp: Inputs, cli_main, order: list[int], workdir: Path
) -> list[dict]:
    """One search plus re-verify per seed; each search is one unit."""
    items = []
    for s in order:
        path = workdir / f"search-seed{s}.json"
        argv = ["gadget", "search", "--n", str(w.n), "--dim", "2", "--seed", str(s),
                "--budget", str(w.budget), "--output", str(path)]
        code, report, wall, scaled = run_cli(cli_main, argv)
        item = {"key": s, "search_exit": code, "search_s": wall, "units": 1,
                "subsets_per_unit": inp.nsub, "problems": [], "failed": {s}}
        if code == 0:
            vcode, vreport, vwall, vscaled = run_cli(cli_main, ["gadget", "verify", str(path)])
            wall += vwall
            scaled += vscaled
            item.update(verify_exit=vcode, verify_s=vwall)
            if vcode == 0:
                item["failed"] = set()
                if vreport["result"]["checked_subsets"] != inp.nsub:
                    item["problems"].append("re-verify checked the wrong number of subsets")
        item.update(wall_s=wall, scaled_s=scaled)
        items.append(item)
    return items


# -- independent check ----------------------------------------------------------


def check_theorem(w: Workload, inp: Inputs) -> dict:
    """Fetch sampled witnesses through the public API and re-derive them."""
    m = inp.modules
    boxes = check.parse_boxes(inp.gadgets[0])
    points = check.theorem1_points(boxes, w.d)
    failed: set[int] = set()
    problems: list[str] = []
    if w.gadget is None:
        inst = m["jsonio"].instance_from_dict(m["jsonio"].load_json(BUNDLED_INSTANCE))
    else:
        report, witnessed = m["boxgadget"].verify(m["jsonio"].gadget_from_dict(inp.gadgets[0]))
        if not report.ok:
            return {"failed": {"verify": set(inp.sample)}, "problems": []}
        inst = m["constructions"].build_theorem1(w.d, w.k, witnessed)
    if [tuple(p.coords) for p in inst.points] != points:
        problems.append("instance points differ from the independent lift and rescale")
    construct = m["constructions"]
    inst2 = construct.build_theorem2(inst) if w.kind == "theorem2" else None
    for mask in inp.sample:
        try:
            if inst2 is None:
                problem = check.union_witness_problem(
                    points, construct.union_witness(inst, mask), mask, w.k
                )
            else:
                problem = check.simplex_witness_problem(
                    points, construct.simplex_witness(inst2, mask), mask, w.k
                )
        except construct.ConstructionError:
            failed.add(mask)
            continue
        if problem is not None:
            failed.add(mask)
            problems.append(f"subset mask {mask}: {problem}")
    return {"failed": {"verify": failed}, "problems": problems}


def check_search(w: Workload, inp: Inputs, workdir: Path, found: list[int]) -> dict:
    """Re-derive sampled witnesses of every gadget the searches wrote."""
    m = inp.modules
    failed: set[int] = set()
    problems: list[str] = []
    matches_pinned = {}
    for s in found:
        path = workdir / f"search-seed{s}.json"
        data = json.loads(path.read_text())
        if s in inp.gadgets:
            boxes_only = {key: data[key] for key in ("boxes", "dim", "n")}
            matches_pinned[s] = boxes_only == inp.gadgets[s]
        gadget = m["jsonio"].gadget_from_dict(data)
        boxes = check.parse_boxes(data)
        for mask in inp.sample:
            problem = check.gadget_witness_problem(
                boxes, mask, m["boxgadget"].witness_for(gadget, mask) or (),
                1 << (w.n - 1),
            )
            if problem is not None:
                failed.add(s)
                problems.append(f"seed {s} sub-family mask {mask}: {problem}")
    return {
        "failed": {s: {s} for s in failed},
        "problems": problems,
        "matches_pinned": matches_pinned,
    }


# -- the run --------------------------------------------------------------------


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _summary(items: set[int]) -> dict:
    return {"count": len(items), "first": sorted(items)[:16]}


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (final result line, run record)."""
    context = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": _commit(), "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)), "loadavg_before": os.getloadavg(),
    }
    setups = []
    for _ in range(SETUP_REPEATS):
        inp, wall, scaled = timed(set_up, w, seed)
        setups.append((wall, scaled))
    cli = inp.modules["cli"]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        k = seed % len(w.search_seeds)
        order = list(w.search_seeds[k:] + w.search_seeds[:k])

        def one_pass(cli_main) -> list[dict]:
            if w.kind == "search":
                return search_pass(w, inp, cli_main, order, workdir)
            return theorem_pass(w, inp, cli_main)

        passes = []
        started = perf_counter()
        while True:
            passes.append(one_pass(cli.cli_main))
            elapsed = perf_counter() - started
            if trace or elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        if trace:
            tracer = Tracer()
            tracer.install(inp.modules)
            try:
                traced = one_pass(tracer.wrap("cli", cli.cli_main))
            finally:
                tracer.uninstall()
            per_layer = tracer.per_layer(
                sum(i["scaled_s"] for i in traced), sum(i["scaled_s"] for i in passes[0])
            )
            tracer.write(OUT / f"trace-{w.name}-seed{seed}.json.gz")
        if w.kind == "search":
            failed_seeds = {i["key"] for p in passes for i in p if i["failed"]}
            found = [s for s in order if s not in failed_seeds]
            checked = check_search(w, inp, workdir, found)
        else:
            checked = check_theorem(w, inp)
        if trace:
            passes.append(traced)
    context["loadavg_after"] = os.getloadavg()

    # A unit fails when its command did not certify it or the check rejected it.
    for p in passes:
        for item in p:
            item["failed"] |= checked["failed"].get(item["key"], set())
            item["certified"] = (item["units"] - len(item["failed"])) * item["subsets_per_unit"]
    attempted = sum(i["units"] for p in passes for i in p)
    failed = sum(len(i["failed"]) for p in passes for i in p)
    problems = checked["problems"] + [t for p in passes for i in p for t in i["problems"]]
    # Each command's time is its median over the untraced passes.
    untraced = passes[:-1] if trace else passes
    by_key: dict[object, list[dict]] = {}
    for p in untraced:
        for item in p:
            by_key.setdefault(item["key"], []).append(item)

    def per_command(field: str) -> float:
        return sum(statistics.median(i[field] for i in items) for items in by_key.values())

    wall, scaled = per_command("wall_s"), per_command("scaled_s")
    certified_total = sum(min(i["certified"] for i in items) for items in by_key.values())
    end_to_end = {
        "setup_s": statistics.median(s for _, s in setups),
        "ms_per_certified_subset": 1000 * scaled / max(1, certified_total),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record = {
        "context": context,
        "setup_wall_s": [w for w, _ in setups],
        "unscaled": {
            "setup_s": statistics.median(w for w, _ in setups),
            "ms_per_certified_subset": 1000 * wall / max(1, certified_total),
        },
        "pass_wall_s": [sum(i["wall_s"] for i in p) for p in untraced],
        "search_s": wall / len(by_key) if w.kind == "search" else None,
        "subsets_per_s": certified_total / wall,
        "fail_share": failed / attempted,
        "problems": problems,
        "check": {
            "sample": len(inp.sample),
            "failed": _summary(set().union(*checked["failed"].values())),
            "matches_pinned": checked.get("matches_pinned"),
        },
        "passes": [
            [{k: (_summary(v) if isinstance(v, set) else v) for k, v in i.items()} for i in p]
            for p in passes
        ],
    }
    if trace:
        metrics = {
            name: {"value": per_layer[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
    else:
        record.update(end_to_end)
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end.items()
        }
    result = {
        "correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result, record = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
