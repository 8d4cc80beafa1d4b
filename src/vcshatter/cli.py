"""Command-line surface.

Every command prints a JSON report to stdout and a short human summary to
stderr. Exit codes: 0 on success or a verified result, 1 on a verification
failure (the report lists failing cases), 2 on usage, file or schema errors.
Reports are deterministic for fixed inputs and seed, wall time aside.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import resources
from pathlib import Path

from . import boxgadget, constructions, jsonio, setsystem
from .constructions import ConstructionError

BUNDLED_GADGET = "gadget_n2_dim2.json"
BUNDLED_INSTANCE = "instance_d4_k2.json"

DEFAULT_SEARCH_BUDGET = 20000


def _asset_path(name: str) -> Path:
    return Path(str(resources.files("vcshatter").joinpath("assets", name)))


def _load_bundled_gadget() -> boxgadget.BoxGadget:
    return jsonio.gadget_from_dict(jsonio.load_json(_asset_path(BUNDLED_GADGET)))


def _load_bundled_instance() -> constructions.Theorem1Instance:
    return jsonio.instance_from_dict(jsonio.load_json(_asset_path(BUNDLED_INSTANCE)))


def _parse_index_list(text: str) -> list[int]:
    if text.strip() == "":
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise jsonio.SchemaError(f"--subset/--indices: bad index list {text!r}") from None


def _emit(report: dict, summary: str) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))
    print(summary, file=sys.stderr)


def _report(command: str, params: dict, result: dict, started: float, **extra) -> dict:
    report = {
        "command": command,
        "params": params,
        "result": result,
        "wall_time_ms": round((time.monotonic() - started) * 1000, 3),
    }
    report.update(extra)
    return report


def _effective_d(d: int, notes: list[str]) -> int:
    if d % 2 != 0:
        notes.append(f"odd d={d} delegated to d-1={d - 1}")
        return d - 1
    return d


def _resolve_gadget(args) -> boxgadget.BoxGadget:
    if getattr(args, "gadget", None):
        return jsonio.gadget_from_dict(jsonio.load_json(args.gadget))
    return _load_bundled_gadget()


def _resolve_instance(args, notes: list[str]) -> constructions.Theorem1Instance:
    if getattr(args, "input", None):
        return jsonio.instance_from_dict(jsonio.load_json(args.input))
    if getattr(args, "d", None) is not None:
        if args.k is None:
            raise jsonio.SchemaError("--k is required when --d is given")
        d = _effective_d(args.d, notes)
        return constructions.build_theorem1(d, args.k, _resolve_gadget(args))
    notes.append("using the bundled d=4, k=2 instance")
    return _load_bundled_instance()


# -- command handlers ---------------------------------------------------------


def _cmd_gadget_search(args) -> int:
    started = time.monotonic()
    budget = args.budget if args.budget is not None else DEFAULT_SEARCH_BUDGET
    gadget = boxgadget.search(
        args.n, args.dim, seed=args.seed, budget=budget, count=args.count, grid=args.grid
    )
    params = {"n": args.n, "dim": args.dim, "seed": args.seed, "budget": budget}
    if gadget is None:
        report = _report(
            "gadget search", params, {"found": False}, started, seed=args.seed
        )
        _emit(report, f"gadget search: no verified family within budget {budget}")
        return 1
    if args.output:
        jsonio.dump_json(jsonio.gadget_to_dict(gadget), args.output)
    result = {
        "found": True,
        "boxes": len(gadget.boxes),
        "max_witness_size": gadget.max_witness_size,
        "output": args.output,
    }
    report = _report("gadget search", params, result, started, seed=args.seed)
    _emit(report, f"gadget search: verified family of {len(gadget.boxes)} boxes")
    return 0


def _cmd_gadget_verify(args) -> int:
    started = time.monotonic()
    gadget = jsonio.gadget_from_dict(jsonio.load_json(args.file))
    g_report, _ = boxgadget.verify(gadget)
    result = {
        "ok": g_report.ok,
        "checked_subsets": g_report.checked,
        "boxes": len(gadget.boxes),
    }
    report = _report(
        "gadget verify",
        {"file": str(args.file)},
        result,
        started,
        failing=[list(s) for s in g_report.failing_subsets],
    )
    _emit(
        report,
        f"gadget verify: {'ok' if g_report.ok else 'FAILED'} "
        f"over {g_report.checked} subsets",
    )
    return 0 if g_report.ok else 1


def _cmd_construct(args) -> int:
    started = time.monotonic()
    notes: list[str] = []
    d = _effective_d(args.d, notes)
    inst = constructions.build_theorem1(d, args.k, _resolve_gadget(args))
    if args.which == "theorem1":
        payload = jsonio.instance_to_dict(inst)
        result = {"points": len(inst.points), "d": d, "k": args.k}
    else:
        inst2 = constructions.build_theorem2(inst)
        payload = jsonio.dual_instance_to_dict(inst2)
        result = {"hyperplanes": len(inst2.hyperplanes), "d": d, "k": args.k}
    if args.output:
        jsonio.dump_json(payload, args.output)
        result["output"] = args.output
    params = {"d": args.d, "k": args.k, "gadget": getattr(args, "gadget", None)}
    report = _report(f"construct {args.which}", params, result, started, notes=notes)
    _emit(report, f"construct {args.which}: built ({result})")
    return 0


def _cmd_witness(args) -> int:
    started = time.monotonic()
    notes: list[str] = []
    inst = _resolve_instance(args, notes)
    subset = _parse_index_list(args.subset)
    if args.which == "union":
        halfspaces = constructions.union_witness(inst, subset)
        payload = jsonio.union_witness_to_dict(sorted(subset), halfspaces)
        result = {"halfspaces": len(halfspaces)}
    else:
        inst2 = constructions.build_theorem2(inst)
        simplex = constructions.simplex_witness(inst2, subset)
        payload = jsonio.simplex_witness_to_dict(sorted(subset), simplex)
        result = {"vertices": len(simplex.vertices), "simplex_dim": simplex.simplex_dim}
    if args.output:
        jsonio.dump_json(payload, args.output)
        result["output"] = args.output
    else:
        result["witness"] = payload
    report = _report(
        f"witness {args.which}",
        {"subset": sorted(subset), "input": getattr(args, "input", None)},
        result,
        started,
        notes=notes,
    )
    _emit(report, f"witness {args.which}: ok")
    return 0


def _cmd_verify_theorem(args) -> int:
    started = time.monotonic()
    notes: list[str] = []
    inst = _resolve_instance(args, notes)
    if args.which == "theorem1":
        v_report = constructions.verify_theorem1(
            inst,
            mode=args.mode,
            count=args.count,
            seed=args.seed,
            compute_vc_dim=args.vcdim,
        )
    else:
        inst2 = constructions.build_theorem2(inst)
        v_report = constructions.verify_theorem2(
            inst2, mode=args.mode, count=args.count, seed=args.seed
        )
    result = {
        "shattered": v_report.shattered,
        "checked_subsets": v_report.checked,
        "points": len(inst.points),
        "max_witness_size": v_report.max_witness_size,
        "mode": v_report.mode,
    }
    if v_report.zero_signs is not None:
        result["zero_signs"] = v_report.zero_signs
    if v_report.union_vc_dim is not None:
        result["union_vc_dim"] = v_report.union_vc_dim
    report = _report(
        f"verify {args.which}",
        {"mode": args.mode, "count": args.count, "input": getattr(args, "input", None),
         "d": getattr(args, "d", None), "k": getattr(args, "k", None)},
        result,
        started,
        failing=[list(s) for s in v_report.failing_subsets],
        seed=args.seed,
        notes=notes,
    )
    _emit(
        report,
        f"verify {args.which}: {'shattered' if v_report.shattered else 'FAILED'} "
        f"({v_report.checked} subsets)",
    )
    return 0 if v_report.shattered else 1


def _write_or_inline(args, payload: dict, result: dict) -> None:
    if args.output:
        jsonio.dump_json(payload, args.output)
        result["output"] = args.output
    else:
        result["system"] = payload


def _cmd_sys(args) -> int:
    started = time.monotonic()
    system, dropped = jsonio.set_system_from_dict(jsonio.load_json(args.input))
    if dropped:
        print(f"warning: {dropped} duplicate member sets dropped", file=sys.stderr)
    result: dict = {"ground_size": system.ground_size, "sets": len(system.sets)}
    params: dict = {"input": args.input}
    if args.which == "vcdim":
        dim, witness = setsystem.vc_dim(system)
        result.update({"vc_dim": dim, "witness": list(witness)})
    elif args.which == "kfold":
        params.update({"k": args.k, "op": args.op})
        fold = (
            setsystem.k_fold_union(system, args.k)
            if args.op == "union"
            else setsystem.k_fold_intersection(system, args.k)
        )
        result["result_sets"] = len(fold.sets)
        _write_or_inline(args, jsonio.set_system_to_dict(fold), result)
    elif args.which == "complement":
        comp = setsystem.complement_system(system)
        result["result_sets"] = len(comp.sets)
        _write_or_inline(args, jsonio.set_system_to_dict(comp), result)
    elif args.which == "project":
        indices = _parse_index_list(args.indices)
        params["indices"] = indices
        projected = setsystem.project(system, indices)
        result["result_sets"] = len(projected.sets)
        _write_or_inline(args, jsonio.set_system_to_dict(projected), result)
    else:  # growth
        params["m"] = args.m
        result["growth"] = setsystem.growth_function(system, args.m)
    if dropped:
        result["duplicate_sets_dropped"] = dropped
    report = _report(f"sys {args.which}", params, result, started)
    _emit(report, f"sys {args.which}: ok")
    return 0


# -- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcshatter",
        description="Exact construction and verification of shattering instances.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    gadget = top.add_parser("gadget", help="box-family certificates")
    gsub = gadget.add_subparsers(dest="sub", required=True)
    gs = gsub.add_parser("search", help="randomized search for a verified family")
    gs.add_argument("--n", type=int, required=True)
    gs.add_argument("--dim", type=int, required=True)
    gs.add_argument("--seed", type=int, required=True)
    gs.add_argument("--budget", type=int, default=None)
    gs.add_argument("--count", type=int, default=None, help="override the family size")
    gs.add_argument("--grid", type=int, default=None, help="coordinate grid bound")
    gs.add_argument("--output", default=None)
    gs.set_defaults(func=_cmd_gadget_search)
    gv = gsub.add_parser("verify", help="exhaustively verify a certificate file")
    gv.add_argument("file")
    gv.set_defaults(func=_cmd_gadget_verify)

    construct = top.add_parser("construct", help="build shattering instances")
    csub = construct.add_subparsers(dest="which", required=True)
    for which in ("theorem1", "theorem2"):
        cp = csub.add_parser(which)
        cp.add_argument("--d", type=int, required=True)
        cp.add_argument("--k", type=int, required=True)
        cp.add_argument("--gadget", default=None, help="certificate file (default: bundled)")
        cp.add_argument("--output", default=None)
        cp.set_defaults(func=_cmd_construct, which=which)

    witness = top.add_parser("witness", help="produce a witness for one subset")
    wsub = witness.add_subparsers(dest="which", required=True)
    for which in ("union", "simplex"):
        wp = wsub.add_parser(which)
        wp.add_argument("--input", default=None, help="instance bundle (default: bundled)")
        wp.add_argument("--subset", required=True, help="comma-separated point indices")
        wp.add_argument("--d", type=int, default=None)
        wp.add_argument("--k", type=int, default=None)
        wp.add_argument("--gadget", default=None)
        wp.add_argument("--output", default=None)
        wp.set_defaults(func=_cmd_witness, which=which)

    verify = top.add_parser("verify", help="verify instances subset by subset")
    vsub = verify.add_subparsers(dest="which", required=True)
    for which in ("theorem1", "theorem2"):
        vp = vsub.add_parser(which)
        vp.add_argument("--input", default=None, help="instance bundle (default: bundled)")
        vp.add_argument("--d", type=int, default=None)
        vp.add_argument("--k", type=int, default=None)
        vp.add_argument("--gadget", default=None)
        vp.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
        vp.add_argument("--count", type=int, default=None)
        vp.add_argument("--seed", type=int, default=None)
        vp.add_argument("--vcdim", action="store_true",
                        help="also report the k-fold union VC-dimension (theorem1 only)")
        vp.set_defaults(func=_cmd_verify_theorem, which=which)

    sysp = top.add_parser("sys", help="finite set-system operations")
    ssub = sysp.add_subparsers(dest="which", required=True)
    sv = ssub.add_parser("vcdim")
    sv.add_argument("--input", required=True)
    sv.set_defaults(func=_cmd_sys, which="vcdim")
    sk = ssub.add_parser("kfold")
    sk.add_argument("--input", required=True)
    sk.add_argument("--k", type=int, required=True)
    sk.add_argument("--op", choices=("union", "intersection"), required=True)
    sk.add_argument("--output", default=None)
    sk.set_defaults(func=_cmd_sys, which="kfold")
    sc = ssub.add_parser("complement")
    sc.add_argument("--input", required=True)
    sc.add_argument("--output", default=None)
    sc.set_defaults(func=_cmd_sys, which="complement")
    sp = ssub.add_parser("project")
    sp.add_argument("--input", required=True)
    sp.add_argument("--indices", required=True, help="comma-separated ground elements")
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=_cmd_sys, which="project")
    sg = ssub.add_parser("growth")
    sg.add_argument("--input", required=True)
    sg.add_argument("--m", type=int, required=True)
    sg.set_defaults(func=_cmd_sys, which="growth")

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except jsonio.SchemaError as err:
        print(f"error: {err}", file=sys.stderr)
        print(json.dumps({"error": str(err)}, sort_keys=True))
        return 2
    except ConstructionError as err:
        print(f"construction failure: {err}", file=sys.stderr)
        print(json.dumps({"error": str(err)}, sort_keys=True))
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        print(json.dumps({"error": str(err)}, sort_keys=True))
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
