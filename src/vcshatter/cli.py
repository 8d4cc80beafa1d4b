"""Command-line surface.

Every command prints a JSON report to stdout and a one-line summary,
``"<group> <command>: ..."``, to stderr. A report holds ``command``,
``params``, ``result`` and ``wall_time_ms``, plus per-command extras:
``seed`` (gadget search), ``failing`` (gadget verify), ``notes`` (construct,
witness) and ``failing``, ``seed`` and ``notes`` (verify). A command that
exits 2, or exits 1 on a construction failure, prints ``{"error": msg}``
instead. Exit codes: 0 on success or a verified result, 1 on a verification
failure (the report lists failing cases), 2 on usage, file or schema errors.
Reports are deterministic for fixed inputs and seed, wall time aside.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache, partial
from importlib import resources
from pathlib import Path

from . import boxgadget, constructions, jsonio, setsystem
from .constructions import ConstructionError

BUNDLED_GADGET = "gadget_n2_dim2.json"
BUNDLED_INSTANCE = "instance_d4_k2.json"

DEFAULT_SEARCH_BUDGET = 20000


def _asset_path(name: str) -> Path:
    return Path(str(resources.files("vcshatter").joinpath("assets", name)))


def _parse_index_list(text: str) -> list[int]:
    if text.strip() == "":
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise jsonio.SchemaError(f"--subset/--indices: bad index list {text!r}") from None


def _add_instance_options(parser: argparse.ArgumentParser) -> None:
    """The options ``_resolve_instance`` reads: a bundle, or d, k and a gadget."""
    parser.add_argument("--input", default=None, help="instance bundle (default: bundled)")
    parser.add_argument("--d", type=int, default=None)
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--gadget", default=None)


def _instance_params(args) -> dict:
    """The report params naming the instance ``_resolve_instance`` reads."""
    return {name: getattr(args, name) for name in ("input", "d", "k", "gadget")}


def _resolve_instance(args, notes: list[str]) -> constructions.Theorem1Instance:
    build = [f"--{name}" for name in ("d", "k", "gadget") if getattr(args, name) is not None]
    if args.input is not None:
        if build:
            raise jsonio.SchemaError(f"--input cannot be combined with {', '.join(build)}")
        return jsonio.instance_from_dict(jsonio.load_json(args.input))
    if args.d is not None:
        if args.k is None:
            raise jsonio.SchemaError("--k is required when --d is given")
        d = args.d
        if d % 2 != 0:
            notes.append(f"odd d={d} delegated to d-1={d - 1}")
            d -= 1
        gadget_path = args.gadget or _asset_path(BUNDLED_GADGET)
        gadget = jsonio.gadget_from_dict(jsonio.load_json(gadget_path))
        return constructions.build_theorem1(d, args.k, gadget)
    if build:
        raise jsonio.SchemaError(f"{', '.join(build)} requires --d")
    notes.append("using the bundled d=4, k=2 instance")
    return jsonio.instance_from_dict(jsonio.load_json(_asset_path(BUNDLED_INSTANCE)))


def _write_or_inline(args, payload: dict, result: dict, key: str) -> None:
    """Write the payload to ``--output`` when given, else inline it under ``key``."""
    if args.output:
        jsonio.dump_json(payload, args.output)
        result["output"] = args.output
    else:
        result[key] = payload


# -- command handlers ---------------------------------------------------------
# Each returns (report fields, summary, exit code); cli_main adds the envelope.


def _cmd_gadget_search(args) -> tuple[dict, str, int]:
    gadget = boxgadget.search(args.n, args.dim, seed=args.seed, budget=args.budget)
    params = {"n": args.n, "dim": args.dim, "seed": args.seed, "budget": args.budget}
    if gadget is None:
        fields = {"params": params, "result": {"found": False}, "seed": args.seed}
        return fields, f"no verified family within budget {args.budget}", 1
    if args.output:
        jsonio.dump_json(jsonio.gadget_to_dict(gadget), args.output)
    result = {
        "found": True,
        "boxes": len(gadget.boxes),
        "max_witness_size": gadget.max_witness_size,
        "output": args.output,
    }
    fields = {"params": params, "result": result, "seed": args.seed}
    return fields, f"verified family of {len(gadget.boxes)} boxes", 0


def _cmd_gadget_verify(args) -> tuple[dict, str, int]:
    gadget = jsonio.gadget_from_dict(jsonio.load_json(args.file))
    g_report, _ = boxgadget.verify(gadget)
    fields = {
        "params": {"file": str(args.file)},
        "result": {
            "ok": g_report.ok,
            "checked_subsets": g_report.checked,
            "boxes": len(gadget.boxes),
        },
        "failing": [list(s) for s in g_report.failing_subsets],
    }
    summary = f"{'ok' if g_report.ok else 'FAILED'} over {g_report.checked} subsets"
    return fields, summary, 0 if g_report.ok else 1


def _cmd_construct(args) -> tuple[dict, str, int]:
    notes: list[str] = []
    inst = _resolve_instance(args, notes)
    if args.which == "theorem1":
        serialize = partial(jsonio.instance_to_dict, inst)
        result = {"points": len(inst.points), "d": inst.d, "k": args.k}
    else:
        inst2 = constructions.build_theorem2(inst)
        serialize = partial(jsonio.dual_instance_to_dict, inst2)
        result = {"hyperplanes": len(inst2.hyperplanes), "d": inst.d, "k": args.k}
    if args.output:
        jsonio.dump_json(serialize(), args.output)
        result["output"] = args.output
    fields = {"params": _instance_params(args), "result": result, "notes": notes}
    return fields, f"built ({result})", 0


def _cmd_witness(args) -> tuple[dict, str, int]:
    notes: list[str] = []
    inst = _resolve_instance(args, notes)
    subset = sorted(set(_parse_index_list(args.subset)))
    if args.which == "union":
        halfspaces = constructions.union_witness(inst, subset)
        payload = jsonio.union_witness_to_dict(subset, halfspaces)
        result = {"halfspaces": len(halfspaces)}
    else:
        inst2 = constructions.build_theorem2(inst)
        simplex = constructions.simplex_witness(inst2, subset)
        payload = jsonio.simplex_witness_to_dict(subset, simplex)
        result = {"vertices": len(simplex.vertices), "simplex_dim": simplex.simplex_dim}
    _write_or_inline(args, payload, result, "witness")
    params = {"subset": subset, **_instance_params(args)}
    return {"params": params, "result": result, "notes": notes}, "ok", 0


def _cmd_verify_theorem(args) -> tuple[dict, str, int]:
    notes: list[str] = []
    if args.mode == "exhaustive":
        ignored = [f"--{name}" for name in ("count", "seed") if getattr(args, name) is not None]
        if ignored:
            raise jsonio.SchemaError(f"{', '.join(ignored)} only applies to --mode sample")
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
        budget = inst.gadget.max_witness_size
        if budget > inst.d:
            notes.append(
                f"witnesses may need up to {budget} half-spaces, but a simplex in R^{inst.d} "
                f"has at most {inst.d + 1} vertices, the apex included, so subsets that "
                f"need more than {inst.d} half-spaces fail"
            )
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
    fields = {
        "params": {"mode": args.mode, "count": args.count, **_instance_params(args)},
        "result": result,
        "failing": [list(s) for s in v_report.failing_subsets],
        "seed": args.seed,
        "notes": notes,
    }
    summary = f"{'shattered' if v_report.shattered else 'FAILED'} ({v_report.checked} subsets)"
    return fields, summary, 0 if v_report.shattered else 1


def _cmd_sys(args) -> tuple[dict, str, int]:
    system, dropped = jsonio.set_system_from_dict(jsonio.load_json(args.input))
    if dropped:
        print(f"warning: {dropped} duplicate member sets dropped", file=sys.stderr)
    result: dict = {"ground_size": system.ground_size, "sets": len(system.sets)}
    params: dict = {"input": args.input}
    derived = None
    if args.which == "vcdim":
        dim, witness = setsystem.vc_dim(system)
        result.update({"vc_dim": dim, "witness": list(witness)})
    elif args.which == "kfold":
        params.update({"k": args.k, "op": args.op})
        derived = (
            setsystem.k_fold_union(system, args.k)
            if args.op == "union"
            else setsystem.k_fold_intersection(system, args.k)
        )
    elif args.which == "complement":
        derived = setsystem.complement_system(system)
    elif args.which == "project":
        indices = _parse_index_list(args.indices)
        params["indices"] = indices
        derived = setsystem.project(system, indices)
    else:  # growth
        params["m"] = args.m
        result["growth"] = setsystem.growth_function(system, args.m)
    if derived is not None:
        result["result_sets"] = len(derived.sets)
        _write_or_inline(args, jsonio.set_system_to_dict(derived), result, "system")
    if dropped:
        result["duplicate_sets_dropped"] = dropped
    return {"params": params, "result": result}, "ok", 0


# -- parser -------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcshatter",
        description="Exact construction and verification of shattering instances.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    gadget = top.add_parser("gadget", help="box-family certificates")
    gsub = gadget.add_subparsers(dest="which", required=True)
    gs = gsub.add_parser("search", help="randomized search for a verified family")
    gs.add_argument("--n", type=int, required=True)
    gs.add_argument("--dim", type=int, required=True)
    gs.add_argument("--seed", type=int, required=True)
    gs.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
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
        cp.set_defaults(func=_cmd_construct, which=which, input=None)

    witness = top.add_parser("witness", help="produce a witness for one subset")
    wsub = witness.add_subparsers(dest="which", required=True)
    for which in ("union", "simplex"):
        wp = wsub.add_parser(which)
        _add_instance_options(wp)
        wp.add_argument("--subset", required=True, help="comma-separated point indices")
        wp.add_argument("--output", default=None)
        wp.set_defaults(func=_cmd_witness, which=which)

    verify = top.add_parser("verify", help="verify instances subset by subset")
    vsub = verify.add_subparsers(dest="which", required=True)
    for which in ("theorem1", "theorem2"):
        vp = vsub.add_parser(which)
        _add_instance_options(vp)
        vp.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
        vp.add_argument("--count", type=int, default=None,
                        help="distinct subsets checked in sample mode (at most all of them)")
        vp.add_argument("--seed", type=int, default=None)
        if which == "theorem1":
            vp.add_argument("--vcdim", action="store_true",
                            help="also report the k-fold union VC-dimension")
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
    started = time.monotonic()
    try:
        fields, summary, code = args.func(args)
    except (ConstructionError, ValueError) as err:
        construction = isinstance(err, ConstructionError)
        print(f"{'construction failure' if construction else 'error'}: {err}", file=sys.stderr)
        print(json.dumps({"error": str(err)}, sort_keys=True))
        return 1 if construction else 2
    command = f"{args.group} {args.which}"
    report = {
        "command": command,
        **fields,
        "wall_time_ms": round((time.monotonic() - started) * 1000, 3),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"{command}: {summary}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
