from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import vcshatter
from vcshatter import boxgadget, constructions, jsonio
from vcshatter.cli import _build_parser, cli_main
from vcshatter.geometry import OpenSimplex, Point, RestrictedHalfspace
from vcshatter.setsystem import SetSystem, mask_to_indices


def run_cli(capsys, *argv) -> tuple[int, dict]:
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def canon(report: dict) -> dict:
    data = dict(report)
    data.pop("wall_time_ms", None)
    return data


@pytest.fixture()
def powerset4(tmp_path):
    system = SetSystem.from_masks(4, range(16))
    path = tmp_path / "powerset4.json"
    jsonio.dump_json(jsonio.set_system_to_dict(system), path)
    return str(path)


class TestSysCommands:
    def test_vcdim(self, capsys, powerset4):
        code, report = run_cli(capsys, "sys", "vcdim", "--input", powerset4)
        assert code == 0
        assert report["result"]["vc_dim"] == 4

    def test_kfold_roundtrip(self, capsys, tmp_path, powerset4):
        out = tmp_path / "folded.json"
        code, report = run_cli(
            capsys, "sys", "kfold", "--input", powerset4, "--k", "2",
            "--op", "union", "--output", str(out),
        )
        assert code == 0
        system, dropped = jsonio.set_system_from_dict(jsonio.load_json(out))
        assert dropped == 0
        assert len(system.sets) == 16

    def test_kfold_huge_k_exits(self, capsys, tmp_path):
        # the folds stop once the family stops growing, whatever --k says
        path = tmp_path / "sys.json"
        jsonio.dump_json({"ground_size": 6, "sets": [[0], [1, 2], [3], [4, 5]]}, path)
        for op, sets in (("union", 15), ("intersection", 5)):
            code, report = run_cli(
                capsys, "sys", "kfold", "--input", str(path), "--k", "1000000000", "--op", op,
            )
            assert code == 0 and report["result"]["result_sets"] == sets

    def test_project_and_growth(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        jsonio.dump_json({"ground_size": 3, "sets": [[0], [1], [0, 1]]}, path)
        code, report = run_cli(
            capsys, "sys", "project", "--input", str(path), "--indices", "0,1"
        )
        assert code == 0 and report["result"]["result_sets"] == 3
        code, report = run_cli(capsys, "sys", "growth", "--input", str(path), "--m", "1")
        assert code == 0 and report["result"]["growth"] == 2

    def test_complement(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        jsonio.dump_json({"ground_size": 2, "sets": [[0]]}, path)
        code, report = run_cli(capsys, "sys", "complement", "--input", str(path))
        assert code == 0
        assert report["result"]["system"]["sets"] == [[1]]

    def test_complement_of_a_huge_ground_size_exits_2(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        jsonio.dump_json({"ground_size": 10**9, "sets": [[0]]}, path)
        code, report = run_cli(capsys, "sys", "complement", "--input", str(path))
        assert code == 2
        assert "complement refused" in report["error"]

    def test_an_empty_family_on_a_huge_ground_size_stays_small(self, capsys, tmp_path):
        # the complement of no members is no members, and so is their k-fold
        # intersection: no 2^27-bit mask is built and no guard refuses
        path = tmp_path / "empty.json"
        jsonio.dump_json({"ground_size": 1 << 27, "sets": []}, path)
        tracemalloc.start()
        try:
            code, report = run_cli(capsys, "sys", "complement", "--input", str(path))
            code2, folded = run_cli(
                capsys, "sys", "kfold", "--input", str(path), "--k", "2", "--op", "intersection"
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and report["result"]["system"]["sets"] == []
        assert code2 == 0 and folded["result"]["system"]["sets"] == []
        assert peak < 1 << 20

    def test_duplicate_sets_warn_and_dedupe(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        jsonio.dump_json({"ground_size": 2, "sets": [[0], [0], [1]]}, path)
        code = cli_main(["sys", "vcdim", "--input", str(path)])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 0
        assert "duplicate" in captured.err
        assert report["result"]["duplicate_sets_dropped"] == 1

    def test_schema_violation_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        jsonio.dump_json({"ground_size": 2, "sets": [[5]]}, path)
        code = cli_main(["sys", "vcdim", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "sets[0]" in err

    def test_vcdim_on_a_huge_ground_size_stays_small(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        jsonio.dump_json({"ground_size": 2 * 10**8, "sets": [[0], [1]]}, path)
        tracemalloc.start()
        try:
            code, report = run_cli(capsys, "sys", "vcdim", "--input", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and report["result"]["vc_dim"] == 1
        assert peak < 1 << 20

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = cli_main(["sys", "vcdim", "--input", str(path)])
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        code = cli_main(["sys", "vcdim", "--input", "/nonexistent/x.json"])
        assert code == 2


class TestVerifyCommands:
    def test_bundled_theorem1(self, capsys):
        code, report = run_cli(capsys, "verify", "theorem1", "--mode", "exhaustive")
        assert code == 0
        assert report["result"]["shattered"] is True
        assert report["result"]["checked_subsets"] == 32

    def test_bundled_theorem2(self, capsys):
        code, report = run_cli(capsys, "verify", "theorem2", "--mode", "exhaustive")
        assert code == 0
        assert report["result"]["zero_signs"] == 0

    def test_deterministic_reports(self, capsys):
        code1, report1 = run_cli(
            capsys, "verify", "theorem1", "--d", "4", "--k", "2",
            "--mode", "sample", "--count", "8", "--seed", "7",
        )
        code2, report2 = run_cli(
            capsys, "verify", "theorem1", "--d", "4", "--k", "2",
            "--mode", "sample", "--count", "8", "--seed", "7",
        )
        assert code1 == code2 == 0
        assert canon(report1) == canon(report2)

    def test_sample_count_is_exact(self, capsys, n3_gadget_path):
        argv = (
            "verify", "theorem2", "--d", "4", "--k", "4", "--gadget", str(n3_gadget_path),
            "--mode", "sample", "--count", "256", "--seed", "0",
        )
        code1, report1 = run_cli(capsys, *argv)
        code2, report2 = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert report1["result"]["checked_subsets"] == 256
        assert report1["result"]["zero_signs"] == 0
        assert canon(report1) == canon(report2)

    def test_theorem2_notes_a_witness_budget_beyond_d(self, capsys, tmp_path, n3_gadget_path):
        # 8 boxes with pairwise-disjoint x ranges form a valid n=4 gadget: b = 8 > d = 4
        boxes = [{"lo": [2 * i + 1, 1], "hi": [2 * i + 2, 3]} for i in range(8)]
        path = tmp_path / "disjoint8.json"
        path.write_text(json.dumps({"n": 4, "dim": 2, "boxes": boxes}))
        argv = ("--d", "4", "--k", "8", "--gadget", str(path))
        code, t1 = run_cli(capsys, "verify", "theorem1", "--vcdim", *argv)
        assert code == 0
        assert t1["result"]["union_vc_dim"] == 8
        assert t1["notes"] == []
        code, t2 = run_cli(capsys, "verify", "theorem2", *argv)
        assert code == 1
        assert t2["failing"] == [s for m in range(256) if len(s := mask_to_indices(m)) > 4]
        assert len(t2["failing"]) == 93
        assert t2["notes"] == [
            "witnesses may need up to 8 half-spaces, but a simplex in R^4 has at most "
            "5 vertices, the apex included, so subsets that need more than 4 half-spaces fail"
        ]
        # b = 4 = d: no note
        code, fits = run_cli(capsys, "verify", "theorem2", "--d", "4", "--k", "4",
                             "--gadget", str(n3_gadget_path))
        assert code == 0
        assert fits["notes"] == []

    def test_reports_name_the_instance_they_ran_on(self, capsys, tmp_path, n3_gadget_path):
        # construct, witness and verify all report the four options that pick
        # an instance, so reports on two gadgets never share their params
        built = ["--d", "4", "--k", "4", "--gadget", str(n3_gadget_path)]
        bundle = tmp_path / "instance.json"
        code, _ = run_cli(capsys, "construct", "theorem1", *built, "--output", str(bundle))
        assert code == 0
        cases = [
            (built, {"input": None, "d": 4, "k": 4, "gadget": str(n3_gadget_path)}),
            (["--input", str(bundle)], {"input": str(bundle), "d": None, "k": None,
                                        "gadget": None}),
        ]
        commands = [["verify", "theorem1"], ["verify", "theorem2"],
                    ["witness", "union", "--subset", "0,3"],
                    ["witness", "simplex", "--subset", "0,3"]]
        for options, instance in cases:
            for command in commands:
                code, report = run_cli(capsys, *command, *options)
                assert code == 0
                assert {name: report["params"][name] for name in instance} == instance
        for which in ("theorem1", "theorem2"):
            code, report = run_cli(capsys, "construct", which, *built)
            assert code == 0 and report["params"] == cases[0][1]

    def test_usage_error_leaves_the_parser_reusable(self, capsys):
        # cli_main builds its parser once; a rejected call must not change the next one
        code, alone = run_cli(capsys, "verify", "theorem1")
        assert code == 0
        assert cli_main(["verify", "theorem1", "--vcdim", "--d", "x"]) == 2
        capsys.readouterr()
        code, again = run_cli(capsys, "verify", "theorem1")
        assert code == 0
        assert canon(again) == canon(alone)
        assert _build_parser() is _build_parser()

    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param(["--k", "2"], id="k-without-d"),
            pytest.param(["--gadget", "GADGET"], id="gadget-without-d"),
            pytest.param(["--input", "INSTANCE", "--d", "4"], id="input-with-d"),
            pytest.param(["--input", "INSTANCE", "--k", "2"], id="input-with-k"),
            pytest.param(["--input", "INSTANCE", "--gadget", "GADGET"], id="input-with-gadget"),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [["verify", "theorem1"], ["witness", "union", "--subset", "0"]],
        ids=["verify", "witness"],
    )
    def test_ignored_instance_flags_exit_2(self, capsys, n3_gadget_path, command, extra):
        from vcshatter.cli import BUNDLED_INSTANCE, _asset_path

        paths = {"GADGET": str(n3_gadget_path), "INSTANCE": str(_asset_path(BUNDLED_INSTANCE))}
        code = cli_main(command + [paths.get(arg, arg) for arg in extra])
        captured = capsys.readouterr()
        assert code == 2
        assert "--" in json.loads(captured.out)["error"]

    @pytest.mark.parametrize("flag", [["--count", "5"], ["--seed", "3"]], ids=["count", "seed"])
    @pytest.mark.parametrize("which", ["theorem1", "theorem2"])
    def test_sample_flags_in_exhaustive_mode_exit_2(self, capsys, which, flag):
        code = cli_main(["verify", which, *flag])
        captured = capsys.readouterr()
        assert code == 2
        assert flag[0] in json.loads(captured.out)["error"]

    @pytest.mark.parametrize(
        "path, value, field",
        [
            pytest.param(["alpha", 0, 0, 1], "6/1", "instance.alpha[0][0]", id="alpha-entry"),
            pytest.param(["alpha", 0, -1], None, "instance.alpha[0]", id="alpha-table-short"),
            pytest.param(["alpha", -1], None, "instance.alpha", id="alpha-table-missing"),
            pytest.param(["points", "points", 0, 0], "7/1", "instance.points", id="moved-point"),
            pytest.param(["gadget", "boxes", 0, "lo", -1], None, "gadget.boxes[0]", id="short-box"),
            pytest.param(["gadget", "boxes", 0, "lo", 0], "1.5e", "gadget.boxes[0].lo[0]",
                         id="bad-rational"),
            pytest.param(["gadget", "boxes", 0, "lo", 0], "1/0", "gadget.boxes[0].lo[0]",
                         id="zero-denominator"),
            pytest.param(["points", "points", 0, 0], True, "point set.points[0][0]",
                         id="boolean-coordinate"),
        ],
    )
    def test_corrupted_bundle_exits_2(self, capsys, tmp_path, path, value, field):
        # a malformed bundle, or one that differs from its gadget's derivation, never verifies
        from vcshatter.cli import BUNDLED_INSTANCE, _asset_path

        data = jsonio.load_json(_asset_path(BUNDLED_INSTANCE))
        *parents, last = path
        node = data
        for key in parents:
            node = node[key]
        if value is None:
            del node[last]
        else:
            node[last] = value
        bundle = tmp_path / "bundle.json"
        jsonio.dump_json(data, bundle)
        code = cli_main(["verify", "theorem1", "--input", str(bundle)])
        error = json.loads(capsys.readouterr().out)["error"]
        assert code == 2
        assert error.startswith(f"{field}:"), error

    def test_sample_count_zero_exits_2(self, capsys):
        code = cli_main(["verify", "theorem1", "--mode", "sample", "--count", "0", "--seed", "1"])
        assert code == 2
        assert "count" in json.loads(capsys.readouterr().out)["error"]

    def test_vcdim_is_theorem1_only(self, capsys):
        assert cli_main(["verify", "theorem2", "--vcdim"]) == 2
        assert "--vcdim" in capsys.readouterr().err

    def test_odd_d_delegates(self, capsys):
        code, report = run_cli(
            capsys, "verify", "theorem1", "--d", "5", "--k", "2", "--mode", "exhaustive"
        )
        assert code == 0
        assert any("delegated" in note for note in report["notes"])


class TestConstructAndWitness:
    def test_construct_then_verify_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "instance.json"
        code, _ = run_cli(
            capsys, "construct", "theorem1", "--d", "4", "--k", "2", "--output", str(out)
        )
        assert code == 0
        code, report = run_cli(
            capsys, "verify", "theorem1", "--input", str(out), "--mode", "exhaustive"
        )
        assert code == 0 and report["result"]["shattered"] is True
        # written artifact equals the bundled instance derivation
        inst = jsonio.instance_from_dict(jsonio.load_json(out))
        assert len(inst.points) == 5

    @pytest.mark.parametrize(
        "which, serializer, digest",
        [
            ("theorem1", "instance_to_dict", "4e8032a94ef3a783291f10b4c496889345ae25ef"),
            ("theorem2", "dual_instance_to_dict", "ee55537b3190465bdeefb311ec90df09dd2cdf94"),
        ],
        ids=["theorem1", "theorem2"],
    )
    def test_construct_serializes_only_when_writing(
        self, capsys, tmp_path, monkeypatch, which, serializer, digest
    ):
        # the instance is serialized once with --output and not at all
        # without it; the file written is the one pinned by its SHA-1
        calls = []

        def counted(*args, original=getattr(jsonio, serializer)):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(jsonio, serializer, counted)
        argv = ["construct", which, "--d", "4", "--k", "2"]
        code, report = run_cli(capsys, *argv)
        assert code == 0 and "output" not in report["result"]
        assert calls == []
        out = tmp_path / "bundle.json"
        code, report = run_cli(capsys, *argv, "--output", str(out))
        assert code == 0 and report["result"]["output"] == str(out)
        assert len(calls) == 1
        assert hashlib.sha1(out.read_bytes()).hexdigest() == digest

    def test_construct_theorem2(self, capsys, tmp_path):
        out = tmp_path / "dual.json"
        code, report = run_cli(
            capsys, "construct", "theorem2", "--d", "4", "--k", "2", "--output", str(out)
        )
        assert code == 0 and report["result"]["hyperplanes"] == 5
        inst = jsonio.instance_from_dict(jsonio.load_json(out))
        assert len(constructions.build_theorem2(inst).hyperplanes) == 5
        code, report = run_cli(capsys, "verify", "theorem2", "--input", str(out))
        assert code == 0 and report["result"]["shattered"] is True
        code, _ = run_cli(capsys, "witness", "simplex", "--input", str(out), "--subset", "0")
        assert code == 0

    @pytest.mark.parametrize(
        "tamper, field",
        [
            pytest.param(lambda planes: planes[0]["p"].__setitem__(0, "999/1"),
                         "instance.hyperplanes[0]", id="moved-entry"),
            pytest.param(lambda planes: planes[4]["p"].pop(), "instance.hyperplanes[4]",
                         id="short-entry"),
            pytest.param(lambda planes: planes.pop(), "instance.hyperplanes", id="one-dropped"),
            pytest.param(lambda planes: planes[1].pop("p"), "instance.hyperplanes[1]",
                         id="missing-p"),
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [["verify", "theorem2"], ["witness", "simplex", "--subset", "0"]],
        ids=["verify", "witness"],
    )
    def test_tampered_theorem2_bundle_exits_2(self, capsys, tmp_path, command, tamper, field):
        # every command that reads a bundle checks its stored hyperplanes
        out = tmp_path / "dual.json"
        argv = ["construct", "theorem2", "--d", "4", "--k", "2", "--output", str(out)]
        assert cli_main(argv) == 0
        data = jsonio.load_json(out)
        tamper(data["hyperplanes"])
        jsonio.dump_json(data, out)
        capsys.readouterr()
        code = cli_main([*command, "--input", str(out)])
        error = json.loads(capsys.readouterr().out)["error"]
        assert code == 2
        assert error.startswith(f"{field}:"), error

    def test_witness_union(self, capsys, tmp_path):
        out = tmp_path / "w.json"
        code, report = run_cli(
            capsys, "witness", "union", "--subset", "0,2", "--output", str(out)
        )
        assert code == 0
        data = jsonio.load_json(out)
        assert data["subset"] == [0, 2]
        assert 1 <= len(data["halfspaces"]) <= 2
        for h in data["halfspaces"]:
            assert h["dim"] == len(h["b"]) == 4
            RestrictedHalfspace(b=tuple(h["b"]), tau=h["tau"])

    def test_a_huge_k_costs_one_slot_per_box(self, capsys, tmp_path):
        # two disjoint boxes at n = 41 and k = 2^40: k enters no threshold,
        # so the instance holds one half-space per hit pattern, not 2^40
        path = tmp_path / "two_boxes_n41.json"
        boxes = [{"lo": [1, 1], "hi": [2, 2]}, {"lo": [3, 3], "hi": [4, 4]}]
        path.write_text(json.dumps({"n": 41, "dim": 2, "boxes": boxes}))
        argv = ("--d", "4", "--k", str(1 << 40), "--gadget", str(path))
        started = time.perf_counter()
        code, union = run_cli(capsys, "witness", "union", *argv, "--subset", "0")
        assert code == 0 and union["result"]["halfspaces"] == 1
        for which in ("theorem1", "theorem2"):
            code, report = run_cli(capsys, "verify", which, *argv)
            assert code == 0
            assert report["result"]["shattered"] and report["result"]["checked_subsets"] == 4
            assert report["notes"] == []
        assert time.perf_counter() - started < 1

    def test_witness_simplex(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        code, report = run_cli(
            capsys, "witness", "simplex", "--subset", "1,3,4", "--output", str(out)
        )
        assert code == 0
        data = jsonio.load_json(out)
        raw = data["simplex"]
        simplex = OpenSimplex(raw["ambient_dim"], tuple(Point(tuple(v)) for v in raw["vertices"]))
        assert simplex.simplex_dim <= 2

    @pytest.mark.parametrize("which", ["union", "simplex"])
    def test_repeated_subset_indices_are_reported_once(self, capsys, which):
        code, once = run_cli(capsys, "witness", which, "--subset", "2,0")
        assert code == 0
        code, repeated = run_cli(capsys, "witness", which, "--subset", "0,2,0,2")
        assert code == 0
        assert repeated["params"]["subset"] == repeated["result"]["witness"]["subset"] == [0, 2]
        assert canon(repeated) == canon(once)

    def test_bad_subset_exits_2(self, capsys):
        code = cli_main(["witness", "union", "--subset", "0,x"])
        assert code == 2


class TestGadgetCommands:
    def test_verify_bundled_file(self, capsys):
        from vcshatter.cli import BUNDLED_GADGET, _asset_path

        code, report = run_cli(capsys, "gadget", "verify", str(_asset_path(BUNDLED_GADGET)))
        assert code == 0
        assert report["result"]["ok"] is True
        assert report["result"]["checked_subsets"] == 32

    def test_verify_broken_file_exits_1(self, capsys, tmp_path, bundled_gadget):
        data = jsonio.gadget_to_dict(bundled_gadget)
        data.pop("witnesses", None)
        data["boxes"][0] = data["boxes"][1]  # identical twins cannot be separated
        path = tmp_path / "broken.json"
        jsonio.dump_json(data, path)
        code, report = run_cli(capsys, "gadget", "verify", str(path))
        assert code == 1
        assert report["result"]["ok"] is False
        assert report["failing"]

    def test_verify_has_no_output_flag(self, capsys, tmp_path):
        from vcshatter.cli import BUNDLED_GADGET, _asset_path

        out = tmp_path / "g.json"
        code = cli_main(
            ["gadget", "verify", str(_asset_path(BUNDLED_GADGET)), "--output", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_failing_gadget_aborts_theorem_commands(self, capsys, tmp_path, bundled_gadget):
        data = jsonio.gadget_to_dict(bundled_gadget)
        lo = [Fraction(v) for v in data["boxes"][1]["lo"]]
        data["boxes"][0] = {  # nested strictly inside box 1
            "lo": [jsonio.format_scalar(v + Fraction(1, 4)) for v in lo],
            "hi": [jsonio.format_scalar(v + Fraction(1, 2)) for v in lo],
        }
        path = tmp_path / "nested.json"
        jsonio.dump_json(data, path)
        for argv in (
            ["verify", "theorem1", "--d", "4", "--k", "2", "--gadget", str(path)],
            ["verify", "theorem2", "--d", "4", "--k", "2", "--gadget", str(path)],
            ["construct", "theorem1", "--d", "4", "--k", "2", "--gadget", str(path)],
        ):
            code, report = run_cli(capsys, *argv)
            assert code == 1, argv
            assert "failed verification" in report["error"]

    def test_search_writes_verified_certificate(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        code, report = run_cli(
            capsys, "gadget", "search", "--n", "2", "--dim", "2",
            "--seed", "0", "--budget", "20000", "--output", str(out),
        )
        assert code == 0 and report["result"]["found"] is True
        data = jsonio.load_json(out)
        assert set(data) == {"n", "dim", "boxes"}
        assert boxgadget.verify(jsonio.gadget_from_dict(data))[0].ok

    def test_verify_directory_exits_2(self, capsys, tmp_path):
        code, report = run_cli(capsys, "gadget", "verify", str(tmp_path))
        assert code == 2
        assert str(tmp_path) in report["error"]

    def test_search_output_in_missing_directory_exits_2(self, capsys, tmp_path):
        out = tmp_path / "missing" / "g.json"
        code, report = run_cli(
            capsys, "gadget", "search", "--n", "2", "--dim", "2", "--seed", "0",
            "--output", str(out),
        )
        assert code == 2
        assert str(out) in report["error"]
        assert not out.parent.exists()

    @pytest.mark.parametrize("flag", ["--count", "--grid"])
    def test_search_has_no_size_flags(self, capsys, flag):
        code = cli_main(
            ["gadget", "search", "--n", "2", "--dim", "2", "--seed", "0", flag, "1"]
        )
        assert code == 2

    def test_search_budget_zero_exits_1(self, capsys):
        code, report = run_cli(
            capsys, "gadget", "search", "--n", "2", "--dim", "2", "--seed", "1", "--budget", "0"
        )
        assert code == 1
        assert report["result"]["found"] is False

    @pytest.mark.parametrize(
        "n, budget, message",
        [("2", "-5", "budget must be >= 0"), ("5", "3000", "exceeds the guard of 24")],
    )
    def test_search_bad_arguments_exit_2(self, capsys, n, budget, message):
        code, report = run_cli(
            capsys, "gadget", "search", "--n", n, "--dim", "2", "--seed", "0", "--budget", budget
        )
        assert code == 2
        assert message in report["error"]

    def test_verify_of_a_huge_n_stays_small(self, capsys, tmp_path):
        # one box caps the fold count at 1, so 2^(10^9 - 1) is never built
        path = tmp_path / "huge_n.json"
        box = {"lo": [1, 1], "hi": [2, 2]}
        path.write_text(json.dumps({"n": 10**9, "dim": 2, "boxes": [box]}))
        tracemalloc.start()
        try:
            code, report = run_cli(capsys, "gadget", "verify", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert report["result"]["ok"] and report["result"]["checked_subsets"] == 2
        assert peak < 1 << 20

    def test_search_refuses_a_huge_n_before_building_its_box_count(self, capsys):
        # the nominal count 2^(n-2) would not even print within Python's digit limit
        code, report = run_cli(
            capsys, "gadget", "search", "--n", "100000", "--dim", "2", "--seed", "0"
        )
        assert code == 2
        assert "exceeds the guard of 24" in report["error"]
        assert len(report["error"]) < 200


ENVELOPE_CASES = [
    # (argv, the report's extra top-level keys, the same command made to fail)
    (["gadget", "search", "--n", "2", "--dim", "2", "--seed", "0", "--budget", "3000"],
     {"seed"}, ["--budget", "-1"]),
    (["gadget", "verify", "GADGET"], {"failing"}, None),
    (["construct", "theorem1", "--d", "4", "--k", "2"], {"notes"}, ["--gadget", "MISSING"]),
    (["construct", "theorem2", "--d", "4", "--k", "2"], {"notes"}, ["--gadget", "MISSING"]),
    (["witness", "union", "--subset", "0,2"], {"notes"}, ["--input", "MISSING"]),
    (["witness", "simplex", "--subset", "0,2"], {"notes"}, ["--input", "MISSING"]),
    (["verify", "theorem1"], {"failing", "seed", "notes"}, ["--input", "MISSING"]),
    (["verify", "theorem2"], {"failing", "seed", "notes"}, ["--input", "MISSING"]),
    (["sys", "vcdim", "--input", "SYSTEM"], set(), None),
    (["sys", "kfold", "--input", "SYSTEM", "--k", "2", "--op", "union"], set(), None),
    (["sys", "complement", "--input", "SYSTEM"], set(), None),
    (["sys", "project", "--input", "SYSTEM", "--indices", "0,1"], set(), None),
    (["sys", "growth", "--input", "SYSTEM", "--m", "1"], set(), None),
]


class TestReportEnvelope:
    @pytest.mark.parametrize(
        "argv, extras, broken", ENVELOPE_CASES, ids=[" ".join(c[0][:2]) for c in ENVELOPE_CASES]
    )
    def test_every_subcommand_prints_one_envelope(self, capsys, tmp_path, argv, extras, broken):
        from vcshatter.cli import BUNDLED_GADGET, _asset_path

        system = tmp_path / "system.json"
        jsonio.dump_json({"ground_size": 3, "sets": [[0], [1, 2]]}, system)
        missing = str(tmp_path / "missing.json")
        paths = {"GADGET": str(_asset_path(BUNDLED_GADGET)), "SYSTEM": str(system),
                 "MISSING": missing}
        code = cli_main([paths.get(arg, arg) for arg in argv])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        command = " ".join(argv[:2])
        assert code == 0
        assert set(report) == {"command", "params", "result", "wall_time_ms"} | extras
        assert report["command"] == command
        wall = report["wall_time_ms"]
        assert isinstance(wall, (int, float)) and not isinstance(wall, bool) and wall >= 0
        assert captured.err.splitlines()[-1].startswith(f"{command}:")

        # a failing call prints the error alone
        if broken is None:
            failing = [missing if arg in ("GADGET", "SYSTEM") else arg for arg in argv]
        else:
            failing = [paths.get(arg, arg) for arg in argv + broken]
        code = cli_main(failing)
        captured = capsys.readouterr()
        assert code == 2
        assert list(json.loads(captured.out)) == ["error"]
        assert captured.err.splitlines()[-1].startswith("error:")


@pytest.mark.parametrize(
    "argv", [["gadget", "verify", "PATH"], ["sys", "vcdim", "--input", "PATH"]],
    ids=["gadget-verify", "sys-vcdim"],
)
def test_a_file_that_is_not_utf8_is_named_in_the_error(capsys, tmp_path, argv):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff{}")
    code = cli_main([str(path) if arg == "PATH" else arg for arg in argv])
    error = json.loads(capsys.readouterr().out)["error"]
    assert code == 2
    assert error.startswith(f"{path}: malformed JSON ("), error


def run_module(*argv) -> subprocess.CompletedProcess:
    """``python -m vcshatter.cli`` on the package under test, installed or not."""
    package_root = str(Path(vcshatter.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "vcshatter.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestConsoleEntryPoint:
    def test_module_invocation(self, powerset4):
        proc = run_module("sys", "vcdim", "--input", powerset4)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["vc_dim"] == 4

    def test_usage_error_exits_2(self):
        proc = run_module("sys", "vcdim")
        assert proc.returncode == 2
