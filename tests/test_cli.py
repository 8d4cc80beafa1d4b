from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from vcshatter import boxgadget, jsonio
from vcshatter.cli import cli_main
from vcshatter.setsystem import SetSystem


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

    def test_construct_theorem2(self, capsys, tmp_path):
        out = tmp_path / "dual.json"
        code, report = run_cli(
            capsys, "construct", "theorem2", "--d", "4", "--k", "2", "--output", str(out)
        )
        assert code == 0 and report["result"]["hyperplanes"] == 5
        inst2 = jsonio.dual_instance_from_dict(jsonio.load_json(out))
        assert len(inst2.hyperplanes) == 5

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
            jsonio.halfspace_from_dict(h)

    def test_witness_simplex(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        code, report = run_cli(
            capsys, "witness", "simplex", "--subset", "1,3,4", "--output", str(out)
        )
        assert code == 0
        data = jsonio.load_json(out)
        simplex = jsonio.simplex_from_dict(data["simplex"])
        assert simplex.simplex_dim <= 2

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

    def test_search_budget_zero_exits_1(self, capsys):
        code, report = run_cli(
            capsys, "gadget", "search", "--n", "2", "--dim", "2", "--seed", "1", "--budget", "0"
        )
        assert code == 1
        assert report["result"]["found"] is False


class TestConsoleEntryPoint:
    def test_module_invocation(self, powerset4):
        proc = subprocess.run(
            [sys.executable, "-m", "vcshatter.cli", "sys", "vcdim", "--input", powerset4],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["vc_dim"] == 4

    def test_usage_error_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "vcshatter.cli", "sys", "vcdim"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
