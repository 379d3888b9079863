import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dynamokit.cli import main

GOLDEN = 1.618033988749895


def run(*argv) -> int:
    return main(list(argv))


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestMapCommand:
    def test_cat_report(self, tmp_path):
        out = tmp_path / "cat"
        assert run("--command", "map", "--out", str(out), "--map", "cat") == 0
        report = read_json(out / "map_cat.json")
        assert set(report) == {"manifest", "results"}
        results = report["results"]
        assert results["classification"] == "hyperbolic"
        assert results["eigenvalues"]["real"][0] == pytest.approx(2.6180340, abs=1e-6)
        assert results["determinant"] == 1.0
        header, rows = read_csv(out / "map_cat_growth.csv")
        assert header == ["n", "time_average_log_growth", "per_step_log_growth"]
        assert len(rows) == 50
        assert (out / "map_cat_orbit.csv").exists()
        assert (out / "map_cat_growth.svg").exists()

    def test_identity_shear_is_parabolic(self, tmp_path):
        out = tmp_path / "shear0"
        assert run("--command", "map", "--out", str(out), "--map", "cat-shear",
                   "--shear-k", "0") == 0
        results = read_json(out / "map_cat-shear.json")["results"]
        assert results["classification"] == "parabolic"
        assert results["eigenvalues"]["real"] == [1.0, 1.0]
        assert results["eigenvalues"]["imag"] == [0.0, 0.0]

    def test_thin_tube_manifest_records_twist_matrix(self, tmp_path):
        out = tmp_path / "thin"
        assert run("--command", "map", "--out", str(out), "--map", "thin-tube",
                   "--tau0", "-1") == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["derived"]["matrix"] == [[1.0, 1.0], [0.0, 1.0]]

    def test_invalid_map_name_exits_2(self, tmp_path):
        assert run("--command", "map", "--out", str(tmp_path / "x"), "--map", "nope") == 2

    def test_unwritable_output_exits_3(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        assert run("--command", "map", "--out", str(blocker / "sub")) == 3


class TestTubeCommand:
    def test_default_report_carries_both_root_sets(self, tmp_path):
        out = tmp_path / "tube"
        assert run("--command", "tube", "--out", str(out), "--nodes", "64") == 0
        results = read_json(out / "tube_report.json")["results"]
        eigen = results["eigenproblems"]
        assert eigen["consistent"] is False
        stated = eigen["paper-stated"]["roots_real"]
        derived = eigen["derived-elimination"]["roots_real"]
        assert stated[0] == pytest.approx(1.6180340, abs=1e-6)
        assert stated[1] == pytest.approx(-0.6180340, abs=1e-6)
        assert derived == [2.0, -1.0]
        assert results["alpha_discrepancy"]["consistent"] is False
        assert results["pressure_blowup"]["verdict"] == "divergent"

    def test_zero_ratio_is_bounded(self, tmp_path):
        out = tmp_path / "tube0"
        assert run("--command", "tube", "--out", str(out), "--nodes", "64", "--m", "0") == 0
        results = read_json(out / "tube_report.json")["results"]
        assert results["pressure_blowup"]["verdict"] == "bounded"

    def test_pressure_column_at_unit_radius(self, tmp_path):
        out = tmp_path / "tubecsv"
        assert run("--command", "tube", "--out", str(out), "--r-min", "1e-6",
                   "--r-max", "1", "--nodes", "64", "--rho0", "2", "--omega0", "3") == 0
        header, rows = read_csv(out / "tube_profiles.csv")
        assert header == ["r", "v_s", "v_theta", "p", "alpha",
                          "residual_poloidal", "residual_toroidal"]
        last = rows[-1]
        assert float(last[0]) == 1.0
        assert float(last[3]) == 2.0 * 9.0  # rho0 * omega0^2 at r = 1

    def test_nonpositive_r_min_exits_2(self, tmp_path):
        assert run("--command", "tube", "--out", str(tmp_path / "x"), "--r-min", "0") == 2

    def test_failed_run_leaves_no_manifest(self, tmp_path):
        # 1/r^2 overflows at r = 1e-300, so serialising the profiles fails
        failing = ("--command", "tube", "--spacing", "linear", "--r-min", "1e-300",
                   "--nodes", "16")
        fresh = tmp_path / "fresh"
        with np.errstate(all="ignore"):
            assert run(*failing, "--out", str(fresh)) == 2
        assert not (fresh / "manifest.json").exists()
        reused = tmp_path / "reused"
        assert run("--command", "tube", "--nodes", "16", "--out", str(reused)) == 0
        assert (reused / "manifest.json").exists()
        with np.errstate(all="ignore"):
            assert run(*failing, "--out", str(reused)) == 2
        assert not (reused / "manifest.json").exists()


class TestFilamentCommand:
    def test_zero_torsion_verdict_planar(self, tmp_path):
        out = tmp_path / "planar"
        assert run("--command", "filament", "--out", str(out), "--tau", "0") == 0
        results = read_json(out / "filament_report.json")["results"]
        assert results["verdict"] == "non-dynamo-planar"

    def test_default_sweep_matches_closed_form_slope(self, tmp_path):
        out = tmp_path / "sweep"
        assert run("--command", "filament", "--out", str(out)) == 0
        header, rows = read_csv(out / "filament_sweep.csv")
        assert header == ["eta", "re_gamma_1", "im_gamma_1", "re_gamma_2",
                          "im_gamma_2", "regime"]
        slope = 2.0 / (1.0 + math.sqrt(5.0))
        for row in rows:
            eta = float(row[0])
            assert float(row[1]) == pytest.approx(slope * eta, abs=1e-9)
        results = read_json(out / "filament_report.json")["results"]
        assert results["verdict"] == "slow"
        assert results["coefficients"] == {"A": 1.0, "B": 1.0, "C": -1.0}
        assert (out / "filament_sweep.svg").exists()

    def test_empty_eta_list_exits_2(self, tmp_path):
        assert run("--command", "filament", "--out", str(tmp_path / "x"), "--eta", "") == 2

    def test_nonpositive_stretch_exits_2(self, tmp_path):
        assert run("--command", "filament", "--out", str(tmp_path / "x"), "--k0", "0") == 2


class TestFrenetCommand:
    def test_straight_line_defect_is_tiny(self, tmp_path):
        out = tmp_path / "line"
        assert run("--command", "frenet", "--out", str(out), "--kappa0", "0",
                   "--tau0", "0", "--s-end", "0.05") == 0
        header, rows = read_csv(out / "frenet_frames.csv")
        assert header[-1] == "defect"
        assert all(float(row[-1]) < 1e-14 for row in rows)
        results = read_json(out / "frenet_report.json")["results"]
        assert results["reorthonormalizations"] == []

    def test_rotation_angle_reported(self, tmp_path):
        out = tmp_path / "helix"
        assert run("--command", "frenet", "--out", str(out), "--s-end", "1",
                   "--step", "1e-3") == 0
        results = read_json(out / "frenet_report.json")["results"]
        assert results["rotation_angle"] == pytest.approx(math.sqrt(2.0), abs=1e-7)
        assert results["expected_rotation_angle"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert results["max_defect"] < 1e-8

    def test_nonpositive_step_exits_2(self, tmp_path):
        assert run("--command", "frenet", "--out", str(tmp_path / "x"), "--step", "0") == 2


class TestConfigAndDeterminism:
    CASES = [
        ("map", ["--map", "cat", "--growth-steps", "20", "--orbit-steps", "10"]),
        ("tube", ["--nodes", "64"]),
        ("filament", ["--eta", "0.1,0.5,1.0"]),
        ("frenet", ["--s-end", "0.5"]),
    ]

    @pytest.mark.parametrize("command,extra", CASES, ids=[c[0] for c in CASES])
    def test_rerun_from_manifest_is_byte_identical(self, tmp_path, command, extra):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert run("--command", command, "--out", str(first), *extra) == 0
        assert run("--config", str(first / "manifest.json"), "--out", str(second)) == 0
        first_files = sorted(p.name for p in first.iterdir())
        assert first_files == sorted(p.name for p in second.iterdir())
        for name in first_files:
            if name.endswith((".csv", ".json")):
                assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_flat_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# map report\ncommand=map\nmap=twist\ngrowth-steps=5\norbit-steps=3\n"
        )
        out = tmp_path / "out"
        assert run("--config", str(config), "--out", str(out)) == 0
        results = read_json(out / "map_twist.json")["results"]
        assert results["classification"] == "parabolic"

    def test_cli_flags_override_config(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("command=map\nmap=twist\n")
        out = tmp_path / "out"
        assert run("--config", str(config), "--out", str(out), "--map", "cat") == 0
        assert (out / "map_cat.json").exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("command=map\nwibble=1\n")
        assert run("--config", str(config), "--out", str(tmp_path / "out")) == 2

    def test_flag_for_other_command_exits_2(self, tmp_path):
        assert run("--command", "map", "--out", str(tmp_path / "x"), "--eta", "0.1") == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run("--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x")) == 2

    def test_format_subset_respected(self, tmp_path):
        out = tmp_path / "csvonly"
        assert run("--command", "map", "--out", str(out), "--format", "csv") == 0
        names = {p.name for p in out.iterdir()}
        assert "manifest.json" in names
        assert "map_cat_growth.csv" in names
        assert not any(name.endswith(".svg") for name in names)
        assert "map_cat.json" not in names

    def test_unknown_format_exits_2(self, tmp_path):
        assert run("--command", "map", "--out", str(tmp_path / "x"), "--format", "png") == 2

    def test_missing_command_exits_2(self, tmp_path):
        assert run("--out", str(tmp_path / "x")) == 2
