import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import dynamokit
from dynamokit import cli, frenet, maps
from dynamokit.cli import main
from dynamokit.reports import format_float

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

    @pytest.mark.parametrize("argv,torus_map", [
        (["--map", "cat-shear", "--shear-k", "2"], maps.make_cat_shear_map(2)),
        (["--map", "tube-twist"], maps.make_tube_twist_map(-1.0, 1.0)),
    ], ids=["cat-shear", "tube-twist"])
    def test_growth_table_matches_the_library_bit_for_bit(self, tmp_path, argv, torus_map):
        out = tmp_path / "table"
        assert run("--command", "map", "--out", str(out), "--growth-steps", "300", *argv) == 0
        _, rows = read_csv(out / f"map_{argv[1]}_growth.csv")
        seed = maps.FieldVector(0.0, 1.0)
        assert len(rows) == 300
        for n, (index, average, per_step) in enumerate(rows, start=1):
            assert index == str(n)
            assert average == format_float(maps.growth_rate(torus_map, seed, n))
            assert per_step == format_float(maps.growth_rate_per_step(torus_map, seed, n))

    def test_non_finite_json_value_names_file_and_key(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("--command", "map", "--map", "tube-twist", "--k0", "1e300",
                   "--growth-steps", "5", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "map_tube-twist.json: results.eigenvalues.real[0]" in err
        assert list(out.iterdir()) == []

    def test_negative_orbit_steps_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("--command", "map", "--out", str(out), "--orbit-steps=-1") == 2
        assert capsys.readouterr().err == "error: orbit-steps must be nonnegative\n"
        assert not (out / "manifest.json").exists()

    def test_unwritable_output_exits_3(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        assert run("--command", "map", "--out", str(blocker / "sub")) == 3

    def test_failing_writer_exits_3_without_manifest(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise OSError("no space left")

        monkeypatch.setattr(cli, "write_csv", fail)
        out = tmp_path / "x"
        assert run("--command", "map", "--out", str(out)) == 3
        assert capsys.readouterr().err == "error: I/O failure: no space left\n"
        assert list(out.iterdir()) == []


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

    def test_overflow_exits_2_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("--command", "tube", "--omega0", "1e200", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: numerical overflow: ")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("formats", ["svg", "json,svg"])
    def test_non_finite_plot_exits_2_without_outputs(self, tmp_path, capsys, formats):
        # p(r) is -inf at r_min: the plot, like the table, cannot hold it
        out = tmp_path / "x"
        assert run("--command", "tube", "--m", "1e307", "--format", formats,
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == ("error: tube_pressure.svg: series 'p(r)', point 1: "
                                           "cannot serialise non-finite value -inf\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("spacing", ["linear", "log"])
    @pytest.mark.parametrize("r_min,r_max", [("0.3", "0.30000000000000004"),
                                             ("0.1", "0.10000000000000002")])
    def test_range_one_ulp_wide_exits_2_naming_it(self, tmp_path, capsys, r_min, r_max,
                                                  spacing):
        out = tmp_path / "x"
        assert run("--command", "tube", "--out", str(out), "--r-min", r_min,
                   "--r-max", r_max, "--spacing", spacing) == 2
        assert capsys.readouterr().err == (f"error: r_min {r_min} and r_max {r_max} lie too "
                                           "close together for 256 strictly increasing nodes\n")
        assert list(out.iterdir()) == []

    def test_failed_run_leaves_no_outputs_and_names_the_column(self, tmp_path):
        out = tmp_path / "failed"
        env = dict(os.environ, PYTHONPATH=str(Path(dynamokit.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "dynamokit", "--command", "tube", "--spacing", "linear",
             "--r-min", "1e-300", "--nodes", "16", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert "residual_poloidal" in done.stderr
        assert "RuntimeWarning" not in done.stderr
        assert list(out.iterdir()) == []


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

    @pytest.mark.parametrize("argv,cells", [
        (["--v0", "0", "--eta", "0.1"], ["", "", "", ""]),
        (["--kappa-prime", "1e20", "--v0", "1", "--eta", "0.1"],
         ["-0.10000000000000001", "-0", "", ""]),
    ], ids=["no-root", "one-root"])
    def test_missing_roots_leave_blank_cells(self, tmp_path, argv, cells):
        out = tmp_path / "sweep"
        assert run("--command", "filament", "--out", str(out), *argv) == 0
        _header, rows = read_csv(out / "filament_sweep.csv")
        assert rows[0][1:5] == cells

    def test_sweep_without_growth_rate_says_why_it_has_no_plot(self, tmp_path):
        out = tmp_path / "flat"
        assert run("--command", "filament", "--out", str(out), "--kappa", "0",
                   "--format", "svg,csv") == 0
        assert read_json(out / "manifest.json")["derived"] == {
            "svg_omitted": "no eta of the sweep has a growth rate"}
        assert sorted(path.name for path in out.iterdir()) == ["filament_sweep.csv",
                                                               "manifest.json"]
        _header, rows = read_csv(out / "filament_sweep.csv")
        assert all(row[1] == "" for row in rows)
        rerun = tmp_path / "rerun"
        assert run("--config", str(out / "manifest.json"), "--out", str(rerun)) == 0
        assert (rerun / "manifest.json").read_bytes() == (out / "manifest.json").read_bytes()

    def test_empty_eta_list_exits_2(self, tmp_path):
        assert run("--command", "filament", "--out", str(tmp_path / "x"), "--eta", "") == 2

    def test_nonpositive_stretch_exits_2(self, tmp_path):
        assert run("--command", "filament", "--out", str(tmp_path / "x"), "--k0", "0") == 2

    def test_stretch_whose_square_underflows_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("--command", "filament", "--out", str(out), "--k0=1e-300") == 2
        assert "k0" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("etas,message", [
        ("0.1,nan", "parameter eta must be finite"),
        ("0.1,inf", "parameter eta must be finite"),
        ("0.1,-1", "diffusivity eta must be nonnegative"),
    ])
    def test_invalid_later_eta_exits_2(self, tmp_path, capsys, etas, message):
        out = tmp_path / "x"
        assert run("--command", "filament", "--out", str(out), "--eta", etas) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "manifest.json").exists()

    def test_subnormal_sweep_exits_2_naming_the_eta_sweep(self, tmp_path, capfd):
        out = tmp_path / "x"
        assert run("--command", "filament", "--out", str(out),
                   "--eta", "1e-320,1e-310,1e-300") == 2
        # capfd, not capsys: a failing LAPACK fit prints to the stdout descriptor
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: eta sweep [1e-320, 1e-310, 1e-300]: ")
        assert not (out / "manifest.json").exists()

    def test_overflowing_sweep_exits_2_without_a_warning(self, tmp_path, capfd):
        out = tmp_path / "x"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("--command", "filament", "--out", str(out),
                       "--eta=1e200,2e200,3e200") == 2
        assert caught == []
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: eta sweep [1e+200, 2e+200, 3e+200]: ")
        assert "Warning" not in captured.err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("scale", [1e-100, 1e7, 1e8, 1e100])
    def test_default_sweep_in_other_units_is_slow(self, tmp_path, scale):
        etas = ",".join(repr(eta * scale) for eta in cli.PARAM_SCHEMAS["filament"]["eta"][1])
        out = tmp_path / "x"
        assert run("--command", "filament", "--out", str(out), "--format", "json",
                   f"--eta={etas}") == 0
        assert read_json(out / "filament_report.json")["results"]["verdict"] == "slow"

    def test_sweep_one_ulp_apart_is_degenerate_without_a_warning(self, tmp_path, capfd):
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("--command", "filament", "--out", str(out),
                       "--eta=1,1.0000000000000002,1.0000000000000004") == 0
        assert capfd.readouterr() == ("", "")
        assert read_json(out / "filament_report.json")["results"]["verdict"] == "degenerate"


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

    @pytest.mark.parametrize("flag,value", [("--step", "1e-320"), ("--s-end", "inf"),
                                            ("--step", "nan"), ("--step", "1e-9")])
    def test_unbounded_or_non_finite_span_exits_2(self, tmp_path, flag, value):
        out = tmp_path / "x"
        assert run("--command", "frenet", "--out", str(out), flag, value) == 2
        assert not (out / "manifest.json").exists()

    def test_more_steps_than_table_rows_exits_2_before_integrating(self, tmp_path, capsys,
                                                                    monkeypatch):
        def unreachable(*args):
            raise AssertionError("integrate_frame called")

        monkeypatch.setattr(frenet, "integrate_frame", unreachable)
        out = tmp_path / "x"
        assert run("--command", "frenet", "--out", str(out), "--step", "1e-6",
                   "--s-end", "1.000001") == 2
        err = capsys.readouterr().err
        assert "--step" in err and "--s-end" in err and "1000001 steps" in err
        assert not (out / "manifest.json").exists()

    def test_step_that_cannot_advance_s_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("--command", "frenet", "--out", str(out), "--s-start", "1.0",
                   "--s-end", "1.0000000000000007", "--step", "1e-17") == 2
        assert capsys.readouterr().err == ("error: step 1e-17 does not strictly advance s from "
                                           "s_start 1.0 to s_end 1.0000000000000007\n")
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("flag,value", [("--s-end", "nan"), ("--s-start", "nan"),
                                            ("--s-end", "inf"), ("--kappa0", "inf")])
    def test_non_finite_value_exits_2_naming_its_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        assert run("--command", "frenet", "--out", str(out), f"{flag}={value}") == 2
        assert capsys.readouterr().err == f"error: {flag} must be finite, got {value}\n"
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("argv,code", [
        (["--kappa0", "1e10", "--s-end", "1"], 2),
        (["--kappa0", "2.83", "--tau0", "0", "--step", "1"], 2),
        (["--kappa0", "2.8", "--tau0", "0", "--step", "1", "--s-end", "5"], 0),
        (["--kappa0", "1", "--step", "100", "--s-end", "0.001"], 0),  # the step taken is the span
    ])
    def test_step_past_rk4_stability_bound_exits_2(self, tmp_path, capsys, argv, code):
        out = tmp_path / "x"
        assert run("--command", "frenet", "--out", str(out), *argv) == code
        assert (out / "manifest.json").exists() == (code == 0)
        if code:
            err = capsys.readouterr().err
            assert err.startswith("error: --step ") and "2*sqrt(2) = 2.82843" in err

    @pytest.mark.parametrize("argv,events", [
        (["--s-end", "1", "--step", "0.01"], False),
        (["--kappa0", "3", "--tau0", "0", "--step", "0.05", "--s-end", "10"], True),
    ], ids=["helix", "reorthonormalised"])
    def test_defect_column_is_the_trajectory_defects(self, tmp_path, argv, events):
        out = tmp_path / "run"
        assert run("--command", "frenet", "--out", str(out), *argv) == 0
        p = read_json(out / "manifest.json")["parameters"]
        traj = frenet.integrate_frame(
            frenet.CurveProfile.constant(float(p["kappa0"]), float(p["tau0"])),
            float(p["s-start"]), float(p["s-end"]), float(p["step"]),
            frenet.FrenetFrame.canonical(),
        )
        _, rows = read_csv(out / "frenet_frames.csv")
        assert [float(row[-1]) for row in rows] == traj.defects.tolist()
        assert bool(traj.reorthonormalizations) == events


class TestRerunIntoOneDirectory:
    def test_rerun_leaves_only_the_outputs_its_manifest_describes(self, tmp_path):
        out = tmp_path / "d"
        assert run("--command", "frenet", "--out", str(out), "--s-end", "0.5") == 0
        assert run("--command", "frenet", "--out", str(out), "--s-end", "1", "--step", "0.01",
                   "--format", "json") == 0
        assert sorted(p.name for p in out.iterdir()) == ["frenet_report.json", "manifest.json"]
        manifest = read_json(out / "manifest.json")
        assert manifest["formats"] == ["json"] and manifest["parameters"]["s-end"] == "1"

    def test_run_failing_before_its_outputs_leaves_no_manifest(self, tmp_path):
        out = tmp_path / "d"
        assert run("--command", "frenet", "--out", str(out), "--s-end", "0.5") == 0
        assert run("--command", "frenet", "--out", str(out), "--step", "1e-9") == 2
        assert not (out / "manifest.json").exists()

    def test_other_command_replaces_outputs_and_keeps_unrelated_files(self, tmp_path):
        out = tmp_path / "d"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        assert run("--command", "map", "--out", str(out)) == 0
        assert run("--command", "tube", "--nodes", "16", "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "notes.txt", "tube_pressure.svg", "tube_profiles.csv",
            "tube_report.json"]
        assert (out / "notes.txt").read_text() == "kept"


class TestRunnersReturnOutputs:
    """A runner computes and returns its outputs; only main writes them."""

    @pytest.mark.parametrize("command,runner", [
        ("map", cli.run_map_report), ("tube", cli.run_tube_report),
        ("filament", cli.run_filament_sweep), ("frenet", cli.run_frenet),
    ])
    def test_runner_writes_nothing(self, tmp_path, command, runner):
        out = tmp_path / "absent"
        cfg = cli._resolve(cli._build_parser().parse_args(
            ["--command", command, "--out", str(out)]))
        outputs = runner(cfg)
        assert isinstance(outputs, tuple) and len(outputs) == 5
        name, results, _csv_specs, _svg_specs, derived = outputs
        assert isinstance(name, str) and isinstance(results, dict)
        assert derived is None or isinstance(derived, dict)
        assert list(tmp_path.iterdir()) == []


class TestMapRowCost:
    """tracemalloc peak of run_map_report per table row at 10^5 rows, a guard on the
    map kernel's cost at the row cap that, unlike RSS, does not drift with the host.

    Measured on CPython 3.11: 64 B/row for the growth table (two float columns) and
    120 B/row for the orbit (slotted points plus the x and y columns)."""

    ROWS = 100_000

    @pytest.mark.parametrize("flags, bound", [
        (["--growth-steps", str(ROWS), "--orbit-steps", "0"], 80),
        (["--growth-steps", "1", "--orbit-steps", str(ROWS)], 136),
    ], ids=["growth-table", "orbit"])
    def test_peak_bytes_per_row(self, tmp_path, flags, bound):
        argv = ["--command", "map", "--out", str(tmp_path / "x"), *flags]
        cfg = cli._resolve(cli._build_parser().parse_args(argv))
        cli.run_map_report(cfg)  # warm-up: first-call imports stay out of the peak
        tracemalloc.start()
        try:
            cli.run_map_report(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / self.ROWS <= bound


class TestConfigAndDeterminism:
    CASES = [
        ("map", ["--map", "cat", "--growth-steps", "20", "--orbit-steps", "10"]),
        ("tube", ["--nodes", "64"]),
        ("filament", ["--eta", "0.1,0.5,1.0"]),
        ("frenet", ["--s-end", "0.5"]),
    ]

    def test_format_order_and_repeats_write_the_same_files(self, tmp_path):
        runs = []
        for index, spec in enumerate(("json,csv", "csv,json,csv", "csv,json")):
            first, rerun = tmp_path / f"first{index}", tmp_path / f"rerun{index}"
            assert run("--command", "filament", "--out", str(first), "--format", spec) == 0
            assert run("--config", str(first / "manifest.json"), "--out", str(rerun)) == 0
            runs += [{path.name: path.read_bytes() for path in out.iterdir()}
                     for out in (first, rerun)]
        assert all(files == runs[0] for files in runs)
        assert json.loads(runs[0]["manifest.json"])["formats"] == ["csv", "json"]
        assert sorted(runs[0]) == ["filament_report.json", "filament_sweep.csv", "manifest.json"]

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

    @pytest.mark.parametrize("formats", [5, None], ids=["number", "null"])
    def test_json_config_formats_must_be_a_list(self, tmp_path, capsys, formats):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"command": "map", "formats": formats}))
        assert run("--config", str(config), "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith("error: config file ")

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"command=map\n\xff\xfe=1\n")
        assert run("--config", str(config), "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith("error: config file ")

    @pytest.mark.parametrize("text", [
        "[" * 100_000, '{"command": "tube", "parameters": {"nodes": ' + "1" * 5000 + "}}",
    ], ids=["deeply-nested", "over-long-integer"])
    def test_undecodable_json_config_exits_2(self, tmp_path, capsys, text):
        config = tmp_path / "run.json"
        config.write_text(text)
        assert run("--config", str(config), "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_nul_in_configured_output_directory_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("command=map\nout=a\0b\n")
        assert run("--config", str(config)) == 2
        assert "--out" in capsys.readouterr().err

    def test_missing_command_exits_2(self, tmp_path):
        assert run("--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("command,flag", [
        ("tube", "--nodes"), ("map", "--growth-steps"), ("map", "--orbit-steps"),
    ])
    def test_table_flag_above_the_limit_exits_2(self, tmp_path, capsys, command, flag):
        out = tmp_path / "x"
        too_many = str(cli.MAX_TABLE_ROWS + 1)
        assert run("--command", command, "--out", str(out), flag, too_many) == 2
        err = capsys.readouterr().err
        assert flag in err and str(cli.MAX_TABLE_ROWS) in err
        assert not out.exists()


FLOAT_FLAGS = [(command, flag) for command, schema in cli.PARAM_SCHEMAS.items()
               for flag, (converter, *_) in schema.items() if converter is float]


class TestFlagResolution:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command,flag", FLOAT_FLAGS)
    def test_non_finite_float_flag_exits_2_naming_it(self, tmp_path, capsys, command, flag,
                                                      value):
        out = tmp_path / "x"
        assert run("--command", command, "--out", str(out), f"--{flag}={value}") == 2
        assert capsys.readouterr().err == f"error: --{flag} must be finite, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("first,bad", [
        (["--command", "map"], ["--growth-steps", str(cli.MAX_TABLE_ROWS + 1)]),
        (["--command", "frenet", "--s-end", "0.5"], ["--s-end=nan"]),
    ], ids=["table-cap", "non-finite"])
    def test_resolution_error_leaves_a_used_out_unchanged(self, tmp_path, first, bad):
        out = tmp_path / "d"
        assert run(*first, "--out", str(out)) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert run(*first, *bad, "--out", str(out)) == 2
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("flag,message", [
        ("--format=,", "--format must name at least one of csv,json,svg"),
        ("--nodes=abc", "invalid value for --nodes: 'abc'"),
    ])
    def test_malformed_flag_exits_2_naming_it(self, tmp_path, capsys, flag, message):
        out = tmp_path / "x"
        assert run("--command", "tube", "--out", str(out), flag) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_help_names_every_flag_under_its_own_name(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        for flag in cli._ALL_FLAGS:
            assert f"--{flag} {flag.upper()}" in text
