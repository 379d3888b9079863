"""Golden reference outputs: fixed CLI runs must reproduce their CSV, JSON and SVG.

The files under tests/golden/ pin the numbers while refactors land.  They were
written by the code that preceded the single-numerics-core refactor, so a
refactor that changes the arithmetic shows up here as a difference.
Byte-exact is the default.  A set whose arithmetic was changed on purpose
opts into a per-value comparison (TOLERANCES); the golden files themselves
stay as written.  The plots (.svg), added later, are compared byte for byte in
both comparisons.  Regenerate them only for a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from dynamokit import cli

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "map": ["--command", "map"],
    "tube": ["--command", "tube"],
    "filament": ["--command", "filament"],
    "frenet_helix": ["--command", "frenet", "--s-end", "1", "--step", "0.01"],
    "frenet_reorth": ["--command", "frenet", "--kappa0", "3", "--tau0", "0",
                      "--step", "0.05", "--s-end", "10"],
}

# Bound per CSV column or JSON key, ("abs" | "rel", bound).  Frame components
# cross zero and defects lie between 1e-18 and 1e-8, so both get an absolute
# bound.  Every other value, the headers, row counts, JSON key structure and
# manifest.json must match exactly.
_FRENET_BOUNDS = {
    **{name: ("abs", 1e-12) for name in
       ("t1", "t2", "t3", "n1", "n2", "n3", "b1", "b2", "b3", "defect", "max_defect")},
    "rotation_angle": ("rel", 1e-12),
}
# The frenet sets changed arithmetic when constant profiles moved to the
# one-step RK4 propagator matrix.
TOLERANCES = {"frenet_helix": _FRENET_BOUNDS, "frenet_reorth": _FRENET_BOUNDS}


def _outputs(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes()
            for path in sorted(directory.iterdir()) if path.suffix in (".csv", ".json", ".svg")}


def _rerun(name: str, out: Path) -> tuple[dict[str, bytes], dict[str, bytes]]:
    assert cli.main([*RUNS[name], "--out", str(out)]) == 0
    expected = _outputs(GOLDEN / name)
    actual = _outputs(out)
    assert sorted(actual) == sorted(expected)
    return actual, expected


def _assert_within(actual, expected, bound, where: str) -> None:
    kind, limit = bound
    scale = abs(expected) if kind == "rel" else 1.0
    assert abs(actual - expected) <= limit * scale, (
        f"{where}: {actual!r} differs from {expected!r} by more than {kind} {limit}")


def _assert_csv_close(actual: bytes, expected: bytes, bounds: dict, where: str) -> None:
    actual_rows = list(csv.reader(io.StringIO(actual.decode())))
    expected_rows = list(csv.reader(io.StringIO(expected.decode())))
    header = expected_rows[0]
    assert actual_rows[0] == header, f"{where}: header differs"
    assert len(actual_rows) == len(expected_rows), f"{where}: row count differs"
    for number, (got, want) in enumerate(zip(actual_rows[1:], expected_rows[1:]), start=1):
        assert len(got) == len(want), f"{where}: data row {number} has {len(got)} cells"
        for column, a, e in zip(header, got, want):
            cell = f"{where}: column {column!r}, data row {number}"
            if column in bounds:
                _assert_within(float(a), float(e), bounds[column], cell)
            else:
                assert a == e, f"{cell}: {a!r} != {e!r}"


def _assert_json_close(actual, expected, bounds: dict, where: str, key=None) -> None:
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), f"{where}: keys differ"
        for name, value in expected.items():
            _assert_json_close(actual[name], value, bounds, f"{where}.{name}", name)
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), f"{where}: length differs"
        for index, (a, e) in enumerate(zip(actual, expected)):
            _assert_json_close(a, e, bounds, f"{where}[{index}]", key)
    elif key in bounds:
        _assert_within(actual, expected, bounds[key], where)
    else:
        assert (type(actual), repr(actual)) == (type(expected), repr(expected)), (
            f"{where}: {actual!r} != {expected!r}")


@pytest.mark.parametrize("name", sorted(set(RUNS) - set(TOLERANCES)))
def test_rerun_is_byte_identical_to_golden(name, tmp_path):
    actual, expected = _rerun(name, tmp_path)
    for file_name, data in expected.items():
        assert actual[file_name] == data, f"{name}/{file_name} differs from the golden file"


@pytest.mark.parametrize("name", sorted(TOLERANCES))
def test_rerun_is_within_bounds_of_golden(name, tmp_path):
    actual, expected = _rerun(name, tmp_path)
    bounds = TOLERANCES[name]
    for file_name, data in expected.items():
        where = f"{name}/{file_name}"
        if file_name == "manifest.json" or file_name.endswith(".svg"):
            assert actual[file_name] == data, f"{where} differs from the golden file"
        elif file_name.endswith(".csv"):
            _assert_csv_close(actual[file_name], data, bounds, where)
        else:
            _assert_json_close(json.loads(actual[file_name]), json.loads(data), bounds, where)


def test_bounds_comparison_rejects_drift_and_exact_changes():
    golden = (GOLDEN / "frenet_helix" / "frenet_frames.csv").read_bytes()
    header, first, *rest = golden.decode().splitlines()
    cells = first.split(",")

    def with_cell(column: str, value: str) -> bytes:
        edited = cells.copy()
        edited[header.split(",").index(column)] = value
        return "\n".join([header, ",".join(edited), *rest, ""]).encode()

    _assert_csv_close(with_cell("t1", repr(float(cells[1]) + 5e-13)), golden, _FRENET_BOUNDS, "ok")
    for column, value in (("t1", repr(float(cells[1]) + 2e-12)), ("s", "0.0")):
        with pytest.raises(AssertionError):
            _assert_csv_close(with_cell(column, value), golden, _FRENET_BOUNDS, "drift")
    report = json.loads((GOLDEN / "frenet_reorth" / "frenet_report.json").read_bytes())
    drifted = json.loads(json.dumps(report))
    drifted["results"]["rotation_angle"] *= 1.0 + 2e-12
    shifted = json.loads(json.dumps(report))
    shifted["results"]["reorthonormalizations"][0]["s"] += 1e-15
    for changed in (drifted, shifted):
        with pytest.raises(AssertionError):
            _assert_json_close(changed, report, _FRENET_BOUNDS, "report")


def regenerate() -> None:
    """Rewrite every golden directory from the code on the import path."""
    for name, argv in RUNS.items():
        with tempfile.TemporaryDirectory() as scratch:
            if cli.main([*argv, "--out", scratch]) != 0:
                raise SystemExit(f"golden run {name} failed")
            target = GOLDEN / name
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for file_name, data in _outputs(Path(scratch)).items():
                (target / file_name).write_bytes(data)


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
