"""Golden reference outputs: fixed CLI runs must reproduce their CSV/JSON byte for byte.

The files under tests/golden/ pin the numbers while refactors land.  They were
written by the code that preceded the single-numerics-core refactor, so a
refactor that changes the arithmetic shows up here as a byte difference.
Regenerate them only for a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

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


def _outputs(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes()
            for path in sorted(directory.iterdir()) if path.suffix in (".csv", ".json")}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_rerun_is_byte_identical_to_golden(name, tmp_path):
    assert cli.main([*RUNS[name], "--out", str(tmp_path)]) == 0
    expected = _outputs(GOLDEN / name)
    actual = _outputs(tmp_path)
    assert sorted(actual) == sorted(expected)
    for file_name, data in expected.items():
        assert actual[file_name] == data, f"{name}/{file_name} differs from the golden file"


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
