"""Property tests for the CLI's configuration front end and its manifests.

The parser is fed arbitrary key=value text, JSON documents and raw bytes, and
may only answer with InputError (exit 2).  Every report, rerun from its own
manifest.json, reproduces its CSV and JSON byte for byte.  Both run in process.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dynamokit import cli
from dynamokit.cli import main

COMMANDS = sorted(cli.PARAM_SCHEMAS)
KEYS = sorted({*cli._ALL_FLAGS, "command", "out", "format"})
VALUES = st.one_of(
    st.sampled_from([*COMMANDS, "cat", "log", "linear", "csv", "json,svg", "", "-1", "0",
                     "1e400", "nan", "-inf", str(cli.MAX_TABLE_ROWS + 1), "0.1,,0.2"]),
    st.floats().map(repr),
    st.integers().map(str),
    st.text(max_size=12),
)
CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(KEYS) | st.text(max_size=8), VALUES).map("=".join),
    st.text(max_size=20),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=10),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
MANIFEST_LIKE = st.fixed_dictionaries({}, optional={
    "command": st.sampled_from(COMMANDS) | JSON_VALUES,
    "formats": st.lists(st.sampled_from(["csv", "json", "svg", "png"])) | JSON_VALUES,
    "parameters": st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=8),
                                  VALUES | JSON_VALUES, max_size=6) | JSON_VALUES,
})
FUZZ = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _resolve_config(path, with_out: bool) -> None:
    """Load and resolve a config file; only InputError may escape."""
    argv = ["--config", str(path)] + (["--out", "out"] if with_out else [])
    try:
        cli._resolve(cli._build_parser().parse_args(argv))
    except cli.InputError:
        pass


class TestConfigFuzz:
    @FUZZ
    @given(lines=st.lists(CONFIG_LINES, max_size=8), with_out=st.booleans())
    def test_key_value_text(self, tmp_path, lines, with_out):
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(lines), encoding="utf-8", errors="surrogatepass")
        _resolve_config(path, with_out)

    @FUZZ
    @given(document=MANIFEST_LIKE | JSON_VALUES, with_out=st.booleans())
    def test_json_documents(self, tmp_path, document, with_out):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(document), encoding="utf-8", errors="surrogatepass")
        _resolve_config(path, with_out)

    @FUZZ
    @given(data=st.binary(max_size=64), suffix=st.sampled_from([".json", ".cfg"]),
           with_out=st.booleans())
    def test_arbitrary_bytes(self, tmp_path, data, suffix, with_out):
        path = tmp_path / f"run{suffix}"
        path.write_bytes(data)
        _resolve_config(path, with_out)


def _floats(low: float, high: float):
    return st.floats(low, high, allow_subnormal=False)


SIGNED_RATE = st.tuples(_floats(0.1, 2.0), st.sampled_from([-1.0, 1.0])).map(math.prod)
PARAMETERS = {
    "map": st.fixed_dictionaries({
        "map": st.sampled_from(["cat", "cat-shear", "twist", "tube-twist", "thin-tube"]),
        "shear-k": st.integers(-4, 4),
        "tau0": _floats(-3.0, 3.0),
        "k0": _floats(0.1, 3.0),
        "growth-steps": st.integers(1, 40),
        "seed-u": _floats(0.1, 2.0),
        "seed-v": _floats(-2.0, 2.0),
        "orbit-x": _floats(0.0, 1.0),
        "orbit-y": _floats(0.0, 1.0),
        "orbit-steps": st.integers(0, 20),
    }),
    "tube": st.fixed_dictionaries({
        "r-min": _floats(1e-6, 0.5),
        "r-max": _floats(1.0, 3.0),
        "nodes": st.integers(16, 48),
        "spacing": st.sampled_from(["log", "linear"]),
        "m": _floats(-3.0, 3.0),
        "omega0": _floats(-2.0, 2.0),
        "rho0": _floats(0.1, 5.0),
        "kappa0": _floats(0.0, 3.0),
        "gamma": _floats(-1.0, 1.0),
    }),
    "filament": st.fixed_dictionaries({
        "eta": st.lists(st.just(0.0) | _floats(0.0, 2.0), min_size=1, max_size=5)
        .map(lambda etas: ",".join(map(repr, etas))),
        "kappa": _floats(0.0, 3.0),
        "kappa-prime": _floats(-3.0, 3.0),
        "k0": _floats(0.1, 3.0),
        "v0": st.just(0.0) | _floats(-3.0, 3.0),
        "tau": st.just(0.0) | _floats(-2.0, 2.0),
        "gamma-ref": SIGNED_RATE,
    }),
    "frenet": st.fixed_dictionaries({
        "kappa0": _floats(0.0, 3.0),
        "tau0": _floats(-3.0, 3.0),
        "s-start": _floats(-5.0, 5.0),
        "s-end": _floats(0.0, 3.0),  # a span, added to s-start below
        "step": _floats(0.01, 0.5),
    }),
}


def _argv(command: str, params: dict) -> list[str]:
    if command == "frenet":
        params = {**params, "s-end": params["s-start"] + params["s-end"]}
    # --flag=value, since argparse takes a value such as -1e-05 for an option
    return ["--command", command, *(f"--{key}={value if isinstance(value, str) else repr(value)}"
                                    for key, value in params.items())]


class TestManifestRerun:
    @settings(max_examples=60, deadline=None)
    @given(run=st.sampled_from(COMMANDS).flatmap(
        lambda command: st.tuples(st.just(command), PARAMETERS[command])))
    def test_rerun_from_manifest_reproduces_csv_and_json(self, run):
        command, params = run
        with tempfile.TemporaryDirectory() as root:
            self._check_rerun(Path(root), command, params)

    @staticmethod
    def _check_rerun(root: Path, command: str, params: dict) -> None:
        first, second = root / "first", root / "second"
        assert main([*_argv(command, params), "--out", str(first)]) == 0
        assert main(["--config", str(first / "manifest.json"), "--out", str(second)]) == 0
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir())
        for name in names:
            if name.endswith((".csv", ".json")):
                assert (first / name).read_bytes() == (second / name).read_bytes(), name
