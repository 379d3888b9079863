"""Property tests for the CLI's configuration front end and its manifests.

The parser is fed arbitrary key=value text, JSON documents and raw bytes, and
may only answer with InputError (exit 2).  Every report, rerun from its own
manifest.json, reproduces its CSV and JSON byte for byte.  A run with extreme
flag values (0, subnormals, +-1e300, nan, inf, out-of-range counts) exits 0, 2
or 3, and leaves a manifest exactly when it exits 0, and so does a run whose
range ends or diffusivities lie a few ulps apart.  All run in process.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, assume, example, given, settings
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


def _ordinary(low: float, high: float):
    """Floats in [low, high] that are exactly 0 or at least 1e-3 in magnitude.

    A tiny normal value is as extreme as a subnormal: eta 2.8e-294 with
    kappa-prime 2.4e-295 makes the filament growth rate underflow, which
    solve_growth_rate rejects on purpose (TestExtremeValues covers it).
    """
    return _floats(low, high).map(lambda x: x if abs(x) >= 1e-3 else 0.0)


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
        "eta": st.lists(st.just(0.0) | _ordinary(0.0, 2.0), min_size=1, max_size=5)
        .map(lambda etas: ",".join(map(repr, etas))),
        "kappa": _ordinary(0.0, 3.0),
        "kappa-prime": _ordinary(-3.0, 3.0),
        "k0": _floats(0.1, 3.0),
        "v0": st.just(0.0) | _ordinary(-3.0, 3.0),
        "tau": st.just(0.0) | _ordinary(-2.0, 2.0),
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


EXTREME_FLOATS = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, -1.7e308,
                     math.nan, math.inf, -math.inf]),
    _floats(-3.0, 3.0),
)
EXTREME_INTS = st.sampled_from([-1, 0, 1, 16, cli.MAX_TABLE_ROWS + 1, 2**63])
# Files each command writes per format; {map} is the --map value.
OUTPUTS = {
    "map": {"json": ["map_{map}.json"], "csv": ["map_{map}_growth.csv", "map_{map}_orbit.csv"],
            "svg": ["map_{map}_growth.svg"]},
    "tube": {"json": ["tube_report.json"], "csv": ["tube_profiles.csv"],
             "svg": ["tube_pressure.svg"]},
    "filament": {"json": ["filament_report.json"], "csv": ["filament_sweep.csv"],
                 "svg": ["filament_sweep.svg"]},
    "frenet": {"json": ["frenet_report.json"], "csv": ["frenet_frames.csv"],
               "svg": ["frenet_defect.svg"]},
}
# The longest frenet run drawn; longer ones, up to the row cap, only cost time
_FRENET_STEPS = 10**4


def _extreme_values(command: str):
    """Extreme values for a few of the command's numeric flags, as strings."""
    values = {}
    for key, (converter, *_) in cli.PARAM_SCHEMAS[command].items():
        if converter is int:
            values[key] = EXTREME_INTS.map(str)
        elif converter is float:
            values[key] = EXTREME_FLOATS.map(repr)
        elif converter is cli._eta_list:
            values[key] = st.lists(EXTREME_FLOATS, min_size=1, max_size=4).map(
                lambda etas: ",".join(map(repr, etas)))
    return st.lists(st.sampled_from(sorted(values)), min_size=1, max_size=len(values),
                    unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({key: values[key] for key in keys}))


# A command's ordinary parameters, some of them replaced by extreme values
EXTREME_RUNS = st.sampled_from(COMMANDS).flatmap(lambda command: st.tuples(
    st.just(command), PARAMETERS[command], _extreme_values(command),
    st.lists(st.sampled_from(["csv", "json", "svg"]), min_size=1, max_size=3, unique=True),
))


class TestExtremeValues:
    @settings(max_examples=100, deadline=None)
    @example(run=("filament", {"eta": "0.1", "kappa": 1.0, "kappa-prime": 1.0, "k0": 1.0,
                               "v0": -1.0, "tau": 1.0, "gamma-ref": 1.0},
                  {"k0": "1e-300"}, ["json"]))  # k0 * k0 underflows to 0
    @example(run=("filament", {"eta": "0.1", "kappa": 1.0, "kappa-prime": 1.0, "k0": 1.0,
                               "v0": -1.0, "tau": 1.0, "gamma-ref": 1.0},
                  {"kappa": "0.0"}, ["svg"]))  # no growth rate: no filament_sweep.svg
    @example(run=("filament", {"eta": "0.1", "kappa": 1.0, "kappa-prime": 1.0, "k0": 1.0,
                               "v0": 1.0, "tau": 0.0, "gamma-ref": -1.0},
                  {"eta": "2.7616296315533052e-294", "kappa-prime": "2.405161389782022e-295"},
                  ["csv"]))  # eta / x underflows to 0: exit 2
    @example(run=("tube", {"r-min": 1e-6, "r-max": 1.0, "nodes": 16, "spacing": "log",
                           "m": 1.0, "omega0": 1.0, "rho0": 1.0, "kappa0": 1.0, "gamma": 0.0},
                  {"m": "1e307"}, ["svg"]))  # p(r) = -inf at r_min: exit 2, not a nan plot
    @given(run=EXTREME_RUNS)
    def test_exit_code_and_outputs(self, run):
        command, ordinary, extreme, formats = run
        if command == "frenet":  # PARAMETERS draws s-end as a span from s-start
            ordinary = {**ordinary, "s-end": ordinary["s-start"] + ordinary["s-end"]}
        params = {**{key: str(value) for key, value in ordinary.items()}, **extreme}
        if command == "frenet":
            p = {key: float(value) for key, value in params.items()}
            steps = (p["s-end"] - p["s-start"]) / p["step"] if p["step"] > 0.0 else 0.0
            assume(not steps > _FRENET_STEPS)
        argv = ["--command", command, f"--format={','.join(formats)}",
                *(f"--{key}={value}" for key, value in params.items())]
        with tempfile.TemporaryDirectory() as root:
            out = Path(root) / "out"
            code = main([*argv, "--out", str(out)])
            assert code in (0, 2, 3)
            assert (out / "manifest.json").exists() == (code == 0)
            if code == 0:
                written = {path.name for path in out.iterdir()}
                expected = {name.format(**params) for fmt in formats
                            for name in OUTPUTS[command][fmt]}
                manifest = json.loads((out / "manifest.json").read_text())
                # a sweep without a growth rate has no curve to plot, and its manifest says so
                if "svg_omitted" in manifest.get("derived", {}):
                    assert manifest["derived"] == {
                        "svg_omitted": "no eta of the sweep has a growth rate"}
                    assert expected - written == {"filament_sweep.svg"}
                else:
                    assert expected <= written
                for name in written:
                    if name.endswith(".svg"):
                        body = (out / name).read_text(encoding="utf-8")
                        assert "nan" not in body and "inf" not in body, name


def _up(x: float, k: int) -> float:
    """x moved k ulps towards +inf."""
    for _ in range(k):
        x = math.nextafter(x, math.inf)
    return x


ULPS = st.sampled_from([1, 2, 3, 10, 1000])
# m * 10^e for e in -300..299: every decade from 1e-300 to 1e300 is as likely
MAGNITUDES = st.builds(lambda m, e: m * 10.0**e, _floats(1.0, 10.0), st.integers(-300, 299))
SIGNED = st.just(0.0) | _floats(-5.0, 5.0) | MAGNITUDES | MAGNITUDES.map(lambda x: -x)
TINY_STEPS = st.sampled_from([5e-324, 1e-310, 1e-300, 1e-200, 1e-100, 1e-30, 1e-17])
# Flags of each command drawn k ulps apart
ADJACENT = {
    "tube": st.builds(lambda r, k: {"r-min": r, "r-max": _up(r, k)}, MAGNITUDES, ULPS),
    "frenet": st.builds(lambda s, k, h: {"s-start": s, "s-end": _up(s, k), "step": h},
                        SIGNED, ULPS, _floats(0.01, 0.5) | TINY_STEPS),
    "filament": st.builds(lambda eta, k: {"eta": ",".join(repr(_up(eta, j * k)) for j in range(3))},
                          MAGNITUDES, ULPS),
}
# A command's ordinary parameters with its adjacent ones in place
ADJACENT_RUNS = st.sampled_from(sorted(ADJACENT)).flatmap(lambda command: st.tuples(
    st.just(command), PARAMETERS[command], ADJACENT[command]))


class TestAdjacentFloats:
    """Range ends, or the etas of a sweep, a few ulps apart: a degenerate range never passes.

    Runs use the default formats, so an exit 0 leaves every file of csv, json and svg.
    """

    @settings(max_examples=60, deadline=None)
    @example(run=("frenet", {"kappa0": 1.0, "tau0": 1.0, "s-start": 0.0, "s-end": 1.0,
                             "step": 0.01},
                  {"s-start": 1.0, "s-end": 1.0000000000000007, "step": 1e-17}))  # s repeats
    @given(run=ADJACENT_RUNS)
    def test_exit_code_outputs_and_stderr(self, run):
        command, ordinary, adjacent = run
        params = {**ordinary, **adjacent}
        # a frenet run past the row cap exits 2 at once; a long one below it only costs time
        if command == "frenet":
            steps = (params["s-end"] - params["s-start"]) / params["step"]
            assume(not _FRENET_STEPS < steps <= cli.MAX_TABLE_ROWS)
        # not _argv, which reads frenet's s-end as a span
        argv = ["--command", command, *(f"--{key}={value}" for key, value in params.items())]
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as root:
            out = Path(root) / "out"
            with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error")  # a raw numpy warning fails the run
                code = main([*argv, "--out", str(out)])
            assert code in (0, 2, 3)
            assert (out / "manifest.json").exists() == (code == 0)
            if code == 0:
                assert stderr.getvalue() == ""
                # every file of the default formats, bar a plot the manifest says is omitted
                derived = json.loads((out / "manifest.json").read_text()).get("derived", {})
                skip = "svg" if "svg_omitted" in derived else None
                assert ({name for fmt, names in OUTPUTS[command].items() if fmt != skip
                         for name in names} <= {path.name for path in out.iterdir()})
            if code == 0 and command == "tube":
                lines = (out / "tube_profiles.csv").read_text().splitlines()[1:]
                r = [float(line.split(",", 1)[0]) for line in lines]
                assert all(a < b for a, b in zip(r, r[1:]))
                assert params["r-min"] <= r[0] and r[-1] <= params["r-max"]
            if code == 0 and command == "frenet":
                lines = (out / "frenet_frames.csv").read_text().splitlines()[1:]
                s = [float(line.split(",", 1)[0]) for line in lines]
                assert all(a < b for a, b in zip(s, s[1:]))
                assert params["s-start"] <= s[0] and s[-1] <= params["s-end"]
