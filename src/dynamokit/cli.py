"""Command-line reports: torus-map spectra, tube-flow diagnostics, filament
growth-rate sweeps, and Frenet frame integrations.

One command per invocation (--command {map,tube,filament,frenet}).  A runner
returns its outputs and main writes them once, manifest.json last, with the
fully resolved parameter set; identical configurations produce byte-identical
CSV/JSON outputs.  A manifest is itself a valid --config input, so any run can
be reproduced from its manifest.  Runs are seed-free and deterministic.

Exit codes: 0 success, 2 invalid input, 3 output I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .reports import format_float, write_csv, write_json, write_svg_polyline

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
_FORMATS = ("csv", "json", "svg")
# Largest row count a table flag may request; each row costs work and memory
# in the kernel and in every writer, so larger requests are rejected up front.
MAX_TABLE_ROWS = 10**6
_TABLE_FLAGS = ("nodes", "growth-steps", "orbit-steps")
# Largest step times rotation rate at which classical RK4 does not amplify the frame
_RK4_STABLE = 2.0 * math.sqrt(2.0)

__all__ = ["InputError", "MAX_TABLE_ROWS", "RunConfig", "main"]


class InputError(ValueError):
    """User-supplied configuration is invalid (exit code 2)."""


def _eta_list(raw: str) -> tuple[float, ...]:
    text = raw.strip()
    return tuple(float(token) for token in text.split(",")) if text else ()


# flag -> (converter, default, help); converters also parse config-file strings
PARAM_SCHEMAS: dict[str, dict] = {
    "map": {
        "map": (str, "cat", "map name: cat, cat-shear, twist, tube-twist, thin-tube"),
        "shear-k": (int, 1, "integer shear strength for cat-shear"),
        "tau0": (float, -1.0, "torsion for tube-twist / thin-tube maps"),
        "k0": (float, 1.0, "stretch factor for tube-twist"),
        "growth-steps": (int, 50, "number of rows in the growth-rate table"),
        "seed-u": (float, 0.0, "seed field vector u component"),
        "seed-v": (float, 1.0, "seed field vector v component"),
        "orbit-x": (float, 0.1, "orbit starting x coordinate"),
        "orbit-y": (float, 0.2, "orbit starting y coordinate"),
        "orbit-steps": (int, 20, "number of orbit iterations"),
    },
    "tube": {
        "r-min": (float, 1e-6, "inner radius of the grid (must be > 0)"),
        "r-max": (float, 1.0, "outer radius of the grid"),
        "nodes": (int, 256, "number of radial nodes"),
        "spacing": (str, "log", "grid spacing: log or linear"),
        "m": (float, _GOLDEN, "poloidal/toroidal ratio for the eigen-ansatz field"),
        "omega0": (float, 1.0, "poloidal rotation rate"),
        "rho0": (float, 1.0, "density"),
        "kappa0": (float, 1.0, "axis curvature"),
        "gamma": (float, 0.0, "growth rate used in the residual tables"),
    },
    "filament": {
        "eta": (_eta_list, _eta_list("0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"),
                "comma-separated diffusivity sweep values"),
        "kappa": (float, 1.0, "filament curvature"),
        "kappa-prime": (float, 1.0, "curvature derivative along the filament"),
        "k0": (float, 1.0, "constant stretch factor (must be > 0)"),
        "v0": (float, -1.0, "flow speed scale"),
        "tau": (float, 1.0, "filament torsion (0 forces the planar verdict)"),
        "gamma-ref": (float, 1.0, "reference growth rate used to evaluate C"),
    },
    "frenet": {
        "kappa0": (float, 1.0, "constant curvature"),
        "tau0": (float, 1.0, "constant torsion"),
        "s-start": (float, 0.0, "integration start arclength"),
        "s-end": (float, 10.0, "integration end arclength"),
        "step": (float, 1e-3, "integrator step (must be > 0)"),
    },
}

_ALL_FLAGS: dict[str, str] = {}
for _cmd, _schema in PARAM_SCHEMAS.items():
    for _flag, (_conv, _default, _help) in _schema.items():
        if _flag in _ALL_FLAGS:
            _ALL_FLAGS[_flag] += f", {_cmd}"
        else:
            _ALL_FLAGS[_flag] = f"{_help} (commands: {_cmd}"
_ALL_FLAGS = {flag: text + ")" for flag, text in _ALL_FLAGS.items()}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run: command, typed parameters, output directory, formats."""

    command: str
    parameters: dict
    output_dir: Path
    formats: tuple[str, ...]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynamokit",
        description="Deterministic dynamo-toolkit reports (CSV/JSON tables and SVG plots).",
    )
    parser.add_argument("--command", choices=sorted(PARAM_SCHEMAS), help="report to run")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--format", help="comma-separated subset of csv,json,svg (default: all)")
    parser.add_argument("--config", help="config file: key=value lines or a manifest.json")
    for flag, help_text in _ALL_FLAGS.items():
        parser.add_argument(f"--{flag}", dest=flag, help=help_text)
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read config file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"config file {path!r} is not UTF-8 text: {exc}") from exc
    if path.endswith(".json"):
        try:
            data = json.loads(text)
        # ValueError also covers integers too long to convert; RecursionError, deep nesting
        except (ValueError, RecursionError) as exc:
            raise InputError(f"config file {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InputError(f"config file {path!r} must contain a JSON object")
        merged: dict[str, str] = {}
        if "command" in data:
            merged["command"] = str(data["command"])
        if "formats" in data:
            if not isinstance(data["formats"], list):
                raise InputError(f"config file {path!r}: 'formats' must be a list")
            merged["format"] = ",".join(str(f) for f in data["formats"])
        parameters = data.get("parameters", {})
        if not isinstance(parameters, dict):
            raise InputError("manifest 'parameters' must be an object")
        for key, value in parameters.items():
            merged[str(key)] = str(value)
        return merged
    merged = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InputError(f"config line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        merged[key.strip()] = value.strip()
    return merged


def _resolve(args: argparse.Namespace) -> RunConfig:
    flags = {flag: value for flag, value in vars(args).items() if value is not None}
    config = flags.pop("config", None)
    merged = _load_config_file(config) if config else {}
    merged.update(flags)

    command = merged.pop("command", None)
    if command is None:
        raise InputError("--command is required (or supply it in --config)")
    if command not in PARAM_SCHEMAS:
        raise InputError(f"unknown command {command!r}")
    out = merged.pop("out", None)
    if out is None:
        raise InputError("--out is required")
    if "\0" in out:
        raise InputError("--out must not contain a NUL character")
    format_spec = merged.pop("format", "csv,json,svg")
    tokens = [token.strip() for token in format_spec.split(",") if token.strip()]
    if not tokens:
        raise InputError("--format must name at least one of csv,json,svg")
    for fmt in tokens:
        if fmt not in _FORMATS:
            raise InputError(f"unknown format {fmt!r} (expected subset of csv,json,svg)")

    schema = PARAM_SCHEMAS[command]
    for key in merged:
        if key not in schema:
            raise InputError(f"unknown parameter {key!r} for command {command!r}")
    parameters = {}
    for key, (converter, default, _help) in schema.items():
        if key in merged:
            try:
                parameters[key] = converter(merged[key])
            except (TypeError, ValueError) as exc:
                raise InputError(f"invalid value for --{key}: {merged[key]!r}") from exc
        else:
            parameters[key] = default
        if converter is float and not math.isfinite(parameters[key]):
            raise InputError(f"--{key} must be finite, got {parameters[key]!r}")
        if key in _TABLE_FLAGS and parameters[key] > MAX_TABLE_ROWS:
            raise InputError(f"--{key} must be at most {MAX_TABLE_ROWS}, got {parameters[key]}")
    # each format once, in csv,json,svg order, so equal runs write equal manifests
    return RunConfig(command, parameters, Path(out), tuple(f for f in _FORMATS if f in tokens))


def _canonical(value) -> str:
    if isinstance(value, tuple):
        return ",".join(format_float(v) for v in value)
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _emit(cfg: RunConfig, name: str, results: dict, csv_specs, svg_specs, derived) -> None:
    """Write the csv/json/svg files a runner returned, then manifest.json.

    Every file is written into a staging directory inside the output directory
    and moved into place only after all writers succeeded, the manifest last.
    Before the move, every <command>_* csv/json/svg file of an earlier run
    that this run does not write is deleted, so the outputs beside a manifest
    are exactly the ones it describes.
    """
    manifest = {
        "toolkit_version": __version__,
        "command": cfg.command,
        "formats": list(cfg.formats),
        "parameters": {key: _canonical(value) for key, value in sorted(cfg.parameters.items())},
    }
    if derived:
        manifest["derived"] = derived
    manifest_path = cfg.output_dir / "manifest.json"
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=cfg.output_dir))
    try:
        if "json" in cfg.formats:
            write_json(staging / f"{cfg.command}_{name}.json",
                       {"manifest": manifest, "results": results})
        if "csv" in cfg.formats:
            for suffix, header, columns in csv_specs:
                write_csv(staging / f"{cfg.command}_{suffix}.csv", header, *columns)
        if "svg" in cfg.formats:
            for suffix, xs, ys, title, x_label, y_label in svg_specs:
                write_svg_polyline(staging / f"{cfg.command}_{suffix}.svg", xs, ys,
                                   title=title, x_label=x_label, y_label=y_label)
        write_json(staging / manifest_path.name, manifest)
        written = {path.name for path in staging.iterdir()}
        for path in list(cfg.output_dir.iterdir()):
            if (path.name.partition("_")[0] in PARAM_SCHEMAS and path.suffix[1:] in _FORMATS
                    and path.name not in written):
                path.unlink()
        for path in sorted(staging.iterdir(), key=lambda path: path.name == manifest_path.name):
            path.replace(cfg.output_dir / path.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def run_map_report(cfg: RunConfig) -> tuple:
    from . import maps  # each runner imports its own kernel, so a run loads no other
    p = cfg.parameters
    name = p["map"]
    builders = {
        "cat": lambda: maps.make_cat_map(),
        "cat-shear": lambda: maps.make_cat_shear_map(p["shear-k"]),
        "twist": lambda: maps.make_twist_map(),
        "tube-twist": lambda: maps.make_tube_twist_map(p["tau0"], p["k0"]),
        "thin-tube": lambda: maps.make_thin_tube_map(p["tau0"]),
    }
    if name not in builders:
        raise InputError(f"invalid map name {name!r} (expected one of {sorted(builders)})")
    torus_map = builders[name]()
    if p["growth-steps"] < 1:
        raise InputError("growth-steps must be at least 1")
    if p["orbit-steps"] < 0:
        raise InputError("orbit-steps must be nonnegative")
    classification = maps.classify(torus_map)
    seed = maps.FieldVector(p["seed-u"], p["seed-v"])

    time_average, per_step = maps._growth_table(torus_map, seed, p["growth-steps"])
    steps = range(1, len(time_average) + 1)
    orbit = maps.iterate_orbit(
        torus_map, maps.TorusPoint(p["orbit-x"], p["orbit-y"]), p["orbit-steps"]
    )
    matrix = [[torus_map.a, torus_map.b], [torus_map.c, torus_map.d]]
    eigen = classification.eigenvalues
    results = {
        "map": name,
        "matrix": matrix,
        "determinant": classification.determinant,
        "trace": classification.trace,
        "classification": classification.kind,
        "eigenvalues": {
            "real": [z.real for z in eigen],
            "imag": [z.imag for z in eigen],
        },
        "growth": {
            "seed": [seed.u, seed.v],
            "steps": p["growth-steps"],
            "time_average_final": time_average[-1],
            "per_step_final": per_step[-1],
        },
    }
    csv_specs = [
        (f"{name}_growth", ["n", "time_average_log_growth", "per_step_log_growth"],
         (steps, time_average, per_step)),
        (f"{name}_orbit", ["k", "x", "y"],
         (range(len(orbit)), [pt.x for pt in orbit], [pt.y for pt in orbit])),
    ]
    svg_specs = [
        (f"{name}_growth", steps, time_average,
         f"log growth per iteration: {name}", "iterations n", "time-average log growth"),
    ]
    return name, results, csv_specs, svg_specs, {"matrix": matrix}


def run_tube_report(cfg: RunConfig) -> tuple:
    import numpy as np
    from . import tube
    p = cfg.parameters
    with np.errstate(all="ignore"):  # each writer names a non-finite output, so no warnings
        grid = tube.RadialGrid(p["r-min"], p["r-max"], p["nodes"], p["spacing"])
        field = tube.TubeFlowField.eigen_ansatz(
            grid, p["m"], omega0=p["omega0"], rho0=p["rho0"], kappa0=p["kappa0"], gamma=p["gamma"]
        )
        r = grid.nodes
        pressure = tube.pressure_profile(r, field)
        alpha = tube.alpha_effect(r, field.m, field.kappa0, field.v_s)
        residual_p = tube.poloidal_residual(field, grid)
        residual_t = tube.toroidal_residual(field, grid)
        blowup_radii = [10.0 ** (-k) for k in range(1, 7)]
        verdict = tube.pressure_blowup_check(field, blowup_radii)
        results = {
            "grid": {"r_min": grid.r_min, "r_max": grid.r_max, "count": grid.count,
                     "spacing": grid.spacing},
            "field": {"m": field.m, "omega0": field.omega0, "rho0": field.rho0,
                      "kappa0": field.kappa0, "gamma": field.gamma},
            "eigenproblems": tube.eigenvalue_discrepancy_report(),
            "alpha_discrepancy": tube.alpha_effect_discrepancy(),
            "pressure_blowup": {"radii": blowup_radii, "verdict": verdict},
            "pressure_at_r_max": float(pressure[-1]),
        }
        csv_specs = [
            ("profiles",
             ["r", "v_s", "v_theta", "p", "alpha", "residual_poloidal", "residual_toroidal"],
             (r, field.v_s, field.v_theta, pressure, alpha, residual_p, residual_t)),
        ]
        svg_specs = [("pressure", r, pressure, "pressure profile", "r", "p(r)")]
        return "report", results, csv_specs, svg_specs, None


def run_filament_sweep(cfg: RunConfig) -> tuple:
    from . import filament
    p = cfg.parameters
    etas = p["eta"]
    if not etas:
        raise InputError("eta sweep list must be nonempty")
    params = filament.FilamentParams(
        eta=etas[0], kappa=p["kappa"], kappa_prime=p["kappa-prime"], k0=p["k0"],
        v0=p["v0"], tau=p["tau"], gamma_ref=p["gamma-ref"],
    )
    coef_a, coef_b, coef_c = params.A, params.B, params.C
    solutions = [filament.solve_growth_rate(eta, coef_a, coef_b, coef_c) for eta in etas]

    samples = [(eta, sol.roots[0]) for eta, sol in zip(etas, solutions) if sol.roots]
    tau = p["tau"]
    distinct = len({eta for eta, _ in samples})
    if tau == 0.0 or distinct >= 3:
        verdict = filament.classify_dynamo(samples, tau)
    else:
        verdict = None
    induction = filament.build_filament_matrix(params)
    results = {
        "coefficients": {"A": coef_a, "B": coef_b, "C": coef_c},
        "matrix_at_first_eta": [[induction.m11, 0.0], [0.0, induction.m22]],
        "m33_at_first_eta": induction.m33,
        "tau": tau,
        "verdict": verdict,
        "notes": sorted({note for sol in solutions for note in sol.notes}),
    }
    # each eta has 0, 1 or 2 roots; a missing one is None, which has no .real: blank cells
    pairs = [(*sol.roots, None, None)[:2] for sol in solutions]
    root_columns = [[getattr(pair[i], part, None) for pair in pairs]
                    for i in (0, 1) for part in ("real", "imag")]
    csv_specs = [
        ("sweep", ["eta", "re_gamma_1", "im_gamma_1", "re_gamma_2", "im_gamma_2", "regime"],
         (etas, *root_columns, [sol.regime for sol in solutions])),
    ]
    svg_specs, derived = [], None
    if samples:
        svg_specs.append(("sweep", [eta for eta, _ in samples], [g.real for _, g in samples],
                          "growth rate vs diffusivity", "eta", "Re gamma_1"))
    elif "svg" in cfg.formats:  # a plot needs a point; the manifest says why there is none
        derived = {"svg_omitted": "no eta of the sweep has a growth rate"}
    return "report", results, csv_specs, svg_specs, derived


def run_frenet(cfg: RunConfig) -> tuple:
    import numpy as np
    from . import frenet
    p = cfg.parameters
    span = p["s-end"] - p["s-start"]
    # RK4 on the frame's rotation eigenvalues +-i*w is stable for h*w <= 2*sqrt(2), where
    # |R(iy)|^2 = 1 - y^6/72 + y^8/576 reaches 1; past it every step amplifies the frame
    # and the re-orthonormalised frames no longer follow the curve
    taken = min(p["step"], span) * math.hypot(p["kappa0"], p["tau0"])
    if taken > _RK4_STABLE:
        raise InputError(f"--step {p['step']!r}: the step times hypot(kappa0, tau0) is "
                         f"{taken:.6g}, above RK4's stability bound 2*sqrt(2) = {_RK4_STABLE:.6g}")
    # one table row per step: the same cap as the table flags, before anything is allocated;
    # integrate_frame rejects a step that is not positive
    requested = span / p["step"] if p["step"] > 0.0 else 0.0
    if not requested <= MAX_TABLE_ROWS:
        raise InputError(f"--step {p['step']!r} from --s-start {p['s-start']!r} to --s-end "
                         f"{p['s-end']!r} asks for {requested:.10g} steps; at most "
                         f"{MAX_TABLE_ROWS} are allowed")
    with np.errstate(all="ignore"):  # as in run_tube_report
        profile = frenet.CurveProfile.constant(p["kappa0"], p["tau0"])
        trajectory = frenet.integrate_frame(
            profile, p["s-start"], p["s-end"], p["step"], frenet.FrenetFrame.canonical()
        )
        rotation = frenet.accumulated_rotation_angle(trajectory)
    results = {
        "samples": len(trajectory.arclengths),
        "max_defect": trajectory.max_defect,
        "reorthonormalizations": [
            {"s": s, "defect": defect} for s, defect in trajectory.reorthonormalizations
        ],
        "rotation_angle": rotation,
        "expected_rotation_angle": span * math.hypot(p["kappa0"], p["tau0"]),
    }
    csv_specs = [
        ("frames",
         ["s", "t1", "t2", "t3", "n1", "n2", "n3", "b1", "b2", "b3", "defect"],
         (trajectory.arclengths, *trajectory.frames.reshape(-1, 9).T, trajectory.defects)),
    ]
    svg_specs = [
        ("defect", trajectory.arclengths, trajectory.defects,
         "orthonormality defect along the curve", "s", "defect"),
    ]
    return "report", results, csv_specs, svg_specs, None


_RUNNERS = {
    "map": run_map_report,
    "tube": run_tube_report,
    "filament": run_filament_sweep,
    "frenet": run_frenet,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)  # before mkdir, so an invalid flag leaves --out untouched
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        # removed before the run, so that a run that fails leaves no manifest
        (cfg.output_dir / "manifest.json").unlink(missing_ok=True)
        _emit(cfg, *_RUNNERS[cfg.command](cfg))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: numerical overflow: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 3
    return 0
