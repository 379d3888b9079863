"""Command-line reports: torus-map spectra, tube-flow diagnostics, filament
growth-rate sweeps, and Frenet frame integrations.

One command per invocation (--command {map,tube,filament,frenet}); every run
writes manifest.json with the fully resolved parameter set, and identical
configurations produce byte-identical CSV/JSON outputs.  A manifest is
itself a valid --config input, so any run can be reproduced from its
manifest.  Runs are seed-free and deterministic.

Exit codes: 0 success, 2 invalid input, 3 output I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__, filament, frenet, maps, tube
from .reports import format_float, write_csv, write_json, write_svg_polyline

_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
_FORMATS = ("csv", "json", "svg")

__all__ = ["InputError", "RunConfig", "main"]


class InputError(ValueError):
    """User-supplied configuration is invalid (exit code 2)."""


def _eta_list(raw) -> tuple[float, ...]:
    if isinstance(raw, (tuple, list)):
        return tuple(float(x) for x in raw)
    text = str(raw).strip()
    if not text:
        return ()
    return tuple(float(token) for token in text.split(","))


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
        parser.add_argument(f"--{flag}", dest=flag.replace("-", "_"), help=help_text)
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read config file {path!r}: {exc}") from exc
    if path.endswith(".json"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"config file {path!r} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InputError(f"config file {path!r} must contain a JSON object")
        merged: dict[str, str] = {}
        if "command" in data:
            merged["command"] = str(data["command"])
        if "formats" in data:
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
    merged: dict[str, str] = {}
    if args.config:
        merged.update(_load_config_file(args.config))
    if args.command is not None:
        merged["command"] = args.command
    if args.out is not None:
        merged["out"] = args.out
    if args.format is not None:
        merged["format"] = args.format
    for flag in _ALL_FLAGS:
        value = getattr(args, flag.replace("-", "_"))
        if value is not None:
            merged[flag] = value

    command = merged.pop("command", None)
    if command is None:
        raise InputError("--command is required (or supply it in --config)")
    if command not in PARAM_SCHEMAS:
        raise InputError(f"unknown command {command!r}")
    out = merged.pop("out", None)
    if out is None:
        raise InputError("--out is required")
    format_spec = merged.pop("format", "csv,json,svg")
    formats = tuple(token.strip() for token in format_spec.split(",") if token.strip())
    if not formats:
        raise InputError("--format must name at least one of csv,json,svg")
    for fmt in formats:
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
    return RunConfig(command, parameters, Path(out), formats)


def _canonical(value) -> str:
    if isinstance(value, tuple):
        return ",".join(format_float(v) for v in value)
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _manifest(cfg: RunConfig, derived: dict | None = None) -> dict:
    doc = {
        "toolkit_version": __version__,
        "command": cfg.command,
        "formats": list(cfg.formats),
        "parameters": {key: _canonical(value) for key, value in sorted(cfg.parameters.items())},
    }
    if derived:
        doc["derived"] = derived
    return doc


def _emit(cfg: RunConfig, manifest: dict, results: dict, name: str, csv_specs, svg_specs) -> None:
    """Write the requested csv/json/svg files, then manifest.json.

    An earlier manifest is removed first, so a run that fails part-way leaves none.
    """
    manifest_path = cfg.output_dir / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    if "json" in cfg.formats:
        write_json(cfg.output_dir / f"{cfg.command}_{name}.json",
                   {"manifest": manifest, "results": results})
    if "csv" in cfg.formats:
        for suffix, header, rows in csv_specs:
            write_csv(cfg.output_dir / f"{cfg.command}_{suffix}.csv", header, rows)
    if "svg" in cfg.formats:
        for suffix, xs, ys, title, x_label, y_label in svg_specs:
            write_svg_polyline(cfg.output_dir / f"{cfg.command}_{suffix}.svg", xs, ys,
                               title=title, x_label=x_label, y_label=y_label)
    write_json(manifest_path, manifest)


def run_map_report(cfg: RunConfig) -> None:
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

    growth_rows = []
    for n in range(1, p["growth-steps"] + 1):
        growth_rows.append(
            (n, maps.growth_rate(torus_map, seed, n), maps.growth_rate_per_step(torus_map, seed, n))
        )
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
            "time_average_final": growth_rows[-1][1],
            "per_step_final": growth_rows[-1][2],
        },
    }
    csv_specs = [
        (f"{name}_growth", ["n", "time_average_log_growth", "per_step_log_growth"], growth_rows),
        (f"{name}_orbit", ["k", "x", "y"], [(k, pt.x, pt.y) for k, pt in enumerate(orbit)]),
    ]
    svg_specs = [
        (f"{name}_growth", [row[0] for row in growth_rows], [row[1] for row in growth_rows],
         f"log growth per iteration: {name}", "iterations n", "time-average log growth"),
    ]
    _emit(cfg, _manifest(cfg, derived={"matrix": matrix}), results, name, csv_specs, svg_specs)


def run_tube_report(cfg: RunConfig) -> None:
    p = cfg.parameters
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
    profile_rows = list(
        zip(r, field.v_s, field.v_theta, pressure, alpha, residual_p, residual_t)
    )
    csv_specs = [
        ("profiles",
         ["r", "v_s", "v_theta", "p", "alpha", "residual_poloidal", "residual_toroidal"],
         profile_rows),
    ]
    svg_specs = [
        ("pressure", list(r), list(pressure), "pressure profile", "r", "p(r)"),
    ]
    _emit(cfg, _manifest(cfg), results, "report", csv_specs, svg_specs)


def run_filament_sweep(cfg: RunConfig) -> None:
    p = cfg.parameters
    etas = p["eta"]
    if not etas:
        raise InputError("eta sweep list must be nonempty")
    param_sets = [
        filament.FilamentParams(
            eta=eta, kappa=p["kappa"], kappa_prime=p["kappa-prime"], k0=p["k0"],
            v0=p["v0"], tau=p["tau"], gamma_ref=p["gamma-ref"],
        )
        for eta in etas
    ]
    coef_a, coef_b, coef_c = param_sets[0].A, param_sets[0].B, param_sets[0].C
    solutions = [filament.solve_growth_rate(fp.eta, coef_a, coef_b, coef_c)
                 for fp in param_sets]

    rows = []
    samples = []
    for fp, sol in zip(param_sets, solutions):
        gammas = list(sol.roots) + [None] * (2 - len(sol.roots))
        rows.append((
            fp.eta,
            None if gammas[0] is None else gammas[0].real,
            None if gammas[0] is None else gammas[0].imag,
            None if gammas[1] is None else gammas[1].real,
            None if gammas[1] is None else gammas[1].imag,
            sol.regime,
        ))
        if sol.roots:
            samples.append((fp.eta, sol.roots[0]))
    tau = p["tau"]
    distinct = len({eta for eta, _ in samples})
    if tau == 0.0 or distinct >= 3:
        verdict = filament.classify_dynamo(samples, tau)
    else:
        verdict = None
    induction = filament.build_filament_matrix(param_sets[0])
    results = {
        "coefficients": {"A": coef_a, "B": coef_b, "C": coef_c},
        "matrix_at_first_eta": [list(row) for row in induction.matrix.tolist()],
        "m33_at_first_eta": induction.m33,
        "tau": tau,
        "verdict": verdict,
        "notes": sorted({note for sol in solutions for note in sol.notes}),
    }
    csv_specs = [
        ("sweep", ["eta", "re_gamma_1", "im_gamma_1", "re_gamma_2", "im_gamma_2", "regime"], rows),
    ]
    plot_points = [(eta, gamma.real) for eta, gamma in samples]
    svg_specs = []
    if plot_points:
        svg_specs.append(("sweep", [pt[0] for pt in plot_points], [pt[1] for pt in plot_points],
                          "growth rate vs diffusivity", "eta", "Re gamma_1"))
    _emit(cfg, _manifest(cfg), results, "report", csv_specs, svg_specs)


def run_frenet(cfg: RunConfig) -> None:
    p = cfg.parameters
    profile = frenet.CurveProfile.constant(p["kappa0"], p["tau0"])
    trajectory = frenet.integrate_frame(
        profile, p["s-start"], p["s-end"], p["step"], frenet.FrenetFrame.canonical()
    )
    rows = []
    for s, frame in trajectory.samples:
        rows.append((s, *frame.t, *frame.n, *frame.b, frame.orthonormality_defect()))
    rotation = frenet.accumulated_rotation_angle(trajectory)
    span = p["s-end"] - p["s-start"]
    results = {
        "samples": len(trajectory.samples),
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
         rows),
    ]
    svg_specs = [
        ("defect", [row[0] for row in rows], [row[-1] for row in rows],
         "orthonormality defect along the curve", "s", "defect"),
    ]
    _emit(cfg, _manifest(cfg), results, "report", csv_specs, svg_specs)


_RUNNERS = {
    "map": run_map_report,
    "tube": run_tube_report,
    "filament": run_filament_sweep,
    "frenet": run_frenet,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {cfg.output_dir}: {exc}", file=sys.stderr)
        return 3
    try:
        _RUNNERS[cfg.command](cfg)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
