"""Benchmark workloads: inputs drawn from a seed, one request, and its output gate.

A request is a fixed batch of calls, so every request of a workload does the
same work.  The seed draws physical parameters only (curvature and torsion,
map family and shear, inner radius, the diffusivity sweep, the amplitudes of
the variable Frenet profile).  Step counts, node counts, growth steps and the
commands of a session never change with it.  The program sees only the
generated argv and profile objects.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent

FRAME_TOL = 1e-8
ANGLE_TOL = 1e-7
GROWTH_TOL = 1e-6
TWIST_TOL = 1e-8


def draw_params(seed: int) -> dict:
    """Physical parameters of every workload, drawn from fixed ranges.

    The ranges keep every check passable: hyperbolic unit-determinant maps
    (so the per-step growth converges to ln|lambda1|), a positive inner
    radius, ten distinct positive diffusivities, and kappa(s) = a + b sin s
    that stays positive.
    """
    rng = random.Random(seed)
    return {
        "kappa0": rng.uniform(0.5, 1.5),
        "tau0": rng.uniform(0.5, 1.5),
        "map": rng.choice(("cat", "cat-shear")),
        "shear_k": rng.randint(1, 4),
        "r_min": 10.0 ** rng.uniform(-8.0, -5.0),
        "etas": sorted(rng.uniform(0.05, 2.0) for _ in range(10)),
        "a": rng.uniform(1.0, 1.5),
        "b": rng.uniform(0.1, 0.5),
        "c": rng.uniform(0.5, 1.5),
    }


def _load_results(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["results"]


def _csv_rows(path: Path) -> int:
    return path.read_bytes().count(b"\n") - 1


def check_map(out: Path, name: str, rows: int | None = None) -> list[str]:
    results = _load_results(out / f"map_{name}.json")
    problems = []
    eigen = results["eigenvalues"]
    expected = math.log(math.hypot(eigen["real"][0], eigen["imag"][0]))
    per_step = results["growth"]["per_step_final"]
    if not abs(per_step - expected) <= GROWTH_TOL:
        problems.append(f"map: per-step growth {per_step!r} is not ln|lambda1| = {expected!r}")
    if results["determinant"] != 1.0:
        problems.append(f"map: determinant {results['determinant']!r} is not 1")
    if rows is not None and _csv_rows(out / f"map_{name}_growth.csv") != rows:
        problems.append(f"map: growth table does not have {rows} rows")
    return problems


def check_tube(out: Path, rows: int | None = None) -> list[str]:
    results = _load_results(out / "tube_report.json")
    problems = []
    derived = results["eigenproblems"]["derived-elimination"]
    if sorted(derived["roots_real"]) != [-1.0, 2.0] or any(derived["roots_imag"]):
        problems.append(f"tube: derived roots are not {{2, -1}}: {derived}")
    if results["eigenproblems"]["consistent"] is not False:
        problems.append("tube: eigenproblem mismatch is not flagged (consistent is not false)")
    if results["alpha_discrepancy"]["consistent"] is not False:
        problems.append("tube: alpha-factor mismatch is not flagged (consistent is not false)")
    if results["pressure_blowup"]["verdict"] != "divergent":
        problems.append("tube: pressure blow-up is not divergent")
    if rows is not None and _csv_rows(out / "tube_profiles.csv") != rows:
        problems.append(f"tube: profile table does not have {rows} rows")
    return problems


def check_filament(out: Path) -> list[str]:
    verdict = _load_results(out / "filament_report.json")["verdict"]
    return [] if verdict == "slow" else [f"filament: verdict {verdict!r} is not 'slow'"]


def check_frenet(out: Path, kappa0: float, tau0: float, span: float) -> list[str]:
    results = _load_results(out / "frenet_report.json")
    problems = []
    if not results["max_defect"] < FRAME_TOL:
        problems.append(f"frenet: max defect {results['max_defect']!r} >= {FRAME_TOL}")
    expected = span * math.hypot(kappa0, tau0)
    if not abs(results["rotation_angle"] - expected) <= ANGLE_TOL:
        problems.append(f"frenet: rotation angle {results['rotation_angle']!r} is not {expected!r}")
    return problems


def check_reorthonormalized(out: Path) -> list[str]:
    if _load_results(out / "frenet_report.json")["reorthonormalizations"]:
        return []
    return ["frenet: coarse run recorded no re-orthonormalisation event"]


@dataclass(frozen=True)
class Run:
    """One dynamokit CLI invocation of a request and the checks on its outputs."""

    label: str
    argv: tuple[str, ...]
    files: tuple[str, ...]
    check: Callable[[Path], list[str]]

    def verify(self, out: Path) -> list[str]:
        missing = [name for name in self.files if not (out / name).is_file()]
        if missing:
            return [f"{self.label}: missing {', '.join(missing)}"]
        try:
            return self.check(out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{self.label}: unreadable output: {type(exc).__name__}: {exc}"]


def map_run(p: dict, growth_steps: int | None = None) -> Run:
    name = p["map"]
    argv = ("--command", "map", "--map", name, "--shear-k", str(p["shear_k"]))
    if growth_steps is not None:
        argv += ("--growth-steps", str(growth_steps))
    files = ("manifest.json", f"map_{name}.json", f"map_{name}_growth.csv",
             f"map_{name}_orbit.csv", f"map_{name}_growth.svg")
    return Run("map", argv, files, lambda out: check_map(out, name, growth_steps))


def tube_run(p: dict, nodes: int | None = None) -> Run:
    argv = ("--command", "tube", "--r-min", repr(p["r_min"]))
    if nodes is not None:
        argv += ("--nodes", str(nodes))
    files = ("manifest.json", "tube_report.json", "tube_profiles.csv", "tube_pressure.svg")
    return Run("tube", argv, files, lambda out: check_tube(out, nodes))


def filament_run(p: dict) -> Run:
    argv = ("--command", "filament", "--eta", ",".join(repr(eta) for eta in p["etas"]))
    files = ("manifest.json", "filament_report.json", "filament_sweep.csv", "filament_sweep.svg")
    return Run("filament", argv, files, check_filament)


FRENET_FILES = ("manifest.json", "frenet_report.json", "frenet_frames.csv", "frenet_defect.svg")


def frenet_run(label: str, kappa0: float, tau0: float, s_end: float, step: float,
               check: Callable[[Path], list[str]] | None = None) -> Run:
    argv = ("--command", "frenet", "--kappa0", repr(kappa0), "--tau0", repr(tau0),
            "--s-end", repr(s_end), "--step", repr(step))
    if check is None:
        check = lambda out: check_frenet(out, kappa0, tau0, s_end)  # noqa: E731
    return Run(label, argv, FRENET_FILES, check)


def output_digest(dirs) -> str:
    """SHA-256 over the names and bytes of every CSV and JSON file in dirs."""
    digest = hashlib.sha256()
    for directory in dirs:
        for path in sorted(Path(directory).iterdir()):
            if path.suffix in (".csv", ".json"):
                digest.update(f"{directory.name}/{path.name}\n".encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def run_child(cmd: list[str], env: dict) -> tuple[int, int, str]:
    """Run cmd to completion; return its exit code, peak RSS in KiB and stderr."""
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    with proc.stderr:
        err = proc.stderr.read().decode("utf-8", "replace")
    _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss, err


def own_peak_rss_kib() -> int:
    """Peak resident memory of this process, in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Session:
    """A request made of dynamokit CLI runs, each writing into its own directory."""

    warmup = True

    def __init__(self, runs: list[Run]):
        self.runs = runs

    def invoke(self, run: Run, out: Path, tracer) -> tuple[int, str]:
        raise NotImplementedError

    def request(self, out: Path, tracer):
        return out, {run.label: self.invoke(run, out, tracer) for run in self.runs}

    def check(self, result) -> tuple[list[str], str]:
        """Problems found in the outputs, and their digest when there are none."""
        out, codes = result
        problems = []
        for run in self.runs:
            code, err = codes[run.label]
            if code != 0:
                problems.append(f"{run.label}: exit code {code}: {err.strip()[-300:]}")
            else:
                problems += run.verify(out / run.label)
        if problems:
            return problems, ""
        return problems, output_digest(out / run.label for run in self.runs)


class ColdSession(Session):
    """Each CLI run is a fresh `python -m dynamokit` process."""

    warmup = False

    def __init__(self, runs: list[Run], root: Path):
        super().__init__(runs)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.peak_child_kib = 0

    def invoke(self, run, out, tracer):
        argv = [*run.argv, "--out", str(out / run.label)]
        if tracer is None:
            code, rss, err = run_child([sys.executable, "-m", "dynamokit", *argv], self.env)
            self.peak_child_kib = max(self.peak_child_kib, rss)
            return code, err
        spans_path = out / f"{run.label}.spans.json"
        with tracer.span(f"process.{run.label}") as index:
            code, _rss, err = run_child(
                [sys.executable, str(HERE / "child.py"), str(spans_path), *argv], self.env)
        if spans_path.is_file():
            doc = json.loads(spans_path.read_text(encoding="utf-8"))
            tracer.adopt(doc["spans"], index, doc["counts"], doc["bytes_per_sample"])
        return code, err

    def peak_rss_kib(self) -> int:
        return self.peak_child_kib


class WarmSession(Session):
    """Each CLI run is `dynamokit.cli.main` called in this process."""

    def __init__(self, runs: list[Run]):
        super().__init__(runs)
        from dynamokit import cli

        self.cli = cli

    def invoke(self, run, out, tracer):
        return self.cli.main([*run.argv, "--out", str(out / run.label)]), ""

    def peak_rss_kib(self) -> int:
        return own_peak_rss_kib()


class FrenetVariable:
    """Library calls on a variable-curvature, variable-torsion profile; no file I/O."""

    warmup = True
    S_END = 10.0
    STEP = 1e-3

    def __init__(self, p: dict):
        from dynamokit import frenet

        self.frenet = frenet
        a, b, c = p["a"], p["b"], p["c"]
        self.c = c
        self.profile = frenet.CurveProfile(kappa=lambda s: a + b * math.sin(s),
                                           tau=lambda s: c * math.cos(s))

    def request(self, out: Path, tracer):
        f = self.frenet
        trajectory = f.integrate_frame(self.profile, 0.0, self.S_END, self.STEP,
                                       f.FrenetFrame.canonical())
        theta = f.accumulated_rotation_angle(trajectory)
        return trajectory, theta, f.twist_angle(theta, self.profile, self.S_END)

    def check(self, result) -> tuple[list[str], str]:
        trajectory, theta, twist = result
        problems = []
        expected = theta - self.c * math.sin(self.S_END)
        if not abs(twist - expected) <= TWIST_TOL:
            problems.append(f"twist angle {twist!r} is not theta_R - c sin s = {expected!r}")
        final = trajectory.final_frame
        defect = max(final.orthonormality_defect(),
                     float(np.max(np.abs(final.b - np.cross(final.t, final.n)))))
        if not defect <= FRAME_TOL:
            problems.append(f"final frame defect {defect!r} > {FRAME_TOL}")
        digest = hashlib.sha256(repr((theta, twist, trajectory.max_defect,
                                      trajectory.reorthonormalizations)).encode())
        for s, frame in trajectory.samples:
            digest.update(repr(s).encode())
            digest.update(np.stack([frame.t, frame.n, frame.b]).tobytes())
        return problems, digest.hexdigest()

    def peak_rss_kib(self) -> int:
        return own_peak_rss_kib()


def cli_cold(p: dict, root: Path) -> ColdSession:
    return ColdSession([map_run(p), tube_run(p), filament_run(p),
                        frenet_run("frenet", p["kappa0"], p["tau0"], 1.0, 0.01)], root)


def frenet_helix(p: dict, root: Path) -> WarmSession:
    return WarmSession([
        frenet_run("helix", p["kappa0"], p["tau0"], 10.0, 1e-3),
        frenet_run("coarse", 3.0, 0.0, 100.0, 0.05, check=check_reorthonormalized),
    ])


def frenet_variable(p: dict, root: Path) -> FrenetVariable:
    return FrenetVariable(p)


def large_tables(p: dict, root: Path) -> WarmSession:
    return WarmSession([map_run(p, growth_steps=2000), tube_run(p, nodes=100000)])


WORKLOADS = {
    "cli-cold": cli_cold,
    "frenet-helix": frenet_helix,
    "frenet-variable": frenet_variable,
    "large-tables": large_tables,
}
