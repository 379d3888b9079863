"""dynamokit benchmark: one closed-loop client per workload, outputs checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one request at a time (closed loop, no threads) for S
seconds, after one untimed warm-up request on the warm workloads.  Every
request's outputs are checked after its clock stops, and must be identical to
the first request's.  Workloads (see workloads.py and BENCHMARK.json):
cli-cold, frenet-helix, frenet-variable, large-tables.

--trace 0 prints the end-to-end metrics.  --trace 1 runs S/2 seconds
untraced, then S/2 seconds with every public layer function wrapped in a
span, and prints the per-layer metrics, each the median over the traced
requests.  The spans, counts and environment of a traced run are written to
.perfbench-traces/<workload>-seed<N>.json when it ends; a count that differs
from the previous traced run of the same sources and seed is a failure.

Standard output ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}.  The lines before it give the environment, each metric with its
unit, and three figures outside the result line: latency_p50_s,
latency_tail_s (with its percentile and sample count) and error_rate.  Exit status:
0 when every check passed, 1 when one failed, 2 when the checkout holds no
dynamokit sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 5
IMPORT_PROBE_REPEATS = 3

# The end-to-end metrics of the result line.  Three more are printed above it
# and left out of it.  latency_p50_s: with one client in a closed loop,
# throughput is the reciprocal of the mean latency, so a bound on both would
# count one slowdown twice.  latency_tail_s: see tail().  error_rate: 0 while
# the program is correct, so it has no median to bound; the result line
# carries it as failed / attempted.
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Span names whose self time is reported, and those whose call count is.
SELF_TIMED = (
    "frenet.integrate_frame", "frenet.accumulated_rotation_angle", "frenet.twist_angle",
    "maps.growth_rate", "maps.growth_rate_per_step", "maps.iterate_orbit", "maps.classify",
    "tube.eliminate_eigenvalue", "tube.eigenvalue_discrepancy_report", "tube.poloidal_residual",
    "tube.toroidal_residual", "tube.pressure_profile", "tube.alpha_effect",
    "finitediff.derivative_uniform", "finitediff.second_derivative_uniform",
    "filament.solve_growth_rate", "filament.classify_dynamo", "filament.build_filament_matrix",
    "reports.write_csv", "reports.write_svg_polyline", "reports.write_json",
)
CALL_COUNTED = (
    "maps.growth_rate", "tube.eliminate_eigenvalue", "finitediff.derivative_uniform",
    "finitediff.second_derivative_uniform", "filament.solve_growth_rate",
)
# Counts taken at the layer boundaries; each must repeat exactly.
COUNTED = (
    "frenet.steps", "frenet.reorth_events", "maps.iterations_attempted",
    "reports.write_csv.rows", "reports.write_csv.bytes",
    "reports.write_svg_polyline.points", "reports.write_svg_polyline.bytes",
    "reports.write_json.bytes",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {"import.sympy_s": "s", "import.numpy_s": "s", "cli.main.s": "s", "cli.self_s": "s"}
    units.update({f"{name}.self_s": "s" for name in SELF_TIMED})
    units.update({f"{name}.calls": "count" for name in CALL_COUNTED})
    units.update({name: "count" for name in COUNTED})
    units.update({"frenet.s_per_step": "s", "frenet.bytes_per_sample": "B",
                  "maps.useful_ratio": "ratio", "trace.overhead_s": "s"})
    units.update({f"layer.{layer}.share": "ratio" for layer in tracing.LAYERS})
    return units


class Phase:
    """Requests sent in one stretch of the closed loop."""

    def __init__(self):
        self.latencies: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0

    def add(self, elapsed: float, problems: list[str]) -> None:
        self.attempted += 1
        self.busy += elapsed
        if problems:
            self.failed += 1
        else:
            self.latencies.append(elapsed)


class Loop:
    """Closed loop over one workload: send a request, wait, check, repeat."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.reference: str | None = None
        self.index = 0

    def step(self, tracer=None) -> tuple[float, list[str]]:
        out = self.work / f"request-{self.index}"
        out.mkdir()
        if tracer is not None:
            tracer.request = self.index
        self.index += 1
        start = time.perf_counter()
        try:
            with tracer.span("request") if tracer is not None else nullcontext():
                result = self.workload.request(out, tracer)
        except Exception as exc:  # a failed request is counted, not fatal
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            problems = [f"request raised {type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - start
            problems, digest = self.workload.check(result)
            if not problems:
                if self.reference is None:
                    self.reference = digest
                elif digest != self.reference:
                    problems.append("outputs differ from the first request's")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        for problem in problems:
            print(f"request {self.index - 1} failed: {problem}", file=sys.stderr)
        return elapsed, problems

    def run(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        begin = time.perf_counter()
        while True:
            phase.add(*self.step(tracer))
            if time.perf_counter() - begin >= seconds:
                return phase


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  With ten samples or fewer no sample has ten
    beyond it; the lowest sample is then the closest to that rule.  A run of a
    few dozen requests puts this percentile near the median, so the value is
    printed with its percentile and sample count but carries no bound.
    """
    ordered = sorted(latencies)
    index = max(0, len(ordered) - 11)
    percentile = 100.0 * index / (len(ordered) - 1) if len(ordered) > 1 else 0.0
    return ordered[index], percentile


def setup_time(env: dict) -> float:
    """Median wall time of a fresh interpreter running `import dynamokit`."""
    cmd = [sys.executable, "-c", "import dynamokit"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_time(module: str) -> float:
    """Median time of `import module` alone, each in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(IMPORT_PROBE_REPEATS)
    )


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\n" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "sympy": metadata.version("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
    }


def layer_metrics(tracer: tracing.Tracer, plain: Phase, traced: Phase) -> tuple[dict, dict]:
    """Per-layer metrics of the traced requests, and the counts that must repeat.

    Times and ratios are medians over the requests; a count is the first
    request's, and any request whose count differs is reported as drift.
    """
    table = tracing.per_request(tracer.spans)
    requests = sorted(r for r in table if "request" in table[r])
    rows = []
    for r in requests:
        spans = table[r]
        tally = tracer.counts.get(r, {})

        def self_of(name, spans=spans):
            return spans[name]["self"] if name in spans else 0.0

        layer_self = {layer: 0.0 for layer in tracing.LAYERS}
        for name, entry in spans.items():
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += entry["self"]
        wall = spans["request"]["total"]
        steps = tally.get("frenet.steps", 0)
        attempted = tally.get("maps.iterations_attempted", 0)
        row = {
            "cli.main.s": spans["cli.main"]["total"] if "cli.main" in spans else 0.0,
            "cli.self_s": layer_self["cli"],
            "frenet.s_per_step": self_of("frenet.integrate_frame") / steps if steps else 0.0,
            "maps.useful_ratio": tally.get("maps.table_rows", 0) / attempted if attempted else 0.0,
        }
        row.update({f"{name}.self_s": self_of(name) for name in SELF_TIMED})
        row.update({f"{name}.calls": spans[name]["calls"] if name in spans else 0
                    for name in CALL_COUNTED})
        row.update({name: tally.get(name, 0) for name in COUNTED})
        row.update({f"layer.{layer}.share": layer_self[layer] / wall for layer in tracing.LAYERS})
        rows.append(row)
    counts = {key: rows[0][key] for key in rows[0]
              if key in COUNTED or key.endswith(".calls")}
    drift = [f"count {key} differs between traced requests"
             for key in counts for row in rows[1:] if row[key] != counts[key]]
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in rows[0] if name not in counts}
    metrics.update(counts)
    metrics["frenet.bytes_per_sample"] = tracer.bytes_per_sample
    metrics["trace.overhead_s"] = (statistics.median(traced.latencies)
                                   - statistics.median(plain.latencies))
    return metrics, {"counts": counts, "drift": drift}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dynamokit" / "__init__.py").is_file():
        print(f"error: no dynamokit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def measure(args, work: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env_record = environment()
    params = workloads.draw_params(args.seed)
    setup = None if args.trace else setup_time(env)
    workload = workloads.WORKLOADS[args.workload](params, ROOT)
    loop = Loop(workload, work)
    warm = Phase()
    if workload.warmup:
        warm.add(*loop.step())

    if not args.trace:
        measured = [loop.run(args.seconds)]
    else:
        tracer = tracing.Tracer()
        plain = loop.run(args.seconds / 2)
        tracer.install()
        try:
            traced = loop.run(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        measured = [plain, traced]
    if not all(phase.latencies for phase in measured):
        print("error: every request of a measured phase failed", file=sys.stderr)
        return 1

    drift: list[str] = []
    if not args.trace:
        (phase,) = measured
        value, percentile = tail(phase.latencies)
        metrics = {
            "setup_s": setup,
            "throughput_per_s": len(phase.latencies) / phase.busy,
            "peak_rss_mb": workload.peak_rss_kib() / 1024.0,
        }
        units = END_TO_END_UNITS
        notes = [f"latency_p50_s = {statistics.median(phase.latencies):.6g} s",
                 f"latency_tail_s = {value:.6g} s, p{percentile:.4g} of "
                 f"{len(phase.latencies)} samples"]
    else:
        tracer.memory_probe()
        metrics, record = layer_metrics(tracer, plain, traced)
        metrics["import.sympy_s"] = import_time("sympy")
        metrics["import.numpy_s"] = import_time("numpy")
        units = per_layer_units()
        drift = record["drift"] + write_trace(args, env_record, params, tracer, metrics,
                                              record["counts"])
        notes = drift

    phases = [warm, *measured]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    correct = failed == 0 and not drift
    print("# env " + json.dumps(env_record, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed}: error_rate {failed / attempted:.6g} "
          f"({failed} of {attempted} requests failed)")
    for note in notes:
        print(f"# {note}")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def write_trace(args, env_record: dict, params: dict, tracer: tracing.Tracer,
                metrics: dict, counts: dict) -> list[str]:
    """Write the traced run out; return the counts that differ from the last one."""
    trace_dir = ROOT / ".perfbench-traces"
    trace_dir.mkdir(exist_ok=True)
    path = trace_dir / f"{args.workload}-seed{args.seed}.json"
    source = env_record["source_sha256"]
    drift = []
    if path.is_file():
        previous = json.loads(path.read_text(encoding="utf-8"))
        if previous["environment"]["source_sha256"] == source:
            drift = [f"count {key} is {value} here but {previous['counts'].get(key)} "
                     f"in the previous traced run"
                     for key, value in counts.items() if previous["counts"].get(key) != value]
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "params": params,
        "environment": env_record,
        "counts": counts,
        "metrics": metrics,
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return drift


if __name__ == "__main__":
    sys.exit(main())
