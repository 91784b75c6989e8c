"""Benchmark of the jumpwalk CLI on three acceptance-sweep workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload poisson1_sweep --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all               # every workload, both modes

``--trace 0`` runs ``python -m jumpwalk.cli`` as a child process, one at a
time (a closed loop with one client), with ``src`` on ``PYTHONPATH``, and
reports end-to-end metrics: medians over as many runs as fit in
``--seconds``, each paired with the same command from the frozen control
copy (see ``CONTROL``).  ``--trace 1`` calls ``jumpwalk.cli.main`` in this process
with span wrappers installed (see ``tracing.py``) and reports per-layer
metrics.  Every output is checked against ``references.json``, recorded
at the benchmark's first commit by ``record.py``.

The workload seed ``s`` selects master seed ``REFERENCE_SEEDS[s % 16]``:
``s % 16 == 0`` is the CLI's default seed 42 and ``s % 16 == 1`` the
held-out seed.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; per-run samples,
the environment block and the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import LAYER_TARGETS, POINT_TARGETS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCES = Path(__file__).resolve().parent / "references.json"
# CONTROL is a frozen copy of src/jumpwalk as it was when the benchmark was
# written.  Every end-to-end sample of the program is paired with the same
# command run from CONTROL, and times are reported as program/control ratios
# times the control's recorded median (references.json, "control").  The
# 2-core host the benchmark was written on drifts in speed by 10-22% between
# 35-second runs; pairing cancels the drift (spread 2.5% against 10% unpaired
# on static_sweep).  At the benchmark's first commit program and control are
# the same code, so the metrics read the control's recorded times.
CONTROL = Path(__file__).resolve().parent / "control"

TOLERANCE = 1e-12  # relative rounding allowance on recorded outputs
REFERENCE_SEEDS = [42, 4024, *range(101, 115)]
MIN_RUNS = 3  # end-to-end samples per run, however short --seconds is
SETUP_N = 1
# Set-up runs measure fixed costs (start, imports, truncate, pool start) and
# use one master seed whatever the workload seed: at n=1 some seeds draw an
# all-zero jump sequence, whose zero dispersion the fit rejects with exit 3.
SETUP_SEED = 42
EXIT_ERROR = 2


@dataclass(frozen=True)
class Workload:
    """One CLI configuration of the acceptance suite at a reduced n."""

    name: str
    command: tuple[str, ...]  # subcommand and flags other than grid/n/seed/out/workers
    grid: str
    setup_grid: str  # the first two grid points; a one-point grid cannot be fitted
    n: int
    workers: int
    laws: int
    output: str  # CSV whose values are gated against the references

    @property
    def t_max(self) -> int:
        return int(self.grid.split(":")[1])

    @property
    def grid_points(self) -> int:
        start, stop, rule = self.grid.split(":")
        return len(range(int(start), int(stop) + 1, int(rule[1:])))

    def argv(self, seed: int, out: Path, *, n=None, grid=None, workers=None) -> list[str]:
        return [
            *self.command,
            "--grid", grid or self.grid,
            "--n", str(n or self.n),
            "--seed", str(seed),
            "--workers", str(workers or self.workers),
            "--out", str(out),
        ]

    def realizations(self, n: int) -> int:
        return self.laws * self.grid_points * n


WORKLOADS = {
    w.name: w
    for w in [
        Workload("poisson1_sweep",
                 ("sweep", "--dist", "poisson:lambda=1.0", "--paper-poisson1"),
                 "4:24:+2", "4:6:+2", n=400, workers=1, laws=1, output="points"),
        Workload("static_sweep", ("static-sweep", "--paper-poisson1"),
                 "2:40:+2", "2:4:+2", n=60, workers=1, laws=1, output="points"),
        Workload("classes_table_parallel", ("table-classes",),
                 "4:24:+2", "4:6:+2", n=100, workers=2, laws=6, output="table_classes"),
    ]
}

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s",
    "realizations_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "distributions.truncate_s": "s", "distributions.r_max": "count",
    "ensemble.sample_s": "s", "ensemble.sample_calls": "count", "ensemble.seed_s": "s",
    "ensemble.self_s": "s", "ensemble.pool_spawn_s": "s", "ensemble.pool_overhead_s": "s",
    "ensemble.parallel_efficiency": "ratio", "ensemble.pool_serial_s": "s",
    "ensemble.pool_parallel_s": "s",
    "walk.evolve_s": "s", "walk.evolve_calls": "count", "walk.steps": "count",
    "walk.useful_step_ratio": "ratio", "walk.cell_updates": "count",
    "walk.bytes_moved_computed": "B", "walk.ns_per_cell_update": "ns",
    "walk.renorm_ratio": "ratio", "walk.max_norm_dev": "ratio", "walk.reduce_s": "s",
    "scaling.std_dev_s": "s", "scaling.fit_s": "s", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
    "trace.attributed_share": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing program or references)."""


# --------------------------------------------------------------------------
# Outputs and references


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def gated_values(wl: Workload, prefix: Path) -> dict[str, float]:
    """Values checked against the references: mean_sigma per T, or exponent per law."""
    rows = _read_csv(Path(f"{prefix}_{wl.output}.csv"))
    if wl.output == "points":
        return {row["T"]: float(row["mean_sigma"]) for row in rows}
    return {row["dist_spec"]: float(row["exponent"]) for row in rows}


def readings(wl: Workload, prefix: Path) -> dict:
    """Fitted alpha per law and the static plateau window; reported, never gated."""
    if wl.output == "table_classes":
        return {"alpha": {spec: -e for spec, e in gated_values(wl, prefix).items()}}
    if wl.command[0] == "static-sweep":
        tail = [v for t, v in gated_values(wl, prefix).items() if int(t) >= 10]
        return {"plateau": [min(tail), max(tail)]}
    row = _read_csv(Path(f"{prefix}_fit.csv"))[0]
    return {"alpha": {row["dist_spec"]: float(row["alpha"])}}


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= TOLERANCE * abs(ref)


def compare(values: dict[str, float], ref: dict[str, float]) -> tuple[int, int]:
    """(attempted, failed) for one output against its reference mapping."""
    failed = sum(1 for k, r in ref.items() if k not in values or not _close(values[k], r))
    return len(ref), failed


def compare_points(points, ref_points) -> tuple[int, int]:
    """(attempted, failed) for per-point (dist_spec, T, mean_sigma) in call order."""
    failed = abs(len(points) - len(ref_points))
    for (spec, t, ms), (rspec, rt, rms) in zip(points, ref_points):
        failed += not (spec == rspec and t == rt and _close(ms, rms))
    return len(ref_points), failed


def master_seed(seed: int) -> int:
    return REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


def load_reference(wl: Workload, master: int, path: Path = REFERENCES) -> tuple[dict, dict]:
    """(outputs reference at ``master``, control reference times) for ``wl``."""
    try:
        refs = json.loads(path.read_text())
        ref = refs["workloads"][wl.name][str(master)], refs["control"][wl.name]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no reference for {wl.name} at master seed {master} in {path}: {exc!r}")
    if refs.get("n", {}).get(wl.name) != wl.n:
        raise BenchError(f"references for {wl.name} were recorded at another n")
    return ref


# --------------------------------------------------------------------------
# Environment


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "jumpwalk").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


_NUMPY_INFO = """
import json, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except (TypeError, KeyError, ValueError):
    blas = "unknown"
print(json.dumps({"numpy": numpy.__version__, "blas": blas}))
"""


def environment() -> dict:
    # numpy is queried in a child so that this process stays small: a child's
    # ru_maxrss includes the parent's resident size at spawn (Linux exec).
    proc = subprocess.run([sys.executable, "-c", _NUMPY_INFO], capture_output=True, text=True)
    numpy_info = json.loads(proc.stdout) if proc.returncode == 0 else {"numpy": "unavailable"}
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **numpy_info,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


# --------------------------------------------------------------------------
# Untraced runs: one CLI child process at a time


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    returncode: int


def run_cli(argv: list[str], log: Path, src: Path = SRC) -> Sample:
    """Run ``python -m jumpwalk.cli argv`` from ``src``; rusage covers the CLI and its reaped workers."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "jumpwalk.cli", *argv],
                                cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def _log_tail(log: Path) -> str:
    return "\n".join(log.read_text().splitlines()[-5:])


def setup_argv(wl: Workload, out: Path, workers=None) -> list[str]:
    return wl.argv(SETUP_SEED, out, n=SETUP_N, grid=wl.setup_grid, workers=workers)


def end_to_end(wl: Workload, seed: int, seconds: float, out: Path, ref: dict,
               control_ref: dict) -> dict:
    """Paired runs of the program and the frozen control; see CONTROL."""
    master = master_seed(seed)
    for src in (SRC, CONTROL):
        warm = run_cli(setup_argv(wl, out / "setup"), out / "setup.log", src)
        if warm.returncode != 0:
            raise BenchError(f"set-up command under {src} exited {warm.returncode}:\n"
                             f"{_log_tail(out / 'setup.log')}")
    runs = {key: [] for key in ("full", "control", "setup", "control_setup")}
    attempted = failed = 0
    reading = {}
    start = time.monotonic()
    # Start another iteration only if it should end by the deadline.
    while len(runs["full"]) < MIN_RUNS or \
            time.monotonic() + (time.monotonic() - start) / len(runs["full"]) < start + seconds:
        # each pair runs back to back; alternate which side goes first
        sides = [(SRC, "full", "setup"), (CONTROL, "control", "control_setup")]
        if len(runs["full"]) % 2:
            sides.reverse()
        for src, full, _ in sides:
            runs[full].append(run_cli(wl.argv(master, out / full), out / f"{full}.log", src))
        for src, _, setup in sides:
            runs[setup].append(run_cli(setup_argv(wl, out / setup), out / f"{setup}.log", src))
        sample = runs["full"][-1]
        if sample.returncode == 0:
            a, f = compare(gated_values(wl, out / "full"), ref["outputs"])
            reading = readings(wl, out / "full")
        else:
            a, f = len(ref["outputs"]), len(ref["outputs"])
        attempted, failed = attempted + a, failed + f

    def ratios(key: str, attr: str) -> list[float]:
        control = "control_setup" if key == "setup" else "control"
        return [getattr(p, attr) / getattr(c, attr) for p, c in zip(runs[key], runs[control])]

    samples = {
        "wall_s": [r * control_ref["wall_s"] for r in ratios("full", "wall")],
        "cpu_s": [r * control_ref["cpu_s"] for r in ratios("full", "cpu")],
        "setup_s": [r * control_ref["setup_s"] for r in ratios("setup", "wall")],
        "peak_rss_mb": [s.rss_mb for s in runs["full"]],
    }
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["realizations_per_s"] = wl.realizations(wl.n) / (metrics["wall_s"] - metrics["setup_s"])
    measured = {f"{key}.{attr}": [getattr(s, attr) for s in runs[key]]
                for key in runs for attr in ("wall", "cpu")}
    measured["full.returncode"] = [s.returncode for s in runs["full"]]
    return {"metrics": metrics, "samples": samples, "measured": measured,
            "measured_medians": {k: statistics.median(v) for k, v in measured.items()
                                 if not k.endswith("returncode")},
            "attempted": attempted, "failed": failed, "readings": reading}


def measure_control(wl: Workload, seconds: float, out: Path) -> dict:
    """Median control times, the scale of the end-to-end metrics (see CONTROL)."""
    walls, cpus, setups = [], [], []
    start = time.monotonic()
    while len(walls) < MIN_RUNS or time.monotonic() < start + seconds:
        sample = run_cli(wl.argv(SETUP_SEED, out / "control"), out / "control.log", CONTROL)
        setup = run_cli(setup_argv(wl, out / "control_setup"), out / "control_setup.log", CONTROL)
        if sample.returncode or setup.returncode:
            raise BenchError(f"control run of {wl.name} failed:\n{_log_tail(out / 'control.log')}")
        walls.append(sample.wall)
        cpus.append(sample.cpu)
        setups.append(setup.wall)
    return {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setups)}


# --------------------------------------------------------------------------
# Traced runs: jumpwalk.cli.main in this process


def _import_jumpwalk():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import jumpwalk.cli
    import jumpwalk.ensemble

    return jumpwalk.cli, jumpwalk.ensemble


def run_inprocess(argv: list[str], targets, run_id: str) -> tuple[float, Tracer]:
    """Time one ``main(argv)`` call with ``targets`` wrapped; wrappers are removed after."""
    cli, _ = _import_jumpwalk()
    with Tracer(targets, run_id) as tracer, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        start = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - start
    if rc != 0:
        raise BenchError(f"in-process run {run_id} exited {rc}: {err.getvalue().strip()}")
    return wall, tracer


def _shutdown_pool() -> None:
    """Join the in-process run's pool workers and multiprocessing's resource tracker."""
    _, ensemble = _import_jumpwalk()
    for stop in (getattr(ensemble, "_shutdown_pool", None),
                 getattr(resource_tracker._resource_tracker, "_stop", None)):
        if stop is not None:
            stop()


def _same_bytes(a: Path, b: Path) -> bool:
    return a.read_bytes() == b.read_bytes()


def traced_iteration(wl: Workload, seed: int, out: Path, ref: dict, it: int, spans: list) -> dict:
    master = master_seed(seed)
    csv_name = f"_{wl.output}.csv"
    targets = {"base": POINT_TARGETS, "traced": LAYER_TARGETS}
    runs = {}
    for label in sorted(targets, reverse=it % 2 == 1):  # alternate which run goes first
        runs[label] = run_inprocess(wl.argv(master, out / label, workers=1), targets[label],
                                    f"{wl.name}/{seed}/{label}{it}")
    (base_wall, base), (wall, tr) = runs["base"], runs["traced"]
    spans += base.spans + tr.spans
    attempted, failed = compare_points(tr.counters.points, ref["points"])
    attempted += 1
    failed += not _same_bytes(Path(f"{out / 'base'}{csv_name}"), Path(f"{out / 'traced'}{csv_name}"))

    self_t = tr.self_times()
    c = tr.counters
    evolve = self_t.get("walk.evolve", 0.0)
    attributed = sum(self_t.values())
    m = {
        "distributions.truncate_s": self_t.get("distributions.truncate", 0.0),
        "distributions.r_max": c.r_max,
        "ensemble.sample_s": self_t.get("ensemble.sample", 0.0),
        "ensemble.sample_calls": c.sample_calls,
        "ensemble.seed_s": self_t.get("ensemble.seed", 0.0),
        "ensemble.self_s": self_t.get("ensemble.point", 0.0),
        "walk.evolve_s": evolve,
        "walk.evolve_calls": c.evolve_calls,
        "walk.steps": c.steps,
        "walk.useful_step_ratio": wl.laws * wl.n * wl.t_max / c.steps if c.steps else 0.0,
        "walk.cell_updates": c.cell_updates,
        "walk.bytes_moved_computed": c.bytes_moved,
        "walk.ns_per_cell_update": evolve * 1e9 / c.cell_updates if c.cell_updates else 0.0,
        "walk.renorm_ratio": c.renormalized / c.static_iterations if c.static_iterations else 0.0,
        "walk.max_norm_dev": c.max_norm_dev,
        "walk.reduce_s": self_t.get("walk.reduce", 0.0),
        "scaling.std_dev_s": self_t.get("scaling.std_dev", 0.0),
        "scaling.fit_s": self_t.get("scaling.fit", 0.0),
        "cli.self_s": self_t.get("cli.main", 0.0),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - base_wall,
        "trace.unattributed_s": wall - attributed,
        "trace.attributed_share": attributed / wall,
        "ensemble.pool_spawn_s": 0.0, "ensemble.pool_overhead_s": 0.0,
        "ensemble.parallel_efficiency": 0.0, "ensemble.pool_serial_s": 0.0,
        "ensemble.pool_parallel_s": 0.0,
    }
    if wl.workers > 1:
        try:
            _, par = run_inprocess(wl.argv(master, out / "parallel"), POINT_TARGETS,
                                   f"{wl.name}/{seed}/parallel{it}")
        finally:
            _shutdown_pool()  # the next iteration pays the spawn again, as a CLI run does
        spans += par.spans
        attempted += 1
        failed += not _same_bytes(Path(f"{out / 'base'}{csv_name}"), Path(f"{out / 'parallel'}{csv_name}"))
        serial, parallel = base.total("ensemble.point"), par.total("ensemble.point")
        spawn = [run_cli(setup_argv(wl, out / "setup", workers=w), out / "setup.log")
                 for w in (wl.workers, 1)]
        if any(s.returncode for s in spawn):
            raise BenchError(f"set-up command failed:\n{_log_tail(out / 'setup.log')}")
        m.update({
            "ensemble.pool_spawn_s": spawn[0].wall - spawn[1].wall,
            "ensemble.pool_overhead_s": parallel - serial / wl.workers,
            "ensemble.parallel_efficiency": serial / (wl.workers * parallel),
            "ensemble.pool_serial_s": serial,
            "ensemble.pool_parallel_s": parallel,
        })
    return {"metrics": m, "attempted": attempted, "failed": failed,
            "readings": readings(wl, out / "traced")}


def per_layer(wl: Workload, seed: int, seconds: float, out: Path, ref: dict) -> dict:
    spans: list = []
    iterations = []
    start = time.monotonic()
    while not iterations or time.monotonic() + (time.monotonic() - start) / len(iterations) < start + seconds:
        iterations.append(traced_iteration(wl, seed, out, ref, len(iterations), spans))
    with open(out / "spans.tsv", "w") as fh:
        fh.write("run_id\tname\tstart_ns\tend_ns\tparent\n")
        for name, start, end, parent, run_id in spans:
            fh.write(f"{run_id}\t{name}\t{start}\t{end}\t{parent}\n")
    # median_low keeps counts exact: every value reported is one iteration's
    metrics = {k: statistics.median_low(it["metrics"][k] for it in iterations)
               for k in PER_LAYER_UNITS}
    return {
        "metrics": metrics,
        "samples": {k: [it["metrics"][k] for it in iterations] for k in PER_LAYER_UNITS},
        "attempted": sum(it["attempted"] for it in iterations),
        "failed": sum(it["failed"] for it in iterations),
        "readings": iterations[-1]["readings"],
    }


# --------------------------------------------------------------------------
# Command line


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 references: Path = REFERENCES) -> dict:
    """Measure one workload; returns the result record (metrics, counts, environment)."""
    wl = WORKLOADS[name]
    if not (SRC / "jumpwalk" / "cli.py").is_file():
        raise BenchError(f"no jumpwalk sources under {SRC}")
    ref, control_ref = load_reference(wl, master_seed(seed), references)
    out = OUT / f"{name}-seed{seed}-trace{trace}"
    out.mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()
    if trace:
        result = per_layer(wl, seed, seconds, out, ref)
    else:
        result = end_to_end(wl, seed, seconds, out, ref, control_ref)
    result.update({
        "workload": name, "seed": seed, "master_seed": master_seed(seed), "trace": trace,
        "n": wl.n, "realizations": wl.realizations(wl.n),
        "environment": {**environment(), "loadavg_before": load_before,
                        "loadavg_after": os.getloadavg()},
    })
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return result


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report(result: dict) -> None:
    """Human-readable lines: every metric with its unit, correctness and environment."""
    units = PER_LAYER_UNITS if result["trace"] else END_TO_END_UNITS
    print(f"# {result['workload']} seed={result['seed']} master_seed={result['master_seed']} "
          f"n={result['n']} trace={result['trace']}")
    for name, unit in units.items():
        samples = result["samples"].get(name, [])
        spread = (f"  (median of {len(samples)}; min {_fmt(min(samples))}, max {_fmt(max(samples))})"
                  if samples else "")
        print(f"#   {name:28s} {_fmt(result['metrics'][name]):>14s} {unit}{spread}")
    rate = result["failed"] / result["attempted"]
    print(f"#   {'error_rate':28s} {_fmt(rate):>14s} ratio  "
          f"({result['failed']} of {result['attempted']} checked outputs failed)")
    if "measured_medians" in result:
        print(f"#   measured medians, seconds (program full/setup, control full/setup): "
              f"{json.dumps(result['measured_medians'])}")
    print(f"#   readings (not gated): {json.dumps(result['readings'])}")
    print(f"#   environment: {json.dumps(result['environment'])}")


def result_line(results: list[dict], qualify: bool) -> str:
    metrics = {}
    for r in results:
        units = PER_LAYER_UNITS if r["trace"] else END_TO_END_UNITS
        for name, unit in units.items():
            key = f"{r['workload']}.{name}" if qualify else name
            metrics[key] = {"value": r["metrics"][name], "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default 0; with --workload all, both)")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.trace is not None:
        traces = [args.trace]
    else:
        traces = [0, 1] if args.workload == "all" else [0]
    try:
        results = []
        for trace in traces:  # untraced first: traced runs import jumpwalk into this process
            for name in names:
                results.append(run_workload(name, args.seed, args.seconds, trace))
                report(results[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(result_line(results, qualify=len(results) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
