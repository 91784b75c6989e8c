"""Tiny-n smoke test of the benchmark itself (not part of the pytest suite).

    python3 perfbench/smoke.py

Runs every workload at n=2 in both modes against references recorded on
the spot, and checks that:
  * BENCHMARK.json names exactly the workloads and metrics run.py reports;
  * every end-to-end and per-layer metric is printed with its unit;
  * no span wrapper is left in any jumpwalk module after a traced run;
  * a deliberately wrong reference makes error_rate rise above 0, in
    both modes;
  * without the jumpwalk sources the benchmark exits non-zero and prints
    no result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import record  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY_N = 2
SEED = 0


def check_report(result: dict) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report(result)
    text = buf.getvalue()
    units = run.PER_LAYER_UNITS if result["trace"] else run.END_TO_END_UNITS
    for name, unit in units.items():
        line = next((l for l in text.splitlines() if l.split()[1:2] == [name]), None)
        assert line is not None and line.split()[3] == unit, f"{name} [{unit}] missing:\n{text}"
    assert "error_rate" in text and "environment" in text
    line = json.loads(run.result_line([result], qualify=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units


def error_rate(name: str, trace: int, refs: Path) -> float:
    result = run.run_workload(name, SEED, 0.0, trace, refs)
    return result["failed"] / result["attempted"]


def check_missing_program(work: Path) -> None:
    bare = work / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poisson1_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and "{" not in proc.stdout, (proc.returncode, proc.stdout)


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[key]} == units, key


def main() -> int:
    check_benchmark_json()
    print("ok  BENCHMARK.json names the workloads and metrics run.py reports")
    work = run.OUT / "smoke"
    work.mkdir(parents=True, exist_ok=True)
    run.WORKLOADS.update({k: dataclasses.replace(w, n=TINY_N) for k, w in run.WORKLOADS.items()})
    refs_path = work / "references.json"
    refs = record.record(run.WORKLOADS, [run.master_seed(SEED)], refs_path, control_seconds=0.0)

    for name in run.WORKLOADS:
        for trace in (0, 1):
            result = run.run_workload(name, SEED, 0.0, trace, refs_path)
            assert result["failed"] == 0, (name, trace, result["failed"])
            check_report(result)
            assert tracing.wrapped_functions() == [], tracing.wrapped_functions()
        print(f"ok  {name}: metrics and units printed, wrappers restored")

    wrong = json.loads(json.dumps(refs))
    entry = wrong["workloads"]["poisson1_sweep"][str(run.master_seed(SEED))]
    entry["outputs"]["4"] *= 1.0 + 1e-9
    entry["points"][0][2] *= 1.0 + 1e-9
    wrong_path = work / "wrong_references.json"
    wrong_path.write_text(json.dumps(wrong))
    for trace in (0, 1):
        rate = error_rate("poisson1_sweep", trace, wrong_path)
        assert rate > 0.0, f"wrong reference not detected at trace={trace}"
        print(f"ok  wrong reference detected at trace={trace}: error_rate={rate:.4g}")

    check_missing_program(work)
    print("ok  exits non-zero without a result when the sources are missing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
