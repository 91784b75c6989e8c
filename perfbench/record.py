"""Record the benchmark's correctness references.

    python3 perfbench/record.py [--out perfbench/references.json]

Runs every workload in-process at workers=1 for every master seed in
``run.REFERENCE_SEEDS`` and stores, per seed: the gated outputs (mean_sigma
per T, or the fitted exponent per law), every ensemble point's
mean_sigma in call order, and the readings (alpha per law, static
plateau).  It also times the frozen control (``run.CONTROL``) for 30 s
per workload: those medians scale every end-to-end time, so
re-recording changes the scale.  The committed file was made at the
benchmark's first commit; re-record only where a change is meant to alter
results, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def record(workloads, seeds, out: Path, control_seconds: float = 30.0) -> dict:
    """References for ``workloads`` (name -> Workload) at ``seeds``, plus the
    control's median times, each measured for ``control_seconds``."""
    tmp = run.OUT / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    entries = {}
    for wl in workloads.values():
        entries[wl.name] = {}
        for master in seeds:
            prefix = tmp / wl.name
            _, tracer = run.run_inprocess(wl.argv(master, prefix, workers=1), run.POINT_TARGETS,
                                          f"record/{wl.name}/{master}")
            entries[wl.name][str(master)] = {
                "outputs": run.gated_values(wl, prefix),
                "points": tracer.counters.points,
                "readings": run.readings(wl, prefix),
            }
    refs = {
        "tolerance": run.TOLERANCE,
        "commit": run.git_commit(),
        "source_sha256": run.source_digest(),
        "n": {wl.name: wl.n for wl in workloads.values()},
        "control": {wl.name: run.measure_control(wl, control_seconds, tmp)
                    for wl in workloads.values()},
        "workloads": entries,
    }
    out.write_text(json.dumps(refs, indent=1) + "\n")
    return refs


def main() -> int:
    parser = argparse.ArgumentParser(description="record perfbench correctness references")
    parser.add_argument("--out", type=Path, default=run.REFERENCES)
    args = parser.parse_args()
    record(run.WORKLOADS, run.REFERENCE_SEEDS, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
