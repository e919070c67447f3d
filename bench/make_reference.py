"""Record the seed-0 reference outputs that the benchmark checks against.

    python3 bench/make_reference.py

Writes bench/reference_seed0.json: what one pass of each workload computes
at seed 0, without a reference to check against.  For the sweeps that is
the rmse of every results row; for the fixed complex ladder the mod-p ranks,
integer homology, dim ker L_1, spectral basis sizes and the Z/2 objectives.
Run it only on a commit whose outputs are trusted; the file is committed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def observed(name, work_dir):
    """What one reference-free pass of workload `name` computes at seed 0."""
    workload = workloads.make_workload(name, ROOT, 0, os.path.join(work_dir, name))
    workload.setup()
    outcome = workload.run_pass()
    if outcome.failed:
        raise SystemExit(f"{name}: {outcome.failed} checks failed: {outcome.failures[:3]}")
    return outcome.observed


def main():
    work_dir = os.path.join(ROOT, ".bench_runs", "reference")
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip() or None
    reference = {"recorded_at_commit": commit}
    for name in workloads.WORKLOADS:
        reference[name] = observed(name, work_dir)
    shutil.rmtree(work_dir, ignore_errors=True)
    with open(os.path.join(HERE, "reference_seed0.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
