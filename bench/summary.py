"""Run every benchmark workload and print its metrics with units.

    python3 bench/summary.py                  # each workload once, seed 0
    python3 bench/summary.py --seeds 10       # seeds 0..9: medians and spreads
    python3 bench/summary.py --trace          # per-layer metrics, seed 0
    python3 bench/summary.py --workloads topology_ladder --seeds 5 --first-seed 100

Each run is `bench/run.py` in its own process, one after another.  With
several seeds the table gives each end-to-end metric's median, quartiles and
spread (quartile distance over median) next to the bound in BENCHMARK.json.
Exits 1 if any run reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, load_spec


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    if len(values) < 2:
        return 0.0, values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values), q1, q3


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    any_failed = False
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            any_failed |= result["failed"] > 0
            results.append(result)
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}{v['unit']}"
                             for k, v in result["metrics"].items()
                             if k in bounds), flush=True)
        print(f"\n{workload} ({len(results)} run(s))")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            line = f"  {name:42s} {median:12.6g} {first['unit']:6s}"
            if len(values) > 1:
                rel, q1, q3 = spread(values)
                bound = bounds.get(name)
                line += f" q1 {q1:.6g} q3 {q3:.6g} spread {rel:.4f}"
                if bound is not None:
                    line += f" bound {bound} ({'ok' if rel <= bound / 3 else 'WIDE'})"
            print(line)
        print(flush=True)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
