"""Run one gssc benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep_samples --seed 0 --seconds 45 --trace 0

Run from the repository root; the library is imported from ./src.  Workloads
(see bench/README.md): sweep_samples, sweep_noise_j2, topology_ladder.

--trace 0  set up nine times (this process and eight child processes, median
           reported), then run the workload's pass three times, and again
           while another pass fits in --seconds.  Prints the end-to-end
           metrics wall_s (median pass), setup_s and peak_rss_mb.
--trace 1  one untraced pass, then one pass with every public function of
           the traced gssc modules wrapped (bench/tracer.py).  Prints the
           per-layer metrics and writes the spans to
           .bench_runs/<workload>.spans.jsonl.

Every pass checks the library's outputs.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
line before it records the environment.  Set-up failures (for example a
checkout without src/gssc) exit non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".bench_runs")
SETUP_SAMPLES = 9            # this process plus SETUP_SAMPLES - 1 children
MIN_PASSES = 3               # so the median pass rejects one outlier
WORKLOAD_NAMES = ("sweep_samples", "sweep_noise_j2", "topology_ladder")

# per-layer names whose value comes from a tracer counter, not from spans
COUNTER_METRICS = {
    "learn.reconstruct_gssc.ridge_fallbacks": "learn.warnings.ConditioningWarning",
    "hodge.spectral_bases.truncated": "hodge.spectral_bases.truncated",
    "gf2.gray_iter.steps": "gf2.gray_iter.steps",
    "gf2.check_enumeration_bound.refusals": "gf2.check_enumeration_bound.raised",
}
QUANTILES = {"p50_ms": 0.50, "p90_ms": 0.90, "p95_ms": 0.95}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print {'setup_s': ...} and exit")
    return parser.parse_args(argv)


# -- set-up --------------------------------------------------------------------

def set_up(args, work_dir):
    """Import gssc from ./src, build the workload's inputs, warm up; timed."""
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gssc
    expected = os.path.join(ROOT, "src", "gssc")
    if os.path.dirname(os.path.abspath(gssc.__file__)) != expected:
        raise SystemExit(f"gssc was imported from {gssc.__file__}, not {expected}")
    import workloads
    with open(os.path.join(HERE, "reference_seed0.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    workload = workloads.make_workload(args.workload, ROOT, args.seed, work_dir,
                                       reference)
    workload.setup()
    return workload, time.perf_counter() - start


def child_setup_times(args, count):
    """Set-up time of `count` fresh processes, run one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up child exited with {proc.returncode}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# -- environment ---------------------------------------------------------------

def _openblas():
    """(version string, thread count) of each OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        return []
    found = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {"library": os.path.basename(path)}
        for suffix in ("", "64_"):
            for prefix in ("openblas", "scipy_openblas"):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype, config.argtypes = ctypes.c_char_p, []
                    threads.restype, threads.argtypes = ctypes.c_int, []
                    info["config"] = config().decode()
                    info["threads"] = threads()
        found.append(info)
    return found


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def source_digest(root=ROOT):
    """SHA-256 of the regular files in src/gssc and configs (not __pycache__)."""
    digest = hashlib.sha256()
    for sub in ("src/gssc", "configs"):
        folder = os.path.join(root, sub)
        for name in sorted(os.listdir(folder)):
            path = os.path.join(folder, name)
            if not os.path.isfile(path):
                continue
            with open(path, "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def environment():
    import numpy
    import scipy
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


# -- metrics -------------------------------------------------------------------

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_pass(workload, outcome_type):
    """One pass; a library error fails the pass instead of ending the run."""
    start = time.perf_counter()
    try:
        outcome = workload.run_pass()
    except Exception:
        outcome = outcome_type()
        outcome.check(False, "pass raised:\n" + traceback.format_exc())
    end = time.perf_counter()
    return outcome, start, end


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def reported(declared, values):
    """{name: {value, unit}} for each metric BENCHMARK.json declares."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def per_layer_values(spans, counters, jobs, traced, untraced):
    """Every per-layer value from one traced pass spanning `traced`=(start, end).

    A function the pass never called reports 0 for each of its stats.
    """
    import tracer
    stats = tracer.function_stats(spans, counters)
    wall = traced[1] - traced[0]
    values = defaultdict(int, {
        "experiment.busy_frac": tracer.busy_fraction(spans, jobs, wall),
        "trace.overhead_frac": wall / untraced - 1.0,
        "trace.coverage_frac": tracer.coverage(spans, *traced),
    })
    for metric, key in COUNTER_METRICS.items():
        values[metric] = counters.get(key, 0)
    for function, entry in stats.items():
        values[f"{function}.calls"] = entry["calls"]
        values[f"{function}.s"] = values[f"{function}.self_s"] = entry["s"]
        for stat, q in QUANTILES.items():
            values[f"{function}.{stat}"] = tracer.nearest_rank(entry["durations_ms"], q)
    return values


def write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span._asdict()) + "\n")


def main(argv=None):
    args = parse_args(argv)
    work_dir = os.path.join(RUN_DIR, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        if args.setup_only:
            _, setup_s = set_up(args, work_dir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, work_dir):
    setups = child_setup_times(args, SETUP_SAMPLES - 1) if not args.trace else []
    workload, setup_s = set_up(args, work_dir)
    setups.append(setup_s)
    import workloads
    jobs = workloads.WORKLOADS[args.workload]["jobs"]

    outcome = workloads.Outcome()
    walls = []
    begin = time.perf_counter()
    while True:
        result, start, end = timed_pass(workload, workloads.Outcome)
        outcome.merge(result)
        walls.append(end - start)
        if args.trace or (len(walls) >= MIN_PASSES
                          and end - begin + statistics.median(walls) > args.seconds):
            break

    spec = load_spec()
    if args.trace:
        import tracer
        trace = tracer.Tracer()
        with trace:
            result, start, end = timed_pass(workload, workloads.Outcome)
        outcome.merge(result)
        values = per_layer_values(trace.spans, trace.counters, jobs, (start, end), walls[0])
        metrics = reported(spec["per_layer"], values)
        write_spans(os.path.join(RUN_DIR, f"{args.workload}.spans.jsonl"), trace.spans)
    else:
        metrics = reported(spec["end_to_end"], {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
        })

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": len(walls), "pass_walls_s": walls, "setup_samples_s": setups,
              "failures": outcome.failures[:20], "env": environment()}
    with open(os.path.join(RUN_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
