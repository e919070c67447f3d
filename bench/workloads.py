"""The three benchmark workloads: set-up, one pass, and the checks on its output.

Every workload runs as a closed loop with one client: this process calls the
library and waits for each call before making the next.  The workload seed
drives signals, samples and chains only; the complexes are fixed.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

import gssc

LADDER = ("default", "random(30,0.5,1.0,11)", "random(40,0.5,1.0,11)")
HOMOLOGY_RUNGS = 2          # homology_Z of random(40, ...) takes ~88 s today
PRIMES = (2, 3, 5)
BETTI_PRIMES = (3, 5)
SMOOTH_ETA = 30.0
TIME_ORDER = 3
Z2_COMPLEX = "cycle(20)"
Z2_NORMS = (1, 2)
REL_TOL = 1e-9

# tiny inputs for the one-call warm-up made during set-up
WARMUP_LADDER = ("random(6,0.8,1.0,11)",)
WARMUP_Z2_COMPLEX = "cycle(4)"


class Outcome:
    """Checked operations of a pass: how many were attempted and which failed.

    `observed` holds what a pass computed, in the form of the recorded
    reference (bench/make_reference.py writes it from a pass at seed 0).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.observed = None

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures)


def _fmt(value):
    # the harness prints sweep coordinates with %g
    return f"{value:g}"


def rel_close(value, reference, tol=REL_TOL):
    return abs(value - reference) <= tol * abs(reference)


# -- reconstruction sweeps -----------------------------------------------------

def expected_row_keys(config):
    """(method, noise, samples_per_edge, trial, seed) of every results row, in order."""
    return [(method, _fmt(sigma), str(m), str(trial), str(config.seed + trial))
            for sigma, m in config.points()
            for trial in range(config.trials)
            for method in config.methods]


def read_results(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def row_rmse(row):
    """The rmse column of a results row; nan if it is missing or not a number."""
    try:
        return float(row[5])
    except (IndexError, ValueError):
        return math.nan


def check_sweep_rows(rows, config, reference_rmse=None):
    """One operation per expected results row.

    A row passes when its key columns are the expected ones, its rmse is
    finite and, given a reference, within REL_TOL of it.  Missing rows fail.
    """
    outcome = Outcome()
    for i, key in enumerate(expected_row_keys(config)):
        row = rows[i] if i < len(rows) else None
        ok = row is not None and tuple(row[:5]) == key
        if ok:
            rmse = row_rmse(row)
            ok = math.isfinite(rmse) and (
                reference_rmse is None or rel_close(rmse, reference_rmse[i]))
        outcome.check(ok, f"results row {i} {key}")
    return outcome


class SweepWorkload:
    """`run_experiment` on a frozen config with only the seed replaced."""

    def __init__(self, root, config_file, jobs, seed, work_dir, reference=None):
        self.config_path = os.path.join(root, "configs", config_file)
        self.jobs = jobs
        self.seed = seed
        self.work_dir = work_dir
        self.reference = reference
        self.config = None

    def setup(self):
        frozen = gssc.parse_config(self.config_path)
        self.config = gssc.ExperimentConfig(**{**vars(frozen), "seed": self.seed})
        # warm-up: one cell of the same sweep (smallest point, one trial)
        tiny = dict(vars(self.config), trials=1)
        if self.config.sweep == "samples":
            tiny["sample_counts"] = (min(self.config.sample_counts),)
        else:
            tiny["noise_levels"] = self.config.noise_levels[:1]
        gssc.run_experiment(gssc.ExperimentConfig(**tiny),
                            os.path.join(self.work_dir, "warmup"), jobs=self.jobs)

    def run_pass(self):
        paths = gssc.run_experiment(self.config, os.path.join(self.work_dir, "sweep"),
                                    jobs=self.jobs)
        rows = read_results(paths["results"])
        outcome = check_sweep_rows(rows, self.config, self.reference)
        outcome.observed = {"rmse": [row_rmse(row) for row in rows]}
        return outcome


# -- exact-topology ladder -----------------------------------------------------

def betti_from_ranks(dims, ranks, k, p):
    """n_k - rank_p B_k - rank_p B_{k+1}; B_0 and B_{dim+1} have rank 0."""
    return dims[k] - ranks.get((k, p), 0) - ranks.get((k + 1, p), 0)


def check_homology(groups, dims, ranks, reference=None):
    """One operation per homology group: reference match and Betti vs mod-p ranks."""
    outcome = Outcome()
    for k, group in enumerate(groups):
        ok = all(group.betti == betti_from_ranks(dims, ranks, k, p)
                 for p in BETTI_PRIMES)
        if reference is not None:
            ok = ok and [group.betti, list(group.torsion)] == reference[k]
        outcome.check(ok, f"H_{k} = {group}")
    return outcome


def _parts_ok(x, parts, extra=None):
    """Parts sum back to x (plus `extra`) and are mutually orthogonal."""
    x = np.asarray(x, dtype=float)
    scale = float(np.sum(x * x))
    total = sum(parts) + (0 if extra is None else extra)
    if float(np.linalg.norm(total - x)) > REL_TOL * math.sqrt(scale):
        return False
    return all(abs(float(np.sum(parts[i] * parts[j]))) <= REL_TOL * scale
               for i in range(len(parts)) for j in range(i + 1, len(parts)))


def check_decomposition(x, result):
    return _parts_ok(x, [result.x0.values, result.x1.values, result.x_neg1.values])


def check_smooth(x, result, rep, eta):
    """Stationarity: x = x0 + x1 + x_neg1 + (L_up x1 + L_down x_neg1) / eta."""
    up = rep.boundary_float(2)
    down = rep.boundary_float(1)
    x1, xn = result.x1.values, result.x_neg1.values
    rough = (up @ (up.T @ x1) + down.T @ (down @ xn)) / eta
    return _parts_ok(x, [result.x0.values, x1, xn], extra=rough)


def check_z2(x, result, rep, objective=None):
    """Parts sum to x mod 2, x0 is a mod-2 cycle, objective as recorded."""
    parts = (result.x0.values + result.x1.values + result.x_neg1.values) % 2
    ok = np.array_equal(parts, np.asarray(x.values) % 2)
    ok = ok and not ((rep.boundary_matrix(1) @ result.x0.values) % 2).any()
    return ok and (objective is None or result.objective == objective)


class LadderWorkload:
    """Exact and spectral calls over the fixed complex ladder, seeded chains."""

    def __init__(self, seed, reference=None):
        self.seed = seed
        self.reference = reference
        self.chains = None

    def _chain_values(self, specs):
        values = []
        for i, spec in enumerate(specs):
            n_edges = gssc.resolve_complex(spec).n_cells(1)
            rng = np.random.default_rng([self.seed, i])
            values.append(rng.standard_normal((n_edges, 2 * TIME_ORDER + 1)))
        return values

    def setup(self):
        self.chains = self._chain_values(LADDER)
        warm_chains = self._chain_values(WARMUP_LADDER)
        ladder_pass(WARMUP_LADDER, warm_chains, 1, WARMUP_Z2_COMPLEX, None)

    def run_pass(self):
        return ladder_pass(LADDER, self.chains, HOMOLOGY_RUNGS, Z2_COMPLEX,
                           self.reference)


def ladder_pass(specs, chains, homology_rungs, z2_spec, reference):
    """One pass of the ladder; `reference` is the recorded topology or None."""
    outcome = Outcome()
    outcome.observed = {"rungs": [], "z2_objectives": {}}
    for i, spec in enumerate(specs):
        ref = reference["rungs"][i] if reference else None
        rep = gssc.resolve_complex(spec)
        rung = {"spec": spec, "dims": list(rep.dims), "mod_p_rank": {}, "bases": None,
                "n_zero_L1": None, "homology_Z": None}
        outcome.observed["rungs"].append(rung)
        outcome.check(bool(gssc.validate(rep)), f"{spec}: validate")

        ranks = {}
        for k in (1, 2):
            boundary = rep.boundary_matrix(k)
            for p in PRIMES:
                key = f"{k},{p}"
                ranks[(k, p)] = rung["mod_p_rank"][key] = gssc.mod_p_rank(boundary, p)
                outcome.check(ref is None or ranks[(k, p)] == ref["mod_p_rank"][key],
                              f"{spec}: rank_{p} B_{k} = {ranks[(k, p)]}")

        bases = gssc.spectral_bases(rep, 1, 20, 20)
        stacked = bases.stacked()
        rung["bases"] = [bases.n_harmonic, bases.n_irr, bases.n_sol]
        orthonormal = np.abs(stacked.T @ stacked - np.eye(stacked.shape[1])).max() <= REL_TOL
        outcome.check(orthonormal and (ref is None or rung["bases"] == ref["bases"]),
                      f"{spec}: spectral_bases {rung['bases']}")

        rung["n_zero_L1"] = gssc.eig_sym(gssc.laplacian(rep, 1)).n_zero
        outcome.check(ref is None or rung["n_zero_L1"] == ref["n_zero_L1"],
                      f"{spec}: dim ker L_1 = {rung['n_zero_L1']}")

        x = gssc.ChainVector(rep, 1, gssc.FourierFn(TIME_ORDER), chains[i])
        outcome.check(check_decomposition(x.values, gssc.hodge_decompose(x)),
                      f"{spec}: hodge_decompose")
        outcome.check(check_smooth(x.values, gssc.solve_smooth(x, eta=SMOOTH_ETA),
                                   rep, SMOOTH_ETA),
                      f"{spec}: solve_smooth")
        outcome.check(check_decomposition(x.values, gssc.solve_fundamental(x)),
                      f"{spec}: solve_fundamental")

        if i < homology_rungs:
            groups = [gssc.homology_Z(rep, k) for k in range(rep.dim + 1)]
            rung["homology_Z"] = [[g.betti, list(g.torsion)] for g in groups]
            outcome.merge(check_homology(groups, rep.dims, ranks,
                                         ref["homology_Z"] if ref else None))

    rep = gssc.resolve_complex(z2_spec)
    x = gssc.ChainVector(rep, 1, gssc.ModN(2), np.ones(rep.n_cells(1), dtype=object))
    for p in Z2_NORMS:
        objective = reference["z2_objectives"][str(p)] if reference else None
        result = gssc.solve_fundamental(x, p=p)
        outcome.observed["z2_objectives"][str(p)] = result.objective
        outcome.check(check_z2(x, result, rep, objective),
                      f"{z2_spec}: Z/2 fundamental p={p} objective {result.objective}")
    return outcome


# -- registry ------------------------------------------------------------------

WORKLOADS = {
    "sweep_samples": {"config": "default_samples_sweep.cfg", "jobs": 1},
    "sweep_noise_j2": {"config": "default_noise_sweep.cfg", "jobs": 2},
    "topology_ladder": {"jobs": 1},
}


def make_workload(name, root, seed, work_dir, reference=None):
    """The workload object; `reference` is the seed-0 reference file's content.

    The ladder's complexes do not depend on the seed, so its reference is
    checked at every seed; the sweeps' rmse only at seed 0.
    """
    spec = WORKLOADS[name]
    recorded = reference[name] if reference else None
    if name == "topology_ladder":
        return LadderWorkload(seed, recorded)
    return SweepWorkload(root, spec["config"], spec["jobs"], seed, work_dir,
                         recorded["rmse"] if recorded and seed == 0 else None)
