"""Reproducible method-comparison sweeps over noise level or sample count.

A sweep is described by a line-oriented `key = value` config file.  Every
random draw is seeded from the master seed: trial i uses row seed
(seed + i) for its signal, and the sample draw additionally mixes in the
noise level and sample count, so any single CSV row can be reproduced in
isolation.  Signals are shared across sweep points within a trial, so
method curves differ only by the swept quantity.

Outputs, built in one walk over the cell outcomes and written by the one CSV
writer: results.csv (a row per method/point/trial), aggregate.csv (per-point
means over trials of the printed 12-digit values, so the files agree) and
timings.csv (wall-clock per point, apart as the one non-reproducible output).
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor

from ._blas import one_blas_thread
from .baselines import KrrConfig, krr_grid, sc_product
from .complexes import _as_int, _text_lines, _write_csv, resolve_complex
from .errors import FormatError, UnsupportedError
from .hodge import spectral_bases
from .learn import (SynthSpec, evaluation_grid, reconstruct_gssc, rmse_ratio,
                    sample_async, synthesize)

KNOWN_METHODS = ("gssc", "gssc_sub", "krr", "sc_product")
DEFAULT_NOISE_LEVELS = (0.001, 0.005, 0.01, 0.05, 0.1)
DEFAULT_SAMPLE_COUNTS = (5, 10, 15, 20, 30, 40)
_OUTPUT_HEADERS = {"results": ["method", "noise", "samples_per_edge", "trial", "seed", "rmse",
                               "hyperparams"],
                   "aggregate": ["method", "noise", "samples_per_edge", "mean_rmse", "trials"],
                   "timings": ["noise", "samples_per_edge", "seconds"]}


class ExperimentConfig:
    """Validated sweep description; see module docstring for the file format."""

    def __init__(self, complex="default", methods=KNOWN_METHODS, sweep="noise",
                 noise_levels=DEFAULT_NOISE_LEVELS,
                 sample_counts=DEFAULT_SAMPLE_COUNTS,
                 noise=0.01, samples_per_edge=20, trials=20, seed=0,
                 time_order=3, n_irr=20, n_sol=20, sub_size=15, eta=1.0,
                 lengthscale=1.0, ridge=1e-2, alpha=0.05, beta=0.05):
        self.complex = complex
        self.methods = tuple(methods)
        self.sweep = sweep
        self.noise_levels = tuple(float(v) for v in noise_levels)
        self.sample_counts = tuple(_as_int("sample count", v) for v in sample_counts)
        self.noise = float(noise)
        self.samples_per_edge = _as_int("samples_per_edge", samples_per_edge)
        self.trials = _as_int("trials", trials)
        self.seed = _as_int("seed", seed)
        self.time_order = _as_int("time_order", time_order)
        self.n_irr = _as_int("n_irr", n_irr)
        self.n_sol = _as_int("n_sol", n_sol)
        self.sub_size = _as_int("sub_size", sub_size)
        self.eta = float(eta)
        self.lengthscale = float(lengthscale)
        self.ridge = float(ridge)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self._validate()

    def _validate(self):
        for m in self.methods:
            if m not in KNOWN_METHODS:
                raise UnsupportedError(
                    f"unknown method {m!r}; choose from {', '.join(KNOWN_METHODS)}")
        if not self.methods:
            raise FormatError("methods list is empty")
        if self.sweep not in ("noise", "samples"):
            raise FormatError(f"sweep must be 'noise' or 'samples', got {self.sweep!r}")
        if self.sweep == "noise" and not self.noise_levels:
            raise FormatError("noise sweep needs at least one noise level")
        if self.sweep == "samples" and not self.sample_counts:
            raise FormatError("samples sweep needs at least one sample count")
        if not all(0 <= v < math.inf for v in self.noise_levels + (self.noise,)):
            raise FormatError("noise levels must be finite and >= 0")
        if any(m < 1 for m in self.sample_counts) or self.samples_per_edge < 1:
            raise FormatError("sample counts must be >= 1")
        if self.trials < 1:
            raise FormatError("trials must be >= 1")
        if not self.eta > 0:
            raise FormatError("eta must be positive")
        if self.time_order < 1:
            raise FormatError("time_order must be >= 1")
        if self.sub_size < 1:
            raise FormatError("sub_size must be >= 1")
        if self.n_irr < 0 or self.n_sol < 0:
            raise FormatError("n_irr and n_sol must be >= 0")
        if not 0 < self.lengthscale < math.inf:
            raise FormatError("lengthscale must be finite and positive")
        for key in ("ridge", "alpha", "beta"):
            if not 0 <= getattr(self, key) < math.inf:
                raise FormatError(f"{key} must be finite and >= 0")
        if self.seed < 0:
            raise FormatError("seed must be >= 0")
        # rows are keyed by method and by the printed sweep value
        swept = self.noise_levels if self.sweep == "noise" else self.sample_counts
        for what, printed in (("method", self.methods),
                              ("sweep value", [_fmt(v) for v in swept])):
            for i, v in enumerate(printed):
                if v in printed[:i]:
                    raise FormatError(f"repeated {what} {v!r}")

    def points(self):
        """The (noise, samples_per_edge) pairs of the sweep, in sweep order."""
        if self.sweep == "noise":
            return [(sigma, self.samples_per_edge) for sigma in self.noise_levels]
        return [(self.noise, m) for m in self.sample_counts]


# config key -> parser of its value text
_PARSERS = {
    "complex": str, "sweep": str,
    "methods": lambda v: tuple(m.strip() for m in v.split(",") if m.strip()),
    "noise_levels": lambda v: tuple(float(s) for s in v.split(",")),
    "sample_counts": lambda v: tuple(int(s) for s in v.split(",")),
    **dict.fromkeys(("samples_per_edge", "trials", "seed", "time_order", "n_irr",
                     "n_sol", "sub_size"), int),
    **dict.fromkeys(("noise", "eta", "lengthscale", "ridge", "alpha", "beta"), float),
}


def parse_config(path):
    """Read a `key = value` config file (# comments, blank lines ignored)."""
    values = {}
    for lineno, line in _text_lines(path):
        if "=" not in line:
            raise FormatError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = (part.strip() for part in line.partition("="))
        if key in values:
            raise FormatError(f"repeated config key {key!r}", lineno)
        if key not in _PARSERS:
            raise FormatError(f"unknown config key {key!r}", lineno)
        try:
            values[key] = _PARSERS[key](value)
        except ValueError:
            raise FormatError(f"bad value for {key}: {value!r}", lineno)
    return ExperimentConfig(**values)


def _fmt(value):
    return f"{value:g}"


def _hyperparams(config, method, bases, sub):
    if method in ("gssc", "gssc_sub"):
        b = bases if method == "gssc" else sub
        return (f"eta={_fmt(config.eta)};n_irr={b.n_irr};n_sol={b.n_sol};"
                f"time_order={config.time_order}")
    krr = f"lengthscale={_fmt(config.lengthscale)};ridge={_fmt(config.ridge)}"
    if method == "krr":
        return krr
    return f"{krr};alpha={_fmt(config.alpha)};beta={_fmt(config.beta)}"


def run_experiment(config, out_dir, jobs=1, log=None):
    """Execute the sweep and write results/aggregate/timings CSVs.

    Returns the three file paths.  Output rows appear in deterministic
    order (sweep point, then trial, then method) regardless of `jobs`.
    The bases (which `sc_product` reads from the rep's memo), signals and
    grid design are built once; the cells then run on one BLAS thread, as
    their matrices are small enough that BLAS threading costs more than it
    saves, and `jobs` >= 1 cells run at a time in parallel threads.
    """
    jobs = _as_int("jobs", jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    rep = resolve_complex(config.complex)
    os.makedirs(out_dir, exist_ok=True)
    bases = spectral_bases(rep, 1, config.n_irr, config.n_sol)
    sub = bases.sub(config.sub_size, config.sub_size)
    grid = evaluation_grid()
    points = config.points()

    signals = [synthesize(rep, SynthSpec(config.n_irr, config.n_sol,
                                         config.time_order,
                                         seed=[config.seed + trial]))
               for trial in range(config.trials)]
    design = signals[0].system.design_matrix(grid)
    truths = [f.values @ design.T for f in signals]

    cells = [(sigma, m, trial) for sigma, m in points for trial in range(config.trials)]

    def run_cell(cell):
        """All requested methods on one (sweep point, trial) cell, shared data."""
        sigma, m, trial = cell
        samples = sample_async(signals[trial], m, sigma,
                               seed=[config.seed + trial, int(round(sigma * 1e12)), m])
        krr_est = None
        rmses, seconds = {}, {}
        for method in config.methods:
            start = time.perf_counter()
            if method in ("gssc", "gssc_sub"):
                est, _ = reconstruct_gssc(samples, rep, bases if method == "gssc" else sub,
                                          config.time_order, config.eta)
                value = rmse_ratio(est.values @ design.T, truths[trial], grid)
            else:
                # sc_product smooths the KRR estimate, so one fit serves both
                if krr_est is None:
                    krr_est = krr_grid(samples, KrrConfig(config.lengthscale, config.ridge),
                                       grid)
                est = (krr_est if method == "krr"
                       else sc_product(krr_est, rep, config.alpha, config.beta))
                value = rmse_ratio(est.values, truths[trial], grid)
            rmses[method] = value
            seconds[method] = time.perf_counter() - start
        return rmses, seconds

    with one_blas_thread():
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                outcomes = list(pool.map(run_cell, cells))
        else:
            outcomes = [run_cell(cell) for cell in cells]

    # one walk over the outcomes, which come grouped by sweep point
    rows = {name: [] for name in _OUTPUT_HEADERS}
    for pi, (sigma, m) in enumerate(points):
        noise = _fmt(sigma)
        trials = outcomes[pi * config.trials:(pi + 1) * config.trials]
        rows["results"] += ([method, noise, m, trial, config.seed + trial,
                             f"{rmses[method]:.12g}", _hyperparams(config, method, bases, sub)]
                            for trial, (rmses, _) in enumerate(trials)
                            for method in config.methods)
        for method in config.methods:
            printed = [float(f"{rmses[method]:.12g}") for rmses, _ in trials]
            mean = math.fsum(printed) / len(printed)
            rows["aggregate"].append([method, noise, m, f"{mean:.12g}", config.trials])
        rows["timings"].append([noise, m, f"{sum(sum(s.values()) for _, s in trials):.3f}"])
    paths = {name: os.path.join(out_dir, f"{name}.csv") for name in _OUTPUT_HEADERS}
    for name, path in paths.items():
        _write_csv(path, _OUTPUT_HEADERS[name], rows[name])
    if log is not None:
        log(f"wrote {', '.join(paths.values())}")
    return paths
