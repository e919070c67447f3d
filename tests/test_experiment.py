"""Sweep configuration, the benchmark complex, and experiment outputs."""

import builtins
import csv
import re
import threading

import numpy as np
import pytest

from gssc import (ExperimentConfig, FormatError, UnsupportedError,
                  default_experiment_complex, eig_sym, homology_Z, laplacian,
                  parse_config, resolve_complex, run_experiment, save_delta,
                  validate)
from gssc import _blas, experiment


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_config_defaults_and_points():
    config = ExperimentConfig()
    assert config.sweep == "noise"
    assert config.points() == [(sigma, 20) for sigma in
                               (0.001, 0.005, 0.01, 0.05, 0.1)]
    samples = ExperimentConfig(sweep="samples", noise=0.02)
    assert samples.points() == [(0.02, m) for m in (5, 10, 15, 20, 30, 40)]


def test_config_validation_errors():
    with pytest.raises(UnsupportedError, match="unknown method"):
        ExperimentConfig(methods=("gssc", "spline"))
    with pytest.raises(FormatError):
        ExperimentConfig(methods=())
    with pytest.raises(FormatError):
        ExperimentConfig(sweep="both")
    with pytest.raises(FormatError):
        ExperimentConfig(trials=0)
    with pytest.raises(FormatError):
        ExperimentConfig(eta=0.0)
    with pytest.raises(FormatError):
        ExperimentConfig(noise=-0.1)


@pytest.mark.parametrize("bad,shown", [
    ({"trials": 2.5}, "trials 2.5"),
    ({"sample_counts": (5.9, 10)}, "sample count 5.9"),
    ({"sub_size": "7"}, "sub_size '7'"),
    ({"samples_per_edge": 20.5}, "samples_per_edge 20.5"),
    ({"seed": "0"}, "seed '0'"),
    ({"time_order": 2.5}, "time_order 2.5"),
    ({"n_irr": float("inf")}, "n_irr inf"),
    ({"n_sol": None}, "n_sol None"),
])
def test_config_refuses_non_integral_counts(bad, shown):
    with pytest.raises(ValueError, match=re.escape(f"{shown} is not an integer")):
        ExperimentConfig(**bad)
    config = ExperimentConfig(trials=2.0, sample_counts=(np.int64(5), 10.0))
    assert (config.trials, config.sample_counts) == (2, (5, 10))
    assert type(config.trials) is int and all(type(m) is int for m in config.sample_counts)


@pytest.mark.parametrize("bad", [
    {"noise_levels": (0.01, float("nan"))},
    {"noise_levels": (float("inf"),)},
    {"sweep": "samples", "noise": float("nan")},
    {"time_order": 0},
    {"eta": float("nan")},
    {"n_irr": -1},
    {"n_sol": -3},
    {"lengthscale": 0.0},
    {"lengthscale": float("inf")},
    {"ridge": float("nan")},
    {"ridge": -1e-3},
    {"alpha": float("nan")},
    {"beta": float("inf")},
    {"seed": -1},
    {"noise_levels": ()},
    {"sweep": "samples", "sample_counts": ()},
    {"sample_counts": (0, 5)},
    {"samples_per_edge": 0},
    {"trials": 0},
    {"sub_size": 0},
])
def test_config_rejects_non_finite_noise_and_bad_orders(tmp_path, bad):
    with pytest.raises(FormatError):
        ExperimentConfig(**bad)
    lines = [f"{key} = {', '.join(map(str, v)) if isinstance(v, tuple) else v}"
             for key, v in bad.items()]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("complex = cycle(4)\ntrials = 1\n" + "\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        parse_config(cfg)


def test_parse_config_round_trip(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# comment\n"
        "complex = cycle(6)\n"
        "methods = gssc, krr\n"
        "sweep = samples\n"
        "sample_counts = 5, 10\n"
        "noise = 0.02\n"
        "trials = 3\n"
        "seed = 7\n"
        "eta = 2.5\n")
    config = parse_config(path)
    assert config.complex == "cycle(6)"
    assert config.methods == ("gssc", "krr")
    assert config.sample_counts == (5, 10)
    assert config.noise == pytest.approx(0.02)
    assert config.trials == 3 and config.seed == 7
    assert config.eta == pytest.approx(2.5)


def test_parse_config_rejects_unknown_keys_with_line_numbers(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("trials = 3\nwavelets = 9\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_config(path)
    path.write_text("trials three\n")
    with pytest.raises(FormatError, match="line 1"):
        parse_config(path)
    path.write_text("trials = three\n")
    with pytest.raises(FormatError, match="line 1"):
        parse_config(path)


def test_default_complex_has_a_harmonic_direction():
    rep = default_experiment_complex()
    assert rep.n_cells(0) == 26
    assert validate(rep).ok
    assert homology_Z(rep, 0).betti == 1
    spec = eig_sym(laplacian(rep, 1))
    assert spec.n_zero == 1
    # enough nonzero frequencies for the default basis sizes
    assert rep.n_cells(1) - spec.n_zero >= 40


def test_resolve_complex_forms(tmp_path):
    assert resolve_complex("default").n_cells(0) == 26
    assert resolve_complex("cycle(4)").n_cells(1) == 4
    rep = resolve_complex("random(8, 0.5, 0.5, 3)")
    assert rep.n_cells(0) == 8
    path = tmp_path / "c.dcx"
    save_delta(rep, path)
    again = resolve_complex(str(path))
    assert again.dims == rep.dims
    with pytest.raises(FormatError, match="cannot interpret"):
        resolve_complex("klein_bottle")


def tiny_config():
    return ExperimentConfig(complex="random(8, 0.6, 0.7, 2)",
                            methods=("gssc", "gssc_sub", "krr", "sc_product"),
                            sweep="samples", sample_counts=(5, 8),
                            noise=0.05, trials=2, seed=3, time_order=2,
                            n_irr=6, n_sol=6, sub_size=3, eta=5.0)


def test_run_experiment_writes_three_deterministic_files(tmp_path):
    config = tiny_config()
    paths = run_experiment(config, tmp_path / "a")
    results = read_csv(paths["results"])
    assert results[0] == ["method", "noise", "samples_per_edge", "trial",
                          "seed", "rmse", "hyperparams"]
    # 2 sweep points x 2 trials x 4 methods data rows
    assert len(results) == 1 + 2 * 2 * 4
    methods = {row[0] for row in results[1:]}
    assert methods == {"gssc", "gssc_sub", "krr", "sc_product"}
    for row in results[1:]:
        assert row[1] == "0.05"
        assert row[2] in ("5", "8")
        assert float(row[5]) >= 0.0
    gssc_row = next(row for row in results[1:] if row[0] == "gssc")
    assert "eta=5" in gssc_row[6] and "time_order=2" in gssc_row[6]
    sub_row = next(row for row in results[1:] if row[0] == "gssc_sub")
    assert "n_irr=3" in sub_row[6]

    aggregate = read_csv(paths["aggregate"])
    assert aggregate[0] == ["method", "noise", "samples_per_edge",
                            "mean_rmse", "trials"]
    assert len(aggregate) == 1 + 2 * 4

    timings = read_csv(paths["timings"])
    assert timings[0] == ["noise", "samples_per_edge", "seconds"]
    assert len(timings) == 1 + 2

    # reruns and thread counts do not change a byte of the results
    paths_b = run_experiment(config, tmp_path / "b", jobs=3)
    with open(paths["results"], "rb") as fh:
        blob_a = fh.read()
    with open(paths_b["results"], "rb") as fh:
        blob_b = fh.read()
    assert blob_a == blob_b
    with open(paths["aggregate"], "rb") as fh:
        agg_a = fh.read()
    with open(paths_b["aggregate"], "rb") as fh:
        agg_b = fh.read()
    assert agg_a == agg_b


def test_each_output_file_starts_with_its_header_and_ends_lines_in_crlf(tmp_path):
    paths = run_experiment(tiny_config(), tmp_path)
    headers = {"results": b"method,noise,samples_per_edge,trial,seed,rmse,hyperparams",
               "aggregate": b"method,noise,samples_per_edge,mean_rmse,trials",
               "timings": b"noise,samples_per_edge,seconds"}
    assert set(paths) == set(headers)
    for name, header in headers.items():
        with open(paths[name], "rb") as fh:
            data = fh.read()
        lines = data.split(b"\r\n")
        assert lines[0] == header
        assert lines[-1] == b"" and not any(b"\r" in line or b"\n" in line for line in lines)
        assert len(lines) == 2 + {"results": 16, "aggregate": 8, "timings": 2}[name]
    # rmse and mean to 12 significant digits, seconds to 3 decimals
    results, aggregate, timings = (read_csv(paths[name])[1:] for name in headers)
    assert results[0][:5] == ["gssc", "0.05", "5", "0", "3"]
    assert all(f"{float(row[5]):.12g}" == row[5] for row in results)
    assert all(f"{float(row[3]):.12g}" == row[3] for row in aggregate)
    assert all(re.fullmatch(r"\d+\.\d{3}", row[2]) for row in timings)


def test_aggregate_means_match_the_result_rows(tmp_path):
    paths = run_experiment(tiny_config(), tmp_path)
    results = read_csv(paths["results"])[1:]
    aggregate = read_csv(paths["aggregate"])[1:]
    for method, noise, m, mean, trials in aggregate:
        rows = [float(r[5]) for r in results
                if r[0] == method and r[1] == noise and r[2] == m]
        assert len(rows) == int(trials)
        assert float(mean) == pytest.approx(np.mean(rows), rel=1e-12)


def test_trials_share_signals_across_sweep_points(tmp_path):
    # the same trial index sees the same planted signal at every sweep
    # point, so zero-noise rmse differences across points come from the
    # sample count alone
    config = ExperimentConfig(complex="random(8, 0.6, 0.7, 2)",
                              methods=("gssc",), sweep="samples",
                              sample_counts=(30, 40), noise=0.0, trials=1,
                              seed=5, time_order=2, n_irr=6, n_sol=6,
                              sub_size=3, eta=1e6)
    paths = run_experiment(config, tmp_path)
    rows = read_csv(paths["results"])[1:]
    assert len(rows) == 2
    for row in rows:
        assert float(row[5]) < 1e-6


def test_run_experiment_refuses_jobs_below_one(tmp_path):
    for jobs, message in ((0, "jobs must be >= 1"), (-5, "jobs must be >= 1"),
                          (1.5, "jobs 1.5 is not an integer"),
                          ("2", "jobs '2' is not an integer")):
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(tiny_config(), tmp_path / str(jobs), jobs=jobs)
        assert not (tmp_path / str(jobs)).exists()


@pytest.fixture
def blas_threads():
    """Every loaded OpenBLAS set to 2 threads for the test, then restored."""
    controls = _blas._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS is loaded")
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(2)
    yield lambda: [get() for get, _ in controls]
    for (_, put), count in zip(controls, saved):
        put(count)


@pytest.mark.parametrize("jobs", [1, 2])
def test_cells_run_on_one_blas_thread_and_counts_are_restored(
        tmp_path, monkeypatch, blas_threads, jobs):
    before = blas_threads()
    seen = []
    real = experiment.reconstruct_gssc

    def spy(*args, **kwargs):
        seen.append(blas_threads())
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment, "reconstruct_gssc", spy)
    run_experiment(tiny_config(), tmp_path / "ok", jobs=jobs)
    assert seen and all(counts == [1] * len(before) for counts in seen)
    assert blas_threads() == before

    def fail(*args, **kwargs):
        raise RuntimeError("cell failed")

    monkeypatch.setattr(experiment, "reconstruct_gssc", fail)
    with pytest.raises(RuntimeError, match="cell failed"):
        run_experiment(tiny_config(), tmp_path / "fail", jobs=jobs)
    assert blas_threads() == before


def test_nested_and_concurrent_scopes_restore_once(blas_threads):
    before = blas_threads()
    one = [1] * len(before)
    with _blas.one_blas_thread():
        with _blas.one_blas_thread():
            assert blas_threads() == one
        assert blas_threads() == one  # the inner scope restored nothing

    entered, release = threading.Event(), threading.Event()

    def other():
        with _blas.one_blas_thread():
            entered.set()
            release.wait()

    thread = threading.Thread(target=other)
    with _blas.one_blas_thread():
        thread.start()
        entered.wait()
    assert blas_threads() == one  # still open in the other thread
    release.set()
    thread.join()
    assert blas_threads() == before


def test_one_blas_thread_is_a_no_op_without_openblas(monkeypatch):
    def no_library(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(_blas.ctypes, "CDLL", no_library)
    _blas._openblas_controls.cache_clear()  # find the libraries again, with none
    try:
        assert _blas._openblas_controls() == ()
        ran = False
        with _blas.one_blas_thread():
            ran = True
        assert ran
    finally:
        _blas._openblas_controls.cache_clear()


def test_a_later_scope_reads_no_maps_and_still_restores(monkeypatch, blas_threads):
    before = blas_threads()
    with _blas.one_blas_thread():  # the libraries are found by now
        pass
    opened = []
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    with _blas.one_blas_thread():
        assert blas_threads() == [1] * len(before)
    monkeypatch.undo()
    assert "/proc/self/maps" not in opened
    assert blas_threads() == before
