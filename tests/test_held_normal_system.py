"""Fits through a SampleSet's held normal system against fresh assembly.

`reconstruct_gssc` holds the design and the last normal system it
assembled on the SampleSet.  A later fit with the same eta and time order
whose basis is a leading sub-basis of the held one takes the principal
block of the held Gram instead of assembling its own.  Each such fit must
match the same fit of a fresh copy of the samples to 1e-12 relative (the
objective with an absolute floor of eps |y|^2, where an interpolating fit
reaches 0).  With M = 1 there are fewer samples than unknowns and the
normal system is singular or nearly so, so its minimizer is not pinned
down; there only the objective is compared.  Fits that must not reuse (a larger basis, another eta or time order, another
complex's basis, reassigned samples) assemble afresh and match bit for bit.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest

import gssc.experiment as experiment
from gssc import (ConditioningWarning, SampleSet, SimplicialComplex, SynthSpec,
                  parse_config, reconstruct_gssc, resolve_complex,
                  run_experiment, sample_async, spectral_bases, synthesize,
                  to_chain_complex)

SPECS = ("rp2", "torus", "cycle(7)", "default", "random(30,0.5,1.0,11)")
SUB_SIZES = ((15, 15), (3, 5), (0, 20))
TIME_ORDER = 3
EPS = np.finfo(float).eps
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def fresh(samples):
    return SampleSet(samples.t, samples.y, samples.sigma, samples.seed)


def fit(samples, rep, bases, time_order=TIME_ORDER, eta=1.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        return reconstruct_gssc(samples, rep, bases, time_order, eta)


def held_system(samples):
    return samples._held()["normal"]


def assert_bitwise_equal(got, want):
    est, res = got
    ref_est, ref = want
    assert est.values.tobytes() == ref_est.values.tobytes()
    assert res.objective == ref.objective


@pytest.mark.parametrize("sub_size", SUB_SIZES)
@pytest.mark.parametrize("m", [1, 3, 20])
@pytest.mark.parametrize("spec", SPECS)
def test_fit_through_the_held_system_matches_a_fresh_assembly(spec, m, sub_size):
    rep = resolve_complex(spec)
    bases = spectral_bases(rep, 1, 20, 20)
    sub = bases.sub(*sub_size)
    truth = synthesize(rep, SynthSpec(20, 20, TIME_ORDER, seed=[len(spec), m]))
    samples = sample_async(truth, m, 0.01, seed=[m, len(spec)])
    fit(samples, rep, bases, eta=30.0)
    held = held_system(samples)

    est, res = fit(samples, rep, sub, eta=30.0)
    assert held_system(samples) is held  # the block was taken, not reassembled
    ref_est, ref = fit(fresh(samples), rep, sub, eta=30.0)
    # an interpolating fit has objective 0 up to roundoff of the data energy
    floor = EPS * float(np.sum(samples.y ** 2))
    assert abs(res.objective - ref.objective) <= 1e-12 * ref.objective + floor
    if m == 1:
        return
    diff = np.linalg.norm(est.values - ref_est.values)
    assert diff <= 1e-12 * np.linalg.norm(ref_est.values)
    for key in res.residuals:
        assert abs(res.residuals[key] - ref.residuals[key]) <= 1e-12 * ref.objective + floor


def relabeled_cycle(n):
    """cycle(n) with its vertices visited in another order: the same edge
    count and spectral counts, but other edges and so other basis entries."""
    order = list(range(0, n, 2)) + list(range(1, n, 2))
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    return to_chain_complex(SimplicialComplex.from_maximal(edges))


def test_fits_that_must_not_reuse_assemble_afresh():
    rep = resolve_complex("default")
    bases = spectral_bases(rep, 1, 20, 20)
    sub = bases.sub(15, 15)
    truth = synthesize(rep, SynthSpec(20, 20, TIME_ORDER, seed=3))
    cases = [((sub,), (bases,)),                         # larger after smaller
             ((bases,), (sub, TIME_ORDER, 30.0)),        # another eta
             ((bases,), (sub, TIME_ORDER - 1))]          # another time order
    for first, second in cases:
        samples = sample_async(truth, 20, 0.01, seed=4)
        fit(samples, rep, *first)
        before = held_system(samples)
        got = fit(samples, rep, *second)
        assert held_system(samples) is not before
        assert_bitwise_equal(got, fit(fresh(samples), rep, *second))


def test_a_basis_of_another_complex_with_as_many_edges_is_not_reused():
    rep, other = resolve_complex("cycle(7)"), relabeled_cycle(7)
    bases = spectral_bases(rep, 1, 20, 20)
    foreign = spectral_bases(other, 1, 20, 20).sub(3, 0)
    assert foreign.U0.shape == bases.U0.shape and foreign.n_irr < bases.n_irr
    assert not np.array_equal(foreign.U_irr, bases.U_irr[:, :3])
    truth = synthesize(rep, SynthSpec(20, 20, TIME_ORDER, seed=5))
    samples = sample_async(truth, 20, 0.01, seed=6)
    fit(samples, rep, bases)
    before = held_system(samples)
    got = fit(samples, other, foreign)
    assert held_system(samples) is not before
    assert_bitwise_equal(got, fit(fresh(samples), other, foreign))


@pytest.mark.parametrize("field", ["t", "y"])
def test_reassigned_samples_drop_what_is_held(field):
    rep = resolve_complex("default")
    bases = spectral_bases(rep, 1, 20, 20)
    truth = synthesize(rep, SynthSpec(20, 20, TIME_ORDER, seed=7))
    samples = sample_async(truth, 10, 0.01, seed=8)
    fit(samples, rep, bases)
    setattr(samples, field, getattr(samples, field) + 0.25)
    assert samples._held() == {}
    got = fit(samples, rep, bases.sub(15, 15))
    assert_bitwise_equal(got, fit(fresh(samples), rep, bases.sub(15, 15)))


def test_samples_are_read_only_copies():
    t = np.linspace(-3.0, 3.0, 6).reshape(2, 3)
    y = np.ones((2, 3))
    samples = SampleSet(t, y)
    t[0, 0] = y[0, 0] = 9.0  # the caller's arrays stay writable
    assert samples.t[0, 0] == -3.0 and samples.y[0, 0] == 1.0
    for arr in (samples.t, samples.y):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0.0


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_rows_match_fits_of_fresh_sample_copies(tmp_path, monkeypatch, jobs):
    config = parse_config(CONFIG_DIR / "default_samples_sweep.cfg")
    held = run_experiment(config, tmp_path / "held", jobs=jobs)
    real = experiment.reconstruct_gssc
    monkeypatch.setattr(experiment, "reconstruct_gssc",
                        lambda samples, *args: real(fresh(samples), *args))
    copied = run_experiment(config, tmp_path / "copied", jobs=jobs)
    for key in ("results", "aggregate"):
        assert Path(held[key]).read_bytes() == Path(copied[key]).read_bytes()
