"""Fits through a SampleSet's held Cholesky factor against fresh assembly.

`reconstruct_gssc` holds the design and, when the last system it
assembled had full rank, that system's Cholesky factor and rhs on the
SampleSet, in the interleaved column order [U0 | irr_0, sol_0, irr_1,
sol_1, ...].  A later fit with the same eta and time order whose basis
columns come first in that order (every sub(s, s) does) solves the
factor's leading block instead of assembling its own.  Each such fit must
match the same fit of a fresh copy of the samples to 1e-12 relative, or to
10 kappa eps where the block's condition number kappa makes 1e-12
unattainable (the objective with an absolute floor of eps |y|^2, where an
interpolating fit reaches 0).  Every other fit (a basis not leading in
the held order, a rank-deficient held system, which holds no factor, a
larger basis, another eta or time order, another complex's basis)
assembles afresh and matches a fresh copy bit for bit, M = 1 included.
A SampleSet's t and y cannot be reassigned, so what it holds stays theirs.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest

import gssc.experiment as experiment
import gssc.learn as learn
from gssc import (ConditioningWarning, HodgeBases, SampleSet, SimplicialComplex,
                  SynthSpec, parse_config, reconstruct_gssc, resolve_complex,
                  run_experiment, sample_async, spectral_bases, synthesize,
                  to_chain_complex)

from oracles import (eig_min_norm_solve, interleaved_rows, leads,
                     stacked_normal_system)

SPECS = ("rp2", "torus", "cycle(7)", "default", "random(30,0.5,1.0,11)")
SUB_SIZES = ((15, 15), (3, 5), (0, 20))
TIME_ORDER = 3
N_COEFFS = 2 * TIME_ORDER + 1  # time coefficients per basis column
EPS = np.finfo(float).eps
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def fresh(samples):
    return SampleSet(samples.t, samples.y, samples.sigma, samples.seed)


def fit(samples, rep, bases, time_order=TIME_ORDER, eta=1.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        return reconstruct_gssc(samples, rep, bases, time_order, eta)


def held_system(samples):
    return samples._held.get("normal")


def assert_bitwise_equal(got, want):
    est, res = got
    ref_est, ref = want
    assert est.values.tobytes() == ref_est.values.tobytes()
    assert res.objective == ref.objective


def full_rank(samples, bases, eta):
    gram, rhs = stacked_normal_system(samples, bases, TIME_ORDER, eta)
    return eig_min_norm_solve(gram, rhs)[1] == len(gram), np.linalg.cond(gram)


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
    assert (held is not None) == full_rank(samples, bases, 30.0)[0]

    got = fit(samples, rep, sub, eta=30.0)
    want = fit(fresh(samples), rep, sub, eta=30.0)
    if held is None or not leads(sub, bases):
        if held is not None:
            assert held_system(samples) is not held  # assembled and held afresh
        assert_bitwise_equal(got, want)
        return

    assert held_system(samples) is held  # the leading block was solved
    (est, res), (ref_est, ref) = got, want
    # an interpolating fit has objective 0 up to roundoff of the data energy
    floor = EPS * float(np.sum(samples.y ** 2))
    assert abs(res.objective - ref.objective) <= 1e-12 * ref.objective + floor
    for key in res.residuals:
        assert abs(res.residuals[key] - ref.residuals[key]) <= 1e-12 * ref.objective + floor
    # M = 1 leaves some sub systems ill-conditioned: 10 kappa eps there
    rtol = 1e-12 if m > 1 else max(1e-12, 10 * EPS * full_rank(samples, sub, 30.0)[1])
    diff = np.linalg.norm(est.values - ref_est.values)
    assert diff <= rtol * np.linalg.norm(ref_est.values)


@pytest.mark.parametrize("spec", SPECS)
def test_every_sub_s_s_fit_solves_a_leading_block_of_the_held_factor(spec):
    rep = resolve_complex(spec)
    bases = spectral_bases(rep, 1, 20, 20)
    truth = synthesize(rep, SynthSpec(20, 20, TIME_ORDER, seed=[len(spec), 20]))
    samples = sample_async(truth, 20, 0.01, seed=[20, len(spec)])
    fit(samples, rep, bases, eta=30.0)
    held = held_system(samples)
    assert held is not None
    for s in range(21):
        assert leads(bases.sub(s, s), bases)
        fit(samples, rep, bases.sub(s, s), eta=30.0)
        assert held_system(samples) is held


def writable_copy(bases):
    return HodgeBases(*(np.array(getattr(bases, name)) for name in (
        "U0", "U_irr", "U_sol", "irr_eigenvalues", "sol_eigenvalues")),
        bases.requested_irr, bases.requested_sol)


def test_a_fit_after_an_in_place_basis_write_matches_a_fresh_basis():
    rep = resolve_complex("default")
    bases = writable_copy(spectral_bases(rep, 1, 20, 20))
    truth = synthesize(rep, SynthSpec(20, 20, TIME_ORDER, seed=9))
    samples = sample_async(truth, 5, 0.01, seed=10)
    fit(samples, rep, bases)  # holds the factor
    bases.U_irr *= -1
    bases.U_sol[:, 0] *= -1
    copy = writable_copy(bases)
    want = fit(fresh(samples), rep, copy)
    assert_bitwise_equal(fit(fresh(samples), rep, bases), want)
    assert_bitwise_equal(fit(samples, rep, bases), want)  # factor not reused


def to_stacked(matrix, bases):
    """A matrix over the interleaved (column, time) rows, permuted to the
    stacked ones."""
    rows = interleaved_rows(bases, N_COEFFS)
    out = np.empty_like(matrix)
    out[np.ix_(rows, rows)] = matrix
    return out


@pytest.mark.parametrize("which", ["full", "sub"])
@pytest.mark.parametrize("m", [1, 3, 20])
@pytest.mark.parametrize("spec", SPECS)
def test_the_upper_block_triangle_is_the_stacked_oracle_gram(monkeypatch, spec, m, which):
    rep = resolve_complex(spec)
    bases = spectral_bases(rep, 1, 20, 20)
    b = bases if which == "full" else bases.sub(15, 15)
    truth = synthesize(rep, SynthSpec(20, 20, TIME_ORDER, seed=[len(spec), m]))
    samples = sample_async(truth, m, 0.01, seed=[m, len(spec)])
    seen = {}

    def spy(name):
        real = getattr(learn, name)

        def record(A, *args):
            seen[name] = np.array(A)
            return real(A, *args)
        monkeypatch.setattr(learn, name, record)
    spy("_cholesky")
    spy("_min_norm_solve")
    fit(samples, rep, b, eta=30.0)
    want, _ = stacked_normal_system(samples, b, TIME_ORDER, 30.0)
    upper = seen["_cholesky"]
    got = [np.triu(upper) + np.triu(upper, 1).T]  # what Cholesky reads, mirrored
    if not full_rank(samples, b, 30.0)[0]:
        got.append(seen["_min_norm_solve"])  # the fallback's matrix, in full
    assert ("_min_norm_solve" in seen) == (len(got) == 2)
    for gram in got:
        diff = np.max(np.abs(to_stacked(gram, b) - want))
        assert diff <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("which", ["full", "sub"])
@pytest.mark.parametrize("m", [1, 3, 20])
@pytest.mark.parametrize("spec", SPECS)
def test_a_leading_block_solve_is_a_fresh_fit(spec, m, which):
    rep = resolve_complex(spec)
    bases = spectral_bases(rep, 1, 20, 20)
    b = bases if which == "full" else bases.sub(15, 15)
    truth = synthesize(rep, SynthSpec(20, 20, TIME_ORDER, seed=[len(spec), m]))
    samples = sample_async(truth, m, 0.01, seed=[m, len(spec)])
    fit(samples, rep, bases, eta=30.0)
    held = held_system(samples)
    got = fit(samples, rep, b, eta=30.0)
    want = fit(fresh(samples), rep, b, eta=30.0)
    if held is None:  # rank-deficient: no factor is held
        assert_bitwise_equal(got, want)
        return
    assert held_system(samples) is held  # the leading block was solved
    diff = np.linalg.norm(got[0].values - want[0].values)
    assert diff <= 1e-12 * np.linalg.norm(want[0].values)


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
def test_samples_cannot_be_reassigned(field):
    rep = resolve_complex("default")
    bases = spectral_bases(rep, 1, 20, 20)
    truth = synthesize(rep, SynthSpec(20, 20, TIME_ORDER, seed=7))
    samples = sample_async(truth, 10, 0.01, seed=8)
    fit(samples, rep, bases)
    held = held_system(samples)
    assert held is not None
    with pytest.raises(AttributeError):
        setattr(samples, field, getattr(samples, field) + 0.25)
    got = fit(samples, rep, bases.sub(15, 15))
    assert held_system(samples) is held  # the leading block was solved
    want = fit(fresh(samples), rep, bases.sub(15, 15))
    diff = np.linalg.norm(got[0].values - want[0].values)
    assert diff <= 1e-12 * np.linalg.norm(want[0].values)


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
