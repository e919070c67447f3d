"""Spectral-basis reconstruction against the dense Kronecker-design oracle.

`reconstruct_gssc` assembles its normal equations from per-edge blocks
with a diagonal spectral penalty and writes its certificates in closed
form; `oracles.dense_reconstruct` builds the full (n M) x (K T) design
with boundary-matrix penalty rows and solves its certificates by lstsq.
In real arithmetic the two are the same computation.  In floating point
they are two roundings of one linear system, so coefficients agree to
1e-9 relative unless the system's condition number kappa makes that
unattainable, in which case they agree to 10 kappa eps (measured ratio
of difference to kappa eps: at most 1.3 over these cases).  The M = 1
cases include rank-deficient systems (kappa ~ 1e16, harmonic block with
fewer samples than time coefficients) whose minimizer is not unique;
there the oracle's ridge solution pins down only the objective, the
penalized parts and the certificate identities.

The ConditioningWarning is decided by rank, not by roundoff: it fires
exactly once iff the `eig_sym` rank of the normal matrix is below its size
N, which with M = 1 happens on default, cycle(6) and cycle(3) at every eta
and basis size, and the fit is then the minimum-norm minimizer, pinned to
`oracles.eig_min_norm_solve` of the normal system the library solved to
1e-9; that system is in turn pinned to `oracles.stacked_normal_system` to
1e-13.  The same holds on every one of ten repeated fits, whether the
system is a leading block of a held factor or a fresh assembly.  The dense oracle
keeps its Cholesky with a 1e-10 ridge fallback as the reference; it must
stay silent on every well-conditioned system.
"""

import warnings

import numpy as np
import pytest

import gssc.learn as learn
from gssc import (ConditioningWarning, FourierFn, SampleSet, SynthSpec, eig_sym,
                  reconstruct_gssc, resolve_complex, sample_async,
                  spectral_bases, synthesize)

from oracles import (dense_reconstruct, eig_min_norm_solve, interleaved_rows, leads,
                     stacked_normal_system)

# cycle(6) has no triangles (U_sol is empty); with M = 1, default, cycle(6)
# and cycle(3) have rank-deficient normal systems
SPECS = ("default", "random(12,0.6,0.8,4)", "cycle(6)", "filled_triangle",
         "cycle(3)")
TIME_ORDER = 3
EPS = np.finfo(float).eps


def bases_for(rep, which):
    n = rep.n_cells(1)
    full = spectral_bases(rep, 1, n, n)
    if which == "full":
        return full
    return full.sub((full.n_irr + 1) // 2, (full.n_sol + 1) // 2)


def normal_matrix(samples, bases, eta):
    """The reconstruction's normal matrix from the dense Kronecker design."""
    n, m = samples.t.shape
    psi = FourierFn(TIME_ORDER).design_matrix(samples.t.ravel()).reshape(n, m, -1)
    design = np.einsum("ek,emt->emkt", bases.stacked(), psi).reshape(n * m, -1)
    lam = np.concatenate([np.zeros(bases.n_harmonic), bases.irr_eigenvalues,
                          bases.sol_eigenvalues])
    return design.T @ design + np.diag(np.repeat(lam / eta, psi.shape[2]))


def rank_of(gram):
    spec = eig_sym(gram)
    return int(np.sum(spec.eigenvalues > spec.zero_tol))


@pytest.fixture
def solved(monkeypatch):
    """The (matrix, rhs) of each system `reconstruct_gssc` solved by
    `hodge._min_norm_solve`, in call order."""
    seen = []
    real = learn._min_norm_solve

    def record(A, B):
        seen.append((np.array(A), np.array(B)))
        return real(A, B)
    monkeypatch.setattr(learn, "_min_norm_solve", record)
    return seen


def fit(method, samples, rep, bases, eta):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        estimate, result = method(samples, rep, bases, TIME_ORDER, eta)
    fired = sum(issubclass(w.category, ConditioningWarning) for w in caught)
    return estimate, result, fired


def values(chain):
    return np.asarray(chain.values, dtype=float)


@pytest.mark.parametrize("eta", [1.0, 30.0, 1e6])
@pytest.mark.parametrize("m", [1, 5, 40])
@pytest.mark.parametrize("which", ["full", "sub"])
@pytest.mark.parametrize("spec", SPECS)
def test_reconstruction_matches_dense_oracle(solved, spec, which, m, eta):
    rep = resolve_complex(spec)
    bases = bases_for(rep, which)
    truth = synthesize(rep, SynthSpec(20, 20, TIME_ORDER, seed=[len(spec)]))
    samples = sample_async(truth, m, 0.05, seed=[m, len(spec)])
    est, res, fired = fit(reconstruct_gssc, samples, rep, bases, eta)
    system = solved[-1] if solved else None
    ref_est, ref, ref_fired = fit(dense_reconstruct, samples, rep, bases, eta)

    gram = normal_matrix(samples, bases, eta)
    kappa = np.linalg.cond(gram)
    deficient = rank_of(gram) < len(gram)
    assert fired == deficient
    if kappa * EPS < 1e-4:
        assert ref_fired == 0
    rtol = max(1e-9, 10 * EPS * kappa)
    scale = np.linalg.norm(values(ref_est))
    pairs = [(est, ref_est), (res.x0, ref.x0), (res.x1, ref.x1),
             (res.x_neg1, ref.x_neg1), (res.y1, ref.y1), (res.y_neg1, ref.y_neg1)]
    for mine, want in pairs:
        diff = np.linalg.norm(values(mine) - values(want))
        assert diff <= rtol * max(np.linalg.norm(values(want)), scale)

    # the objective lies in [0, |y|^2] (theta = 0 is feasible)
    energy = float(np.sum(samples.y ** 2))
    assert abs(res.objective - ref.objective) <= 1e-9 * energy
    assert res.residuals.keys() == ref.residuals.keys()
    for key in res.residuals:
        assert abs(res.residuals[key] - ref.residuals[key]) <= 1e-9 * energy

    # certificates: B_2 y1 = x1 and B_1^T y_neg1 = x_neg1
    up, down = rep.boundary_float(2), rep.boundary_float(1)
    assert np.linalg.norm(up @ values(res.y1) - values(res.x1)) <= 1e-9 * max(scale, 1.0)
    assert (np.linalg.norm(down.T @ values(res.y_neg1) - values(res.x_neg1))
            <= 1e-9 * max(scale, 1.0))

    assert (system is not None) == deficient
    if deficient:
        assert_minimum_norm_fit(system, samples, bases, eta, est)


def assert_minimum_norm_fit(system, samples, bases, eta, est):
    """theta and the estimate are the minimum-norm solution of `system`, the
    normal system the fit solved, to 1e-9 relative, and `system` is the
    stacked-order oracle's, permuted, to 1e-13 relative."""
    gram, rhs = system
    rows = interleaved_rows(bases, FourierFn(TIME_ORDER).n_coeffs)
    want_gram, want_rhs = stacked_normal_system(samples, bases, TIME_ORDER, eta)
    assert (np.max(np.abs(want_gram[np.ix_(rows, rows)] - gram))
            <= 1e-13 * np.max(np.abs(want_gram)))
    assert np.max(np.abs(want_rhs[rows] - rhs)) <= 1e-13 * np.max(np.abs(want_rhs))
    U = bases.stacked()
    theta_ref = np.empty(len(rhs))
    theta_ref[rows] = eig_min_norm_solve(gram, rhs)[0]
    theta_ref = theta_ref.reshape(U.shape[1], -1)
    theta = U.T @ values(est)
    assert np.linalg.norm(theta - theta_ref) <= 1e-9 * np.linalg.norm(theta_ref)
    ref = U @ theta_ref
    assert np.linalg.norm(values(est) - ref) <= 1e-9 * np.linalg.norm(ref)


@pytest.mark.parametrize("spec", SPECS)
def test_warning_follows_the_rank_on_every_repeat(solved, spec):
    rep = resolve_complex(spec)
    full, sub = bases_for(rep, "full"), bases_for(rep, "sub")
    truth = synthesize(rep, SynthSpec(20, 20, TIME_ORDER, seed=[len(spec)]))
    samples = sample_async(truth, 1, 0.05, seed=[1, len(spec)])
    gram = normal_matrix(samples, sub, 30.0)
    deficient = rank_of(gram) < len(gram)
    full_gram = normal_matrix(samples, full, 30.0)
    holds = rank_of(full_gram) == len(full_gram)  # only a full-rank factor is held
    for _ in range(10):
        fit(reconstruct_gssc, samples, rep, full, 30.0)
        held = samples._held.get("normal")
        assert (held is not None) == holds
        est, _, fired = fit(reconstruct_gssc, samples, rep, sub, 30.0)
        reused = held is not None and samples._held["normal"] is held
        assert reused == (holds and leads(sub, full))  # a leading block
        fresh = SampleSet(samples.t, samples.y)
        solved.clear()
        fresh_est, _, fresh_fired = fit(reconstruct_gssc, fresh, rep, sub, 30.0)
        assert fired == fresh_fired == deficient
        assert len(solved) == deficient
        if deficient:
            assert_minimum_norm_fit(solved[0], fresh, sub, 30.0, fresh_est)
            assert (np.linalg.norm(values(est) - values(fresh_est))
                    <= 1e-9 * np.linalg.norm(values(fresh_est)))


def test_empty_basis_fits_nothing():
    rep = resolve_complex("filled_triangle")
    bases = spectral_bases(rep, 1, 3, 3).sub(0, 0)
    assert bases.stacked().shape == (3, 0)
    truth = synthesize(rep, SynthSpec(3, 3, TIME_ORDER, seed=0))
    samples = sample_async(truth, 4, 0.1, seed=1)
    est, res, fired = fit(reconstruct_gssc, samples, rep, bases, 1.0)
    ref_est, ref, ref_fired = fit(dense_reconstruct, samples, rep, bases, 1.0)
    assert fired == ref_fired == 0
    assert not np.any(values(est)) and not np.any(values(ref_est))
    assert res.objective == pytest.approx(float(np.sum(samples.y ** 2)), rel=1e-12)
    assert ref.objective == pytest.approx(float(np.sum(samples.y ** 2)), rel=1e-12)
    assert values(res.y1).shape == values(ref.y1).shape == (1, 7)
    assert values(res.y_neg1).shape == values(ref.y_neg1).shape == (3, 7)
