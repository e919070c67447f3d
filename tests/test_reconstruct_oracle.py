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
there only the objective, the penalized parts and the certificate
identities are pinned down.

The ConditioningWarning must agree, and stay silent, on every
nonsingular system.  On the rank-deficient ones whether Cholesky breaks
down, and so whether the ridge fallback fires, is decided by roundoff:
the two assemblies agree on cycle(3) (both fire) and cycle(6) (neither
fires) but not on default (only the dense one fires), so the warning is
not compared there.
"""

import warnings

import numpy as np
import pytest

from gssc import (ConditioningWarning, FourierFn, SynthSpec, reconstruct_gssc,
                  resolve_complex, sample_async, spectral_bases, synthesize)

from oracles import dense_reconstruct

# cycle(6) has no triangles (U_sol is empty); with M = 1, cycle(3) is the
# rank-deficient system on which both assemblies take the ridge fallback
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


def normal_equations_condition(samples, bases, eta):
    """2-norm condition number of the reconstruction's normal equations."""
    n, m = samples.t.shape
    psi = FourierFn(TIME_ORDER).design_matrix(samples.t.ravel()).reshape(n, m, -1)
    design = np.einsum("ek,emt->emkt", bases.stacked(), psi).reshape(n * m, -1)
    lam = np.concatenate([np.zeros(bases.n_harmonic), bases.irr_eigenvalues,
                          bases.sol_eigenvalues])
    gram = design.T @ design + np.diag(np.repeat(lam / eta, psi.shape[2]))
    return np.linalg.cond(gram)


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
def test_reconstruction_matches_dense_oracle(spec, which, m, eta):
    rep = resolve_complex(spec)
    bases = bases_for(rep, which)
    truth = synthesize(rep, SynthSpec(20, 20, TIME_ORDER, seed=[len(spec)]))
    samples = sample_async(truth, m, 0.05, seed=[m, len(spec)])
    est, res, fired = fit(reconstruct_gssc, samples, rep, bases, eta)
    ref_est, ref, ref_fired = fit(dense_reconstruct, samples, rep, bases, eta)

    kappa = normal_equations_condition(samples, bases, eta)
    if kappa * EPS < 1e-4:
        assert fired == ref_fired == 0
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
