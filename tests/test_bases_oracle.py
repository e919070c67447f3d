"""The Hodge bases against the three-eigh oracle.

`gssc.hodge._full_bases` factors only the smaller Gram of each boundary and
maps its eigenvectors across by SVD duality; `oracles.dense_full_bases`
eigendecomposes L_k, B_k^T B_k and B_{k+1} B_{k+1}^T at full n_k x n_k
size.  Bases of repeated eigenvalues are not unique, so the two are compared
through their eigenvalues and projectors, and column by column only where
the eigenvalues are distinct.  The memoized basis is also checked as an
eigenbasis of L_k: U0 has exactly beta_k columns, and the stacked basis is
square, orthonormal and rebuilds L_k.
"""

import numpy as np
import pytest

from gssc import eig_sym, homology_Z, laplacian, resolve_complex
from gssc.hodge import _full_bases

from oracles import dense_full_bases
from test_acceptance import two_complex_corpus

SPECS = ("rp2", "torus", "cycle(7)", "default", "random(30,0.5,1.0,11)",
         "random(40,0.5,1.0,11)")
TOL = 1e-10
# on `default` the first 21 nonzero eigenvalues of each kind are at least
# 0.4% apart, so those eigenvectors are unique up to sign
DISTINCT_COLUMNS = 21


def cases():
    for spec in SPECS:
        for k in range(resolve_complex(spec).dim + 1):
            yield pytest.param(spec, k, id=f"{spec}-k{k}")


@pytest.mark.parametrize("spec,k", cases())
def test_full_bases_match_the_dense_oracle(spec, k):
    rep = resolve_complex(spec)
    got = _full_bases(rep, k)
    ref = dense_full_bases(rep, k)
    for lam, lam_ref in ((got.irr_eigenvalues, ref.irr_eigenvalues),
                         (got.sol_eigenvalues, ref.sol_eigenvalues)):
        assert lam.shape == lam_ref.shape
        assert np.all(np.abs(lam - lam_ref) <= TOL * np.abs(lam_ref))
    for U, U_ref in ((got.U0, ref.U0), (got.U_irr, ref.U_irr), (got.U_sol, ref.U_sol)):
        assert U.shape == U_ref.shape
        assert np.max(np.abs(U @ U.T - U_ref @ U_ref.T), initial=0.0) <= TOL


def test_leading_default_columns_match_one_by_one_with_sign():
    rep = resolve_complex("default")
    got = _full_bases(rep, 1)
    ref = dense_full_bases(rep, 1)
    for U, U_ref in ((got.U_irr, ref.U_irr), (got.U_sol, ref.U_sol)):
        lead = slice(0, DISTINCT_COLUMNS)
        assert np.max(np.abs(U[:, lead] - U_ref[:, lead])) <= TOL


NAMED = ("rp2", "torus", "filled_triangle", "cycle(3)", "cycle(4)", "cycle(7)",
         "path(5)", "default", "random(30,0.5,1.0,11)", "random(40,0.5,1.0,11)")


def eigenbasis_cases():
    named = [(spec, resolve_complex(spec)) for spec in NAMED]
    named += [(f"corpus{i}", rep) for i, rep in enumerate(two_complex_corpus())]
    for name, rep in named:
        for k in range(rep.dim + 1):
            yield pytest.param(rep, k, id=f"{name}-k{k}")
    rep = resolve_complex("random(70,0.5,1.0,11)")
    for k in (0, 1):
        yield pytest.param(rep, k, id=f"random(70,0.5,1.0,11)-k{k}")


@pytest.mark.parametrize("rep,k", eigenbasis_cases())
def test_memoized_bases_are_an_eigenbasis_with_betti_harmonic_columns(rep, k):
    full = _full_bases(rep, k)
    assert full.n_harmonic == eig_sym(laplacian(rep, k)).n_zero == homology_Z(rep, k).betti
    P, lam = full.stacked(), full.eigenvalues()
    n = rep.n_cells(k)
    assert P.shape == (n, n) and lam.shape == (n,)
    assert np.max(np.abs(P.T @ P - np.eye(n)), initial=0.0) <= 1e-12
    L = laplacian(rep, k)
    assert np.max(np.abs(P @ np.diag(lam) @ P.T - L), initial=0.0) <= 1e-10 * max(
        1.0, float(np.max(np.abs(L), initial=0.0)))
