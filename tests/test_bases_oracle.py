"""The Hodge bases against the three-eigh oracle.

`gssc.hodge._full_bases` factors only the smaller Gram of each boundary and
maps its eigenvectors across by SVD duality; `oracles.dense_full_bases`
eigendecomposes L_k, B_k^T B_k and B_{k+1} B_{k+1}^T at full n_k x n_k
size.  Bases of repeated eigenvalues are not unique, so the two are compared
through their eigenvalues and projectors, and column by column only where
the eigenvalues are distinct.
"""

import numpy as np
import pytest

from gssc import resolve_complex
from gssc.hodge import _full_bases

from oracles import dense_full_bases

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
