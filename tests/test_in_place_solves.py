"""The dense spectral and smoothing solves hold no spare copy of their matrix.

`eig_sym` hands an exactly symmetric matrix to `np.linalg.eigh` as given, and
`_smooth_fit` factors the Fortran-ordered Laplacian it built in place.
Neither may change a bit: for an exactly symmetric M, (M + M^T) / 2 is M, so
eigenpairs and fits must equal those of the copying paths in `oracles.py`
exactly.
"""

import numpy as np
import pytest

from gssc import eig_sym, laplacian, resolve_complex
from gssc import learn
from gssc.learn import _smooth_fit

from oracles import spd_smooth_fit, symmetrized_eig_sym
from test_acceptance import two_complex_corpus

NAMED = ("rp2", "torus", "filled_triangle", "cycle(7)", "path(5)", "default",
         "random(30,0.5,1.0,11)")
ETAS = (1.0, 30.0, np.inf)


def record(monkeypatch, owner, name):
    """Wrap `owner.name` so each call appends (first argument, result) to the
    returned list."""
    seen = []
    real = getattr(owner, name)

    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append((args[0], out))
        return out
    monkeypatch.setattr(owner, name, wrapped)
    return seen


def test_eig_sym_hands_eigh_an_exactly_symmetric_matrix_itself(monkeypatch):
    seen = record(monkeypatch, np.linalg, "eigh")
    L = laplacian(resolve_complex("default"), 1)
    eig_sym(L)
    assert seen.pop()[0] is L
    A = np.random.default_rng(0).standard_normal((5, 5))
    near = A + A.T
    near[0, 1] = np.nextafter(near[0, 1], np.inf)  # symmetric to 1e-12, not exactly
    eig_sym(near)
    got = seen.pop()[0]
    assert not np.shares_memory(got, near)
    assert np.array_equal(got, (near + near.T) / 2.0)


@pytest.mark.parametrize("w_kind", ["positive", "unobserved"])
def test_smooth_fit_factors_the_laplacian_it_built_in_place(w_kind, monkeypatch):
    rep = resolve_complex("cycle(6)")
    n = rep.n_cells(1)
    # with no weight on the cycle its harmonic direction is unobserved
    w = np.full(n, 1.5) if w_kind == "positive" else np.zeros(n)
    calls = {name: record(monkeypatch, learn, name)
             for name in ("laplacian", "_cholesky", "_min_norm_solve")}
    _smooth_fit(rep, 1, np.ones((n, 2)), w, 30.0)
    built = [L for _, L in calls["laplacian"]]
    factored, solved = ([A for A, _ in calls[name]] for name in ("_cholesky", "_min_norm_solve"))
    assert len(factored) == 1
    assert factored[0].flags.f_contiguous and np.shares_memory(factored[0], built[0])
    # a refused factorization leaves its system overwritten: it is rebuilt
    assert len(built) == 1 + len(solved) == (1 if w_kind == "positive" else 2)
    if solved:
        assert np.shares_memory(solved[0], built[1])


def weight_vectors(n, seed):
    rng = np.random.default_rng(seed)
    zeros = rng.uniform(0.2, 2.0, n)
    zeros[::3] = 0.0
    return {"unit": np.ones(n), "positive": rng.uniform(0.2, 2.0, n), "zeros": zeros,
            "all-zero": np.zeros(n)}


def assert_same_as_the_copying_paths(rep, seed):
    rng = np.random.default_rng(seed)
    for k in range(rep.dim + 1):
        L = laplacian(rep, k)
        grams = [L] + [B @ B.T if dual else B.T @ B
                       for B in (rep.boundary_float(k), rep.boundary_float(k + 1))
                       for dual in (False, True) if B.size]
        for M in grams:
            got, want = eig_sym(M), symmetrized_eig_sym(M)
            assert np.array_equal(got.eigenvalues, want.eigenvalues)
            assert np.array_equal(got.eigenvectors, want.eigenvectors)
            assert got.zero_tol == want.zero_tol
        n = rep.n_cells(k)
        mat = rng.standard_normal((n, 3))
        for kind, w in weight_vectors(n, seed + k).items():
            for eta in ETAS:
                got = _smooth_fit(rep, k, mat, w, eta)
                want = spd_smooth_fit(rep, k, mat, w, eta)
                assert np.array_equal(got, want), (k, kind, eta)


@pytest.mark.parametrize("spec", NAMED)
def test_named_complexes_match_the_copying_paths_bit_for_bit(spec):
    assert_same_as_the_copying_paths(resolve_complex(spec), 1)


def test_the_corpus_matches_the_copying_paths_bit_for_bit():
    for i, rep in enumerate(two_complex_corpus(50)):
        assert_same_as_the_copying_paths(rep, 100 + i)
