"""The sparse, memoized spectral layer against the dense per-call paths.

The float code reads a sparse view of each boundary, factors each boundary
Gram at most once per complex (keyed by the Gram, since a square B_k has two
of the same size), and solves the smooth fit by Cholesky unless its normal
matrix is rank-deficient under the one cutoff.  The references are the
dense per-call paths in `oracles.py`.  Where the arithmetic is unchanged
(the integer Grams and their eigenpairs) results must be equal byte for
byte; where a sparse product sums in another order they must agree to
1e-12 relative.
"""

import tracemalloc

import numpy as np
import pytest

import gssc
from gssc import (FourierFn, Real, apply_boundary, hodge_decompose,
                  homology_field, homology_Z, laplacian, random_chain,
                  random_complex, reconstruct_gssc, resolve_complex, sample_async,
                  simplicial_seminorm, solve_fundamental, solve_smooth,
                  spectral_bases, synthesize, SynthSpec)
from gssc import hodge, homology
from gssc.complexes import ChainComplexRep
from gssc.hodge import _boundary_modes, _weighted_projection
from gssc.learn import _smooth_fit

from oracles import (csc_tuples, dense_laplacian, dense_modes, dense_weighted_projection,
                     eig_min_norm_solve, eig_smooth_fit, expression_krr_fit_eval,
                     expression_rbf_kernel)
from test_acceptance import two_complex_corpus

# cycle(7) has a square B_1, so both of its Grams are 7 x 7
NAMED = ("rp2", "torus", "filled_triangle", "cycle(7)", "path(5)", "default",
         "random(30,0.5,1.0,11)")
REL = 1e-12
EPS = np.finfo(float).eps
# two_complex_corpus(50) as specs: seeds whose complex has an edge
CORPUS = tuple(f"random({4 + seed % 9},0.5,0.6,{seed})" for seed in range(100)
               if random_complex(4 + seed % 9, 0.5, 0.6, seed=seed).n_simplexes(1))[:50]


def assert_modes_match(got, ref, exact):
    (V, lam), (V_ref, lam_ref) = got, ref
    assert lam.tobytes() == lam_ref.tobytes()
    assert V.shape == V_ref.shape
    if exact:
        assert V.tobytes() == V_ref.tobytes()
    else:
        assert np.max(np.abs(V - V_ref), initial=0.0) <= REL * max(
            1.0, float(np.max(np.abs(V_ref), initial=0.0)))


def check_rep_modes(rep):
    for k in range(-1, rep.dim + 3):
        B = rep.boundary_float(k)
        for transpose in (False, True):
            M = B.T if transpose else B
            got = _boundary_modes(rep, k, transpose)
            exact = M.shape[0] >= M.shape[1]  # no mapping through B
            assert_modes_match(got, dense_modes(M), exact)
            again = _boundary_modes(rep, k, transpose)
            assert again[1] is got[1]  # from the memo, which is read-only
            assert not got[1].flags.writeable
            assert got[0].flags.writeable is not exact


@pytest.mark.parametrize("spec", NAMED)
def test_memoized_modes_match_the_dense_oracle(spec):
    check_rep_modes(resolve_complex(spec))


def test_memoized_modes_match_on_the_corpus():
    for rep in two_complex_corpus(50):
        check_rep_modes(rep)


def test_square_boundary_keeps_one_gram_per_side():
    # B_1 of a triangle: B^T B and B B^T are both 3 x 3 but differ
    rep = resolve_complex("cycle(3)")
    B = rep.boundary_float(1)
    assert B.shape == (3, 3)
    assert not np.array_equal(B.T @ B, B @ B.T)
    for transpose in (False, True, False):
        M = B.T if transpose else B
        assert_modes_match(_boundary_modes(rep, 1, transpose), dense_modes(M), exact=True)


def test_empty_and_off_range_boundaries():
    reps = [resolve_complex("cycle(4)"), ChainComplexRep((3,), []),
            ChainComplexRep((2, 0), [np.zeros((2, 0), dtype=int)])]
    for rep in reps:
        check_rep_modes(rep)
        for k in range(rep.dim + 1):
            assert np.array_equal(laplacian(rep, k), dense_laplacian(rep, k))


@pytest.mark.parametrize("spec", NAMED + CORPUS)
def test_laplacian_is_bit_equal_to_the_dense_one(spec):
    rep = resolve_complex(spec)
    for k in range(rep.dim + 1):
        assert laplacian(rep, k).tobytes() == dense_laplacian(rep, k).tobytes()


@pytest.mark.parametrize("spec", ("rp2", "cycle(7)", "default", "torus",
                                  "random(40,0.5,1.0,11)"))
def test_weighted_projection_matches_the_dense_oracle(spec):
    rep = resolve_complex(spec)
    rng = np.random.default_rng(5)
    for k in range(rep.dim + 2):
        for transpose in (False, True):
            B = rep.boundary_float(k)
            M = B.T if transpose else B
            target = rng.standard_normal((M.shape[0], 3))
            for w in (np.ones(M.shape[0]), rng.uniform(0.5, 2.0, M.shape[0]),
                      np.where(rng.random(M.shape[0]) < 0.3, 0.0, 1.0)):
                got = _weighted_projection(rep, k, target, w, transpose)
                ref = dense_weighted_projection(M, target, w)
                for a, b in zip(got, ref):
                    assert a.shape == b.shape
                    assert np.max(np.abs(a - b), initial=0.0) <= 1e-10 * max(
                        1.0, float(np.max(np.abs(b), initial=0.0)))


def test_corpus_specs_are_the_two_complex_corpus():
    for spec, rep in zip(CORPUS, two_complex_corpus(50), strict=True):
        got = resolve_complex(spec)
        assert got.dims == rep.dims
        assert all(csc_tuples(got.csc(k)) == csc_tuples(rep.csc(k))
                   for k in range(1, rep.dim + 1))


def test_warm_split_forms_no_large_side_basis():
    # the mapped basis of im B_2^T at degree 2 of random(40,...) is
    # 1386 x rank floats, about 4 MB
    rep = resolve_complex("random(40,0.5,1.0,11)")
    x = random_chain(rep, 2, FourierFn(3), 0)
    hodge_decompose(x)  # fills the Gram memo
    tracemalloc.start()
    try:
        hodge_decompose(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def count_eig_calls(monkeypatch):
    calls = []
    real = hodge.eig_sym

    def counted(matrix):
        calls.append(np.shape(matrix))
        return real(matrix)
    monkeypatch.setattr(hodge, "eig_sym", counted)
    return calls


def test_one_gram_eigendecomposition_per_boundary_per_complex(monkeypatch):
    rep = resolve_complex("random(30,0.5,1.0,11)")
    calls = count_eig_calls(monkeypatch)
    x = random_chain(rep, 1, FourierFn(3), 0)
    for _ in range(2):
        spectral_bases(rep, 1, 20, 20)
        hodge_decompose(x)
        solve_fundamental(x)
        solve_smooth(x, eta=30.0)
    n0, n1, n2 = rep.dims
    # the smaller Gram of B_1 and of B_2 once each; beta_1 = 0, so no L_1
    grams = [(min(n0, n1),) * 2, (min(n1, n2),) * 2]
    assert sorted(calls) == sorted(grams)


def test_bases_arrays_cannot_change_a_later_call():
    for spec in ("default", "cycle(7)", "rp2"):
        rep = resolve_complex(spec)
        first = spectral_bases(rep, 1, 5, 5)
        names = ("U0", "U_irr", "U_sol", "irr_eigenvalues", "sol_eigenvalues")
        saved = [getattr(first, name).copy() for name in names]
        for bases in (first, first.sub(3, 3)):
            for name in names:
                arr = getattr(bases, name)
                try:
                    arr[...] = 7.0
                except ValueError:  # read-only
                    pass
        later = spectral_bases(rep, 1, 5, 5)
        for name, want in zip(names, saved):
            assert getattr(later, name).tobytes() == want.tobytes(), name
        x = random_chain(rep, 1, Real(), 1)
        parts = hodge_decompose(x).parts()
        assert all(np.isfinite(p.values).all() for p in parts)
        assert np.max(np.abs(sum(p.values for p in parts) - x.values)) <= 1e-12 * max(
            1.0, float(np.max(np.abs(x.values))))


SMOOTH_SPECS = ("default", "rp2", "cycle(6)", "random(30,0.5,1.0,11)")


@pytest.mark.parametrize("spec", SMOOTH_SPECS)
def test_positive_weight_direct_solve_matches_the_eig_oracle(spec, monkeypatch):
    rep = resolve_complex(spec)
    rng = np.random.default_rng(3)
    calls = count_eig_calls(monkeypatch)
    for k in range(rep.dim + 1):
        n = rep.n_cells(k)
        mat = rng.standard_normal((n, 7))
        for w in (np.ones(n), rng.uniform(0.5, 2.0, n)):
            for eta in (1.0, 30.0, 1e6):
                got = _smooth_fit(rep, k, mat, w, eta)
                ref = eig_smooth_fit(rep, k, mat, w, eta)
                assert np.max(np.abs(got - ref)) <= 1e-10 * max(
                    1.0, float(np.max(np.abs(ref))))
    assert calls == []  # the oracle runs its own eigh


def smooth_cases():
    """(spec, weights) pairs: zero weights on every third edge of default
    (its one harmonic direction stays observed), on the support of that
    direction, and on every edge of cycle(6)."""
    rep = resolve_complex("default")
    n = rep.n_cells(1)
    every_third = np.ones(n)
    every_third[::3] = 0.0
    h = spectral_bases(rep, 1, 0, 0).U0[:, 0]
    unobserved = np.where(np.abs(h) > 1e-12 * np.max(np.abs(h)), 0.0, 1.0)
    return [("default", every_third), ("default", unobserved),
            ("cycle(6)", np.zeros(6))]


@pytest.mark.parametrize("eta", [1.0, 30.0, 1e6])
@pytest.mark.parametrize("case", range(3))
def test_zero_weights_take_the_eig_path_iff_the_rank_test_fails(case, eta, monkeypatch):
    spec, w = smooth_cases()[case]
    rep = resolve_complex(spec)
    n = rep.n_cells(1)
    mat = np.random.default_rng(4).standard_normal((n, 2))
    calls = count_eig_calls(monkeypatch)
    got = _smooth_fit(rep, 1, mat, w, eta)
    normal = dense_laplacian(rep, 1) / eta + np.diag(w ** 2)
    ref, rank = eig_min_norm_solve(normal, (w ** 2)[:, None] * mat)
    assert calls == ([(n, n)] if rank < n else [])
    assert (rank < n) == (case > 0)  # an unobserved harmonic direction
    lam = np.linalg.eigvalsh(normal)
    kappa = lam[-1] / lam[n - rank]  # over the kept eigenvalues
    assert np.max(np.abs(got - ref)) <= max(1e-10, 10 * EPS * kappa) * max(
        1.0, float(np.max(np.abs(ref))))


def test_no_library_path_reads_the_dense_float_boundary(monkeypatch):
    def refuse(self, k):
        raise AssertionError(f"dense boundary_float({k}) was read")
    monkeypatch.setattr(ChainComplexRep, "boundary_float", refuse)
    rep = resolve_complex("random(30,0.5,1.0,11)")
    x = random_chain(rep, 1, FourierFn(3), 2)
    bases = spectral_bases(rep, 1, 20, 20)
    hodge_decompose(x)
    solve_smooth(x, eta=30.0)
    solve_smooth(x, eta=30.0, weights=np.linspace(0.0, 1.0, len(x.values)))
    solve_fundamental(x)
    solve_fundamental(x, weights=np.linspace(0.5, 1.5, len(x.values)))
    truth = synthesize(rep, SynthSpec(20, 20, 3, seed=0))
    reconstruct_gssc(sample_async(truth, 5, 0.01, 0), rep, bases, eta=30.0)
    assert homology_field(rep, 1, Real()) == homology_Z(rep, 1).betti
    cycle = hodge_decompose(random_chain(rep, 2, Real(), 3)).x0
    simplicial_seminorm(cycle, p=2, weights=np.linspace(0.5, 1.5, len(cycle.values)))
    apply_boundary(random_chain(rep, 2, Real(), 4))
    apply_boundary(x)
    gssc.apply_coboundary(x)


def test_bases_run_no_laplacian_eigendecomposition_when_beta_is_zero(monkeypatch):
    rep = resolve_complex("random(40,0.5,1.0,11)")
    assert homology_field(rep, 1, Real()) == 0
    # the bases factor only the Grams of B_1 and B_2^T: warm both memos
    hodge._factored(rep, 1)
    hodge._factored(rep, 2, transpose=True)

    def refuse(*args):
        raise AssertionError("a Laplacian was built or eigendecomposed")
    monkeypatch.setattr(hodge, "laplacian", refuse)
    monkeypatch.setattr(hodge, "eig_sym", refuse)
    bases = spectral_bases(rep, 1, 20, 20)
    assert (bases.n_harmonic, bases.n_irr, bases.n_sol) == (0, 20, 20)


def count_eliminations(monkeypatch):
    seen = []
    real = homology._eliminate

    def counted(columns):
        seen.append(columns)
        return real(columns)
    monkeypatch.setattr(homology, "_eliminate", counted)
    return seen


@pytest.mark.parametrize("spec", ("rp2", "torus", "default", "random(30,0.5,1.0,11)"))
def test_homology_eliminates_each_boundary_once(spec, monkeypatch):
    rep = resolve_complex(spec)
    seen = count_eliminations(monkeypatch)
    groups = [homology_Z(rep, k) for k in range(rep.dim + 1)]
    again = [homology_Z(rep, k) for k in range(rep.dim + 1)]
    assert groups == again
    boundaries = [rep.csc(k) for k in range(1, rep.dim + 1)]
    assert [c for c in seen if any(c is b for b in boundaries)] == boundaries
    # the only other elimination is the empty B_{dim+1}
    assert [csc_tuples(c) for c in seen if not any(c is b for b in boundaries)] == [()]


def test_memoized_homology_matches_a_fresh_elimination_on_the_corpus():
    for rep in two_complex_corpus(50):
        for k in range(rep.dim + 1):
            rank_k = len(homology._invariant_factors(rep.csc(k))) if k else 0
            factors = homology._invariant_factors(rep.csc(k + 1))
            fresh = homology.HomologySummary(rep.n_cells(k) - rank_k - len(factors),
                                             [d for d in factors if d > 1])
            assert repr(homology_Z(rep, k)) == repr(fresh)


def test_rbf_kernel_is_byte_equal_to_the_expression_at_sweep_shapes():
    rep = resolve_complex("default")
    n = rep.n_cells(1)
    grid = gssc.evaluation_grid()
    rng = np.random.default_rng(0)
    for m in (5, 10, 15, 20, 30, 40):
        t = rng.uniform(-np.pi, np.pi, (n, m))
        for a, b in ((t, t), (grid, t)):
            got = gssc.rbf_kernel(a, b, 1.0)
            want = expression_rbf_kernel(a, b, 1.0)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        for lengthscale in (0.3, 2.5):
            assert (gssc.rbf_kernel(grid, t, lengthscale).tobytes()
                    == expression_rbf_kernel(grid, t, lengthscale).tobytes())


def test_krr_fit_eval_is_byte_equal_to_the_expression_at_sweep_shapes():
    n = resolve_complex("default").n_cells(1)
    grid = gssc.evaluation_grid()
    rng = np.random.default_rng(1)
    for m in (5, 10, 15, 20, 30, 40):
        t = rng.uniform(-np.pi, np.pi, (n, m))
        y = rng.standard_normal((n, m))
        for config in (gssc.KrrConfig(1.0, 1e-2), gssc.KrrConfig(0.3, 0.5)):
            got = gssc.krr_fit_eval(t, y, config, grid)
            want = expression_krr_fit_eval(t, y, config, grid)
            assert got.tobytes() == want.tobytes()
