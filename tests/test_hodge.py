"""Laplacian spectra, the three-part decomposition, and spectral bases."""

import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from gssc import (ChainVector, FourierFn, ModN, Real, SimplicialComplex,
                  UnsupportedError, canonical_complex, courant_fischer_check,
                  eig_sym, evaluation_grid, hodge_decompose, homology_field, laplacian,
                  numerical_rank, random_chain, random_complex, resolve_complex,
                  sample_async, simplicial_seminorm, solve_fundamental,
                  spectral_bases, to_chain_complex)
from gssc.hodge import _cholesky, _min_norm_solve, _signed
from gssc.learn import _smooth_fit

from oracles import eig_min_norm_solve, loop_signed


def random_reps(count, n_vertices=8, seed0=0):
    return [to_chain_complex(random_complex(n_vertices, 0.5, 0.6, seed=s))
            for s in range(seed0, seed0 + count)]


def test_eig_sym_simple_matrices():
    spec = eig_sym(np.eye(3))
    assert np.allclose(spec.eigenvalues, 1.0)
    assert spec.n_zero == 0

    spec = eig_sym(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-14)
    assert spec.n_zero == 1
    top = spec.eigenvectors[:, 1]
    assert np.allclose(np.abs(top), 1 / np.sqrt(2))
    assert top[0] * top[1] < 0

    spec = eig_sym(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0])

    with pytest.raises(ValueError, match="symmetric"):
        eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        eig_sym(np.zeros((2, 3)))


@pytest.mark.filterwarnings("error")
def test_eig_sym_decomposes_a_finite_symmetric_matrix_whose_sum_would_overflow():
    spec = eig_sym(np.array([[1e308, 0.0], [0.0, 1.0]]))
    assert spec.eigenvalues.tolist() == [1.0, 1e308]
    assert spec.eigenvectors.tolist() == [[0.0, 1.0], [1.0, 0.0]]


@pytest.mark.parametrize("matrix,message", [
    # symmetric to 1e-12 relative, but (M + M^T) / 2 overflows on the diagonal
    ([[1e308, 1.0], [np.nextafter(1.0, 2.0), 1.0]], "overflows"),
    # M - M^T overflows: as far from symmetric as can be
    ([[0.0, 1e308], [-1e308, 0.0]], "not symmetric"),
], ids=["sum", "difference"])
@pytest.mark.filterwarnings("error")
def test_eig_sym_refuses_an_overflowing_symmetrization_without_a_numpy_warning(matrix, message):
    with pytest.raises(ValueError, match=message):
        eig_sym(matrix)


@pytest.mark.parametrize("call", [eig_sym, numerical_rank])
@pytest.mark.parametrize("matrix,message", [
    ([[np.nan, 0.0], [0.0, 1.0]], "entry (0, 0) = nan is not finite"),
    ([[1.0, 0.0], [0.0, np.inf]], "entry (1, 1) = inf is not finite"),
    ([[1.0, -np.inf], [-np.inf, 1.0]], "entry (0, 1) = -inf is not finite"),
], ids=["nan", "inf", "-inf"])
@pytest.mark.filterwarnings("error")
def test_non_finite_entries_are_refused_before_any_numpy_warning(call, matrix, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(matrix)


@pytest.mark.parametrize("sparse", [scipy.sparse.csr_array, scipy.sparse.csc_array])
@pytest.mark.parametrize("matrix,message", [
    ([[1.0, 0.0, 0.0], [0.0, 0.0, np.nan]], "entry (1, 2) = nan is not finite"),
    # row-major: (0, 2) comes before (1, 0), which a column-major scan meets first
    ([[1.0, 0.0, np.inf], [-np.inf, 0.0, 1.0]], "entry (0, 2) = inf is not finite"),
], ids=["nan", "row-major"])
@pytest.mark.filterwarnings("error")
def test_sparse_non_finite_entries_are_named_in_the_matrix_not_its_gram(sparse, matrix, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        numerical_rank(sparse(np.array(matrix)))


def test_eig_sym_is_deterministic_and_orthonormal():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((7, 7))
    M = A + A.T
    a = eig_sym(M)
    b = eig_sym(M.copy())
    assert (a.eigenvectors == b.eigenvectors).all()
    assert np.allclose(a.eigenvectors.T @ a.eigenvectors, np.eye(7), atol=1e-12)
    assert np.allclose(M @ a.eigenvectors,
                       a.eigenvectors * a.eigenvalues, atol=1e-10)


# exactly singular (X X^T for an integer 3 x 2 X of rank 2): Cholesky runs
# through, its last squared pivot 1.4e-14 is roundoff of a zero
SINGULAR_FACTORS = np.array([[2.0, 3.0, 3.0], [3.0, 5.0, 3.0], [3.0, 3.0, 9.0]])
# the Laplacian of cycle(3): its last pivot is exactly 0, so Cholesky raises
SINGULAR_RAISES = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])


def test_a_full_rank_system_is_solved_by_its_cholesky_bit_for_bit():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((9, 6))
    A = X.T @ X
    B = rng.standard_normal((6, 3))
    held = _cholesky(np.array(A, order="F"))
    assert held is not None  # full rank: every pivot passes the cutoff
    for rhs in (B, B[:, 0]):
        got = scipy.linalg.cho_solve((held[0], False), rhs)
        want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), rhs)
        assert got.shape == rhs.shape and got.tobytes() == want.tobytes()
    # positive weights make the smooth fit's system full rank
    rep = resolve_complex("default")
    n = rep.n_cells(1)
    w = rng.uniform(0.5, 2.0, n)
    mat = rng.standard_normal((n, 3))
    normal = laplacian(rep, 1) / 30.0
    normal[np.diag_indices_from(normal)] += w ** 2
    want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(normal), (w ** 2)[:, None] * mat)
    assert _smooth_fit(rep, 1, mat, w, 30.0).tobytes() == want.tobytes()


@pytest.mark.parametrize("A, factors", [(SINGULAR_FACTORS, True),
                                        (SINGULAR_RAISES, False)])
def test_a_singular_system_gets_its_minimum_norm_solution(A, factors):
    if factors:
        scipy.linalg.cho_factor(A)
    else:
        with pytest.raises(scipy.linalg.LinAlgError):
            scipy.linalg.cho_factor(A)
    assert _cholesky(np.array(A, order="F")) is None
    # a consistent rhs, so the minimum-norm X solves A X = B exactly
    B = A @ np.random.default_rng(6).standard_normal((3, 2))
    for rhs in (B, B[:, 1]):
        X, rank = _min_norm_solve(A, rhs)
        want, want_rank = eig_min_norm_solve(A, rhs)
        assert rank == want_rank == 2
        assert X.shape == rhs.shape
        assert np.max(np.abs(X - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(A @ X - rhs)) <= 1e-12 * np.max(np.abs(rhs))
        kernel = eig_sym(A).zero_space()
        assert np.max(np.abs(kernel.T @ X)) <= 1e-12 * np.max(np.abs(X))


def test_an_empty_system_is_solved():
    assert _cholesky(np.zeros((0, 0), order="F")) is None
    for rhs in (np.zeros(0), np.zeros((0, 4))):
        X, rank = _min_norm_solve(np.zeros((0, 0)), rhs)
        assert rank == 0 and X.shape == rhs.shape


def raw_eigenvectors(M):
    return np.linalg.eigh((M + M.T) / 2.0)[1]


def test_signed_matches_the_column_loop_bit_for_bit():
    rep = resolve_complex("random(40,0.5,1.0,11)")
    B1, B2 = rep.boundary_float(1), rep.boundary_float(2)
    rng = np.random.default_rng(11)
    cases = [raw_eigenvectors(laplacian(rep, 1)), raw_eigenvectors(B2 @ B2.T),
             raw_eigenvectors(B1 @ B1.T)]
    cases += [vec * rng.choice([-1.0, 1.0], size=vec.shape[1]) for vec in cases]
    with_zeros = rng.standard_normal((6, 5))
    with_zeros[:, [1, 3]] = 0.0
    with_zeros[:2, 4] = [1e-14, -1e-15]  # below the cutoff: the sign comes later
    non_finite = np.array([[-1.0, -1.0], [np.inf, np.nan]])  # nothing above the cutoff
    cases += [with_zeros, non_finite, np.zeros((4, 3)), np.zeros((0, 0)),
              np.zeros((5, 0))]
    for vec in cases:
        got = _signed(vec.copy())
        want = loop_signed(vec.copy())
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_graph_laplacian_of_a_single_edge():
    rep = canonical_complex("path(2)")
    assert np.allclose(laplacian(rep, 0), [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_assembles_both_terms():
    for rep in random_reps(6):
        for k in range(rep.dim + 1):
            down = rep.boundary_float(k)
            up = rep.boundary_float(k + 1)
            expected = np.zeros((rep.n_cells(k), rep.n_cells(k)))
            if down.size:
                expected += down.T @ down
            if up.size:
                expected += up @ up.T
            assert np.allclose(laplacian(rep, k), expected, atol=0)
    with pytest.raises(UnsupportedError):
        laplacian(canonical_complex("cycle(3)"), 2)


def test_rp2_middle_laplacian_has_no_kernel():
    rep = canonical_complex("rp2")
    spec = eig_sym(laplacian(rep, 1))
    assert spec.n_zero == 0
    assert float(spec.eigenvalues[0]) > spec.zero_tol
    assert np.allclose(np.sort(spec.eigenvalues), [2.0, 4.0, 4.0])


def test_kernel_vanishes_after_composition():
    # observation: the composite of consecutive boundaries is zero, exactly
    for rep in random_reps(10):
        for k in range(1, rep.dim + 1):
            prod = rep.boundary_matrix(k) @ rep.boundary_matrix(k + 1)
            assert not prod.size or (prod == 0).all()


def test_image_spaces_are_orthogonal():
    # <B_{k+1} y, B_k^T y'> = 0 for all y, y'
    rng = np.random.default_rng(1)
    for rep in random_reps(10):
        for k in range(rep.dim + 1):
            up = rep.boundary_float(k + 1)
            down = rep.boundary_float(k)
            if not (up.size and down.size):
                continue
            for _ in range(10):
                a = up @ rng.standard_normal(up.shape[1])
                b = down.T @ rng.standard_normal(down.shape[0])
                scale = max(1.0, np.linalg.norm(a) * np.linalg.norm(b))
                assert abs(float(a @ b)) <= 1e-10 * scale


def test_kernel_is_orthogonal_complement_of_row_space():
    rng = np.random.default_rng(2)
    for rep in random_reps(10):
        for k in range(1, rep.dim + 1):
            down = rep.boundary_float(k)
            null = scipy.linalg.null_space(down)
            if not null.size:
                continue
            for _ in range(10):
                v = null @ rng.standard_normal(null.shape[1])
                w = down.T @ rng.standard_normal(down.shape[0])
                scale = max(1.0, np.linalg.norm(v) * np.linalg.norm(w))
                assert abs(float(v @ w)) <= 1e-10 * scale


def test_laplacian_kernel_lies_in_both_kernels():
    for rep in random_reps(10):
        for k in range(rep.dim + 1):
            spec = eig_sym(laplacian(rep, k))
            U0 = spec.zero_space()
            if not U0.size:
                continue
            down = rep.boundary_float(k)
            up = rep.boundary_float(k + 1)
            if down.size:
                assert np.max(np.abs(down @ U0)) <= 1e-10
            if up.size:
                assert np.max(np.abs(up.T @ U0)) <= 1e-10


def test_rank_nullity_across_the_complex():
    # dim ker L_k + rank B_k + rank B_{k+1} = n_k
    for rep in random_reps(10):
        for k in range(rep.dim + 1):
            n_zero = eig_sym(laplacian(rep, k)).n_zero
            r_down = numerical_rank(rep.boundary_float(k))
            r_up = numerical_rank(rep.boundary_float(k + 1))
            assert n_zero + r_down + r_up == rep.n_cells(k)


def test_cycles_split_into_boundaries_plus_harmonics():
    # ker B_k = im B_{k+1} (+) ker L_k: projecting onto the two parts
    # reconstructs every kernel vector
    rng = np.random.default_rng(3)
    for rep in random_reps(10):
        for k in range(1, rep.dim + 1):
            down = rep.boundary_float(k)
            null = scipy.linalg.null_space(down)
            if not null.size:
                continue
            up = rep.boundary_float(k + 1)
            U0 = eig_sym(laplacian(rep, k)).zero_space()
            for _ in range(10):
                v = null @ rng.standard_normal(null.shape[1])
                pieces = U0 @ (U0.T @ v) if U0.size else np.zeros_like(v)
                if up.size:
                    q = scipy.linalg.orth(up)
                    pieces = pieces + q @ (q.T @ v)
                assert np.max(np.abs(pieces - v)) <= 1e-10 * max(1.0, np.max(np.abs(v)))


def test_decompose_recovers_pure_parts():
    rng = np.random.default_rng(4)
    for rep in random_reps(6):
        k = 1
        if rep.dim < 2:
            continue
        up = rep.boundary_float(2)
        down = rep.boundary_float(1)
        z = rng.standard_normal(up.shape[1])
        x = ChainVector(rep, k, Real(), up @ z)
        parts = hodge_decompose(x)
        flat = np.asarray(x.values, dtype=float)
        scale = max(1.0, np.linalg.norm(flat))
        assert np.linalg.norm(parts.x1.values - flat) <= 1e-10 * scale
        assert np.linalg.norm(np.asarray(parts.x0.values, dtype=float)) <= 1e-10 * scale
        assert np.linalg.norm(np.asarray(parts.x_neg1.values, dtype=float)) <= 1e-10 * scale

        y = rng.standard_normal(down.shape[0])
        x = ChainVector(rep, k, Real(), down.T @ y)
        parts = hodge_decompose(x)
        flat = np.asarray(x.values, dtype=float)
        scale = max(1.0, np.linalg.norm(flat))
        assert np.linalg.norm(parts.x_neg1.values - flat) <= 1e-10 * scale


def test_decompose_recombines_and_satisfies_pythagoras():
    rng = np.random.default_rng(5)
    for rep in random_reps(8):
        for k in range(rep.dim + 1):
            x = random_chain(rep, k, Real(), rng)
            parts = hodge_decompose(x)
            recon = (np.asarray(parts.x0.values, dtype=float)
                     + np.asarray(parts.x1.values, dtype=float)
                     + np.asarray(parts.x_neg1.values, dtype=float))
            flat = np.asarray(x.values, dtype=float)
            scale = max(1.0, np.linalg.norm(flat))
            assert np.max(np.abs(recon - flat)) <= 1e-10 * scale
            total = np.linalg.norm(flat) ** 2
            split = sum(np.linalg.norm(np.asarray(p.values, dtype=float)) ** 2
                        for p in (parts.x0, parts.x1, parts.x_neg1))
            assert split == pytest.approx(total, rel=1e-8, abs=1e-12)
            assert parts.model == "hodge"
            assert parts.objective == pytest.approx(
                np.linalg.norm(np.asarray(parts.x0.values, dtype=float)))


def test_decompose_certificates_reproduce_the_parts():
    rng = np.random.default_rng(6)
    rep = canonical_complex("rp2")
    x = random_chain(rep, 1, Real(), rng)
    parts = hodge_decompose(x)
    up = rep.boundary_float(2)
    down = rep.boundary_float(1)
    assert np.allclose(up @ np.asarray(parts.y1.values, dtype=float),
                       np.asarray(parts.x1.values, dtype=float), atol=1e-10)
    assert np.allclose(down.T @ np.asarray(parts.y_neg1.values, dtype=float),
                       np.asarray(parts.x_neg1.values, dtype=float), atol=1e-10)
    assert parts.residuals["x1_certificate"] <= 1e-10
    assert parts.residuals["x_neg1_certificate"] <= 1e-10


def test_decompose_at_degree_zero_extracts_the_mean():
    rep = canonical_complex("cycle(5)")
    rng = np.random.default_rng(7)
    x = random_chain(rep, 0, Real(), rng)
    parts = hodge_decompose(x)
    mean = float(np.mean(np.asarray(x.values, dtype=float)))
    assert np.allclose(np.asarray(parts.x0.values, dtype=float), mean, atol=1e-10)


def test_function_valued_decompose_matches_columnwise_real():
    rep = canonical_complex("rp2")
    system = FourierFn(2)
    rng = np.random.default_rng(8)
    x = random_chain(rep, 1, system, rng)
    parts = hodge_decompose(x)
    for j in range(system.n_coeffs):
        col = ChainVector(rep, 1, Real(), np.asarray(x.values)[:, j])
        col_parts = hodge_decompose(col)
        for name in ("x0", "x1", "x_neg1"):
            got = np.asarray(getattr(parts, name).values, dtype=float)[:, j]
            want = np.asarray(getattr(col_parts, name).values, dtype=float)
            assert np.allclose(got, want, atol=1e-10)


def test_decompose_refuses_discrete_systems():
    rep = canonical_complex("rp2")
    x = ChainVector(rep, 1, ModN(2), [1, 1, 0])
    with pytest.raises(UnsupportedError, match="solve_fundamental"):
        hodge_decompose(x)


def test_spectral_bases_counts_and_orthogonality():
    tri = canonical_complex("filled_triangle")
    bases = spectral_bases(tri, 1, n_irr=5, n_sol=5)
    assert bases.n_harmonic == 0
    assert bases.n_irr == 2
    assert bases.n_sol == 1
    assert bases.truncated
    stacked = bases.stacked()
    assert np.allclose(stacked.T @ stacked, np.eye(3), atol=1e-10)

    ring = canonical_complex("cycle(3)")
    bases = spectral_bases(ring, 1, n_irr=2, n_sol=2)
    assert bases.n_harmonic == 1
    assert bases.n_sol == 0
    assert bases.n_irr == 2


def test_spectral_bases_span_the_right_subspaces():
    rep = to_chain_complex(random_complex(9, 0.6, 0.7, seed=13))
    bases = spectral_bases(rep, 1, n_irr=50, n_sol=50)
    down = rep.boundary_float(1)
    up = rep.boundary_float(2)
    # irrotational columns lie in im B_1^T: orthogonal to ker B_1
    null_down = scipy.linalg.null_space(down)
    if null_down.size and bases.n_irr:
        assert np.max(np.abs(null_down.T @ bases.U_irr)) <= 1e-8
    # solenoidal columns lie in im B_2: orthogonal to ker B_2^T
    null_up = scipy.linalg.null_space(up.T)
    if null_up.size and bases.n_sol:
        assert np.max(np.abs(null_up.T @ bases.U_sol)) <= 1e-8
    # eigenvector property with the advertised eigenvalues
    lower = down.T @ down
    for j in range(bases.n_irr):
        u = bases.U_irr[:, j]
        lam = bases.irr_eigenvalues[j]
        assert np.max(np.abs(lower @ u - lam * u)) <= 1e-8 * max(1.0, lam)
    upper = up @ up.T
    for j in range(bases.n_sol):
        u = bases.U_sol[:, j]
        lam = bases.sol_eigenvalues[j]
        assert np.max(np.abs(upper @ u - lam * u)) <= 1e-8 * max(1.0, lam)
    # counts add up to the whole space
    assert bases.n_harmonic + numerical_rank(down) + numerical_rank(up) == rep.n_cells(1)


def test_numerical_rank_cuts_relative_to_the_largest_singular_value():
    assert numerical_rank(np.diag([1.0, 1e-7])) == 1
    assert numerical_rank(np.diag([1.0, 1e-5])) == 2
    assert numerical_rank(np.zeros((3, 2))) == 0
    assert numerical_rank(np.zeros((0, 4))) == 0
    B2 = resolve_complex("random(12,0.6,0.8,4)").boundary_float(2)
    ranks = {numerical_rank(c * B) for c in (1e-8, 1.0, 1e8) for B in (B2, B2.T)}
    assert ranks == {numerical_rank(B2)}


SCALES = (1e-7, 1e7)


@pytest.mark.parametrize("system", [Real(), FourierFn(3)])
def test_weighted_fundamental_split_is_scale_invariant(system):
    rep = resolve_complex("random(12,0.6,0.8,4)")
    x = random_chain(rep, 1, system, 12)
    w = np.random.default_rng(12).uniform(0.5, 2.0, rep.n_cells(1))
    base = solve_fundamental(x, weights=w)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(x.values))))
    for c in SCALES:
        scaled = solve_fundamental(x, weights=c * w)
        for part, ref in zip(scaled.parts(), base.parts()):
            assert np.max(np.abs(part.values - ref.values)) <= tol


def test_weighted_seminorm_is_scale_invariant():
    rep = resolve_complex("random(12,0.6,0.8,4)")
    split = hodge_decompose(random_chain(rep, 1, Real(), 13))
    cycle = split.x0.with_values(split.x0.values + split.x1.values)
    w = np.random.default_rng(13).uniform(0.5, 2.0, rep.n_cells(1))
    value, mini = simplicial_seminorm(cycle, weights=w)
    for c in SCALES:
        scaled_value, scaled_mini = simplicial_seminorm(cycle, weights=c * w)
        assert scaled_value == pytest.approx(c * value, rel=1e-10)
        assert np.max(np.abs(scaled_mini.values - mini.values)) <= 1e-10


def test_sub_bases_take_leading_columns():
    rep = to_chain_complex(random_complex(9, 0.6, 0.7, seed=13))
    bases = spectral_bases(rep, 1, n_irr=10, n_sol=10)
    sub = bases.sub(3, 2)
    assert sub.n_irr == min(3, bases.n_irr)
    assert sub.n_sol == min(2, bases.n_sol)
    assert (sub.U_irr == bases.U_irr[:, :sub.n_irr]).all()
    assert (sub.U_sol == bases.U_sol[:, :sub.n_sol]).all()
    assert (sub.U0 == bases.U0).all()


def test_negative_basis_counts_are_rejected():
    rep = canonical_complex("cycle(6)")
    with pytest.raises(ValueError, match="n_irr"):
        spectral_bases(rep, 1, n_irr=-1, n_sol=20)
    with pytest.raises(ValueError, match="n_sol"):
        spectral_bases(rep, 1, n_irr=20, n_sol=-1)
    with pytest.raises(ValueError, match=">= 0"):
        spectral_bases(rep, 1, 5, 5).sub(-1, 0)


@pytest.mark.parametrize("call,shown", [
    (lambda rep, f: spectral_bases(rep, 1, 2.5, 3), "n_irr 2.5"),
    (lambda rep, f: spectral_bases(rep, 1, "3", 3), "n_irr '3'"),
    (lambda rep, f: spectral_bases(rep, 1, 3, 0.5), "n_sol 0.5"),
    (lambda rep, f: spectral_bases(rep, 1, 5, 5).sub(2.5, 3), "n_irr 2.5"),
    (lambda rep, f: sample_async(f, 2.5, 0.0, seed=0), "samples_per_edge 2.5"),
    (lambda rep, f: evaluation_grid(2.5), "n_points 2.5"),
    (lambda rep, f: random_complex(2.5, 0.5, 0.5, 1), "n_vertices 2.5"),
], ids=["bases-float", "bases-str", "bases-n_sol", "sub", "sample_async",
        "evaluation_grid", "random_complex"])
def test_non_integral_counts_raise_a_value_error_naming_them(call, shown):
    rep = canonical_complex("cycle(6)")
    f = random_chain(rep, 1, FourierFn(2), 0)
    with pytest.raises(ValueError, match=re.escape(f"{shown} is not an integer")):
        call(rep, f)
    bases = spectral_bases(rep, 1, np.int64(3), 2.0)
    assert (bases.requested_irr, bases.requested_sol) == (3, 2)
    assert bases.sub(1.0, np.int64(1)).n_irr == 1
    assert sample_async(f, 2.0, 0.0, seed=0).samples_per_edge == 2
    assert len(evaluation_grid(np.int64(7))) == 7


@pytest.mark.parametrize("n_points", [1, 0, -3])
def test_evaluation_grid_refuses_fewer_than_two_points(n_points):
    with pytest.raises(ValueError, match=re.escape(f"n_points must be >= 2, got {n_points}")):
        evaluation_grid(n_points)
    assert np.array_equal(evaluation_grid(2), [-np.pi, np.pi])


@pytest.mark.parametrize("call,message", [
    (lambda: spectral_bases(canonical_complex("rp2"), 3), "degree 3 outside 0..2"),
    (lambda: homology_field(canonical_complex("rp2"), -1, Real()), "degree -1 outside 0..2"),
    (lambda: courant_fischer_check(canonical_complex("path(1)"), 2),
     "need at least edges to check the identity"),
], ids=["bases", "field", "frequency-identity"])
def test_requests_outside_the_complex_are_unsupported(call, message):
    with pytest.raises(UnsupportedError, match=re.escape(message)):
        call()


def test_frequency_identity_on_small_graphs():
    lhs, rhs, gap = courant_fischer_check(canonical_complex("path(2)"), 2)
    assert lhs == pytest.approx(2.0)
    assert gap <= 1e-10

    lhs, rhs, gap = courant_fischer_check(canonical_complex("cycle(3)"), 2)
    assert lhs == pytest.approx(3.0)
    assert gap <= 1e-10


def test_frequency_identity_guards():
    rep = to_chain_complex(SimplicialComplex.from_maximal([(0, 1), (2, 3)]))
    with pytest.raises(UnsupportedError, match="connected"):
        courant_fischer_check(rep, 2)
    with pytest.raises(ValueError, match="l must be"):
        courant_fischer_check(canonical_complex("path(2)"), 3)
    with pytest.raises(ValueError, match="l must be"):
        courant_fischer_check(canonical_complex("path(2)"), 1)
