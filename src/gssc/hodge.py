"""Hodge Laplacians, spectra, and the orthogonal three-part decomposition.

For a chain complex with boundary matrices B_k the degree-k Laplacian is

    L_k = B_k^T B_k + B_{k+1} B_{k+1}^T

and real chain space splits orthogonally as

    C_k = im B_k^T  (+)  ker L_k  (+)  im B_{k+1}.

One scale-relative cutoff decides what is zero on every `eig_sym` path: an
eigenvalue of an n x n symmetric matrix counts as zero when its magnitude
is at most `max(n * eps, 1e-12) * lambda_max`.  Every numerical rank, image
projection and certificate preimage in the package comes from `eig_sym`
under that cutoff; for a boundary B they come from the nonzero eigenpairs
of its smaller Gram (`_gram_modes`), so a singular value of B counts as
zero below about 1e-6 * sigma_max.  Betti numbers use exact ranks
(`homology._rank`) instead.  Multiplying B (or the weights of a weighted
projection) by any positive constant leaves every rank and every
projection unchanged.  Both dense normal systems (`learn.solve_smooth`'s
fit and `learn.reconstruct_gssc`'s Gram) are factored in place by `_cholesky`
under `_full_rank` (that cutoff), else solved by `_min_norm_solve`.

The float code reads each boundary through a sparse CSR view of the rep's
integer CSC arrays, built once per rep; Grams and Laplacians are formed sparse
and densified, bit-equal to the dense products as the entries are integers.
Each rep memoizes, read-only, the small-side eigenpairs of every Gram of
B_k it factors (a square B_k has two: B_k^T B_k for B_k, B_k B_k^T for
B_k^T).  Projections apply the pseudoinverse straight from them through
sparse products by B_k; only the spectral bases map eigenvectors through
B_k.  Spectral bases and unit-weight projections read the memo; weighted
projections factor their own Gram on each call.

As the three parts are orthogonal, [U0 | U_irr | U_sol] with eigenvalues
[0 | lambda(B_k^T B_k) | lambda(B_{k+1} B_{k+1}^T)] is an eigenbasis of L_k.
`_full_bases` memoizes it per rep and degree, and `spectral_bases`,
`courant_fischer_check` and `baselines.sc_product` read it.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse

from . import homology
from .coefficients import ChainVector, FourierFn, Real, norm_p
from .complexes import _as_int
from .errors import NumericalError, UnsupportedError

ZERO_TOL_FLOOR = 1e-12


class Spectrum:
    """Eigenvalues ascending, orthonormal eigenvector columns, zero cutoff."""

    def __init__(self, eigenvalues, eigenvectors, zero_tol):
        self.eigenvalues, self.eigenvectors, self.zero_tol = eigenvalues, eigenvectors, zero_tol

    @property
    def n_zero(self):
        return int(np.sum(np.abs(self.eigenvalues) <= self.zero_tol))

    def zero_space(self):
        return self.eigenvectors[:, np.abs(self.eigenvalues) <= self.zero_tol]


def _first_nonfinite(M):
    """(index, value) of the first non-finite entry, row-major, of a float
    array of any ndim or a `scipy.sparse` matrix (duplicates summed), or None."""
    if scipy.sparse.issparse(M):
        rows, cols, vals = scipy.sparse.find(M)
        bad = ~np.isfinite(vals)
        return min(zip(zip(rows[bad].tolist(), cols[bad].tolist()), vals[bad].tolist()),
                   default=None)
    M = np.asarray(M, dtype=float)
    bad = np.argwhere(~np.isfinite(M))
    return (tuple(bad[0].tolist()), M[tuple(bad[0])]) if len(bad) else None


def eig_sym(matrix):
    """Symmetric eigendecomposition with fixed conventions.

    Eigenvalues ascend; each eigenvector's first entry that is nonzero at
    working precision is made positive, so repeated calls agree bit for bit.
    Decomposes an exactly symmetric matrix as given, one symmetric to 1e-12
    relative as its finite (M + M^T) / 2; refuses others, naming any non-finite entry.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("need a square matrix")
    n = M.shape[0]
    if n == 0:
        return Spectrum(np.zeros(0), np.zeros((0, 0)), 0.0)
    scale = float(np.max(np.abs(M)))
    if not np.isfinite(scale):
        raise ValueError("entry {} = {} is not finite".format(*_first_nonfinite(M)))
    if not np.array_equal(M, M.T):  # else (M + M^T) / 2 is M, bit for bit
        with np.errstate(over="ignore"):  # an infinite difference is refused too
            if not float(np.max(np.abs(M - M.T))) <= 1e-12 * max(scale, 1e-300):
                raise ValueError("matrix is not symmetric within 1e-12 relative")
            M = (M + M.T) / 2.0
        if not np.isfinite(M).all():
            raise ValueError("(M + M^T) / 2 of a nearly symmetric matrix overflows; rescale it")
    lam, vec = np.linalg.eigh(M)
    tol = max(n * np.finfo(float).eps, ZERO_TOL_FLOOR) * float(np.max(np.abs(lam)))
    return Spectrum(lam, _signed(vec), tol)


def _full_rank(factor, diag):
    """Whether a Cholesky factor of a PSD matrix with diagonal `diag` has every
    squared pivot above `max(n * eps, 1e-12) * max(diag)`; empty ones fail."""
    n = len(diag)
    return n > 0 and bool(np.min(np.diag(factor) ** 2) > max(
        n * np.finfo(float).eps, ZERO_TOL_FLOOR) * np.max(diag))


def _cholesky(A):
    """(factor, diag A) of a PSD A, the upper factor made in place from the
    upper triangle of a Fortran-ordered A; None when it fails `_full_rank`."""
    diag = np.diag(A).copy()
    try:
        factor = scipy.linalg.cho_factor(A, overwrite_a=True)[0]
    except scipy.linalg.LinAlgError:
        return None
    return (factor, diag) if _full_rank(factor, diag) else None


def _min_norm_solve(A, B):
    """(X, rank) of a PSD A by the eig_sym cutoff: X = V diag(1/lam) V^T B."""
    spec = eig_sym(A)
    keep = spec.eigenvalues > spec.zero_tol
    V, lam = spec.eigenvectors[:, keep], spec.eigenvalues[keep]
    return V @ ((V.T @ B).T / lam).T, len(lam)


def _signed(vec):
    """Flip columns in place so each one's first entry above 1e-12 of its
    largest magnitude is positive; returns `vec`."""
    if not vec.size:
        return vec  # argmax of an empty axis raises
    mag = np.abs(vec)
    above = mag > 1e-12 * mag.max(axis=0)
    first = vec[np.argmax(above, axis=0), np.arange(vec.shape[1])]
    flip = above.any(axis=0) & (first < 0)
    vec[:, flip] = -vec[:, flip]
    return vec


def _gram_modes(A):
    """(U, lam, dual): the nonzero eigenpairs of the smaller Gram of A,
    ascending, and whether that Gram is A A^T (`dual`) or A^T A.

    A may be dense or `scipy.sparse`; a sparse Gram is densified before
    `eig_sym`, and for the integer boundaries it is bit-equal to the dense
    product.
    """
    if not scipy.sparse.issparse(A):
        A = np.asarray(A, dtype=float)
    dual = A.shape[0] < A.shape[1]
    gram = A @ A.T if dual else A.T @ A
    spec = eig_sym(gram.toarray() if scipy.sparse.issparse(gram) else gram)
    keep = spec.eigenvalues > spec.zero_tol
    return spec.eigenvectors[:, keep], spec.eigenvalues[keep], dual


def _boundary(rep, k, transpose=False):
    """The sparse float B_k, or B_k^T."""
    B = rep._sparse_boundary(k)
    return B.T if transpose else B


def _factored(rep, k, transpose=False):
    """(B, dual, U, lam): B = B_k (or B_k^T) and `_gram_modes(B)`, taken
    from the rep's memo.

    The memo is keyed by the Gram: a square B_k factors B_k^T B_k and its
    transpose B_k B_k^T.  The arrays are read-only, because every caller
    shares them.
    """
    B = _boundary(rep, k, transpose)
    dual = B.shape[0] < B.shape[1]

    def build():
        U, lam, _ = _gram_modes(B)
        U.setflags(write=False)
        lam.setflags(write=False)
        return U, lam
    return (B, dual) + rep._memo(("gram_modes", k, dual != transpose), build)


def _boundary_modes(rep, k, transpose=False):
    """Nonzero eigenpairs (V, lam) of B^T B for B = B_k (or B_k^T), ascending.

    When the memo holds B B^T, each unit eigenvector u maps to the unit
    eigenvector B^T u / sqrt(lam) of B^T B (SVD duality).  The columns of V
    are an orthonormal basis of im B^T, signed as `eig_sym` signs them.
    """
    B, dual, U, lam = _factored(rep, k, transpose)
    return (_signed(B.T @ U / np.sqrt(lam)) if dual else U), lam


def laplacian(rep, k):
    """Dense float L_k, Fortran-ordered; raises for degrees outside the complex."""
    if not 0 <= k <= rep.dim:
        raise UnsupportedError(f"degree {k} outside 0..{rep.dim}")
    down = _boundary(rep, k)
    up = _boundary(rep, k + 1)
    # integer products sum exactly, so L is exactly symmetric
    return (down.T @ down + up @ up.T).toarray(order="F")


def numerical_rank(matrix):
    """Rank of a 2-d matrix under the package's one spectral cutoff.

    Counts the eigenvalues of its smaller Gram above
    `max(n * eps, 1e-12) * lambda_max`, i.e. the singular values above
    about 1e-6 * sigma_max; the count is the same for any positive
    multiple of the matrix.  A matrix, dense or sparse, with a non-finite
    entry is refused naming its first, row-major, before any Gram is formed.
    """
    if bad := _first_nonfinite(matrix):
        raise ValueError("entry {} = {} is not finite".format(*bad))
    return len(_gram_modes(matrix)[1])


class DecompositionResult:
    """Three chain parts with certificates and diagnostics.

    x0 is in ker L_k (or ker B_k for the fundamental model), x1 = B_{k+1} y1,
    x_neg1 = B_k^T y_neg1.  `objective` is the model's optimal value and
    `residuals` holds recomputation/orthogonality diagnostics.
    """

    def __init__(self, x0, x1, x_neg1, y1, y_neg1, objective, model, residuals):
        self.x0, self.x1, self.x_neg1, self.y1, self.y_neg1 = x0, x1, x_neg1, y1, y_neg1
        self.objective, self.model, self.residuals = objective, model, residuals

    def parts(self):
        return self.x0, self.x1, self.x_neg1


def _as_matrix(values):
    arr = np.asarray(values, dtype=float)
    return arr.reshape(len(arr), -1)


def _chain(like, degree, mat):
    """A chain over `like`'s complex and system; flat if `like` is flat."""
    return ChainVector(like.complex, degree, like.system,
                       mat[:, 0] if np.ndim(like.values) == 1 else mat)


def _weighted_projection(rep, k, target, w, transpose=False):
    """(y, B y) for B = B_k, or B_k^T with `transpose`: B y is the
    w-weighted least-squares projection of `target` onto im B and y its
    minimum-norm minimizer.

    With A = W B, y = A^+ W target is applied straight from the nonzero
    eigenpairs (U, lam) of the Gram `_gram_modes(A^T)` factors, the smaller
    one: U (U^T A^T W target / lam) when that is A^T A (`dual`), and
    A^T U (U^T W target / lam) when it is A A^T.  With unit weights A = B
    and the eigenpairs come from the rep's memo; other weights factor the
    Gram of A on each call.
    """
    B = _boundary(rep, k, transpose)
    wt = w[:, None] * target
    if np.all(w == 1):
        A, (_, dual, U, lam) = B, _factored(rep, k, not transpose)
    else:
        A = scipy.sparse.diags_array(w) @ B
        U, lam, dual = _gram_modes(A.T)
    if dual:
        y = U @ ((U.T @ (A.T @ wt)) / lam[:, None])
    else:
        y = A.T @ (U @ ((U.T @ wt) / lam[:, None]))
    return y, B @ y


def _split(x, w, model):
    """The projection-and-certificate kernel behind every real Hodge split.

    Two calls of `_weighted_projection`: x_neg1 = B_k^T y_neg1 is the
    orthogonal projection of x onto im B_k^T, and x1 = B_{k+1} y1 the
    w-weighted least-squares projection of the remainder onto im B_{k+1};
    both certificates are minimum-norm preimages and hold by construction.
    x0 is what is left, a cycle.  Function-valued chains are split
    coefficient column by coefficient column.
    """
    rep = x.complex
    k = x.degree
    mat = _as_matrix(x.values)
    y_neg, part_neg = _weighted_projection(rep, k, mat, np.ones(len(mat)),
                                           transpose=True)
    in_kernel = mat - part_neg
    y1, part_pos = _weighted_projection(rep, k + 1, in_kernel, w)
    x0 = _chain(x, k, in_kernel - part_pos)
    return DecompositionResult(
        x0=x0, x1=_chain(x, k, part_pos), x_neg1=_chain(x, k, part_neg),
        y1=_chain(x, k + 1, y1), y_neg1=_chain(x, k - 1, y_neg),
        objective=norm_p(x0, 2, w), model=model,
        residuals={"x1_certificate": 0.0, "x_neg1_certificate": 0.0})


def hodge_decompose(x):
    """Orthogonal split of a real or function-valued chain.

    The unit-weight call of the projection kernel; certificates are
    minimum-norm least-squares preimages.
    """
    if not isinstance(x.system, (Real, FourierFn)):
        raise UnsupportedError(
            f"hodge_decompose needs Real or FourierFn values, got {x.system!r}; "
            "discrete systems go through learn.solve_fundamental")
    result = _split(x, np.ones(len(x.values)), "hodge")
    vals = _as_matrix(x.values)
    part_zero, part_pos, part_neg = (_as_matrix(c.values) for c in result.parts())
    scale = max(1.0, float(np.linalg.norm(vals)))
    result.residuals.update({
        "orth_x1_x_neg1": float(abs(np.sum(part_pos * part_neg))) / scale ** 2,
        "orth_x0_x1": float(abs(np.sum(part_zero * part_pos))) / scale ** 2,
        "orth_x0_x_neg1": float(abs(np.sum(part_zero * part_neg))) / scale ** 2,
    })
    return result


def _check_counts(n_irr, n_sol):
    n_irr, n_sol = _as_int("n_irr", n_irr), _as_int("n_sol", n_sol)
    if n_irr < 0 or n_sol < 0:
        raise ValueError(f"n_irr and n_sol must be >= 0, got {n_irr} and {n_sol}")
    return n_irr, n_sol


class HodgeBases:
    """Orthonormal harmonic / irrotational / solenoidal bases at one degree.

    U0 spans ker L_k, beta_k columns.  U_irr holds eigenvectors of B_k^T B_k
    and U_sol eigenvectors of B_{k+1} B_{k+1}^T, each restricted to nonzero
    eigenvalues and sorted ascending, truncated to the requested counts;
    untruncated, `stacked()` and `eigenvalues()` are an eigenbasis of L_k.
    Invariant, kept by `spectral_bases` and `sub` and relied on by
    `reconstruct_gssc`: column i of U_irr (U_sol) is a
    unit eigenvector with the positive eigenvalue irr_eigenvalues[i]
    (sol_eigenvalues[i]).
    """

    def __init__(self, U0, U_irr, U_sol, irr_eigenvalues, sol_eigenvalues,
                 requested_irr, requested_sol):
        self.U0, self.U_irr, self.U_sol = U0, U_irr, U_sol
        self.irr_eigenvalues, self.sol_eigenvalues = irr_eigenvalues, sol_eigenvalues
        self.requested_irr, self.requested_sol = requested_irr, requested_sol

    @property
    def n_harmonic(self):
        return self.U0.shape[1]

    @property
    def n_irr(self):
        return self.U_irr.shape[1]

    @property
    def n_sol(self):
        return self.U_sol.shape[1]

    @property
    def truncated(self):
        return self.n_irr < self.requested_irr or self.n_sol < self.requested_sol

    def stacked(self):
        return np.hstack([self.U0, self.U_irr, self.U_sol])

    def eigenvalues(self):
        """L_k eigenvalue of each column of `stacked()`: 0 on U0."""
        return np.concatenate([np.zeros(self.n_harmonic), self.irr_eigenvalues,
                               self.sol_eigenvalues])

    def sub(self, n_irr, n_sol):
        """Leading-columns sub-bases (smallest nonzero eigenvalues first)."""
        n_irr, n_sol = _check_counts(n_irr, n_sol)
        return self._leading(min(n_irr, self.n_irr), min(n_sol, self.n_sol))

    def _leading(self, n_irr, n_sol):
        """The first n_irr/n_sol columns, n_irr/n_sol recorded as requested."""
        return HodgeBases(self.U0, self.U_irr[:, :n_irr], self.U_sol[:, :n_sol],
                          self.irr_eigenvalues[:n_irr], self.sol_eigenvalues[:n_sol],
                          n_irr, n_sol)


def _full_bases(rep, k):
    """The eigenbasis of L_k, memoized per rep and degree, read-only.

    U_irr and U_sol are the Gram modes of B_k and B_{k+1}^T.  U0 has the
    other beta_k = n_k - rank B_k - rank B_{k+1} columns (exact ranks), the
    first beta_k eigenvectors of L_k; no eigendecomposition runs when it is 0.
    """
    if not 0 <= k <= rep.dim:
        raise UnsupportedError(f"degree {k} outside 0..{rep.dim}")

    def build():
        U_irr, irr_vals = _boundary_modes(rep, k)
        U_sol, sol_vals = _boundary_modes(rep, k + 1, transpose=True)
        n = rep.n_cells(k)
        beta = n - homology._rank(rep, k) - homology._rank(rep, k + 1)
        if len(irr_vals) + len(sol_vals) + beta != n:
            raise NumericalError(
                f"degree {k}: {len(irr_vals)} + {len(sol_vals)} nonzero float modes "
                f"and the exact beta_{k} = {beta} do not sum to n_{k} = {n}")
        U0 = (eig_sym(laplacian(rep, k)).eigenvectors[:, :beta].copy() if beta
              else np.zeros((n, 0)))
        for arr in (U0, U_irr, U_sol):  # some are shared through the memo
            arr.setflags(write=False)
        return HodgeBases(U0, U_irr, U_sol, irr_vals, sol_vals,
                          len(irr_vals), len(sol_vals))
    return rep._memo(("bases", k), build)


def spectral_bases(rep, k, n_irr=20, n_sol=20):
    """Harmonic basis plus the first n_irr/n_sol nonzero-frequency vectors.

    Asking for more vectors than exist truncates and flags the result
    rather than failing; negative or non-integral counts are rejected.
    """
    return _full_bases(rep, k)._leading(*_check_counts(n_irr, n_sol))


def courant_fischer_check(rep, l):
    """Graph-frequency identity: for a connected graph and l >= 2,

        lambda_l = <B1^T B1 y, B1^T B1 y> / <B1 y, B1 y>

    where B1 y is the l-th eigenvector of L_0.  Returns (lhs, rhs, gap)
    with gap the relative disagreement.
    """
    if rep.dim < 1:
        raise UnsupportedError("need at least edges to check the identity")
    full = _full_bases(rep, 0)
    if full.n_harmonic != 1:
        raise UnsupportedError("the identity is checked on connected graphs only "
                               f"(kernel dimension {full.n_harmonic})")
    if not 2 <= l <= rep.n_cells(0):
        raise ValueError(f"l must be in 2..{rep.n_cells(0)}")
    lhs = float(full.sol_eigenvalues[l - 2])  # U0 is the first column
    e = full.U_sol[:, l - 2:l - 1]
    _, u = _weighted_projection(rep, 1, e, np.ones(len(e)))
    v = _boundary(rep, 1).T @ u
    rhs = float(np.sum(v * v)) / float(np.sum(u * u))
    gap = abs(lhs - rhs) / max(abs(lhs), ZERO_TOL_FLOOR)
    return lhs, rhs, gap
