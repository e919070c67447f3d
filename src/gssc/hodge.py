"""Hodge Laplacians, spectra, and the orthogonal three-part decomposition.

For a chain complex with boundary matrices B_k the degree-k Laplacian is

    L_k = B_k^T B_k + B_{k+1} B_{k+1}^T

and real chain space splits orthogonally as

    C_k = im B_k^T  (+)  ker L_k  (+)  im B_{k+1}.

Eigenvalues below `zero_tol = max(n, 1) * eps * lambda_max` (floored at
1e-12) count as zero; that cutoff is the single source of truth for every
numerical rank and kernel dimension in the package.
"""

from __future__ import annotations

import numpy as np

from .coefficients import ChainVector, FourierFn, Real, norm_p
from .errors import UnsupportedError

ZERO_TOL_FLOOR = 1e-12


def spectral_zero_tol(n, lam_max):
    return max(max(n, 1) * np.finfo(float).eps * abs(lam_max), ZERO_TOL_FLOOR)


class Spectrum:
    """Eigenvalues ascending, orthonormal eigenvector columns, zero cutoff."""

    def __init__(self, eigenvalues, eigenvectors, zero_tol):
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        self.zero_tol = zero_tol

    @property
    def n_zero(self):
        return int(np.sum(np.abs(self.eigenvalues) <= self.zero_tol))

    def zero_space(self):
        return self.eigenvectors[:, np.abs(self.eigenvalues) <= self.zero_tol]

    def __len__(self):
        return len(self.eigenvalues)


def eig_sym(matrix):
    """Symmetric eigendecomposition with fixed conventions.

    Eigenvalues ascend; each eigenvector's first entry that is nonzero at
    working precision is made positive, so repeated calls agree bit for bit.
    Rejects matrices that are not symmetric to 1e-12 relative.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("need a square matrix")
    n = M.shape[0]
    if n == 0:
        return Spectrum(np.zeros(0), np.zeros((0, 0)), ZERO_TOL_FLOOR)
    scale = max(float(np.max(np.abs(M))), 1e-300)
    if float(np.max(np.abs(M - M.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within 1e-12 relative")
    lam, vec = np.linalg.eigh((M + M.T) / 2.0)
    for j in range(n):
        col = vec[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))[0]
        if nz.size and col[nz[0]] < 0:
            vec[:, j] = -col
    tol = spectral_zero_tol(n, float(np.max(np.abs(lam), initial=0.0)))
    return Spectrum(lam, vec, tol)


def laplacian(rep, k):
    """Dense float L_k; raises for degrees outside the complex."""
    if not 0 <= k <= rep.dim:
        raise UnsupportedError(f"degree {k} outside 0..{rep.dim}")
    n = rep.n_cells(k)
    L = np.zeros((n, n))
    down = rep.boundary_float(k)
    up = rep.boundary_float(k + 1)
    if down.size:
        L += down.T @ down
    if up.size:
        L += up @ up.T
    return (L + L.T) / 2.0


def _significant(s, shape):
    """Mask of singular values above the spectral cutoff (s descending)."""
    if s[0] == 0.0:
        return np.zeros(s.shape, dtype=bool)
    return s > max(max(shape) * np.finfo(float).eps * s[0], ZERO_TOL_FLOOR * s[0])


def numerical_rank(matrix):
    """SVD rank with the spectral cutoff convention."""
    M = np.asarray(matrix, dtype=float)
    if M.size == 0:
        return 0
    return int(np.sum(_significant(np.linalg.svd(M, compute_uv=False), M.shape)))


def _colspace_basis(matrix):
    """Orthonormal basis of the column space (empty for zero matrices)."""
    M = np.asarray(matrix, dtype=float)
    if M.size == 0:
        return np.zeros((M.shape[0], 0))
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    return u[:, _significant(s, M.shape)]


class DecompositionResult:
    """Three chain parts with certificates and diagnostics.

    x0 is in ker L_k (or ker B_k for the fundamental model), x1 = B_{k+1} y1,
    x_neg1 = B_k^T y_neg1.  `objective` is the model's optimal value and
    `residuals` holds recomputation/orthogonality diagnostics.
    """

    def __init__(self, x0, x1, x_neg1, y1, y_neg1, objective, model, residuals):
        self.x0 = x0
        self.x1 = x1
        self.x_neg1 = x_neg1
        self.y1 = y1
        self.y_neg1 = y_neg1
        self.objective = objective
        self.model = model
        self.residuals = residuals

    def parts(self):
        return self.x0, self.x1, self.x_neg1


def _as_matrix(values):
    arr = np.asarray(values, dtype=float)
    return arr.reshape(len(arr), -1)


def _chain(like, degree, mat):
    """A chain over `like`'s complex and system; flat if `like` is flat."""
    return ChainVector(like.complex, degree, like.system,
                       mat[:, 0] if np.ndim(like.values) == 1 else mat)


def _preimage(B, part):
    """Minimum-norm least-squares y with B y = part (zero when B is empty)."""
    if not B.size:
        return np.zeros((B.shape[1], part.shape[1]))
    return np.linalg.lstsq(B, part, rcond=None)[0]


def _weighted_projection(B, target, w):
    """(y, B y) with B y the w-weighted least-squares projection onto im B."""
    if not B.size:
        return np.zeros((B.shape[1], target.shape[1])), np.zeros_like(target)
    y = np.linalg.lstsq(w[:, None] * B, w[:, None] * target, rcond=None)[0]
    return y, B @ y


def _split(x, w, model):
    """The projection-and-certificate kernel behind every real Hodge split.

    x_neg1 is the orthonormal projection of x onto im B_k^T and y_neg1 its
    minimum-norm preimage.  x1 = B_{k+1} y1 is the w-weighted least-squares
    projection of the remainder onto im B_{k+1}, so its certificate holds
    by construction; x0 is what is left, a cycle.  Function-valued chains
    are split coefficient column by coefficient column.
    """
    rep = x.complex
    k = x.degree
    mat = _as_matrix(x.values)
    down = rep.boundary_float(k)
    q_down = _colspace_basis(down.T)
    part_neg = q_down @ (q_down.T @ mat) if q_down.size else np.zeros_like(mat)
    in_kernel = mat - part_neg
    y1, part_pos = _weighted_projection(rep.boundary_float(k + 1), in_kernel, w)
    part_zero = in_kernel - part_pos
    y_neg = _preimage(down.T, part_neg)
    x0 = _chain(x, k, part_zero)
    return DecompositionResult(
        x0=x0, x1=_chain(x, k, part_pos), x_neg1=_chain(x, k, part_neg),
        y1=_chain(x, k + 1, y1), y_neg1=_chain(x, k - 1, y_neg),
        objective=norm_p(x0, 2, w), model=model,
        # x1 = B_{k+1} y1 exactly, so only the preimage certificate can miss
        residuals={"x1_certificate": 0.0, "x_neg1_certificate": float(np.linalg.norm(
            (down.T @ y_neg if down.size else 0) - part_neg))})


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
    if n_irr < 0 or n_sol < 0:
        raise ValueError(f"n_irr and n_sol must be >= 0, got {n_irr} and {n_sol}")


class HodgeBases:
    """Orthonormal harmonic / irrotational / solenoidal bases at one degree.

    U0 spans ker L_k.  U_irr holds eigenvectors of B_k^T B_k and U_sol
    eigenvectors of B_{k+1} B_{k+1}^T, each restricted to nonzero
    eigenvalues and sorted ascending, truncated to the requested counts.
    Invariant, kept by `spectral_bases` and `sub` and relied on by
    `reconstruct_gssc` and `solve_smooth`: column i of U_irr (U_sol) is a
    unit eigenvector with the positive eigenvalue irr_eigenvalues[i]
    (sol_eigenvalues[i]).
    """

    def __init__(self, U0, U_irr, U_sol, irr_eigenvalues, sol_eigenvalues,
                 requested_irr, requested_sol):
        self.U0 = U0
        self.U_irr = U_irr
        self.U_sol = U_sol
        self.irr_eigenvalues = irr_eigenvalues
        self.sol_eigenvalues = sol_eigenvalues
        self.requested_irr = requested_irr
        self.requested_sol = requested_sol

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
        _check_counts(n_irr, n_sol)
        n_irr = min(n_irr, self.n_irr)
        n_sol = min(n_sol, self.n_sol)
        return HodgeBases(self.U0, self.U_irr[:, :n_irr], self.U_sol[:, :n_sol],
                          self.irr_eigenvalues[:n_irr], self.sol_eigenvalues[:n_sol],
                          n_irr, n_sol)


def _nonzero_modes(gram):
    """Eigenvectors and eigenvalues of `gram` above its zero cutoff."""
    spec = eig_sym(gram)
    keep = spec.eigenvalues > spec.zero_tol
    return spec.eigenvectors[:, keep], spec.eigenvalues[keep]


def _full_bases(rep, k):
    """Every harmonic, irrotational and solenoidal vector at degree k."""
    down = rep.boundary_float(k)
    up = rep.boundary_float(k + 1)
    U_irr, irr_vals = _nonzero_modes(down.T @ down)
    U_sol, sol_vals = _nonzero_modes(up @ up.T)
    return HodgeBases(eig_sym(laplacian(rep, k)).zero_space(), U_irr, U_sol,
                      irr_vals, sol_vals, len(irr_vals), len(sol_vals))


def spectral_bases(rep, k, n_irr=20, n_sol=20):
    """Harmonic basis plus the first n_irr/n_sol nonzero-frequency vectors.

    Asking for more vectors than exist truncates and flags the result
    rather than failing; negative counts are rejected.
    """
    _check_counts(n_irr, n_sol)
    full = _full_bases(rep, k)
    return HodgeBases(full.U0, full.U_irr[:, :n_irr], full.U_sol[:, :n_sol],
                      full.irr_eigenvalues[:n_irr], full.sol_eigenvalues[:n_sol],
                      n_irr, n_sol)


def courant_fischer_check(rep, l):
    """Graph-frequency identity: for a connected graph and l >= 2,

        lambda_l = <B1^T B1 y, B1^T B1 y> / <B1 y, B1 y>

    where B1 y is the l-th eigenvector of L_0.  Returns (lhs, rhs, gap)
    with gap the relative disagreement.
    """
    if rep.dim < 1:
        raise UnsupportedError("need at least edges to check the identity")
    spec = eig_sym(laplacian(rep, 0))
    if spec.n_zero != 1:
        raise UnsupportedError("the identity is checked on connected graphs only "
                               f"(kernel dimension {spec.n_zero})")
    if not 2 <= l <= len(spec):
        raise ValueError(f"l must be in 2..{len(spec)}")
    lhs = float(spec.eigenvalues[l - 1])
    e = spec.eigenvectors[:, l - 1]
    B1 = rep.boundary_float(1)
    y, *_ = np.linalg.lstsq(B1, e, rcond=None)
    u = B1 @ y
    v = B1.T @ u
    rhs = float(v @ v) / float(u @ u)
    gap = abs(lhs - rhs) / max(abs(lhs), ZERO_TOL_FLOOR)
    return lhs, rhs, gap
