"""Comparison methods that treat edges independently or near-independently.

Kernel ridge regression fits each edge's time series on its own with an RBF
kernel; the product smoother then couples the per-edge grid estimates
through the degree-1 Laplacian in space and a second-difference operator in
time.  Neither method sees the spectral structure the reconstruction model
uses, which is the point of comparing against them.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NumericalError
from .hodge import _first_nonfinite, _full_bases, eig_sym
from .learn import _refuse_nonfinite, evaluation_grid


class KrrConfig:
    """RBF kernel ridge hyperparameters."""

    def __init__(self, lengthscale=1.0, ridge=1e-2):
        if not 0 < lengthscale < np.inf:
            raise ValueError(f"lengthscale must be finite and positive, got {lengthscale}")
        if not 0 <= ridge < np.inf:
            raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
        self.lengthscale = float(lengthscale)
        self.ridge = float(ridge)

    def __repr__(self):
        return f"KrrConfig(lengthscale={self.lengthscale}, ridge={self.ridge})"


def rbf_kernel(a, b, lengthscale):
    """RBF kernel matrix; leading axes of `a` and `b` broadcast as a stack.

    exp(-(a_i - b_j)^2 / (2 lengthscale^2)), evaluated in one buffer.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.subtract(a[..., :, None], b[..., None, :])
    np.square(out, out=out)
    np.divide(out, -2.0 * lengthscale ** 2, out=out)
    return np.exp(out, out=out)


# Doubles in one block's (b, G, M) evaluation kernel (512 KiB); built for all
# edges at once, it and the (n, M, M) Gram set the samples sweep's peak memory.
_KERNEL_BUDGET = 1 << 16


def krr_fit_eval(t, y, config, eval_points):
    """Kernel ridge predictor evaluated at given instants.

    `t` and `y` hold one edge's finite samples, shape (M,), or a stack of
    edges, shape (n, M), each edge fitted on its own; the result has shape
    (G,) or (n, G) for a finite 1-D `eval_points` of length G.  Edges are
    solved in batches whose (b, G, M) evaluation kernel holds at most 65,536
    doubles (512 KiB; one edge at least), so memory does not grow with n;
    each edge gets the same LAPACK call on the same numbers as in one batch
    of all edges.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.shape != y.shape or t.ndim not in (1, 2):
        raise ValueError(f"t {t.shape} and y {y.shape} must be matching (M,) or (n, M) arrays")
    if t.size == 0:
        raise ValueError("need at least one sample")
    eval_points = np.asarray(eval_points, dtype=float)
    if eval_points.ndim != 1:
        raise ValueError(f"eval_points must be a 1-D array, got shape {eval_points.shape}")
    if bad := _first_nonfinite(eval_points):
        (g,), value = bad
        raise ValueError(f"eval_points[{g}] = {value} is not finite")
    ts, ys = np.atleast_2d(t, y)
    _refuse_nonfinite("t", ts)
    _refuse_nonfinite("y", ys)
    out = np.empty((len(ts), len(eval_points)))
    step = max(1, _KERNEL_BUDGET // max(1, out.shape[1] * t.shape[-1]))
    diag = np.arange(t.shape[-1])
    for lo in range(0, len(ts), step):
        block = ts[lo:lo + step]
        K = rbf_kernel(block, block, config.lengthscale)
        K[:, diag, diag] += config.ridge
        try:
            alpha = np.linalg.solve(K, ys[lo:lo + step, :, None])
        except np.linalg.LinAlgError:
            raise NumericalError("kernel system is singular (duplicated sample "
                                 "instants with ridge = 0?); use a ridge > 0")
        out[lo:lo + step] = (rbf_kernel(eval_points, block, config.lengthscale) @ alpha)[..., 0]
    return out if t.ndim == 2 else out[0]


class GridEstimate:
    """Per-edge finite signal values tabulated on a fixed time grid."""

    def __init__(self, values, grid):
        values = np.asarray(values, dtype=float)
        grid = np.asarray(grid, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(grid):
            raise ValueError(f"values {values.shape} do not match grid of "
                             f"length {len(grid)}")
        _refuse_nonfinite("values", values, "grid point")
        self.values = values
        self.grid = grid

    @property
    def n_edges(self):
        return self.values.shape[0]


def krr_grid(samples, config, grid=None):
    """Independent KRR per edge, tabulated on the evaluation grid."""
    if grid is None:
        grid = evaluation_grid()
    return GridEstimate(krr_fit_eval(samples.t, samples.y, config, grid), grid)


@functools.lru_cache(maxsize=None)
def _time_eigenpairs(n_grid):
    """Eigenpairs (b, Q) of the n_grid-point L_t = D^T D, D the free-boundary
    first difference; cached per grid length and read only by `sc_product`."""
    d = np.diff(np.eye(n_grid), axis=0)
    spec = eig_sym(d.T @ d)
    return spec.eigenvalues, spec.eigenvectors


def sc_product(grid0, rep, alpha=0.05, beta=0.05):
    """Joint space-time smoothing of a grid estimate.

    Returns the minimizer of |Z - grid0|_F^2 + alpha tr(Z^T L_1 Z)
    + beta tr(Z L_t Z^T), the solution of (I + alpha L_1) Z + beta Z L_t
    = grid0.  Both operators are symmetric, so with L_1 = P diag(a) P^T and
    L_t = Q diag(b) Q^T the solve is the product filter
    Z = P [(P^T grid0 Q) / (1 + alpha a_i + beta b_j)] Q^T.  With
    alpha = beta = 0 this is the identity.  P and a are the rep's degree-1
    Hodge eigenbasis (`hodge._full_bases`, built once per rep), and Q and b
    are computed once per grid length.
    """
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not 0 <= value < np.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    if grid0.n_edges != rep.n_cells(1):
        raise ValueError(f"{grid0.n_edges} grid rows for {rep.n_cells(1)} edges")
    full = _full_bases(rep, 1)
    P, a = full.stacked(), full.eigenvalues()
    b, Q = _time_eigenpairs(len(grid0.grid))
    Z = P @ ((P.T @ grid0.values @ Q) / (1.0 + alpha * a[:, None] + beta * b)) @ Q.T
    return GridEstimate(Z, grid0.grid)
