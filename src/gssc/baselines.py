"""Comparison methods that treat edges independently or near-independently.

Kernel ridge regression fits each edge's time series on its own with an RBF
kernel; the product smoother then couples the per-edge grid estimates
through the degree-1 Laplacian in space and a second-difference operator in
time.  Neither method sees the spectral structure the reconstruction model
uses, which is the point of comparing against them.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .hodge import laplacian
from .learn import evaluation_grid


class KrrConfig:
    """RBF kernel ridge hyperparameters."""

    def __init__(self, lengthscale=1.0, ridge=1e-2):
        if not lengthscale > 0:
            raise ValueError("lengthscale must be positive")
        if ridge < 0:
            raise ValueError("ridge must be >= 0")
        self.lengthscale = float(lengthscale)
        self.ridge = float(ridge)

    def __repr__(self):
        return f"KrrConfig(lengthscale={self.lengthscale}, ridge={self.ridge})"


def rbf_kernel(a, b, lengthscale):
    """RBF kernel matrix; leading axes of `a` and `b` broadcast as a stack."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = a[..., :, None] - b[..., None, :]
    return np.exp(-(diff ** 2) / (2.0 * lengthscale ** 2))


def krr_fit_eval(t, y, config, eval_points):
    """Kernel ridge predictor evaluated at given instants.

    `t` and `y` hold one edge's samples, shape (M,), or a stack of edges,
    shape (n, M); each edge is fitted on its own samples, all in one
    batched solve, and the result has shape (len(eval_points),) or
    (n, len(eval_points)).
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size == 0:
        raise ValueError("need at least one sample")
    K = rbf_kernel(t, t, config.lengthscale)
    try:
        alpha = np.linalg.solve(K + config.ridge * np.eye(t.shape[-1]), y[..., None])
    except np.linalg.LinAlgError:
        raise NumericalError(
            "kernel system is singular (duplicated sample instants with "
            "ridge = 0?); use a ridge > 0")
    return (rbf_kernel(eval_points, t, config.lengthscale) @ alpha)[..., 0]


class GridEstimate:
    """Per-edge signal values tabulated on a fixed time grid."""

    def __init__(self, values, grid):
        values = np.asarray(values, dtype=float)
        grid = np.asarray(grid, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(grid):
            raise ValueError(f"values {values.shape} do not match grid of "
                             f"length {len(grid)}")
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


def _time_second_difference(n):
    # free boundary: D^T D for the (n-1) x n first-difference matrix
    d = np.zeros((n - 1, n))
    idx = np.arange(n - 1)
    d[idx, idx] = -1.0
    d[idx, idx + 1] = 1.0
    return d.T @ d


def sc_product(grid0, rep, alpha=0.05, beta=0.05):
    """Joint space-time smoothing of a grid estimate.

    Returns the minimizer of |Z - grid0|_F^2 + alpha tr(Z^T L_1 Z)
    + beta tr(Z L_t Z^T), the solution of (I + alpha L_1) Z + beta Z L_t
    = grid0.  Both operators are symmetric, so with L_1 = P diag(a) P^T and
    L_t = Q diag(b) Q^T the solve is the product filter
    Z = P [(P^T grid0 Q) / (1 + alpha a_i + beta b_j)] Q^T.  With
    alpha = beta = 0 this is the identity.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be >= 0")
    if grid0.n_edges != rep.n_cells(1):
        raise ValueError(f"{grid0.n_edges} grid rows for {rep.n_cells(1)} edges")
    a, P = np.linalg.eigh(laplacian(rep, 1))
    b, Q = np.linalg.eigh(_time_second_difference(len(grid0.grid)))
    Z = P @ ((P.T @ grid0.values @ Q) / (1.0 + alpha * a[:, None] + beta * b)) @ Q.T
    return GridEstimate(Z, grid0.grid)
