"""Decomposition and reconstruction models for chain-valued signals.

Three convex problems share the DecompositionResult container:

* fundamental  -- split x into x0 + x1 + x_neg1 with x0 a cycle,
  x1 = B_{k+1} y1 and x_neg1 = B_k^T y_neg1, making x0 as small as
  possible.  Solved in two stages: first the smallest correction x_neg1
  that lands x in the kernel, then the smallest-norm class representative
  within the kernel.  Over the reals with p = 2 both stages are orthogonal
  projections and the result is exactly the Hodge decomposition; over Z/2
  both stages are one exhaustive walk over the two subgroups, ordered by
  correction size first.
* smooth       -- trade data fit against the roughness of the non-harmonic
  parts:  min |x' - x|^2 + (1/eta) (|B_{k+1}^T x1|^2 + |B_k x_neg1|^2)
  with x' = x0 + x1 + x_neg1 and x0 constrained to ker L_k.  The roughness
  is diagonal in the Hodge eigenbasis, so this is a spectral filter that
  shrinks the coefficient of an eigenvector with eigenvalue lambda by
  1 / (1 + lambda / eta); as eta grows it tends to the Hodge decomposition.
* reconstruct  -- the sampled variant: the data term becomes squared
  residuals at per-edge sample instants of a function-valued chain, the
  unknowns are spectral-basis coefficients per time-basis function.

The smooth and reconstruct models both solve for coefficients in the Hodge
eigenbasis and share one step that turns them into the three parts, their
closed-form certificates and the roughness.

Synthetic signals follow a fixed recipe: coefficients of the harmonic
basis are standard normal, and the coefficient of the i-th irrotational or
solenoidal basis vector has variance 1/i, independently per time basis
function.  Sampling is asynchronous: every edge gets M uniform instants on
[-pi, pi] plus centered Gaussian noise with standard deviation sigma.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from . import gf2
from .coefficients import (ChainVector, FourierFn, ModN, Real, norm_p,
                           resolve_weights)
from .errors import InfeasibleError, NumericalError, UnsupportedError
from .hodge import (DecompositionResult, _as_matrix, _chain, _full_bases,
                    _split, spectral_bases)


class ConditioningWarning(RuntimeWarning):
    """Raised (as a warning) when a normal system needed a ridge fallback."""


# -- fundamental model ---------------------------------------------------------

def _fundamental_mod2(x, p, w):
    rep = x.complex
    k = x.degree
    n_k = len(x.values)
    weights = None if w is None else np.asarray(w, dtype=float)

    down = rep.boundary_matrix(k)          # rows of this, as C_k vectors, span im B_k^T
    up = rep.boundary_matrix(k + 1)

    neg_cols = gf2.column_masks(down.T if down.size else np.zeros((n_k, 0), dtype=object))
    neg_bd = gf2.column_masks(down @ down.T if down.size else np.zeros((0, 0), dtype=object))
    # boundary of column j of B_k^T is B_k (B_k^T e_j), precomputed above
    neg_idx = gf2.independent_columns(neg_cols)
    pos_cols = gf2.column_masks(up if up.size else np.zeros((n_k, 0), dtype=object))
    pos_idx = gf2.independent_columns(pos_cols)
    gf2.check_enumeration_bound(len(neg_idx) + len(pos_idx), "fundamental model")

    target = gf2.vector_to_mask(x.values)
    target_bd = gf2.vector_to_mask(
        (down @ x.values) % 2 if down.size else np.zeros(0, dtype=object))

    neg_payloads = [(neg_cols[j], neg_bd[j]) for j in neg_idx]
    pos_payloads = [(pos_cols[j],) for j in pos_idx]

    # one walk over corrections x_neg1 with boundary(x - x_neg1) = 0; the key
    # (correction power, cycle-part power, y1 mask, y_neg1 mask) puts the
    # smallest correction first, then the smallest cycle part, then the
    # smallest generator encodings
    best = None
    for neg_mask, (c_elem, bd) in gf2.gray_iter(neg_payloads, width=2):
        if bd != target_bd:
            continue
        neg_power = gf2.mask_norm_power(c_elem, p, weights)
        if best is not None and neg_power > best[0][0]:
            continue
        base = target ^ c_elem
        for pos_mask, (s_elem,) in gf2.gray_iter(pos_payloads, width=1):
            x0_mask = base ^ s_elem
            key = (neg_power, gf2.mask_norm_power(x0_mask, p, weights),
                   pos_mask, neg_mask)
            if best is None or key < best[0]:
                best = (key, x0_mask, s_elem, c_elem, pos_mask, neg_mask)
    if best is None:
        raise InfeasibleError(
            "x cannot be written as cycle + B_k^T y over Z/2 "
            "(its boundary is outside the reachable set)")

    _, x0_mask, s_elem, c_elem, pos_mask, neg_mask = best
    y1_vals = np.zeros(rep.n_cells(k + 1), dtype=object)
    for bit, j in enumerate(pos_idx):
        if (pos_mask >> bit) & 1:
            y1_vals[j] = 1
    y_neg_vals = np.zeros(rep.n_cells(k - 1), dtype=object)
    for bit, j in enumerate(neg_idx):
        if (neg_mask >> bit) & 1:
            y_neg_vals[j] = 1

    x0 = ChainVector(rep, k, x.system, gf2.mask_to_vector(x0_mask, n_k))
    result = DecompositionResult(
        x0=x0,
        x1=ChainVector(rep, k, x.system, gf2.mask_to_vector(s_elem, n_k)),
        x_neg1=ChainVector(rep, k, x.system, gf2.mask_to_vector(c_elem, n_k)),
        y1=ChainVector(rep, k + 1, x.system, y1_vals),
        y_neg1=ChainVector(rep, k - 1, x.system, y_neg_vals),
        objective=norm_p(x0, p, weights),
        model="fundamental",
        residuals={"kernel": 0.0, "x1_certificate": 0.0, "x_neg1_certificate": 0.0},
    )
    return result


def solve_fundamental(x, p=2, weights=None):
    """Minimal-cycle-part decomposition of a chain (see module docstring).

    Real and FourierFn chains use the closed-form projections (p = 2);
    ModN(2) chains are solved exhaustively for p in {1, 2}.  Integer chains
    are rejected: their search space is infinite.
    """
    w = resolve_weights(weights, len(x.values))
    if isinstance(x.system, (Real, FourierFn)):
        if p != 2:
            raise UnsupportedError("the closed-form path needs p = 2")
        result = _split(x, w, "fundamental")
        down = x.complex.boundary_float(x.degree)
        result.residuals["kernel"] = (float(np.linalg.norm(
            down @ _as_matrix(result.x0.values))) if down.size else 0.0)
        return result
    if isinstance(x.system, ModN) and x.system.modulus == 2:
        if p not in (1, 2):
            raise UnsupportedError("only p = 1 and p = 2 are supported")
        return _fundamental_mod2(x, p, None if weights is None else w)
    if isinstance(x.system, ModN):
        raise UnsupportedError("ModN decomposition is implemented for modulus 2 only")
    raise UnsupportedError(
        f"fundamental model over {x.system!r} is not solvable here "
        "(integer programs over an infinite lattice are out of scope)")


# -- smoothness model ----------------------------------------------------------

def _spectral_parts(rep, k, bases, theta):
    """Parts, certificates and roughness of the k-chain U theta.

    `theta` has one coefficient row per column of U = bases.stacked().
    Returns x0 = U0 a0, x1 = U_sol a_sol, x_neg1 = U_irr a_irr, the
    minimum-norm certificates y1 = B_{k+1}^T U_sol (a_sol / lambda_sol) and
    y_neg1 = B_k U_irr (a_irr / lambda_irr), and the roughness
    |B_{k+1}^T x1|^2 + |B_k x_neg1|^2 = sum_i lambda_i |theta_i|^2.  Both
    closed forms rest on the HodgeBases invariant: B_{k+1} B_{k+1}^T u =
    lambda u makes B_{k+1}^T u / lambda the minimum-norm preimage of a
    solenoidal column u, and B_k^T B_k does the same for irrotational ones.
    """
    a0, a_irr, a_sol = np.split(theta, [bases.n_harmonic,
                                        bases.n_harmonic + bases.n_irr])
    y1 = rep.boundary_float(k + 1).T @ (bases.U_sol @ (a_sol / bases.sol_eigenvalues[:, None]))
    y_neg1 = rep.boundary_float(k) @ (bases.U_irr @ (a_irr / bases.irr_eigenvalues[:, None]))
    rough = float(np.sum(bases.eigenvalues()[:, None] * theta ** 2))
    return bases.U0 @ a0, bases.U_sol @ a_sol, bases.U_irr @ a_irr, y1, y_neg1, rough


def solve_smooth(x, eta=1.0, weights=None):
    """Quadratic smoothing split, solved as a filter in the Hodge eigenbasis.

    Minimizes |x' - x|_{2,w}^2 + (1/eta) (|B_{k+1}^T x1|^2 + |B_k x_neg1|^2)
    over x' = x0 + x1 + x_neg1 with x0 in ker L_k.  Writing x' = U theta in
    the full orthonormal eigenbasis U = [U0 | U_irr | U_sol] of C_k turns
    the roughness into sum_i lambda_i |theta_i|^2, so theta solves the
    n_k x n_k system (U^T W^2 U + diag(lambda / eta)) theta = U^T W^2 x,
    one column per coefficient.  With unit weights this is the spectral
    filter theta_i = u_i^T x / (1 + lambda_i / eta).  The system is solved
    by least squares, so zero weights that leave harmonic directions
    unobserved give the minimum-norm answer.
    """
    if not isinstance(x.system, (Real, FourierFn)):
        raise UnsupportedError(f"smooth model needs Real or FourierFn, got {x.system!r}")
    if not eta > 0:
        raise ValueError("eta must be positive")
    rep = x.complex
    k = x.degree
    w = resolve_weights(weights, len(x.values))
    mat = _as_matrix(x.values)
    bases = _full_bases(rep, k)
    if bases.n_harmonic + bases.n_irr + bases.n_sol != len(mat):
        raise NumericalError(
            f"Hodge bases at degree {k} have {bases.n_harmonic} + {bases.n_irr} "
            f"+ {bases.n_sol} columns for {len(mat)} cells")

    WU = w[:, None] * bases.stacked()
    normal = WU.T @ WU + np.diag(bases.eigenvalues() / eta)
    theta, *_ = np.linalg.lstsq(normal, WU.T @ (w[:, None] * mat), rcond=None)
    part_zero, part_pos, part_neg, y1, y_neg, rough = _spectral_parts(rep, k, bases, theta)

    fit = part_zero + part_pos + part_neg - mat
    data_term = float(np.sum((w[:, None] * fit) ** 2))
    return DecompositionResult(
        x0=_chain(x, k, part_zero), x1=_chain(x, k, part_pos),
        x_neg1=_chain(x, k, part_neg), y1=_chain(x, k + 1, y1),
        y_neg1=_chain(x, k - 1, y_neg),
        objective=data_term + rough / eta, model="smooth",
        residuals={"data": data_term, "roughness": rough / eta})


# -- synthetic signals and asynchronous sampling -------------------------------

class SynthSpec:
    """Recipe for a planted function-valued edge signal."""

    def __init__(self, n_irr=20, n_sol=20, time_order=3, seed=0):
        self.n_irr = int(n_irr)
        self.n_sol = int(n_sol)
        self.time_order = int(time_order)
        self.seed = seed

    def __repr__(self):
        return (f"SynthSpec(n_irr={self.n_irr}, n_sol={self.n_sol}, "
                f"time_order={self.time_order}, seed={self.seed!r})")


def synthesize(rep, spec):
    """Draw a random edge signal with the documented spectral variance law.

    Harmonic coefficients are N(0, 1); the i-th irrotational and solenoidal
    rows are N(0, 1/i).  Draw order is harmonic, irrotational, solenoidal,
    so results are reproducible from the seed alone.
    """
    bases = spectral_bases(rep, 1, spec.n_irr, spec.n_sol)
    system = FourierFn(spec.time_order)
    T = system.n_coeffs
    rng = np.random.default_rng(spec.seed)
    c0 = rng.standard_normal((bases.n_harmonic, T))
    c_irr = rng.standard_normal((bases.n_irr, T))
    c_irr *= 1.0 / np.sqrt(np.arange(1, bases.n_irr + 1))[:, None]
    c_sol = rng.standard_normal((bases.n_sol, T))
    c_sol *= 1.0 / np.sqrt(np.arange(1, bases.n_sol + 1))[:, None]
    coeffs = bases.U0 @ c0 + bases.U_irr @ c_irr + bases.U_sol @ c_sol
    return ChainVector(rep, 1, system, coeffs)


class SampleSet:
    """Asynchronous samples: per edge, M instants and noisy values."""

    def __init__(self, t, y, sigma=None, seed=None):
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        if t.shape != y.shape or t.ndim != 2:
            raise ValueError("t and y must be matching (n_edges, M) arrays")
        self.t = t
        self.y = y
        self.sigma = sigma
        self.seed = seed

    @property
    def n_edges(self):
        return self.t.shape[0]

    @property
    def samples_per_edge(self):
        return self.t.shape[1]


def sample_async(f, samples_per_edge, sigma, seed):
    """Uniform instants on [-pi, pi] per edge, Gaussian observation noise."""
    if not isinstance(f.system, FourierFn):
        raise UnsupportedError("sampling needs a function-valued chain")
    if samples_per_edge < 1:
        raise ValueError("need at least one sample per edge")
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    rng = np.random.default_rng(seed)
    n = len(f.values)
    t = rng.uniform(-np.pi, np.pi, size=(n, samples_per_edge))
    design = f.system.design_matrix(t.ravel()).reshape(n, samples_per_edge, -1)
    y = np.einsum("et,emt->em", f.values, design)
    y = y + sigma * rng.standard_normal((n, samples_per_edge))
    return SampleSet(t, y, sigma=sigma, seed=seed)


def save_samples(samples, path):
    import csv
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["edge", "t", "y"])
        for e in range(samples.n_edges):
            for i in range(samples.samples_per_edge):
                writer.writerow([e, repr(float(samples.t[e, i])),
                                 repr(float(samples.y[e, i]))])


def load_samples(path, n_edges):
    import csv

    from .errors import FormatError
    rows = [[] for _ in range(n_edges)]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["edge", "t", "y"]:
            raise FormatError(f"{path}: header {header} is not edge,t,y")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                e = int(row[0])
                sample = (float(row[1]), float(row[2]))
            except (ValueError, IndexError):
                raise FormatError(f"bad sample row {row}", lineno)
            if not 0 <= e < n_edges:
                raise FormatError(f"edge {e} outside 0..{n_edges - 1}", lineno)
            rows[e].append(sample)
    counts = {len(r) for r in rows}
    if len(counts) != 1:
        raise FormatError(f"{path}: unequal sample counts per edge {sorted(counts)}")
    m = counts.pop()
    if m == 0:
        raise FormatError(f"{path}: no samples")
    t = np.array([[p[0] for p in r] for r in rows])
    y = np.array([[p[1] for p in r] for r in rows])
    return SampleSet(t, y)


# -- sampled reconstruction ----------------------------------------------------

def reconstruct_gssc(samples, rep, bases, time_order=3, eta=1.0):
    """Least-squares fit of spectral/time coefficients to scattered samples.

    The unknown theta has one time-coefficient row per column of
    U = [U0 | U_irr | U_sol]; edge e carries coefficients u_e^T theta (u_e^T
    is row e of U), observed through the (M, T) Fourier design Psi_e at its
    sample instants.  The objective is the sum of squared sample residuals
    plus (1/eta) times the roughness |B_1 x_neg1|^2 + |B_2^T x1|^2, function
    norms reduced to coefficient norms by Parseval.  Because the columns of
    `bases` are eigenvectors with the listed eigenvalues (the HodgeBases
    invariant), the roughness is the diagonal sum_i lambda_i |theta_i|^2,
    lambda = 0 on U0, and the per-edge normal equations

        Gram = sum_e (u_e u_e^T) kron (Psi_e^T Psi_e) + diag(lambda / eta) kron I_T
        rhs  = U^T [Psi_e^T y_e]_e

    are solved by Cholesky; a singular system falls back to a 1e-10 ridge
    and emits a ConditioningWarning.  The certificates are the closed-form
    minimum-norm preimages y1 = B_2^T U_sol (theta_sol / lambda_sol) and
    y_neg1 = B_1 U_irr (theta_irr / lambda_irr).

    Returns (estimate chain, DecompositionResult with the three parts).
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    system = FourierFn(time_order)
    T = system.n_coeffs
    n = rep.n_cells(1)
    if samples.n_edges != n:
        raise ValueError(f"{samples.n_edges} sample rows for {n} edges")
    U = bases.stacked()
    K = U.shape[1]
    lam = bases.eigenvalues()
    psi = system.design_matrix(samples.t.ravel()).reshape(
        n, samples.samples_per_edge, T)

    outer = (U[:, :, None] * U[:, None, :]).reshape(n, K * K)
    local = np.einsum("emt,emu->etu", psi, psi).reshape(n, T * T)
    gram = (outer.T @ local).reshape(K, K, T, T).transpose(0, 2, 1, 3)
    gram = gram.reshape(K * T, K * T)
    gram[np.diag_indices(K * T)] += np.repeat(lam / eta, T)
    rhs = (U.T @ np.einsum("emt,em->et", psi, samples.y)).ravel()
    try:
        factor = scipy.linalg.cho_factor(gram)
    except scipy.linalg.LinAlgError:
        warnings.warn("normal system is singular; adding 1e-10 ridge",
                      ConditioningWarning)
        factor = scipy.linalg.cho_factor(gram + 1e-10 * np.eye(gram.shape[0]))
    theta = scipy.linalg.cho_solve(factor, rhs).reshape(K, T)

    part_zero, part_pos, part_neg, y1, y_neg1, rough = _spectral_parts(rep, 1, bases, theta)
    coeffs = part_zero + part_neg + part_pos
    estimate = ChainVector(rep, 1, system, coeffs)

    fit = np.einsum("emt,et->em", psi, coeffs) - samples.y
    data_term = float(np.sum(fit ** 2))
    objective = data_term + rough / eta

    result = DecompositionResult(
        x0=ChainVector(rep, 1, system, part_zero),
        x1=ChainVector(rep, 1, system, part_pos),
        x_neg1=ChainVector(rep, 1, system, part_neg),
        y1=ChainVector(rep, 2, system, y1),
        y_neg1=ChainVector(rep, 0, system, y_neg1),
        objective=objective, model="reconstruct",
        residuals={"data": data_term, "roughness": rough / eta})
    return estimate, result


# -- evaluation ----------------------------------------------------------------

def evaluation_grid(n_points=100):
    """Equispaced instants on [-pi, pi], both endpoints included."""
    return np.linspace(-np.pi, np.pi, n_points)


def eval_chain_on_grid(chain, grid=None):
    """(n_edges, n_grid) values of a function-valued chain."""
    if not isinstance(chain.system, FourierFn):
        raise UnsupportedError("grid evaluation needs a function-valued chain")
    if grid is None:
        grid = evaluation_grid()
    return chain.values @ chain.system.design_matrix(grid).T


def rmse_ratio(estimate, truth, grid=None):
    """Squared-error ratio sum((est - true)^2) / sum(true^2) on the grid.

    Both arguments may be function-valued chains or precomputed grid arrays.
    Despite being reported as an rmse, this is a plain energy ratio with no
    square root; a zero estimate of a nonzero signal scores exactly 1.
    """
    if grid is None:
        grid = evaluation_grid()
    est = estimate if isinstance(estimate, np.ndarray) else eval_chain_on_grid(estimate, grid)
    true = truth if isinstance(truth, np.ndarray) else eval_chain_on_grid(truth, grid)
    if est.shape != true.shape:
        raise ValueError(f"shape mismatch {est.shape} vs {true.shape}")
    denom = float(np.sum(true ** 2))
    if denom == 0.0:
        raise ValueError("the reference signal is identically zero")
    return float(np.sum((est - true) ** 2)) / denom
