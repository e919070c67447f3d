"""Decomposition and reconstruction models for chain-valued signals.

Three convex problems share the DecompositionResult container:

* fundamental  -- split x into x0 + x1 + x_neg1 with x0 a cycle,
  x1 = B_{k+1} y1 and x_neg1 = B_k^T y_neg1, making x0 as small as
  possible.  Solved in two stages: first the smallest correction x_neg1
  that lands x in the kernel, then the smallest-norm class representative
  within the kernel.  Over the reals with p = 2 both stages are orthogonal
  projections and the result is exactly the Hodge decomposition; over Z/2
  the first stage is a walk of the feasible coset of corrections, found by
  one GF(2) solve, and the second the exhaustive boundary walk under each
  correction, ordered by correction size first.  `simplicial_seminorm` is
  the second stage alone, on a cycle: the least element of its class.
* smooth       -- trade data fit against the roughness of the non-harmonic
  parts:  min |x' - x|^2 + (1/eta) (|B_{k+1}^T x1|^2 + |B_k x_neg1|^2)
  with x' = x0 + x1 + x_neg1 and x0 constrained to ker L_k.  The roughness
  is x'^T L_k x', so the fitted chain x' solves one normal system and the
  parts are its Hodge decomposition; with unit weights this shrinks the
  L_k eigenvector with eigenvalue lambda by 1 / (1 + lambda / eta), and as
  eta grows it tends to the Hodge decomposition of x.
* reconstruct  -- the sampled variant: the data term becomes squared
  residuals at per-edge sample instants of a function-valued chain, the
  unknowns are spectral-basis coefficients per time-basis function, and
  the parts and certificates are read off those coefficients in closed
  form.

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
from ._blas import one_blas_thread
from .coefficients import (ChainVector, FourierFn, Integer, ModN, Real, _apply_boundary,
                           norm_p, resolve_weights, zero_chain)
from .complexes import _as_int, _check_degree, _csv_rows, _write_csv
from .errors import FormatError, InfeasibleError, NumericalError, UnsupportedError
from .hodge import (DecompositionResult, _as_matrix, _chain, _cholesky, _first_nonfinite,
                    _min_norm_solve, _split, _weighted_projection, laplacian,
                    spectral_bases)
from .homology import _in_boundary_lattice

_SAMPLES_HEADER = ["edge", "t", "y"]  # the first row of a samples CSV


class ConditioningWarning(RuntimeWarning):
    """Warned when a fit's normal system is rank-deficient (minimum-norm fit)."""


# -- least elements of a class: fundamental model and seminorm ----------------

def _boundary_span(x, p, w, what, coset_bits=None, target=None):
    """(indices, masks, powers) for a walk of im B_{k+1} over Z/2 under the
    p-norm, p in {1, 2}: the greedy independent generators and
    `gf2.weight_powers(w, p)`.  None when no power is 0 and the mask `target`
    lies in the span, which the walk would answer with 0.  Else a walk of
    more than 2^24 elements (`coset_bits` counts an outer walk) is refused."""
    if p not in (1, 2):
        raise UnsupportedError("only p = 1 and p = 2 are supported")
    powers = gf2.weight_powers(w, p)
    masks = gf2.column_masks(x.complex.csc(x.degree + 1))
    idx = gf2.independent_columns(masks)
    gens = [masks[j] for j in idx]
    if (target is not None and (powers is None or all(v > 0 for v in powers))
            and gf2.solution_coset(gens, target) is not None):
        return None
    gf2.check_enumeration_bound(len(gens), what, coset_bits=coset_bits)
    return idx, gens, powers


def _fundamental_mod2(x, p, w):
    rep = x.complex
    k = x.degree
    n_k = len(x.values)

    down = rep.csc(k)
    down_cols = gf2.column_masks(down)      # B_k e_i, as C_{k-1} masks
    neg_cols = gf2.row_masks(down, rep.n_cells(k - 1))  # B_k^T e_j spans im B_k^T
    neg_idx = gf2.independent_columns(neg_cols)
    neg_gens = [neg_cols[j] for j in neg_idx]
    target = gf2.vector_to_mask(x.values)

    # a correction c = sum_i a_i B_k^T e_{neg_idx[i]} is feasible iff
    # B_k c = B_k x; the generators are independent, so the coordinate masks
    # a of the feasible corrections form one coset a0 + kernel of that map
    coset = gf2.solution_coset([gf2.combine(down_cols, g) for g in neg_gens],
                               gf2.combine(down_cols, target))
    if coset is None:
        raise InfeasibleError(
            "x cannot be written as cycle + B_k^T y over Z/2 "
            "(its boundary is outside the reachable set)")
    a0, kernel = coset
    pos_idx, pos_gens, powers = _boundary_span(x, p, w, "fundamental model",
                                               coset_bits=len(kernel))

    c0 = gf2.combine(neg_gens, a0)
    shift = len(neg_gens)
    low = (1 << shift) - 1
    packed = [z | gf2.combine(neg_gens, z) << shift for z in kernel]  # (z, c)

    # walk the feasible corrections, and under each one im B_{k+1}; the key
    # (correction power, cycle-part power, y1 mask, y_neg1 mask) puts the
    # smallest correction first, then the smallest cycle part, then the
    # smallest generator encodings
    best = None
    for _, dzc in gf2.gray_iter(packed):
        neg_mask, c_elem = a0 ^ (dzc & low), c0 ^ (dzc >> shift)
        neg_power = gf2.mask_norm_power(c_elem, powers)
        if best is not None and neg_power > best[0][0]:
            continue
        power, pos_mask, x0_mask, s_elem = gf2._least_in_span(
            target ^ c_elem, pos_gens, powers)
        key = (neg_power, power, pos_mask, neg_mask)
        if best is None or key < best[0]:
            best = (key, x0_mask, s_elem, c_elem, pos_mask, neg_mask)

    _, x0_mask, s_elem, c_elem, pos_mask, neg_mask = best
    y1_vals = gf2.mask_to_vector(
        gf2.combine([1 << j for j in pos_idx], pos_mask), rep.n_cells(k + 1))
    y_neg_vals = gf2.mask_to_vector(
        gf2.combine([1 << j for j in neg_idx], neg_mask), rep.n_cells(k - 1))

    x0 = ChainVector(rep, k, x.system, gf2.mask_to_vector(x0_mask, n_k))
    return DecompositionResult(
        x0=x0,
        x1=ChainVector(rep, k, x.system, gf2.mask_to_vector(s_elem, n_k)),
        x_neg1=ChainVector(rep, k, x.system, gf2.mask_to_vector(c_elem, n_k)),
        y1=ChainVector(rep, k + 1, x.system, y1_vals),
        y_neg1=ChainVector(rep, k - 1, x.system, y_neg_vals),
        objective=norm_p(x0, p, w),
        model="fundamental",
        residuals={"kernel": 0.0, "x1_certificate": 0.0, "x_neg1_certificate": 0.0},
    )


def solve_fundamental(x, p=2, weights=None):
    """Minimal-cycle-part decomposition of a chain (see module docstring).

    Real and FourierFn chains use the closed-form projections (p = 2).
    ModN(2) chains are solved exactly for p in {1, 2}: one GF(2) solve of
    B_k c = B_k x over c in im B_k^T gives the feasible coset of corrections
    (or InfeasibleError), and a walk of that coset, then the exhaustive
    boundary walk of im B_{k+1} under each correction, finds the minimum;
    UnsupportedError if the two walks together exceed 2^24 elements.  Ties
    go to the smallest subset of the greedy independent generators of
    im B_{k+1}, then of im B_k^T.
    Integer chains are rejected: their search space is infinite.
    """
    _check_degree(x.complex, x.degree)
    w = resolve_weights(weights, len(x.values))
    if isinstance(x.system, (Real, FourierFn)):
        if p != 2:
            raise UnsupportedError("the closed-form path needs p = 2")
        result = _split(x, w, "fundamental")
        result.residuals["kernel"] = float(np.linalg.norm(
            x.complex._sparse_boundary(x.degree) @ _as_matrix(result.x0.values)))
        return result
    if isinstance(x.system, ModN) and x.system.modulus == 2:
        return _fundamental_mod2(x, p, None if weights is None else w)
    if isinstance(x.system, ModN):
        raise UnsupportedError("ModN decomposition is implemented for modulus 2 only")
    raise UnsupportedError(
        f"fundamental model over {x.system!r} is not solvable here "
        "(integer programs over an infinite lattice are out of scope)")


def _require_kernel_chain(x):
    bd = _apply_boundary(x, x.degree, adjoint=False).values
    if x.system.exact:
        if any(v != 0 for v in bd):
            raise ValueError("representative is not a cycle (boundary nonzero)")
    elif bd.size:
        resid = np.max(np.abs(bd))
        scale = max(1.0, float(np.max(np.abs(x.values), initial=0.0)))
        entry = float(np.max(np.abs(x.complex._sparse_boundary(x.degree).data), initial=0.0))
        if resid > 1e-8 * scale * max(1.0, entry):
            raise ValueError("representative is not a cycle (boundary residual "
                             f"{resid:.3e})")


def simplicial_seminorm(x, p=2, weights=None):
    """Minimal weighted p-norm over the homology class of a cycle.

    Returns (value, minimizing representative).  Real chains use p = 2 and
    the Hodge split's weighted least-squares projection onto im B_{k+1}.
    Z/2 chains take the fundamental model's walk of im B_{k+1} (2^rank
    elements, rank capped at 24), keeping among tied minimizers the one
    reached by the smallest subset of its greedy independent generators; a
    cycle in im B_{k+1} is answered (0, zero chain) by one GF(2) solve, as
    the walk would, unless some w_i^p is 0.  Integer chains are answered only
    in a trivial class, x in the column lattice of B_{k+1}: the infimum over
    an infinite coset is out of scope.
    """
    rep = x.complex
    k = x.degree
    _check_degree(rep, k)
    _require_kernel_chain(x)
    w = resolve_weights(weights, len(x.values))

    if isinstance(x.system, Real):
        if p != 2:
            raise UnsupportedError("Real seminorm is implemented for p = 2 only")
        mat = _as_matrix(x.values)
        _, part_pos = _weighted_projection(rep, k + 1, mat, w)
        mini = _chain(x, k, mat - part_pos)
        return norm_p(mini, 2, w), mini

    if isinstance(x.system, ModN) and x.system.modulus == 2:
        target = gf2.vector_to_mask(x.values)
        span = _boundary_span(x, p, None if weights is None else w, "Z/2 seminorm", target=target)
        if span is None:
            return 0.0, zero_chain(rep, k, x.system)
        power, _, best, _ = gf2._least_in_span(target, *span[1:])
        mini = x.with_values(gf2.mask_to_vector(best, len(x.values)))
        return float(power) if p == 1 else float(np.sqrt(power)), mini

    if isinstance(x.system, Integer):
        if _in_boundary_lattice(rep, k, x.values.tolist()):
            return 0.0, zero_chain(rep, k, x.system)
        raise UnsupportedError(
            "integer seminorm of a nontrivial class (infimum over an infinite "
            "coset) is out of scope")

    raise UnsupportedError(f"seminorm not defined for {x.system!r}")


# -- smoothness model ----------------------------------------------------------

def _checked_eta(eta, top):
    """eta, refused before dividing when top / eta would not be positive and finite."""
    if not top / np.finfo(float).max < eta:
        raise ValueError(f"eta must be positive and keep {top:g} / eta finite, got {eta!r}")
    return eta


def _smooth_fit(rep, k, mat, w, eta):
    """Minimum-norm x' of (W^2 + L_k / eta) x' = W^2 x, factored in place by `_cholesky`,
    else rebuilt for `_min_norm_solve`, whose cutoff drops the harmonic directions zero
    weights leave unobserved; apart from `solve_smooth` to free its n_k x n_k array first."""
    def normal():
        A = laplacian(rep, k)  # Fortran-ordered: `_cholesky` factors it in place
        A /= _checked_eta(eta, A.diagonal().max(initial=0.0))
        A[np.diag_indices_from(A)] += w ** 2
        return A
    rhs = (w ** 2)[:, None] * mat
    with one_blas_thread():  # scipy's pool contends with numpy's (`_blas`)
        held = _cholesky(normal())
        if held is not None:
            return scipy.linalg.cho_solve((held, False), rhs)
    return _min_norm_solve(normal(), rhs)[0]


def solve_smooth(x, eta=1.0, weights=None):
    """Quadratic smoothing split: fit one chain, then Hodge-split it.

    Minimizes |x' - x|_{2,w}^2 + (1/eta) (|B_{k+1}^T x1|^2 + |B_k x_neg1|^2)
    over x' = x0 + x1 + x_neg1 with x0 in ker L_k.  The roughness is
    x'^T L_k x', so x' is the minimum-norm solution of
    (W^2 + L_k / eta) x' = W^2 x, one column per coefficient, and the parts
    and certificates are the orthogonal Hodge split of x'.  With unit
    weights this is the spectral filter that shrinks the L_k eigenvector
    with eigenvalue lambda by 1 / (1 + lambda / eta); L_k / eta must be finite.
    """
    if not isinstance(x.system, (Real, FourierFn)):
        raise UnsupportedError(f"smooth model needs Real or FourierFn, got {x.system!r}")
    rep = x.complex
    k = x.degree
    _check_degree(rep, k)
    w = resolve_weights(weights, len(x.values))
    mat = _as_matrix(x.values)
    fitted = _smooth_fit(rep, k, mat, w, eta)
    result = _split(_chain(x, k, fitted), np.ones(len(mat)), "smooth")
    data_term = float(np.sum((w[:, None] * (fitted - mat)) ** 2))
    rough = float(np.sum((rep._sparse_boundary(k) @ fitted) ** 2)
                  + np.sum((rep._sparse_boundary(k + 1).T @ fitted) ** 2)) / eta
    result.objective = data_term + rough
    result.residuals = {"data": data_term, "roughness": rough}
    return result


# -- synthetic signals and asynchronous sampling -------------------------------

class SynthSpec:
    """Recipe for a planted function-valued edge signal."""

    def __init__(self, n_irr=20, n_sol=20, time_order=3, seed=0):
        self.n_irr = _as_int("n_irr", n_irr)
        self.n_sol = _as_int("n_sol", n_sol)
        self.time_order = _as_int("time_order", time_order)
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


def _refuse_nonfinite(name, arr, along="sample"):
    """Refuses the first non-finite entry, row-major, of a 2-d per-edge array."""
    if bad := _first_nonfinite(arr):
        (e, i), value = bad
        raise ValueError(f"{name} = {value} at edge {e}, {along} {i} is not finite")


class SampleSet:
    """Asynchronous samples: per edge, M instants and noisy values.

    `t` and `y` are read-only copies of the arrays passed in and cannot be
    reassigned, so neither the caller nor a fit can change them.  Fits of
    one SampleSet share work held on it: the (n, M, T) Fourier design at
    the instants (filled by `sample_async`, which computes it anyway) and
    the factor of the last full-rank system `reconstruct_gssc` assembled; a
    fit with another eta or time order assembles afresh.
    """

    def __init__(self, t, y, sigma=None, seed=None):
        t = np.array(t, dtype=float)
        y = np.array(y, dtype=float)
        if t.shape != y.shape or t.ndim != 2:
            raise ValueError("t and y must be matching (n_edges, M) arrays")
        _refuse_nonfinite("t", t)
        _refuse_nonfinite("y", y)
        t.setflags(write=False)
        y.setflags(write=False)
        self._t, self._y, self.sigma, self.seed = t, y, sigma, seed
        self._held = {}  # work shared by fits of these samples

    @property
    def t(self):
        return self._t

    @property
    def y(self):
        return self._y

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
    samples_per_edge = _as_int("samples_per_edge", samples_per_edge)
    if samples_per_edge < 1:
        raise ValueError("need at least one sample per edge")
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    rng = np.random.default_rng(seed)
    t = rng.uniform(-np.pi, np.pi, size=(len(f.values), samples_per_edge))
    design = _design(f.system, t)
    y = np.einsum("et,emt->em", f.values, design)
    y = y + sigma * rng.standard_normal(t.shape)
    samples = SampleSet(t, y, sigma=sigma, seed=seed)
    samples._held[("design", f.system.n_coeffs)] = design
    return samples


def _design(system, t):
    """(n, M, T) read-only Fourier design of `system` at the (n, M) instants t."""
    design = system.design_matrix(t.ravel()).reshape(*t.shape, system.n_coeffs)
    design.setflags(write=False)
    return design


def save_samples(samples, path):
    _write_csv(path, _SAMPLES_HEADER,
               ([e, repr(float(t)), repr(float(y))] for e in range(samples.n_edges)
                for t, y in zip(samples.t[e], samples.y[e])))


def load_samples(path, n_edges):
    rows = [[] for _ in range(n_edges)]
    for lineno, row in _csv_rows(path, _SAMPLES_HEADER):
        try:
            e = int(row[0])
            sample = (float(row[1]), float(row[2]))
        except ValueError:
            raise FormatError(f"bad sample row {row}", lineno)
        if not np.all(np.isfinite(sample)):
            raise FormatError(f"non-finite sample row {row}", lineno)
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

def _coefficients(held, psi, y, bases, order, eta):
    """(theta, rank) of the fit of y through design psi in `bases`' columns in `order`
    (theta's rows too): by the leading block of a matching `held` factor, which its full-rank
    test covers; else by a Gram factored in place and held, or `_min_norm_solve`."""
    T = psi.shape[2]
    basis = np.vstack([bases.stacked(), bases.eigenvalues()])[:, order]
    K, N = len(order), len(order) * T
    key, held_basis, factor, rhs = held.get("normal", (None,) * 4)
    if not (key == (T, eta) and np.array_equal(basis, held_basis[:, :K])):
        i, j = np.triu_indices(K)
        local = np.matmul(psi.transpose(0, 2, 1), psi).reshape(len(psi), T * T)
        products = basis[:-1, i]
        products *= basis[:-1, j]  # u_{e,i} u_{e,j}, i <= j, in place
        blocks = (products.T @ local).reshape(-1, T, T)
        blocks[i == j] += (basis[-1] / eta)[:, None, None] * np.eye(T)
        gram = np.zeros((N, N), order="F")
        # upper[i, j] is block (i, j) of gram, seen through its C-ordered .T
        upper = gram.T.reshape(K, T, K, T).transpose(2, 0, 3, 1)
        upper[i, j] = blocks
        rhs = (basis[:-1].T @ np.matmul(psi.transpose(0, 2, 1), y[..., None])[..., 0]).ravel()
        if not np.all(np.isfinite(rhs)):  # finite y can overflow it; cho_solve skips the scan
            raise NumericalError("the normal system's right-hand side overflows; rescale y")
        with one_blas_thread():  # scipy's pool contends with numpy's (`_blas`)
            factor = _cholesky(gram)
        if factor is None:
            upper[j, i] = blocks.transpose(0, 2, 1)  # gram mirrored in full
            upper[i, j] = blocks
            return _min_norm_solve(gram, rhs)
        for arr in (basis, factor, rhs):  # held, and read by later fits
            arr.setflags(write=False)
        held["normal"] = ((T, eta), basis, factor, rhs)
    return scipy.linalg.cho_solve((factor[:N, :N], False), rhs[:N], check_finite=False), N


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

    are ordered [U0 | irr_0, sol_0, irr_1, ...]; the Gram's upper block
    triangle, one product of the row products u_{e,i} u_{e,j} (i <= j) with
    the per-edge Grams, is factored in place by `hodge._cholesky` under
    the `eig_sym` cutoff.  A rank-deficient Gram (say, a harmonic block with
    fewer samples than time coefficients) gives the minimum-norm theta of
    `hodge._min_norm_solve` and a ConditioningWarning.  The certificates are
    the closed-form minimum-norm preimages y1 = B_2^T U_sol (theta_sol /
    lambda_sol) and y_neg1 = B_1 U_irr (theta_irr / lambda_irr).  The design
    and the factor of the last full-rank system are held on `samples`; a
    later fit with the same finite lambda / eta and time order whose columns
    lead (as every `HodgeBases.sub(s, s)` does) solves its leading block.

    Returns (estimate chain, DecompositionResult with the three parts).
    """
    lam = bases.eigenvalues()
    _checked_eta(eta, np.max(lam, initial=0.0))
    system = FourierFn(time_order)
    T = system.n_coeffs
    n = rep.n_cells(1)
    if samples.n_edges != n:
        raise ValueError(f"{samples.n_edges} sample rows for {n} edges")
    if bases.U0.shape[0] != n:
        raise ValueError(f"basis with {bases.U0.shape[0]} rows for {n} edges")
    held = samples._held
    psi = held.get(("design", T))
    if psi is None:
        psi = held[("design", T)] = _design(system, samples.t)
    # [U0 | irr_0, sol_0, irr_1, sol_1, ...]: every sub(s, s) basis leads
    order = np.argsort(np.r_[[-1] * bases.n_harmonic, 2 * np.arange(bases.n_irr),
                             2 * np.arange(bases.n_sol) + 1], kind="stable")
    theta, rank = _coefficients(held, psi, samples.y, bases, order, eta)
    if rank < len(theta):
        warnings.warn(f"normal system has rank {rank} < {len(theta)}", ConditioningWarning)
    theta = theta.reshape(-1, T)[np.argsort(order)]

    a0, a_irr, a_sol = np.split(theta, [bases.n_harmonic,
                                        bases.n_harmonic + bases.n_irr])
    y1 = rep._sparse_boundary(2).T @ (bases.U_sol @ (a_sol / bases.sol_eigenvalues[:, None]))
    y_neg1 = rep._sparse_boundary(1) @ (bases.U_irr @ (a_irr / bases.irr_eigenvalues[:, None]))
    rough = float(np.sum(lam[:, None] * theta ** 2))
    part_zero, part_pos, part_neg = bases.U0 @ a0, bases.U_sol @ a_sol, bases.U_irr @ a_irr
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
    n_points = _as_int("n_points", n_points)
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
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
