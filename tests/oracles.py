"""Independent reference computations used by the test suite.

Everything here is deliberately naive (enumeration, cofactor-style
recursion, union-find, dense designs) so that it shares no algorithm with
the library implementations it checks; only the chain and result
containers and separately tested primitives (`eig_sym`, ...) are borrowed
from the library.
"""

import itertools
import math
import warnings

import numpy as np
import scipy.linalg

from gssc import gf2
from gssc.baselines import rbf_kernel
from gssc.coefficients import ChainVector, FourierFn, norm_p, zero_chain
from gssc.complexes import SimplicialComplex, ValidationReport, _dense_csc, _integral
from gssc.errors import InfeasibleError, NumericalError
from gssc._blas import one_blas_thread
from gssc.hodge import (ZERO_TOL_FLOOR, DecompositionResult, HodgeBases, Spectrum, _cholesky,
                        _first_nonfinite, _signed, eig_sym, laplacian, numerical_rank)
from gssc.homology import SNFResult
from gssc.learn import ConditioningWarning, _checked_eta


def bareiss_det(matrix):
    """Exact integer determinant by fraction-free elimination."""
    a = [[int(v) for v in row] for row in np.asarray(matrix, dtype=object)]
    n = len(a)
    if n == 0:
        return 1
    assert all(len(row) == n for row in a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def gcd_of_minors(matrix, k):
    """gcd of all k x k minors; 0 when every minor vanishes."""
    mat = np.asarray(matrix, dtype=object)
    m, n = mat.shape
    g = 0
    for rows in itertools.combinations(range(m), k):
        for cols in itertools.combinations(range(n), k):
            sub = mat[np.ix_(rows, cols)]
            g = math.gcd(g, abs(bareiss_det(sub)))
    return g


def loop_smith_normal_form(matrix):
    """Smith normal form over Z with transformation certificates.

    Pivots are chosen with minimal absolute value, which keeps intermediate
    entries small in practice.  Row operations accumulate in U, column
    operations in V; each is a product of swaps, signed additions and
    negations, so det(U), det(V) are +-1.  Entries must be integers
    (integer-valued floats included); any other entry raises ValueError.
    """
    A = tuple_to_dense(tuple_columns(matrix), np.shape(matrix)[0])
    m, n = A.shape
    U = tuple_to_dense([((i, 1),) for i in range(m)], m)
    V = tuple_to_dense([((i, 1),) for i in range(n)], n)

    def row_add(dst, src, c):
        A[dst, :] += c * A[src, :]
        U[dst, :] += c * U[src, :]

    def col_add(dst, src, c):
        A[:, dst] += c * A[:, src]
        V[:, dst] += c * V[:, src]

    def row_swap(i, j):
        A[[i, j], :] = A[[j, i], :]
        U[[i, j], :] = U[[j, i], :]

    def col_swap(i, j):
        A[:, [i, j]] = A[:, [j, i]]
        V[:, [i, j]] = V[:, [j, i]]

    t = 0
    while t < min(m, n):
        # minimal-absolute-value pivot in the trailing block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = A[i, j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            row_swap(t, pivot[0])
        if pivot[1] != t:
            col_swap(t, pivot[1])
        while True:
            # clear the pivot column, swapping a smaller remainder up if any
            for i in range(t + 1, m):
                if A[i, t] != 0:
                    row_add(i, t, -(A[i, t] // A[t, t]))
            residue = [i for i in range(t + 1, m) if A[i, t] != 0]
            if residue:
                row_swap(t, min(residue, key=lambda i: abs(A[i, t])))
                continue
            for j in range(t + 1, n):
                if A[t, j] != 0:
                    col_add(j, t, -(A[t, j] // A[t, t]))
            residue = [j for j in range(t + 1, n) if A[t, j] != 0]
            if residue:
                col_swap(t, min(residue, key=lambda j: abs(A[t, j])))
                continue
            break
        # divisibility: the pivot must divide everything that remains
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i, j] % A[t, t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_add(t, bad, 1)
            continue  # redo elimination at the same t with a smaller pivot
        if A[t, t] < 0:
            A[t, :] = -A[t, :]
            U[t, :] = -U[t, :]
        t += 1

    rank = sum(1 for i in range(min(m, n)) if A[i, i] != 0)
    return SNFResult(A, U, V, rank)


def dense_solve_integer(matrix, target):
    """One integer solution z of B z = target, or None when none exists.

    Reads the answer off the certificates of `loop_smith_normal_form`
    of all of B: with S = U B V, B z = t has an integer solution exactly
    when each (U t)_i is divisible by S_ii (and vanishes where S_ii = 0).
    """
    B = np.asarray(matrix, dtype=object)
    m, n = B.shape
    t = np.asarray(target, dtype=object).reshape(m)
    snf = loop_smith_normal_form(B)
    rhs = snf.U @ t
    y = np.zeros(n, dtype=object)
    for i in range(min(m, n)):
        d = snf.S[i, i]
        if d != 0:
            if rhs[i] % d != 0:
                return None
            y[i] = rhs[i] // d
        elif rhs[i] != 0:
            return None
    for i in range(min(m, n), m):
        if rhs[i] != 0:
            return None
    return snf.V @ y


def gf2_nullspace(matrix):
    """0/1 basis vectors of the mod-2 nullspace, by row reduction."""
    A = np.asarray(matrix, dtype=object)
    rows = [[int(v) % 2 for v in row] for row in A]
    m = len(rows)
    n = len(rows[0]) if m else A.shape[1]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(m):
            if i != r and rows[i][c]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    free = [c for c in range(n) if c not in pivots]
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for i, c in enumerate(pivots):
            vec[c] = rows[i][f]
        basis.append(vec)
    return basis


def dense_mod_p_rank(matrix, p):
    """Rank over Z/p by dense Gauss-Jordan elimination, column by column."""
    B = np.asarray(matrix, dtype=object)
    if B.size == 0:
        return 0
    rows = [[int(x) % p for x in row] for row in B]
    m, n = len(rows), len(rows[0])
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, m) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(m):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def loop_signed(vec):
    """Column sign convention of `hodge._signed`, one column at a time: flip
    each column whose first entry above 1e-12 of its largest magnitude is
    negative.  Works in place and returns `vec`."""
    for j in range(vec.shape[1]):
        col = vec[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))[0]
        if nz.size and col[nz[0]] < 0:
            vec[:, j] = -col
    return vec


def primes_between(lo, hi):
    sieve = [True] * (hi + 1)
    sieve[0:2] = [False, False]
    for i in range(2, int(hi ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    return [p for p in range(lo, hi + 1) if sieve[p]]


def component_count(n_vertices, edges):
    """Connected components by union-find over an edge list."""
    parent = list(range(n_vertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in range(n_vertices)})


def orthonormal_hodge_split(down, up, values):
    """Hodge split by orthonormal column-space bases, certificates by lstsq.

    `down` is B_k and `up` is B_{k+1} as float matrices; `values` is an
    (n_k,) or (n_k, T) array.  Each image projection uses its own SVD basis
    and each certificate its own least-squares solve, so nothing is shared
    with the library's single projection kernel.  Returns the 2-D arrays
    (x0, x1, x_neg1, y1, y_neg1).
    """
    vals = np.asarray(values, dtype=float).reshape(len(values), -1)

    def colspace(M):
        if M.size == 0:
            return np.zeros((M.shape[0], 0))
        u, s, _ = np.linalg.svd(M, full_matrices=False)
        tol = max(max(M.shape) * np.finfo(float).eps, 1e-12) * s[0]
        return u[:, s > tol] if s[0] > 0 else np.zeros((M.shape[0], 0))

    def preimage(B, part):
        if B.size == 0:
            return np.zeros((B.shape[1], part.shape[1]))
        return np.linalg.lstsq(B, part, rcond=None)[0]

    q_down = colspace(down.T)
    q_up = colspace(up)
    x_neg1 = q_down @ (q_down.T @ vals)
    x1 = q_up @ (q_up.T @ vals)
    x0 = vals - x_neg1 - x1
    return x0, x1, x_neg1, preimage(up, x1), preimage(down.T, x_neg1)


def dense_full_bases(rep, k):
    """Harmonic, irrotational and solenoidal bases from three n_k x n_k eighs.

    The reference for `gssc.hodge._full_bases`: U0 is the kernel of the
    dense L_k, U_irr the eigenvectors of B_k^T B_k and U_sol those of
    B_{k+1} B_{k+1}^T with eigenvalues above max(n * eps, 1e-12) * lambda_max,
    ascending.  Each column's first entry above 1e-12 of its largest
    magnitude is made positive.
    """
    down = rep.boundary_float(k)
    up = rep.boundary_float(k + 1)
    n = rep.n_cells(k)

    def eigh(gram, keep_zero):
        if n == 0:
            return np.zeros((0, 0)), np.zeros(0)
        lam, vec = np.linalg.eigh(gram)
        tol = max(n * np.finfo(float).eps, 1e-12) * np.max(np.abs(lam))
        keep = np.abs(lam) <= tol if keep_zero else lam > tol
        vec, lam = vec[:, keep], lam[keep]
        for j in range(vec.shape[1]):
            big = np.abs(vec[:, j]) > 1e-12 * np.max(np.abs(vec[:, j]))
            if vec[np.argmax(big), j] < 0:
                vec[:, j] *= -1
        return vec, lam

    U0, _ = eigh(down.T @ down + up @ up.T, keep_zero=True)
    U_irr, irr_vals = eigh(down.T @ down, keep_zero=False)
    U_sol, sol_vals = eigh(up @ up.T, keep_zero=False)
    return HodgeBases(U0, U_irr, U_sol, irr_vals, sol_vals, len(irr_vals), len(sol_vals))


def _lstsq_preimage(B, part):
    """Minimum-norm least-squares y with B y = part (zero when B is empty)."""
    if not B.size:
        return np.zeros((B.shape[1], part.shape[1]))
    return np.linalg.lstsq(B, part, rcond=None)[0]


def dense_reconstruct(samples, rep, bases, time_order=3, eta=1.0):
    """Sampled reconstruction by the dense Kronecker design.

    The reference for `gssc.reconstruct_gssc`: it builds the (n M) x (K T)
    design explicitly, appends the roughness penalty as Kronecker rows of
    B_1 U_irr and B_2^T U_sol, forms `A.T @ A`, and recovers the
    certificates y1, y_neg1 by least-squares preimages.  Same arguments
    and returns as the library function; a Cholesky breakdown falls back to
    a 1e-10 ridge with a ConditioningWarning (the library instead returns
    the minimum-norm fit whenever the system is rank-deficient).
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    system = FourierFn(time_order)
    T = system.n_coeffs
    n = rep.n_cells(1)
    if samples.n_edges != n:
        raise ValueError(f"{samples.n_edges} sample rows for {n} edges")
    m = samples.samples_per_edge
    blocks = [bases.U0, bases.U_irr, bases.U_sol]
    sizes = [b.shape[1] for b in blocks]
    total = sum(sizes)

    psi = system.design_matrix(samples.t.ravel())      # (n m, T)
    edge_of_row = np.repeat(np.arange(n), m)
    design = np.hstack([
        (b[edge_of_row][:, :, None] * psi[:, None, :]).reshape(n * m, sizes[q] * T)
        for q, b in enumerate(blocks)
    ]) if total else np.zeros((n * m, 0))

    down = rep.boundary_float(1)
    up = rep.boundary_float(2)
    pen_rows = []
    offset_irr = sizes[0] * T
    offset_sol = (sizes[0] + sizes[1]) * T
    if sizes[1] and down.size:
        block = np.kron(down @ bases.U_irr, np.eye(T)) / np.sqrt(eta)
        rows = np.zeros((block.shape[0], total * T))
        rows[:, offset_irr:offset_irr + sizes[1] * T] = block
        pen_rows.append(rows)
    if sizes[2] and up.size:
        block = np.kron(up.T @ bases.U_sol, np.eye(T)) / np.sqrt(eta)
        rows = np.zeros((block.shape[0], total * T))
        rows[:, offset_sol:offset_sol + sizes[2] * T] = block
        pen_rows.append(rows)

    A = np.vstack([design] + pen_rows) if pen_rows else design
    b = np.concatenate([samples.y.ravel(), np.zeros(A.shape[0] - n * m)])

    if total:
        gram = A.T @ A
        rhs = A.T @ b
        try:
            factor = scipy.linalg.cho_factor(gram)
        except scipy.linalg.LinAlgError:
            warnings.warn("normal system is singular; adding 1e-10 ridge",
                          ConditioningWarning)
            factor = scipy.linalg.cho_factor(gram + 1e-10 * np.eye(gram.shape[0]))
        theta = scipy.linalg.cho_solve(factor, rhs)
    else:
        theta = np.zeros(0)

    split = np.split(theta, [sizes[0] * T, (sizes[0] + sizes[1]) * T])
    a0 = split[0].reshape(sizes[0], T)
    a_irr = split[1].reshape(sizes[1], T)
    a_sol = split[2].reshape(sizes[2], T)

    part_zero = blocks[0] @ a0
    part_neg = blocks[1] @ a_irr
    part_pos = blocks[2] @ a_sol
    coeffs = part_zero + part_neg + part_pos
    estimate = ChainVector(rep, 1, system, coeffs)

    fit = design @ theta - samples.y.ravel()
    data_term = float(fit @ fit)
    rough = 0.0
    if up.size:
        rough += float(np.sum((up.T @ part_pos) ** 2))
    if down.size:
        rough += float(np.sum((down @ part_neg) ** 2))
    objective = data_term + rough / eta

    result = DecompositionResult(
        x0=ChainVector(rep, 1, system, part_zero),
        x1=ChainVector(rep, 1, system, part_pos),
        x_neg1=ChainVector(rep, 1, system, part_neg),
        y1=ChainVector(rep, 2, system, _lstsq_preimage(up, part_pos)),
        y_neg1=ChainVector(rep, 0, system, _lstsq_preimage(down.T, part_neg)),
        objective=objective, model="reconstruct",
        residuals={"data": data_term, "roughness": rough / eta})
    return estimate, result


def stacked_normal_system(samples, bases, time_order=3, eta=1.0):
    """(gram, rhs): `reconstruct_gssc`'s regularized normal system, both
    triangles, in the stacked column order [U0 | U_irr | U_sol], with the
    per-edge Grams and the rhs contracted by einsum.  The reference for the
    library's interleaved upper-block-triangle assembly, which it replaced.
    """
    system = FourierFn(time_order)
    T = system.n_coeffs
    psi = system.design_matrix(samples.t.ravel()).reshape(*samples.t.shape, T)
    U = bases.stacked()
    lam = np.concatenate([np.zeros(bases.n_harmonic), bases.irr_eigenvalues,
                          bases.sol_eigenvalues])
    n, K = U.shape
    outer = (U[:, :, None] * U[:, None, :]).reshape(n, K * K)
    local = np.einsum("emt,emu->etu", psi, psi).reshape(n, T * T)
    gram = (outer.T @ local).reshape(K, K, T, T).transpose(0, 2, 1, 3)
    gram = gram.reshape(K * T, K * T)
    gram[np.diag_indices(K * T)] += np.repeat(lam / eta, T)
    rhs = (U.T @ np.einsum("emt,em->et", psi, samples.y)).ravel()
    return gram, rhs


def stacked_labels(bases):
    """The columns of `bases.stacked()`, as (part, index) labels."""
    return ([("harmonic", r) for r in range(bases.n_harmonic)]
            + [("irr", r) for r in range(bases.n_irr)]
            + [("sol", r) for r in range(bases.n_sol)])


def interleaved_labels(bases):
    """The column order [U0 | irr_0, sol_0, irr_1, sol_1, ...] of the
    library's normal systems, as `stacked_labels` labels."""
    labels = [("harmonic", r) for r in range(bases.n_harmonic)]
    for r in range(max(bases.n_irr, bases.n_sol)):
        labels += [("irr", r)] * (r < bases.n_irr) + [("sol", r)] * (r < bases.n_sol)
    return labels


def interleaved_rows(bases, n_coeffs):
    """For each (column, time) unknown of the interleaved normal system of
    `bases`, its row in the stacked one (n_coeffs time rows per column)."""
    labels = stacked_labels(bases)
    cols = np.array([labels.index(label) for label in interleaved_labels(bases)], dtype=int)
    return (cols[:, None] * n_coeffs + np.arange(n_coeffs)).ravel()


def leads(sub, bases):
    """Whether the columns of `sub` come first in the interleaved order of
    `bases`, so that its normal system is a leading block of theirs."""
    mine = interleaved_labels(sub)
    return mine == interleaved_labels(bases)[:len(mine)]


def dense_smooth(x, eta=1.0, weights=None):
    """Smooth model by one stacked least-squares problem in boundary coordinates.

    The reference for `gssc.solve_smooth`: the unknowns are the harmonic
    coefficients a0 of x0 and the certificates y1, y_neg1 themselves
    (n_0 + n_{k+1} + n_{k-1} columns), the roughness enters as penalty rows
    B_{k+1}^T B_{k+1} / sqrt(eta) and B_k B_k^T / sqrt(eta) stacked under
    the weighted data block, and one minimum-norm `lstsq` fixes the gauge
    freedom in y1, y_neg1.  The harmonic basis comes from numpy's `eigh`
    of L_k with the library's zero cutoff.  Same arguments and result
    fields as the library function.
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
    rep = x.complex
    k = x.degree
    mat = np.asarray(x.values, dtype=float).reshape(len(x.values), -1)
    w = np.ones(len(mat)) if weights is None else np.asarray(weights, dtype=float)
    n_cols = mat.shape[1]

    up = rep.boundary_float(k + 1)
    down = rep.boundary_float(k)
    lam, vec = np.linalg.eigh(down.T @ down + up @ up.T)
    tol = max(max(len(lam), 1) * np.finfo(float).eps * np.max(np.abs(lam), initial=0.0),
              1e-12)
    U0 = vec[:, np.abs(lam) <= tol]
    n0 = U0.shape[1]
    n_up = rep.n_cells(k + 1)
    n_down = rep.n_cells(k - 1)

    W = w[:, None]
    data_block = np.hstack([
        W * U0 if n0 else np.zeros((len(mat), 0)),
        W * up if up.size else np.zeros((len(mat), n_up)),
        W * down.T if down.size else np.zeros((len(mat), n_down)),
    ])
    pen_up = np.zeros((n_up, data_block.shape[1]))
    if up.size:
        pen_up[:, n0:n0 + n_up] = (up.T @ up) / np.sqrt(eta)
    pen_down = np.zeros((n_down, data_block.shape[1]))
    if down.size:
        pen_down[:, n0 + n_up:] = (down @ down.T) / np.sqrt(eta)

    A = np.vstack([data_block, pen_up, pen_down])
    b = np.vstack([W * mat, np.zeros((n_up, n_cols)), np.zeros((n_down, n_cols))])
    theta, *_ = np.linalg.lstsq(A, b, rcond=None)

    a0 = theta[:n0]
    y1 = theta[n0:n0 + n_up]
    y_neg = theta[n0 + n_up:]
    part_zero = U0 @ a0 if n0 else np.zeros_like(mat)
    part_pos = up @ y1 if up.size else np.zeros_like(mat)
    part_neg = down.T @ y_neg if down.size else np.zeros_like(mat)

    fit = part_zero + part_pos + part_neg - mat
    data_term = float(np.sum((w[:, None] * fit) ** 2))
    rough_pos = float(np.sum((up.T @ part_pos) ** 2)) if up.size else 0.0
    rough_neg = float(np.sum((down @ part_neg) ** 2)) if down.size else 0.0
    objective = data_term + (rough_pos + rough_neg) / eta

    def chain(degree, values):
        return ChainVector(rep, degree, x.system,
                           values[:, 0] if np.ndim(x.values) == 1 else values)

    return DecompositionResult(
        x0=chain(k, part_zero), x1=chain(k, part_pos), x_neg1=chain(k, part_neg),
        y1=chain(k + 1, y1), y_neg1=chain(k - 1, y_neg),
        objective=objective, model="smooth",
        residuals={"data": data_term, "roughness": (rough_pos + rough_neg) / eta})


def sylvester_product(values, rep, alpha=0.05, beta=0.05):
    """Product smoother by a general Sylvester solve.

    The reference for `gssc.sc_product`: `scipy.linalg.solve_sylvester` of
    (I + alpha L_1) Z + Z (beta L_t) = values, with L_1 assembled from the
    boundary matrices and L_t the free-boundary second difference on the
    grid.  Takes and returns plain (n_edges, n_grid) arrays.
    """
    down = rep.boundary_float(1)
    up = rep.boundary_float(2)
    L1 = down.T @ down + up @ up.T
    n_t = values.shape[1]
    d = np.zeros((n_t - 1, n_t))
    d[np.arange(n_t - 1), np.arange(n_t - 1)] = -1.0
    d[np.arange(n_t - 1), np.arange(1, n_t)] = 1.0
    A = np.eye(len(values)) + alpha * L1
    return scipy.linalg.solve_sylvester(A, beta * (d.T @ d), values)


def dense_sc_product(values, rep, alpha=0.05, beta=0.05):
    """Product smoother from raw `np.linalg.eigh` of the dense operators.

    The reference for `gssc.sc_product`, which filters in the rep's Hodge
    eigenbasis: here L_1 = P diag(a) P^T is assembled from the dense
    boundaries and L_t = Q diag(b) Q^T is the free-boundary second
    difference on the grid, each eigendecomposed on every call.  Takes and
    returns plain (n_edges, n_grid) arrays.
    """
    down = rep.boundary_float(1)
    up = rep.boundary_float(2)
    n_t = values.shape[1]
    d = np.zeros((n_t - 1, n_t))
    d[np.arange(n_t - 1), np.arange(n_t - 1)] = -1.0
    d[np.arange(n_t - 1), np.arange(1, n_t)] = 1.0
    a, P = np.linalg.eigh(down.T @ down + up @ up.T)
    b, Q = np.linalg.eigh(d.T @ d)
    return P @ ((P.T @ values @ Q) / (1.0 + alpha * a[:, None] + beta * b)) @ Q.T


def dense_build_boundary(complex, k):
    """B_k of a simplicial complex, written entry by entry into a dense
    object array: column j gets the alternating face signs of simplex j."""
    mat = np.zeros((complex.n_simplexes(k - 1), complex.n_simplexes(k)), dtype=object)
    if k < 1 or k > complex.dim:
        return mat
    face_index = {s: i for i, s in enumerate(complex.simplexes(k - 1))}
    for col, simplex in enumerate(complex.simplexes(k)):
        sign = 1
        for j in range(len(simplex)):
            mat[face_index[simplex[:j] + simplex[j + 1:]], col] = sign
            sign = -sign
    return mat


def dense_exact_boundary(k, mat):
    """B_k as Python ints by converting every entry of the dense array;
    refuses any non-integral entry, first in row-major order."""
    mat = np.asarray(mat, dtype=object)
    try:
        exact = np.frompyfunc(int, 1, 1)(mat)
        if not (exact != mat).any():
            return exact
    except (TypeError, ValueError, OverflowError):
        pass
    (i, j), v = next((ij, v) for ij, v in np.ndenumerate(mat) if not _integral(v))
    raise ValueError(f"B_{k} entry ({i}, {j}) = {v!r} is not an integer")


def dense_nonzero_columns(mat):
    """Per column, the (row, value) pairs of its nonzeros, by a dense scan."""
    return [[(i, mat[i, j]) for i in np.flatnonzero(mat[:, j]).tolist()]
            for j in range(mat.shape[1])]


def _dense_column_masks(matrix):
    """Columns mod 2 as row-indexed masks, by a scan of every entry."""
    rows, cols = matrix.shape
    return [sum(1 << i for i in range(rows) if int(matrix[i, j]) % 2)
            for j in range(cols)]


def _greedy_independent(masks):
    """Indices of the masks that raise the rank, taken in order."""
    basis = {}
    keep = []
    for idx, m in enumerate(masks):
        cur = m
        while cur:
            lead = cur.bit_length() - 1
            if lead in basis:
                cur ^= basis[lead]
            else:
                basis[lead] = cur
                keep.append(idx)
                break
    return keep


def _gray_walk(payloads, width):
    """Yield (subset_mask, combined_payload) over all subsets of generators.

    `payloads` is a list of tuples of ints; combination is componentwise XOR.
    The walk is a Gray code (one XOR per step); subset masks appear in Gray
    order, so callers that care about ties must compare keys explicitly.
    `width` is the payload tuple length, needed when the list is empty.
    Kept here so that the Z/2 references below do not call the library
    walk they check.
    """
    r = len(payloads)
    acc = [0] * width
    yield 0, tuple(acc)
    for g in range(1, 1 << r):
        flip = (g & -g).bit_length() - 1
        for c in range(width):
            acc[c] ^= payloads[flip][c]
        yield g ^ (g >> 1), tuple(acc)


def _dense_mask_norm_power(mask, p, weights=None):
    """sum of w_i^p over the set bits of `mask`, each power taken per bit."""
    if weights is None:
        return mask.bit_count()
    total = 0.0
    m = mask
    while m:
        low = m & -m
        total += float(weights[low.bit_length() - 1]) ** p
        m ^= low
    return total


def dense_fundamental_mod2(x, p, w):
    """Z/2 fundamental model by one exhaustive walk of im B_k^T x im B_{k+1}.

    The reference for `gssc.learn._fundamental_mod2`, which walks only the
    feasible coset of corrections: this walks every element of im B_k^T
    (boundaries by a dense object `B_k @ B_k^T`), skips those whose boundary
    misses B_k x, and keeps the least key (correction power, cycle-part
    power, y1 mask, y_neg1 mask) in the same generator coordinates.
    Raises UnsupportedError when the two walks exceed 2^24 elements together
    and InfeasibleError when no correction is feasible.  `w` is None for
    unit weights.
    """
    rep = x.complex
    k = x.degree
    n_k = len(x.values)
    weights = None if w is None else np.asarray(w, dtype=float)

    down = rep.boundary_matrix(k)
    up = rep.boundary_matrix(k + 1)

    neg_cols = _dense_column_masks(down.T if down.size else np.zeros((n_k, 0), dtype=object))
    neg_bd = _dense_column_masks(down @ down.T if down.size else np.zeros((0, 0), dtype=object))
    neg_idx = _greedy_independent(neg_cols)
    pos_cols = _dense_column_masks(up if up.size else np.zeros((n_k, 0), dtype=object))
    pos_idx = _greedy_independent(pos_cols)
    gf2.check_enumeration_bound(len(neg_idx) + len(pos_idx), "fundamental model")

    target = gf2.vector_to_mask(x.values)
    target_bd = gf2.vector_to_mask(
        (down @ x.values) % 2 if down.size else np.zeros(0, dtype=object))

    neg_payloads = [(neg_cols[j], neg_bd[j]) for j in neg_idx]
    pos_payloads = [(pos_cols[j],) for j in pos_idx]

    best = None
    for neg_mask, (c_elem, bd) in _gray_walk(neg_payloads, width=2):
        if bd != target_bd:
            continue
        neg_power = _dense_mask_norm_power(c_elem, p, weights)
        if best is not None and neg_power > best[0][0]:
            continue
        base = target ^ c_elem
        for pos_mask, (s_elem,) in _gray_walk(pos_payloads, width=1):
            x0_mask = base ^ s_elem
            key = (neg_power, _dense_mask_norm_power(x0_mask, p, weights),
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
    return DecompositionResult(
        x0=x0,
        x1=ChainVector(rep, k, x.system, gf2.mask_to_vector(s_elem, n_k)),
        x_neg1=ChainVector(rep, k, x.system, gf2.mask_to_vector(c_elem, n_k)),
        y1=ChainVector(rep, k + 1, x.system, y1_vals),
        y_neg1=ChainVector(rep, k - 1, x.system, y_neg_vals),
        objective=norm_p(x0, p, weights),
        model="fundamental",
        residuals={"kernel": 0.0, "x1_certificate": 0.0, "x_neg1_certificate": 0.0},
    )


def reference_seminorm_mod2(x, p, weights=None):
    """Z/2 seminorm of a cycle x by one walk of im B_{k+1}, as (value, mask).

    The reference for the Z/2 branch of `learn.simplicial_seminorm`: the
    same walk over x + im B_{k+1} for the least weighted power, but among
    tied minimizers it keeps the least representative mask, where the
    library keeps the least generator subset, so the two representatives
    agree only where the minimizer is unique.  It walks trivial classes
    too, which the library answers by one GF(2) solve when no weight is 0.
    `weights` is None for unit weights.
    """
    masks = _dense_column_masks(x.complex.boundary_matrix(x.degree + 1))
    gens = [masks[j] for j in _greedy_independent(masks)]
    target = gf2.vector_to_mask(x.values)
    best_power = None
    best_mask = None
    for _, (elem,) in _gray_walk([(g,) for g in gens], width=1):
        cand = target ^ elem
        power = _dense_mask_norm_power(cand, p, weights)
        if best_power is None or power < best_power or (power == best_power
                                                     and cand < best_mask):
            best_power = power
            best_mask = cand
    return float(best_power) if p == 1 else float(np.sqrt(best_power)), best_mask


# -- dense per-call spectral paths ---------------------------------------------
#
# The library's float layer reads a sparse view of each boundary and factors
# each boundary Gram once per complex.  These are the per-call dense paths it
# replaced, kept as references.

def dense_modes(B):
    """Nonzero eigenpairs (V, lam) of B^T B from a dense B, factoring the
    smaller Gram on every call (the library's `_modes` before the memo)."""
    B = np.asarray(B, dtype=float)
    dual = B.shape[0] < B.shape[1]
    spec = eig_sym(B @ B.T if dual else B.T @ B)
    keep = spec.eigenvalues > spec.zero_tol
    lam = spec.eigenvalues[keep]
    V = spec.eigenvectors[:, keep]
    return (_signed(B.T @ V / np.sqrt(lam)) if dual else V), lam


def float_betti(rep, k):
    """beta_k from numerical ranks, n_k - numerical_rank(B_k) -
    numerical_rank(B_{k+1}): the real `homology_field` before its ranks
    became exact."""
    return (rep.n_cells(k) - numerical_rank(rep.boundary_float(k))
            - numerical_rank(rep.boundary_float(k + 1)))


def dense_laplacian(rep, k):
    """L_k from the dense float boundaries."""
    n = rep.n_cells(k)
    L = np.zeros((n, n))
    down = rep.boundary_float(k)
    up = rep.boundary_float(k + 1)
    if down.size:
        L += down.T @ down
    if up.size:
        L += up @ up.T
    return (L + L.T) / 2.0


def dense_weighted_projection(B, target, w):
    """(y, B y) of the w-weighted least-squares projection onto im B, from a
    dense B and `dense_modes`."""
    A = w[:, None] * B
    V, lam = dense_modes(A.T)
    y = A.T @ (V @ ((V.T @ (w[:, None] * target)) / lam[:, None]))
    return y, B @ y


def eig_min_norm_solve(A, B):
    """(X, rank): the minimum-norm solution of A X = B for a symmetric
    positive semidefinite A, from one `np.linalg.eigh` of its symmetric part
    whatever its rank.  Eigenvalues at or below
    max(n * eps, 1e-12) * max |lambda| count as zero; rank is the number
    above.  The reference for `gssc.hodge._min_norm_solve` and for the fits of
    `gssc.learn._smooth_fit`.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    if n == 0:
        return np.zeros(B.shape), 0
    lam, V = np.linalg.eigh((A + A.T) / 2.0)
    keep = lam > max(n * np.finfo(float).eps, 1e-12) * np.max(np.abs(lam))
    V, lam = V[:, keep], lam[keep]
    coef = V.T @ B
    coef = coef / lam[:, None] if coef.ndim == 2 else coef / lam
    return V @ coef, int(np.sum(keep))


def eig_smooth_fit(rep, k, mat, w, eta):
    """Minimum-norm x' of (W^2 + L_k / eta) x' = W^2 x by one
    eigendecomposition, whatever the weights (the library tries Cholesky
    first)."""
    normal = dense_laplacian(rep, k) / eta
    normal[np.diag_indices_from(normal)] += w ** 2
    return eig_min_norm_solve(normal, (w ** 2)[:, None] * mat)[0]


# -- the copying dense solves --------------------------------------------------
#
# `eig_sym` once decomposed every input as (M + M^T) / 2, and `_smooth_fit`
# solved through `hodge._spd_solve`, which factored a Fortran-ordered copy of
# its system.  For an exactly symmetric M, (M + M^T) / 2 is M bit for bit, so
# the library's copy-free paths must match these exactly.

def symmetrized_eig_sym(matrix):
    """`eig_sym` with every input symmetrized before `np.linalg.eigh`."""
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("need a square matrix")
    n = M.shape[0]
    if n == 0:
        return Spectrum(np.zeros(0), np.zeros((0, 0)), 0.0)
    scale = float(np.max(np.abs(M)))
    if not np.isfinite(scale):
        raise ValueError("entry {} = {} is not finite".format(*_first_nonfinite(M)))
    if float(np.max(np.abs(M - M.T))) > 1e-12 * max(scale, 1e-300):
        raise ValueError("matrix is not symmetric within 1e-12 relative")
    lam, vec = np.linalg.eigh((M + M.T) / 2.0)
    tol = max(n * np.finfo(float).eps, ZERO_TOL_FLOOR) * float(np.max(np.abs(lam)))
    return Spectrum(lam, _signed(vec), tol)


def spd_solve(A, B):
    """(X, rank): the minimum-norm X with A X = B (B 1-d or 2-d) and the rank
    of a PSD A: n and `cho_solve` when `_cholesky` of a copy passes, else the
    cutoff's minimum-norm X from `symmetrized_eig_sym`."""
    with one_blas_thread():  # scipy's pool contends with numpy's (`_blas`)
        held = _cholesky(np.array(A, order="F"))
        if held is not None:
            return scipy.linalg.cho_solve((held[0], False), B), len(A)
    spec = symmetrized_eig_sym(A)
    keep = spec.eigenvalues > spec.zero_tol
    V, lam = spec.eigenvectors[:, keep], spec.eigenvalues[keep]
    return V @ ((V.T @ B).T / lam).T, len(lam)


def spd_smooth_fit(rep, k, mat, w, eta):
    """Minimum-norm x' of (W^2 + L_k / eta) x' = W^2 x by `spd_solve`, which
    factors a copy of the system."""
    normal = laplacian(rep, k)
    normal /= _checked_eta(eta, normal.diagonal().max(initial=0.0))
    normal[np.diag_indices_from(normal)] += w ** 2
    return spd_solve(normal, (w ** 2)[:, None] * mat)[0]


def expression_rbf_kernel(a, b, lengthscale):
    """The RBF kernel as one expression, with its five temporaries."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = a[..., :, None] - b[..., None, :]
    return np.exp(-(diff ** 2) / (2.0 * lengthscale ** 2))


def expression_krr_fit_eval(t, y, config, eval_points):
    """The kernel ridge predictor with the ridge added as `ridge * eye`."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    K = expression_rbf_kernel(t, t, config.lengthscale)
    alpha = np.linalg.solve(K + config.ridge * np.eye(t.shape[-1]), y[..., None])
    return (expression_rbf_kernel(eval_points, t, config.lengthscale) @ alpha)[..., 0]


def batched_krr_fit_eval(t, y, config, eval_points):
    """The kernel ridge predictor with every edge in one batched solve: the
    whole (n, M, M) Gram and (n, G, M) evaluation kernel held at once."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size == 0:
        raise ValueError("need at least one sample")
    K = rbf_kernel(t, t, config.lengthscale)
    diag = np.arange(t.shape[-1])
    K[..., diag, diag] += config.ridge
    try:
        alpha = np.linalg.solve(K, y[..., None])
    except np.linalg.LinAlgError:
        raise NumericalError(
            "kernel system is singular (duplicated sample instants with "
            "ridge = 0?); use a ridge > 0")
    return (rbf_kernel(eval_points, t, config.lengthscale) @ alpha)[..., 0]


def loop_eliminate(columns, p=None):
    """Sparse unit-pivot elimination, (pivot count, non-unit remainder), as a
    dict loop over every p: the shortest column holding a unit (+-1 over Z,
    any nonzero over Z/p), found by a sorted scan of the length buckets at
    every pivot, and its unit in the shortest row."""
    cols = {}   # column -> {row: value}
    rows = {}   # row -> set of columns with a nonzero in that row
    for j, entries in enumerate(columns):
        for i, v in entries:
            if p is not None:
                v %= p
            if v:
                cols.setdefault(j, {})[i] = v
                rows.setdefault(i, set()).add(j)
    by_len = {}  # column length -> set of live columns of that length
    for j, col in cols.items():
        by_len.setdefault(len(col), set()).add(j)

    def is_unit(v):
        return p is not None or v == 1 or v == -1

    def relength(j, old):
        bucket = by_len[old]
        bucket.discard(j)
        if not bucket:
            del by_len[old]
        if j in cols:
            by_len.setdefault(len(cols[j]), set()).add(j)

    pivots = 0
    while (c := next((j for n in sorted(by_len) for j in by_len[n]
                      if any(map(is_unit, cols[j].values()))), None)) is not None:
        pivot_col = cols.pop(c)
        relength(c, len(pivot_col))
        r = min((i for i, v in pivot_col.items() if is_unit(v)),
                key=lambda i: len(rows[i]))
        u = pivot_col.pop(r)
        for i in pivot_col:
            rows[i].discard(c)
        inverse = u if p is None else pow(u, -1, p)
        for j in rows.pop(r) - {c}:
            col = cols[j]
            old = len(col)
            f = col.pop(r) * inverse
            for i, v in pivot_col.items():
                w = col.get(i, 0) - f * v
                if p is not None:
                    w %= p
                if w:
                    if i not in col:
                        rows[i].add(j)
                    col[i] = w
                elif i in col:
                    del col[i]
                    rows[i].discard(j)
            if not col:
                del cols[j]
            relength(j, old)
        pivots += 1
    live = sorted({i for col in cols.values() for i in col})
    at = {i: a for a, i in enumerate(live)}
    remainder = [[(at[i], v) for i, v in col.items()] for col in cols.values()]
    return pivots, tuple_to_dense(remainder, len(at))


def scalar_random_complex(n_vertices, edge_prob, fill_prob, seed):
    """`random_complex` by one scalar draw per vertex pair, then one per
    triangle of the edge graph, both in lexicographic order, closed by
    `SimplicialComplex.from_maximal`."""
    rng = np.random.default_rng(seed)
    edges = set()
    for pair in itertools.combinations(range(n_vertices), 2):
        if rng.random() < edge_prob:
            edges.add(pair)
    triangles = []
    for a, b, c in itertools.combinations(range(n_vertices), 3):
        if {(a, b), (a, c), (b, c)} <= edges and rng.random() < fill_prob:
            triangles.append((a, b, c))
    maximal = triangles + sorted(edges) + [(v,) for v in range(n_vertices)]
    return SimplicialComplex.from_maximal(maximal, n_vertices=n_vertices)


def entrywise_columns(mat, what="entry"):
    """Sparse columns of a dense 2-d integer matrix read one entry at a time;
    refuses the first entry, row-major, that is != 0 and not an integer."""
    mat = np.asarray(mat, dtype=object)
    if mat.ndim != 2:
        raise ValueError("need a 2-d matrix")
    cols = [[] for _ in range(mat.shape[1])]
    at_row, at_col = np.nonzero(mat != 0)
    for i, j in zip(at_row.tolist(), at_col.tolist()):
        v = mat[i, j]
        if not _integral(v):
            raise ValueError(f"{what} ({i}, {j}) = {v!r} is not an integer")
        cols[j].append((i, int(v)))
    return tuple(map(tuple, cols))


# -- the per-column tuple storage that CSC arrays replaced ---------------------

def tuple_columns(mat, what="entry"):
    """Sparse columns of a dense 2-d integer matrix, tuples of (row, int) by
    row; refuses the first entry, row-major, that is != 0 and not an integer."""
    mat = np.asarray(mat, dtype=object)
    if mat.ndim != 2:
        raise ValueError("need a 2-d matrix")
    cols = [[] for _ in range(mat.shape[1])]
    at = np.nonzero(mat != 0)
    for i, j, v in zip(*(a.tolist() for a in at), mat[at].tolist()):
        if type(v) is not int and not _integral(v):
            raise ValueError(f"{what} ({i}, {j}) = {v!r} is not an integer")
        cols[j].append((i, int(v)))
    return tuple(map(tuple, cols))


def tuple_to_dense(columns, n_rows, dtype=object):
    """The n_rows x len(columns) array of sparse columns (zeros elsewhere)."""
    out = np.zeros((n_rows, len(columns)), dtype=dtype)
    for j, col in enumerate(columns):
        for i, v in col:
            out[i, j] = v
    return out


def tuple_face_columns(complex, k):
    """Sparse columns of B_k: each k-simplex's alternating face signs, rows in
    order (the face deleting vertex j sorts before the one deleting j - 1)."""
    if k < 1:
        return ((),) * complex.n_simplexes(k)
    face_index = {s: i for i, s in enumerate(complex.simplexes(k - 1))}
    return tuple(
        tuple((face_index[s[:j] + s[j + 1:]], -1 if j % 2 else 1)
              for j in range(k, -1, -1))
        for s in complex.simplexes(k))


def tuple_validate(rep):
    """B_k @ B_{k+1} = 0 checked column by column over the tuple view of
    `rep.csc`, in Python ints; failures listed row-major."""
    failures = []
    for k in range(1, rep.dim):
        down = csc_tuples(rep.csc(k))
        entries = []
        for j, col in enumerate(csc_tuples(rep.csc(k + 1))):
            total = {}
            for i, v in col:
                for r, w in down[i]:
                    total[r] = total.get(r, 0) + w * v
            entries.extend((r, j, s) for r, s in total.items() if s)
        failures.extend((k, i, j, s) for i, j, s in sorted(entries))
    return ValidationReport(not failures, failures)


def tuple_apply_boundary(x, k, adjoint):
    """B_k x or, with `adjoint`, B_k^T x as the library once computed it:
    zero off the ends, a sparse float product for floats, and for exact
    systems sums over the tuple view of `rep.csc(k)` in Python ints."""
    rep = x.complex
    degree = k if adjoint else k - 1
    if k < 1 or k > rep.dim:
        return zero_chain(rep, degree, x.system)
    if not x.system.exact:
        B = rep._sparse_boundary(k)
        out = (B.T if adjoint else B) @ x.values
    elif adjoint:
        vals = x.values.tolist()
        out = [sum(v * vals[i] for i, v in col) for col in csc_tuples(rep.csc(k))]
    else:
        out = [0] * rep.n_cells(k - 1)
        for col, c in zip(csc_tuples(rep.csc(k)), x.values.tolist()):
            for i, v in col:
                out[i] += v * c
    return ChainVector(rep, degree, x.system, out)


def csc_tuples(csc):
    """CSC arrays (indptr, rows, values) as per-column tuples of (row, value)."""
    indptr, rows, values = (a.tolist() for a in csc)
    return tuple(tuple(zip(rows[a:b], values[a:b])) for a, b in zip(indptr, indptr[1:]))


def read_columns(mat, what="entry"):
    """The library's dense reader, `_dense_csc`, as per-column tuples."""
    return csc_tuples(_dense_csc(mat, what))
