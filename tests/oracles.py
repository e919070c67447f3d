"""Independent reference computations used by the test suite.

Everything here is deliberately naive (enumeration, cofactor-style
recursion, union-find, dense designs) so that it shares no algorithm with
the library implementations it checks; only the chain and result
containers are borrowed from the library.
"""

import itertools
import math
import warnings

import numpy as np
import scipy.linalg

from gssc.coefficients import ChainVector, FourierFn
from gssc.hodge import DecompositionResult
from gssc.learn import ConditioningWarning


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
    certificates y1, y_neg1 by least-squares preimages.  Same arguments,
    returns and ConditioningWarning fallback as the library function.
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
