"""Independent reference computations used by the test suite.

Everything here is deliberately naive (enumeration, cofactor-style
recursion, union-find) so that it shares no code with the library
implementations it checks.
"""

import itertools
import math

import numpy as np


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
