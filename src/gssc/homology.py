"""Integer and field homology of chain complexes.

The integer side is exact: ranks, Betti numbers and torsion (invariant
factors of the next boundary map that exceed 1) come from sparse
elimination over Z on unit pivots, each in a shortest column holding one,
with Smith normal form run only on the non-unit remainder (Dumas, Saunders &
Villard, J. Symb. Comput. 32, 2001).  That one elimination answers every
field but Z/2: the rank over Z/p, p odd, counts the invariant factors that
p does not divide, and the rank over Q, so over the reals, counts them all.
Ranks over Z/2 come from the GF(2) bitmask elimination of `gf2`.  Integer
class membership, which `learn.simplicial_seminorm` asks, is decided by the
same invariant factors: a chain x lies in the column lattice of B exactly
when [B | x] has the factors of B (Newman, *Integral Matrices*, 1972, ch.
II).  The public `smith_normal_form` keeps its unimodular certificates for
checking.  All arithmetic uses Python ints, so entries may grow without
overflow.  Each boundary's elimination runs at most once per rep, held in
its memo with its rank over Z/2; field homology, dim H_k = n_k - rank B_k -
rank B_{k+1}, and `hodge`'s beta_k read their ranks from it.
"""

from __future__ import annotations

import numpy as np

from . import gf2
from .coefficients import ModN, Real
from .complexes import _as_int, _columns, _to_dense
from .errors import UnsupportedError


class SNFResult:
    """Diagonal form S = U @ B @ V with U, V unimodular and d_i | d_{i+1}."""

    def __init__(self, S, U, V, rank):
        self.S = S
        self.U = U
        self.V = V
        self.rank = rank

    @property
    def invariant_factors(self):
        return [int(self.S[i, i]) for i in range(self.rank)]

    def verify(self, original):
        """Exact check of the factorization and the divisibility chain."""
        original = np.asarray(original, dtype=object)
        if not np.array_equal(self.U @ original @ self.V, self.S):
            return False
        d = self.invariant_factors
        for a, b in zip(d, d[1:]):
            if b % a != 0:
                return False
        off = self.S.copy()
        for i in range(min(off.shape)):
            off[i, i] = 0
        return not off.any()


def smith_normal_form(matrix):
    """Smith normal form over Z with transformation certificates.

    Pivots are chosen with minimal absolute value, which keeps intermediate
    entries small in practice.  Row operations accumulate in U, column
    operations in V; each is a product of swaps, signed additions and
    negations, so det(U), det(V) are +-1.  Entries must be integers
    (integer-valued floats included); any other entry raises ValueError.
    """
    A = _to_dense(_columns(matrix), np.shape(matrix)[0])
    m, n = A.shape
    U = _to_dense([((i, 1),) for i in range(m)], m)
    V = _to_dense([((i, 1),) for i in range(n)], n)

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


def _eliminate(columns):
    """Unit-pivot elimination over Z: (pivot count, non-unit remainder).

    `columns` holds an integer matrix as sparse nonzero columns [(row, int),
    ...].  Each step takes the shortest column that holds a unit +-1 (live
    columns sit in buckets by length), pivots on its unit in the shortest row,
    clears that row with column operations and drops the row and column,
    until no unit is left.  A unit pivot splits the matrix into diag(1,
    Schur complement), so the nonzero invariant factors, which no pivot order
    changes, are [1] * pivots and those of the remainder, a dense object
    matrix holding no unit.
    """
    cols = {}   # column -> {row: value}
    rows = {}   # row -> set of columns with a nonzero in that row
    for j, entries in enumerate(columns):
        for i, v in entries:
            cols.setdefault(j, {})[i] = v
            rows.setdefault(i, set()).add(j)
    by_len = {}  # column length -> set of live columns of that length
    for j, col in cols.items():
        by_len.setdefault(len(col), set()).add(j)

    pivots = 0
    while (c := next((j for n in sorted(by_len) for j in by_len[n] if 1 in cols[j].values()
                      or -1 in cols[j].values()), None)) is not None:
        pivot_col = cols.pop(c)
        bucket = by_len[len(pivot_col)]
        bucket.discard(c)
        if not bucket:
            del by_len[len(pivot_col)]
        r = min((i for i, v in pivot_col.items() if v in (1, -1)), key=lambda i: len(rows[i]))
        u = pivot_col.pop(r)
        entries = [(i, v, rows[i]) for i, v in pivot_col.items()]
        for _, _, row in entries:
            row.discard(c)
        for j in rows.pop(r) - {c}:
            col = cols[j]
            old = len(col)
            f = col.pop(r) * u  # column j -= f * column c, as 1/u = u
            for i, v, row in entries:
                if i not in col:
                    col[i] = -f * v
                    row.add(j)
                elif w := col[i] - f * v:
                    col[i] = w
                else:
                    del col[i]
                    row.discard(j)
            bucket = by_len[old]  # move j to the bucket of its new length
            bucket.discard(j)
            if not bucket:
                del by_len[old]
            if col:
                by_len.setdefault(len(col), set()).add(j)
            else:
                del cols[j]
        pivots += 1
    live = sorted({i for col in cols.values() for i in col})
    at = {i: a for a, i in enumerate(live)}
    remainder = [[(at[i], v) for i, v in col.items()] for col in cols.values()]
    return pivots, _to_dense(remainder, len(at))


def _factors(eliminated):
    """Invariant factors from `_eliminate`'s (pivot count, remainder)."""
    pivots, remainder = eliminated
    return [1] * pivots + smith_normal_form(remainder).invariant_factors


def _invariant_factors(columns):
    """Nonzero invariant factors over Z, ascending; their count is the rank."""
    return _factors(_eliminate(columns))


def _field_rank(eliminated, p=None):
    """Rank over Q (p None) or over Z/p, p an odd prime, from `_eliminate`'s
    (pivot count, remainder): the pivots plus the remainder's invariant
    factors that p does not divide, with no Smith form on an empty one."""
    pivots, remainder = eliminated
    factors = smith_normal_form(remainder).invariant_factors if remainder.size else ()
    return pivots + sum(not p or d % p != 0 for d in factors)


def _gf2_rank(columns):
    """Rank over Z/2: `gf2`'s bitmask elimination of the columns mod 2."""
    return len(gf2.independent_columns(gf2.column_masks(columns)))


def _elimination(rep, k):
    """`_eliminate` of B_k, run at most once per rep."""
    return rep._memo(("elimination", k), lambda: _eliminate(rep.columns(k)))


def _rank(rep, k, p=None):
    """Exact rank of B_k over Q (p None), which is its rank over the reals, or over Z/p."""
    if p == 2:
        return rep._memo(("gf2 rank", k), lambda: _gf2_rank(rep.columns(k)))
    return _field_rank(_elimination(rep, k), p)


def _in_boundary_lattice(rep, k, values):
    """Whether the integer k-chain `values` lies in the column lattice L of
    B_{k+1}: L + Zx = L exactly when [B_{k+1} | x] has the invariant factors
    of B_{k+1}."""
    x_col = tuple((i, v) for i, v in enumerate(values) if v)
    factors = _invariant_factors(rep.columns(k + 1) + (x_col,))
    return factors == _factors(_elimination(rep, k + 1))


def _prime(p):
    """p if it is prime.  Miller-Rabin on the bases 2, ..., 41 is exact below 3.3e24 (Sorenson
    & Webster, Math. Comp. 86, 2017; the bases up to 37 pass 318665857834031151167461)."""
    p = _as_int("modulus", p)
    if p >= 3317044064679887385961981:
        raise UnsupportedError(f"a modulus of {p.bit_length()} bits is at least 3.3e24, "
                               "beyond the exact primality test")
    s = max(((p - 1) & (1 - p)).bit_length() - 1, 0)  # p - 1 = d 2^s with d odd
    d = (p - 1) >> s
    if p < 2 or any(p % a == 0 or pow(a, d, p) != 1 and p - 1 not in {
            pow(a, d << k, p) for k in range(s)}
            for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41) if a < p):
        raise UnsupportedError(f"{p} is not prime")
    return p


def integer_rank(matrix):
    """Rank over Z, which is the rank over Q (`_field_rank` with no p)."""
    return _field_rank(_eliminate(_columns(matrix)))


def mod_p_rank(matrix, p):
    """Rank over Z/p: `gf2`'s bitmask rank for p = 2, else `_field_rank`."""
    columns, p = _columns(matrix), _prime(p)
    return _gf2_rank(columns) if p == 2 else _field_rank(_eliminate(columns), p)


class HomologySummary:
    """Betti number and torsion of one homology group."""

    def __init__(self, betti, torsion):
        self.betti = int(betti)
        self.torsion = tuple(int(d) for d in torsion)

    def __str__(self):
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"

    def __eq__(self, other):
        if not isinstance(other, HomologySummary):
            return NotImplemented
        return (self.betti, self.torsion) == (other.betti, other.torsion)

    def __repr__(self):
        return f"HomologySummary(betti={self.betti}, torsion={list(self.torsion)})"


def homology_Z(rep, k):
    """H_k with integer coefficients: free rank plus invariant factors > 1."""
    if not 0 <= k <= rep.dim:
        raise UnsupportedError(f"degree {k} outside 0..{rep.dim}")
    rank_k = len(_factors(_elimination(rep, k))) if k else 0  # B_0 = 0
    factors = _factors(_elimination(rep, k + 1))
    betti = rep.n_cells(k) - rank_k - len(factors)
    torsion = [d for d in factors if d > 1]
    return HomologySummary(betti, torsion)


def homology_field(rep, k, field):
    """dim H_k over a field, Real or ModN(p) with p prime, from exact ranks."""
    if not 0 <= k <= rep.dim:
        raise UnsupportedError(f"degree {k} outside 0..{rep.dim}")
    if not isinstance(field, (Real, ModN)):
        raise UnsupportedError(f"{field!r} is not a supported field")
    p = _prime(field.modulus) if isinstance(field, ModN) else None
    return rep.n_cells(k) - _rank(rep, k, p) - _rank(rep, k + 1, p)
