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
from .complexes import _as_int, _check_degree, _csc_dense, _dense_csc, _entry_columns, _exact
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
        original, d = np.asarray(original, dtype=object), self.invariant_factors
        return (np.array_equal(self.U @ original @ self.V, self.S)
                and not any(b % a for a, b in zip(d, d[1:]))
                and np.count_nonzero(self.S) == np.count_nonzero(self.S.diagonal()))


def smith_normal_form(matrix):
    """Smith normal form over Z with transformation certificates.

    Row steps act on A and U together, column steps on A and V, each on
    whole slices, so U @ B @ V = S holds throughout and det(U), det(V) are
    +-1.  The order of the steps fixes U and V.  At each t: (1) pivot on the
    first entry of least |a|, row-major, of the trailing block A[t:, t:],
    swapping its row and column into place; (2) subtract (a // pivot) times
    the pivot row from every row nonzero in the pivot column, and while any
    stays nonzero swap in the first of least |a| and repeat; then the same
    for columns, going back to (2) after a column swap; (3) unless the pivot
    is +-1, add to the pivot row the first row of the trailing block holding
    an entry the pivot does not divide, and redo t; (4) negate the pivot row
    when the pivot is negative.  Entries must be integers (integer-valued
    floats included); any other entry raises ValueError.
    """
    A = _csc_dense(_dense_csc(matrix), np.shape(matrix)[0])
    m, n = A.shape
    U, V = np.identity(m, dtype=object), np.identity(n, dtype=object)
    t = 0
    while t < min(m, n):
        block = A[t:, t:]
        nonzero = np.argwhere(block != 0)
        if not len(nonzero):
            break
        i, j = t + nonzero[np.argmin(np.abs(block[tuple(nonzero.T)]))]
        A[[t, i]], U[[t, i]] = A[[i, t]], U[[i, t]]
        A[:, [t, j]], V[:, [t, j]] = A[:, [j, t]], V[:, [j, t]]
        side = 0  # 0: rows of A with U; 1: columns, as rows of A.T with V.T
        while side < 2:
            X, W = (A, U) if side == 0 else (A.T, V.T)
            rows = t + 1 + np.flatnonzero(X[t + 1:, t])
            q = (X[rows, t] // X[t, t])[:, None]
            X[rows] -= q * X[t]
            W[rows] -= q * W[t]
            rest = rows[X[rows, t] != 0]
            if len(rest):
                r = rest[np.argmin(np.abs(X[rest, t]))]
                X[[t, r]], W[[t, r]] = X[[r, t]], W[[r, t]]
                side = 0
            else:
                side += 1
        if abs(A[t, t]) != 1:
            bad = np.flatnonzero((A[t + 1:, t + 1:] % A[t, t] != 0).any(axis=1))
            if len(bad):
                A[t] += A[t + 1 + bad[0]]
                U[t] += U[t + 1 + bad[0]]
                continue
        if A[t, t] < 0:
            A[t], U[t] = -A[t], -U[t]
        t += 1
    return SNFResult(A, U, V, int(np.count_nonzero(A.diagonal())))


def _eliminate(csc):
    """Unit-pivot elimination over Z: (pivot count, non-unit remainder).

    `csc` holds an integer matrix as CSC arrays (indptr, rows, values), as
    `ChainComplexRep.csc` gives them.  Each step takes the shortest column
    that holds a unit +-1 (live columns sit in buckets by length), pivots on
    its unit in the shortest row, clears that row with column operations and
    drops the row and column, until no unit is left.  A unit pivot splits the
    matrix into diag(1, Schur complement), so the nonzero invariant factors,
    which no pivot order changes, are [1] * pivots and those of the
    remainder, a dense object matrix holding no unit.
    """
    ptr, listed, values = (a.tolist() for a in csc)
    cols = {j: dict(zip(listed[a:b], values[a:b]))  # column -> {row: value}
            for j, (a, b) in enumerate(zip(ptr, ptr[1:])) if a < b}
    rows = {}  # row -> set of columns with a nonzero in that row
    for i, j in zip(listed, _entry_columns(csc[0]).tolist()):
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
    remainder = np.zeros((len(at), len(cols)), dtype=object)
    for j, col in enumerate(cols.values()):
        remainder[[at[i] for i in col], j] = list(col.values())
    return pivots, remainder


def _factors(eliminated):
    """Invariant factors from `_eliminate`'s (pivot count, remainder)."""
    pivots, remainder = eliminated
    return [1] * pivots + smith_normal_form(remainder).invariant_factors


def _invariant_factors(csc):
    """Nonzero invariant factors over Z, ascending; their count is the rank."""
    return _factors(_eliminate(csc))


def _field_rank(eliminated, p=None):
    """Rank over Q (p None) or over Z/p, p an odd prime, from `_eliminate`'s
    (pivot count, remainder): the pivots plus the remainder's invariant
    factors that p does not divide, with no Smith form on an empty one."""
    pivots, remainder = eliminated
    factors = smith_normal_form(remainder).invariant_factors if remainder.size else ()
    return pivots + sum(not p or d % p != 0 for d in factors)


def _gf2_rank(csc):
    """Rank over Z/2: `gf2`'s bitmask elimination of the columns mod 2."""
    return len(gf2.independent_columns(gf2.column_masks(csc)))


def _elimination(rep, k):
    """`_eliminate` of B_k, run at most once per rep."""
    return rep._memo(("elimination", k), lambda: _eliminate(rep.csc(k)))


def _rank(rep, k, p=None):
    """Exact rank of B_k over Q (p None), which is its rank over the reals, or over Z/p."""
    if p == 2:
        return rep._memo(("gf2 rank", k), lambda: _gf2_rank(rep.csc(k)))
    return _field_rank(_elimination(rep, k), p)


def _in_boundary_lattice(rep, k, values):
    """Whether the integer k-chain `values` lies in the column lattice L of
    B_{k+1}: L + Zx = L exactly when [B_{k+1} | x] has the invariant factors
    of B_{k+1}."""
    indptr, rows, entries = rep.csc(k + 1)
    at = [i for i, v in enumerate(values) if v]
    factors = _invariant_factors((
        np.append(indptr, indptr[-1] + len(at)), np.append(rows, np.array(at, dtype=np.int64)),
        np.concatenate([entries, _exact([values[i] for i in at])])))
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
    return _field_rank(_eliminate(_dense_csc(matrix)))


def mod_p_rank(matrix, p):
    """Rank over Z/p: `gf2`'s bitmask rank for p = 2, else `_field_rank`."""
    csc, p = _dense_csc(matrix), _prime(p)
    return _gf2_rank(csc) if p == 2 else _field_rank(_eliminate(csc), p)


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
    _check_degree(rep, k)
    rank_k = len(_factors(_elimination(rep, k))) if k else 0  # B_0 = 0
    factors = _factors(_elimination(rep, k + 1))
    betti = rep.n_cells(k) - rank_k - len(factors)
    torsion = [d for d in factors if d > 1]
    return HomologySummary(betti, torsion)


def homology_field(rep, k, field):
    """dim H_k over a field, Real or ModN(p) with p prime, from exact ranks."""
    _check_degree(rep, k)
    if not isinstance(field, (Real, ModN)):
        raise UnsupportedError(f"{field!r} is not a supported field")
    p = _prime(field.modulus) if isinstance(field, ModN) else None
    return rep.n_cells(k) - _rank(rep, k, p) - _rank(rep, k + 1, p)
