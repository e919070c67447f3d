"""GF(2) linear algebra on Python-int bitmasks.

A vector over Z/2 with n entries is stored as one int whose bit i is the
entry at index i, built from the nonzeros of a sparse matrix column.  XOR is
addition, so subgroup enumeration walks a Gray code that XORs one int per
step, and one elimination that records which inputs make up each reduced
vector gives a basis, a particular solution and a kernel.
"""

from __future__ import annotations

import numpy as np

from .complexes import _entry_columns
from .errors import UnsupportedError

# hard cap on 2^(number of generators) in exhaustive searches
ENUMERATION_BITS = 24


def vector_to_mask(values):
    return sum(1 << i for i, v in enumerate(values) if int(v) % 2)


def mask_to_vector(mask, n):
    return np.array([(mask >> i) & 1 for i in range(n)], dtype=object)


def column_masks(csc):
    """CSC integer arrays (indptr, rows, values) mod 2, as row-indexed masks."""
    indptr, rows, values = csc
    odd = values % 2 != 0
    ends = np.concatenate(([0], np.cumsum(odd)))[indptr].tolist()
    rows = rows[odd].tolist()
    return [sum(map((1).__lshift__, rows[a:b])) for a, b in zip(ends, ends[1:])]


def row_masks(csc, n_rows):
    """The rows of the same matrix, reduced mod 2, as column-indexed masks:
    the column masks of its transpose, entries put in row order by one
    stable sort."""
    indptr, rows, values = csc
    order = np.argsort(rows, kind="stable")
    return column_masks((np.searchsorted(rows[order], np.arange(n_rows + 1)),
                         _entry_columns(indptr)[order], values[order]))


def combine(masks, subset):
    """XOR of masks[i] over the set bits i of `subset`."""
    out = 0
    while subset:
        low = subset & -subset
        out ^= masks[low.bit_length() - 1]
        subset ^= low
    return out


def _eliminate(masks):
    """Greedy elimination of `masks` in order, tracking combinations.

    Returns (kept, kernel): `kept` lists the inputs that raised the rank, a
    basis of the span; `kernel` holds, per input that did not, the subset of
    inputs (a mask over their indices) that XORs to zero with it, together a
    basis of all such subsets.
    """
    pivots = {}
    kept = []
    kernel = []
    for idx, m in enumerate(masks):
        cur, subset = m, 1 << idx
        while cur:
            lead = cur.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (cur, subset)
                kept.append(idx)
                break
            vec, sub = pivots[lead]
            cur ^= vec
            subset ^= sub
        else:
            kernel.append(subset)
    return kept, kernel


def independent_columns(masks):
    """Indices of a greedy maximal independent subset (a column-space basis)."""
    return _eliminate(masks)[0]


def solution_coset(masks, target):
    """The subsets of `masks` whose XOR is `target`, as (a0, kernel basis).

    Subsets are masks over the indices of `masks`; the solutions are a0 XOR
    the span of the kernel basis.  None when the target, eliminated as one
    more input, raises the rank.
    """
    n = len(masks)
    kept, kernel = _eliminate(list(masks) + [target])
    if kept and kept[-1] == n:
        return None
    return kernel[-1] ^ (1 << n), kernel[:-1]


def weight_powers(weights, p):
    """The list of w_i^p that `mask_norm_power` sums; None for unit weights."""
    return None if weights is None else [float(v) ** p for v in weights]


def mask_norm_power(mask, powers=None):
    """p-th power of the weighted Hamming norm: sum of powers[i] over set bits.

    `powers` comes from `weight_powers` (built once per search) and is
    summed from the lowest set bit up.  Exact (an int, the bit count) for
    unit weights.  Monotone in the norm, so it is the right comparison key
    when searching for minimizers; equal power sums mean genuinely tied
    candidates.
    """
    if powers is None:
        return mask.bit_count()
    total = 0.0
    while mask:
        low = mask & -mask
        total += powers[low.bit_length() - 1]
        mask ^= low
    return total


def gray_iter(gens):
    """Yield (subset_mask, xor) over all subsets of the int generators `gens`.

    A Gray code: each step XORs one generator into the running sum (a caller
    tracking two sums packs them into one int), so subset masks come in Gray
    order and callers that care about ties must compare keys explicitly.
    """
    acc = 0
    yield 0, 0
    for g in range(1, 1 << len(gens)):
        acc ^= gens[(g & -g).bit_length() - 1]
        yield g ^ (g >> 1), acc


def check_enumeration_bound(n_generators, what, coset_bits=None):
    """Refuse walks over more than 2^ENUMERATION_BITS elements in total.

    `coset_bits`, if given, counts an outer coset walk that runs the walk of
    `n_generators` once per element; the message then names both counts.
    """
    total = n_generators + (coset_bits or 0)
    if total > ENUMERATION_BITS:
        size = (f"2^{n_generators}" if coset_bits is None else
                f"2^{coset_bits} coset x 2^{n_generators} boundary = 2^{total}")
        raise UnsupportedError(
            f"{what}: exhaustive search over {size} elements exceeds "
            f"the 2^{ENUMERATION_BITS} bound")


def _least_in_span(target, gens, powers):
    """(power, subset, target ^ boundary, boundary), boundary = combine(gens,
    subset), of least (mask_norm_power(target ^ boundary, powers), subset)."""
    best = None
    for subset, b in gray_iter(gens):
        key = (mask_norm_power(target ^ b, powers), subset)
        if best is None or key < best:
            best, boundary = key, b
    return (*best, target ^ boundary, boundary)
