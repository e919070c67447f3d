"""Dense GF(2) linear algebra on Python-int bitmasks.

A vector over Z/2 with n entries is stored as one int whose bit i is the
entry at index i.  XOR is addition, so subgroup enumeration walks a Gray
code and touches one generator per step.
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedError

# hard cap on 2^(number of generators) in exhaustive searches
ENUMERATION_BITS = 24


def vector_to_mask(values):
    mask = 0
    for i, v in enumerate(values):
        if int(v) % 2:
            mask |= 1 << i
    return mask


def mask_to_vector(mask, n):
    out = np.zeros(n, dtype=object)
    for i in range(n):
        if (mask >> i) & 1:
            out[i] = 1
    return out


def column_masks(matrix):
    """Columns of an integer matrix, reduced mod 2, as row-indexed masks."""
    rows, cols = matrix.shape
    out = []
    for j in range(cols):
        mask = 0
        for i in range(rows):
            if int(matrix[i, j]) % 2:
                mask |= 1 << i
        out.append(mask)
    return out


def independent_columns(masks):
    """Indices of a greedy maximal independent subset (a column-space basis)."""
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


def mask_norm_power(mask, p, weights=None):
    """p-th power of the weighted Hamming norm: sum over set bits of w_i^p.

    Exact (an int) for unit weights.  Monotone in the norm, so it is the
    right comparison key when searching for minimizers; equal power sums
    mean genuinely tied candidates.
    """
    if weights is None:
        return mask.bit_count()
    total = 0.0
    m = mask
    while m:
        low = m & -m
        total += float(weights[low.bit_length() - 1]) ** p
        m ^= low
    return total


def gray_iter(payloads, width=None):
    """Yield (subset_mask, combined_payload) over all subsets of generators.

    `payloads` is a list of tuples of ints; combination is componentwise XOR.
    The walk is a Gray code (one XOR per step); subset masks appear in Gray
    order, so callers that care about ties must compare keys explicitly.
    `width` fixes the payload tuple length when the list may be empty.
    """
    r = len(payloads)
    if width is None:
        width = len(payloads[0]) if payloads else 1
    acc = [0] * width
    yield 0, tuple(acc)
    for g in range(1, 1 << r):
        flip = (g & -g).bit_length() - 1
        for c in range(width):
            acc[c] ^= payloads[flip][c]
        yield g ^ (g >> 1), tuple(acc)


def check_enumeration_bound(n_generators, what):
    if n_generators > ENUMERATION_BITS:
        raise UnsupportedError(
            f"{what}: exhaustive search over 2^{n_generators} elements exceeds "
            f"the 2^{ENUMERATION_BITS} bound")
