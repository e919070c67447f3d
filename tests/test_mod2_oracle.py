"""The Z/2 fundamental model on chains that are not cycles, by brute force.

For a chain x the model picks a correction x_neg1 = c in im B_k^T with
B_k (x - c) = 0, as small as possible, and then s = x1 in im B_{k+1}
making the cycle part x - c - s as small as possible.  Here both images
are enumerated as sets of bitmasks and every pair (c, s) is checked, so
the search shares nothing with the library's Gray-code walk.
"""

import numpy as np
import pytest

from gssc import (ChainVector, InfeasibleError, ModN, resolve_complex,
                  solve_fundamental)

SPECS = ("cycle(6)", "path(5)", "filled_triangle", "rp2", "torus",
         "random(6,0.7,0.7,0)", "random(6,0.7,0.7,3)", "random(8,0.6,0.5,2)")


def column_span(matrix):
    """Every Z/2 combination of the columns, as row-indexed bitmasks."""
    span = {0}
    for j in range(matrix.shape[1]):
        mask = sum(1 << i for i in range(matrix.shape[0]) if int(matrix[i, j]) % 2)
        span |= {s ^ mask for s in span}
    return span


def to_mask(values):
    return sum(1 << i for i, v in enumerate(values) if int(v) % 2)


def power(mask, p, w):
    return sum(float(w[i]) ** p for i in range(mask.bit_length()) if (mask >> i) & 1)


def boundary_mask(down, mask):
    vec = np.array([(mask >> i) & 1 for i in range(down.shape[1])], dtype=object)
    return to_mask((down @ vec) % 2) if down.size else 0


def cases():
    for spec in SPECS:
        rep = resolve_complex(spec)
        for k in range(rep.dim + 1):
            for p in (1, 2):
                for weights in ("unit", "random"):
                    yield pytest.param(spec, k, p, weights,
                                       id=f"{spec}-k{k}-p{p}-{weights}")


@pytest.mark.parametrize("spec,k,p,weights", cases())
def test_mod2_model_is_the_lexicographic_pair_minimum(spec, k, p, weights):
    rep = resolve_complex(spec)
    n = rep.n_cells(k)
    down = rep.boundary_matrix(k)
    corrections = column_span(down.T)
    boundaries = column_span(rep.boundary_matrix(k + 1))
    rng = np.random.default_rng([k, n, p])
    w = rng.uniform(0.5, 2.0, n) if weights == "random" else None
    w_eff = np.ones(n) if w is None else w
    non_cycles = 0
    for trial in range(8):
        vals = rng.integers(0, 2, n)
        target = to_mask(vals)
        non_cycles += boundary_mask(down, target) != 0
        x = ChainVector(rep, k, ModN(2), vals.astype(object))
        feasible = [c for c in corrections
                    if boundary_mask(down, target ^ c) == 0]
        if not feasible:
            with pytest.raises(InfeasibleError):
                solve_fundamental(x, p=p, weights=w)
            continue
        best_c = min(power(c, p, w_eff) for c in feasible)
        best_x0 = min(power(target ^ c ^ s, p, w_eff)
                      for c in feasible if power(c, p, w_eff) == best_c
                      for s in boundaries)

        res = solve_fundamental(x, p=p, weights=w)
        x0, x1, x_neg1 = (to_mask(c.values) for c in res.parts())
        assert x0 ^ x1 ^ x_neg1 == target
        assert x_neg1 in corrections and x1 in boundaries
        assert boundary_mask(down, x0) == 0
        assert power(x_neg1, p, w_eff) == pytest.approx(best_c, rel=1e-12, abs=1e-12)
        assert res.objective == pytest.approx(best_x0 ** (1.0 / p), rel=1e-12, abs=1e-12)
        # the certificates generate the parts
        assert to_mask((rep.boundary_matrix(k + 1) @ res.y1.values) % 2
                       if res.y1.values.size else []) == x1
        assert to_mask((down.T @ res.y_neg1.values) % 2
                       if res.y_neg1.values.size else []) == x_neg1
    if corrections != {0}:         # B_k is nonzero mod 2
        assert non_cycles > 0
