"""The Z/2 seminorm against the walk it replaced, on every degree of a corpus.

`simplicial_seminorm` takes the least weighted power over x + im B_{k+1}
from `gf2._least_in_span`, which breaks ties by the smallest subset of the
greedy independent generators of im B_{k+1};
`oracles.reference_seminorm_mod2` breaks them by the smallest mask.  Values
must agree exactly, the representative must lie in x + im B_{k+1} and
attain the value, and where the minimizer is unique it must be the
oracle's.  Degrees whose walk exceeds 2^12 elements are skipped.
"""

import numpy as np
import pytest
from oracles import gf2_nullspace, reference_seminorm_mod2
from test_acceptance import two_complex_corpus

from gssc import ChainVector, ModN, gf2, resolve_complex, simplicial_seminorm
from gssc.gf2 import mask_norm_power, vector_to_mask, weight_powers

SPECS = ("rp2", "torus", "cycle(7)", "path(5)", "filled_triangle")
MAX_WALK_BITS = 12
CYCLES_PER_DEGREE = 8


def column_span(matrix):
    """Every Z/2 combination of the columns, as row-indexed bitmasks; None
    once there are more than 2^MAX_WALK_BITS of them."""
    span = {0}
    for j in range(matrix.shape[1]):
        mask = sum(1 << i for i in range(matrix.shape[0]) if int(matrix[i, j]) % 2)
        span |= {s ^ mask for s in span}
        if len(span) > 1 << MAX_WALK_BITS:
            return None
    return span


NAMED = [(spec, resolve_complex(spec)) for spec in SPECS]
NAMED += [(f"corpus{i}", rep) for i, rep in enumerate(two_complex_corpus())]


@pytest.mark.parametrize("index", range(len(NAMED)), ids=[n for n, _ in NAMED])
def test_seminorm_matches_the_reference_walk(index):
    rep = NAMED[index][1]
    checked = 0
    for k in range(rep.dim + 1):
        n = rep.n_cells(k)
        span = column_span(rep.boundary_matrix(k + 1))
        if span is None:
            continue
        basis = np.array(gf2_nullspace(rep.boundary_matrix(k)), dtype=int).reshape(-1, n)
        rng = np.random.default_rng([index, k])
        for _ in range(CYCLES_PER_DEGREE):
            vals = rng.integers(0, 2, len(basis)) @ basis % 2
            x = ChainVector(rep, k, ModN(2), vals.astype(object))
            target = vector_to_mask(vals)
            for p in (1, 2):
                for w in (None, rng.uniform(0.5, 2.0, n)):
                    value, mini = simplicial_seminorm(x, p=p, weights=w)
                    want, ref_mask = reference_seminorm_mod2(x, p, w)
                    assert value == want
                    got = vector_to_mask(mini.values)
                    assert got ^ target in span
                    wp = weight_powers(w, p)
                    powers = [mask_norm_power(target ^ s, wp) for s in span]
                    least = min(powers)
                    assert mask_norm_power(got, wp) == least
                    assert value == (least if p == 1 else np.sqrt(least))
                    if powers.count(least) == 1:
                        assert got == ref_mask
                    checked += 1
    assert checked > 0


@pytest.mark.parametrize("spec", ("rp2", "torus", "cycle(7)"))
def test_reference_walk_uses_none_of_the_library_search_helpers(spec, monkeypatch):
    rep = resolve_complex(spec)
    x = ChainVector(rep, 1, ModN(2), np.ones(rep.n_cells(1), dtype=object))
    w = np.linspace(0.5, 2.0, rep.n_cells(1))
    cases = [(p, weights) for p in (1, 2) for weights in (None, w)]
    want = [simplicial_seminorm(x, p=p, weights=weights)[0] for p, weights in cases]

    def refuse(*args):
        raise AssertionError("the reference called the library helper it checks")

    for name in ("column_masks", "independent_columns", "weight_powers",
                 "mask_norm_power"):
        monkeypatch.setattr(gf2, name, refuse)
    assert [reference_seminorm_mod2(x, p, weights)[0] for p, weights in cases] == want
