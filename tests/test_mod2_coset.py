"""The Z/2 fundamental model walks only the feasible coset of corrections.

Three checks:

* on a corpus of small complexes, and on every 1-chain of two complexes
  whose feasible cosets have two dimensions, the library agrees bit for
  bit with `oracles.dense_fundamental_mod2`, the exhaustive walk of all of
  im B_k^T that it replaced, wherever that walk fits under 2^24 elements;
* at degree 2 of `default` and `random(30,0.5,1.0,11)`, which the
  exhaustive walk refused (2^84 and 2^203 corrections), the answer is the
  lexicographic minimum over a coset enumerated with `oracles.gf2_nullspace`;
* at degree 2 of `random(40,0.5,1.0,11)` the model answers at all.
"""

import numpy as np
import pytest

from oracles import dense_fundamental_mod2, gf2_nullspace

from gssc import (ChainVector, InfeasibleError, ModN, UnsupportedError,
                  resolve_complex, solve_fundamental)

# the exhaustive walks on cycle(20) take seconds per chain (2^19 elements of
# im B_1 at degree 0, of im B_1^T at degree 1), so it gets only the all-ones
# chain; every other complex also gets three random chains
CORPUS = ("cycle(20)", "cycle(6)", "rp2", "torus", "filled_triangle", "path(5)",
          "random(6,0.7,0.7,0)", "random(6,0.7,0.7,3)", "random(8,0.6,0.5,2)")


def outcome(solve, x, p, w):
    """Parts, certificates and objective of one solve, or its exception type."""
    try:
        res = solve(x, p, w)
    except (InfeasibleError, UnsupportedError) as exc:
        return type(exc)
    return ([[int(v) for v in c.values]
             for c in (res.x0, res.x1, res.x_neg1, res.y1, res.y_neg1)],
            res.objective)


def library(x, p, w):
    return solve_fundamental(x, p=p, weights=w)


def corpus_cases():
    for spec in CORPUS:
        rep = resolve_complex(spec)
        for k in range(rep.dim + 1):
            for p in (1, 2):
                for weights in ("unit", "random"):
                    yield pytest.param(spec, k, p, weights,
                                       id=f"{spec}-k{k}-p{p}-{weights}")


@pytest.mark.parametrize("spec,k,p,weights", corpus_cases())
def test_coset_walk_matches_the_exhaustive_walk(spec, k, p, weights):
    rep = resolve_complex(spec)
    n = rep.n_cells(k)
    rng = np.random.default_rng([k, n, p, len(spec)])
    w = rng.uniform(0.5, 2.0, n) if weights == "random" else None
    n_random = 0 if spec == "cycle(20)" else 3
    chains = [np.ones(n, dtype=int)] + [rng.integers(0, 2, n) for _ in range(n_random)]
    compared = 0
    for vals in chains:
        x = ChainVector(rep, k, ModN(2), vals.astype(object))
        want = outcome(dense_fundamental_mod2, x, p, w)
        if want is UnsupportedError:
            continue
        assert outcome(library, x, p, w) == want
        compared += 1
    assert compared > 0


@pytest.mark.parametrize("spec", ["random(5,0.7,1.0,24)", "random(6,0.5,0.3,23)"])
@pytest.mark.parametrize("p", [1, 2])
def test_every_chain_on_two_bit_cosets_matches(spec, p):
    # degree 1 here has a 2-dimensional coset, so ties between feasible
    # corrections are common and the y_neg1 tie-break decides the answer
    rep = resolve_complex(spec)
    n = rep.n_cells(1)
    w = np.random.default_rng(n).uniform(0.5, 2.0, n)
    for bits in range(1 << n):
        vals = np.array([(bits >> i) & 1 for i in range(n)], dtype=object)
        x = ChainVector(rep, 1, ModN(2), vals)
        for weights in (None, w):
            assert (outcome(library, x, p, weights)
                    == outcome(dense_fundamental_mod2, x, p, weights))


# -- cases the exhaustive walk refused -----------------------------------------

def mod2(matrix):
    return np.asarray(matrix, dtype=np.int64) % 2


def as_mask(vec):
    return sum(1 << i for i, v in enumerate(vec) if int(v) % 2)


def power(mask, p, w):
    return sum(float(w[i]) ** p for i in range(mask.bit_length()) if (mask >> i) & 1)


def feasible_chain(down, rng):
    """x = z + B_k^T y mod 2 with z a mod-2 cycle; returns (x, B_k^T y)."""
    z = np.zeros(down.shape[1], dtype=np.int64)
    for vec in gf2_nullspace(down):
        if rng.integers(0, 2):
            z = (z + np.asarray(vec)) % 2
    c = mod2(down).T @ rng.integers(0, 2, down.shape[0]) % 2
    return (z + c) % 2, c


def feasible_corrections(down, c):
    """Every correction c' in im B_k^T with B_k c' = B_k c, as masks.

    These are c + B_k^T n for n in the mod-2 nullspace of B_k B_k^T; the
    span of the images B_k^T n is closed under XOR one generator at a time.
    """
    bt = mod2(down).T
    span = {as_mask(c)}
    for vec in gf2_nullspace(mod2(down) @ bt % 2):
        step = as_mask(bt @ np.asarray(vec, dtype=np.int64) % 2)
        span |= {s ^ step for s in span}
    return span


@pytest.mark.parametrize("spec,coset_bits", [("default", 3),
                                             ("random(30,0.5,1.0,11)", 0)])
def test_top_degree_cases_solve_on_the_coset(spec, coset_bits):
    rep = resolve_complex(spec)
    k = 2
    assert rep.dim == k           # top degree: im B_{k+1} is zero
    down = rep.boundary_matrix(k)
    n = rep.n_cells(k)
    rng = np.random.default_rng(len(spec))
    for _ in range(3):
        vals, c = feasible_chain(down, rng)
        coset = feasible_corrections(down, c)
        assert len(coset) == 1 << coset_bits
        target = as_mask(vals)
        x = ChainVector(rep, k, ModN(2), vals.astype(object))
        for p in (1, 2):
            for w in (None, rng.uniform(0.5, 2.0, n)):
                w_eff = np.ones(n) if w is None else w
                best = min((power(cm, p, w_eff), power(target ^ cm, p, w_eff))
                           for cm in coset)
                res = solve_fundamental(x, p=p, weights=w)
                x0, x1, x_neg1 = (as_mask(part.values) for part in res.parts())
                assert x1 == 0 and x0 ^ x_neg1 == target
                assert x_neg1 in coset
                assert not (mod2(down) @ mod2(res.x0.values) % 2).any()
                assert as_mask(mod2(down).T @ mod2(res.y_neg1.values) % 2) == x_neg1
                assert (power(x_neg1, p, w_eff), power(x0, p, w_eff)) == best
                assert res.objective == pytest.approx(best[1] ** (1.0 / p), rel=1e-12)


def test_largest_ladder_rung_answers_at_top_degree():
    rep = resolve_complex("random(40,0.5,1.0,11)")
    k = rep.dim
    down = mod2(rep.boundary_matrix(k))
    rng = np.random.default_rng(40)
    answered = 0
    for vals in (down.T @ rng.integers(0, 2, down.shape[0]) % 2,
                 rng.integers(0, 2, rep.n_cells(k))):
        x = ChainVector(rep, k, ModN(2), vals.astype(object))
        try:
            res = solve_fundamental(x, p=1)
        except InfeasibleError:
            continue
        x0, x1, x_neg1 = (mod2(part.values) for part in res.parts())
        assert ((x0 + x1 + x_neg1) % 2 == vals).all()
        assert not (down @ x0 % 2).any()
        assert ((down.T @ mod2(res.y_neg1.values) % 2) == x_neg1).all()
        answered += 1
    assert answered >= 1          # the first chain is a coboundary, so feasible


def test_feasibility_is_decided_before_the_enumeration_bound():
    # degree 1 of `default`: one coset bit, but 84 bits of im B_2
    rep = resolve_complex("default")
    down = rep.boundary_matrix(1)
    gram = mod2(down) @ mod2(down).T % 2
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(6):
        vals = rng.integers(0, 2, rep.n_cells(1))
        augmented = np.hstack([gram, (mod2(down) @ vals % 2)[:, None]])
        feasible = any(vec[-1] for vec in gf2_nullspace(augmented))
        x = ChainVector(rep, 1, ModN(2), vals.astype(object))
        if feasible:
            with pytest.raises(UnsupportedError,
                               match="2\\^1 coset x 2\\^84 boundary = 2\\^85"):
                solve_fundamental(x, p=1)
        else:
            with pytest.raises(InfeasibleError):
                solve_fundamental(x, p=1)
        seen.add(feasible)
    x = ChainVector(rep, 1, ModN(2), np.zeros(rep.n_cells(1), dtype=object))
    with pytest.raises(UnsupportedError):
        solve_fundamental(x, p=1)
    assert False in seen
