"""Integer class membership in the seminorm against the dense certificate solve.

`simplicial_seminorm` decides whether an integer cycle x is a boundary by
comparing the invariant factors of [B_{k+1} | x] and B_{k+1} from the sparse
elimination; `oracles.dense_solve_integer` reads the same answer off the
certificates of a dense Smith normal form of all of B_{k+1}.
"""

import time

import numpy as np
import pytest

from oracles import dense_solve_integer

from gssc import (ChainComplexRep, ChainVector, Integer, UnsupportedError,
                  canonical_complex, resolve_complex, simplicial_seminorm,
                  smith_normal_form)


def seminorm_says_trivial(rep, k, values):
    """True when the seminorm answers 0.0, False when it refuses the class."""
    x = ChainVector(rep, k, Integer(), values)
    try:
        value, mini = simplicial_seminorm(x)
    except UnsupportedError as err:
        assert "out of scope" in str(err)
        return False
    assert value == 0.0 and not any(mini.values)
    return True


def oracle_says_trivial(rep, k, values):
    return dense_solve_integer(rep.boundary_matrix(k + 1), values) is not None


def matrix_cases(n_cases, seed):
    """(B, target, kind) triples; kinds cycle through five families.

    0: B y (a member); 1: a random target; 2: B with zeroed columns;
    3 and 4: unit-free B = 2A or 6A with targets built from A, so that
    membership is decided by torsion rather than by rank.
    """
    rng = np.random.default_rng(seed)
    for case in range(n_cases):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(0, 7))
        A = rng.integers(-4, 5, size=(m, n))
        y = rng.integers(-3, 4, size=n)
        kind = case % 5
        if kind == 0:
            B, t = A, A @ y
        elif kind == 1:
            B, t = A, rng.integers(-6, 7, size=m)
        elif kind == 2:
            A[:, rng.random(n) < 0.5] = 0
            B = A
            t = A @ y if case % 2 else rng.integers(-6, 7, size=m)
        else:
            factor = 2 if kind == 3 else 6
            B = factor * A
            t = int(rng.choice([1, 2, 3, factor])) * (A @ y)
        yield B.astype(object), np.asarray(t).astype(object), kind


def test_matrix_corpus_decisions_match_the_dense_solve():
    counts = {"member": 0, "non-member": 0, "torsion": 0}
    for B, t, kind in matrix_cases(300, seed=10):
        m, n = B.shape
        rep = ChainComplexRep((m, n), [B])   # every 0-chain is a cycle
        want = dense_solve_integer(B, t) is not None
        assert seminorm_says_trivial(rep, 0, t) == want, (B.tolist(), t.tolist())
        counts["member" if want else "non-member"] += 1
        in_span = (np.linalg.matrix_rank(np.column_stack([B, t]).astype(float))
                   == np.linalg.matrix_rank(B.astype(float)) if n else not t.any())
        if kind >= 3 and in_span and not want:
            counts["torsion"] += 1
    # both answers occur often, and torsion alone refuses some targets
    assert counts["member"] >= 100 and counts["non-member"] >= 80, counts
    assert counts["torsion"] >= 20, counts


def test_projective_plane_torsion_class():
    rep = canonical_complex("rp2")
    for values, trivial in (([0, 0, 1], False), ([0, 0, 2], True)):
        assert seminorm_says_trivial(rep, 1, values) == trivial
        assert oracle_says_trivial(rep, 1, values) == trivial


def integer_cycles(rep, k, rng):
    """Zero, boundaries B_{k+1} y, and combinations of an integer basis of ker B_k."""
    snf = smith_normal_form(rep.boundary_matrix(k))
    kernel = snf.V[:, snf.rank:]
    up = rep.boundary_matrix(k + 1)
    n_k = rep.n_cells(k)
    out = [np.zeros(n_k, dtype=object)]
    for _ in range(2):
        y = rng.integers(-2, 3, size=up.shape[1]).astype(object)
        c = rng.integers(-2, 3, size=kernel.shape[1]).astype(object)
        out.append(up @ y)
        out.append(kernel @ c)
        out.append(2 * (kernel @ c) + up @ y)
    out.extend(kernel[:, j] for j in range(min(2, kernel.shape[1])))
    return out


@pytest.mark.parametrize("spec", ["rp2", "torus", "cycle(7)", "default",
                                  "random(12,0.6,0.8,4)"])
def test_every_degree_matches_the_dense_solve(spec):
    rep = resolve_complex(spec)
    rng = np.random.default_rng(7)
    for k in range(rep.dim + 1):
        for values in integer_cycles(rep, k, rng):
            trivial = seminorm_says_trivial(rep, k, values)
            assert trivial == oracle_says_trivial(rep, k, values), (spec, k)
            if k == rep.dim:
                # no (k+1)-cells: only the zero cycle is trivial
                assert trivial == (not any(values)), (spec, k)


def test_boundary_chain_of_random30_is_trivial_without_a_dense_solve():
    rep = resolve_complex("random(30,0.5,1.0,11)")
    rng = np.random.default_rng(30)
    y = rng.integers(-2, 3, size=rep.n_cells(2)).astype(object)
    x = ChainVector(rep, 1, Integer(), rep.boundary_matrix(2) @ y)
    start = time.perf_counter()
    value, mini = simplicial_seminorm(x)
    elapsed = time.perf_counter() - start
    assert value == 0.0 and not any(mini.values)
    # the dense certificate solve it replaces took 7-8 s on a 2-vCPU Xeon
    assert elapsed < 2.0, elapsed
