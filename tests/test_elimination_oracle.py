"""Sparse unit-pivot elimination against the dense code it replaced.

The invariant factors behind `integer_rank` and `homology_Z` must equal the
dense Smith normal form's, and `mod_p_rank` and `homology_field` over Z/p
must equal dense modular Gauss-Jordan elimination, on seeded random integer
matrices (including unit-free ones, which only the non-unit remainder can
answer) and on every boundary matrix of the named complexes and of
criterion 2's corpus.  The shortest-column pivot search must not depend on
row or column order, and it must pass over short columns that hold no unit.
`_eliminate` must also pivot exactly as the dict loop it replaced
(`loop_eliminate`): the same pivot count and the same non-unit remainder
over Z.  The loop also eliminates mod p, pivoting on every nonzero, so its
pivot count there is the rank over Z/p that the exact ranks of `homology`
must match: the GF(2) bitmask rank for p = 2, and for odd p the pivots over
Z plus the remainder's invariant factors that p does not divide.
`smith_normal_form`, which steps on whole rows and columns, must give the
same S, U, V and rank as the entry-by-entry loop it replaced
(`loop_smith_normal_form`) on all of these matrices and their transposes.
"""

import numpy as np
import pytest

from oracles import dense_mod_p_rank, loop_eliminate, loop_smith_normal_form
from test_acceptance import two_complex_corpus

from gssc import (ChainComplexRep, HomologySummary, ModN, homology_field, homology_Z,
                  integer_rank, mod_p_rank, resolve_complex, smith_normal_form)
from gssc.cli import main
from gssc.complexes import _columns
from gssc.homology import _eliminate, _invariant_factors, _rank

PRIMES = (2, 3, 5, 7, 101)
NAMED = ("rp2", "torus", "cycle(7)", "default", "random(30,0.5,1.0,11)")
LADDER = ("default", "random(30,0.5,1.0,11)", "random(40,0.5,1.0,11)")


def random_matrices(count=300, seed=20):
    """Seeded integer matrices of mixed density, scale and shape."""
    rng = np.random.default_rng(seed)
    out = [np.zeros((0, 0), dtype=object), np.zeros((0, 4), dtype=object),
           np.zeros((3, 0), dtype=object), np.zeros((4, 5), dtype=object)]
    while len(out) < count:
        kind = len(out) % 6
        m, n = (int(v) for v in rng.integers(1, 9, size=2))
        if kind == 1:
            m = 1
        elif kind == 2:
            n = 1
        B = rng.integers(-3, 4, size=(m, n))
        B[rng.random((m, n)) < rng.random()] = 0  # density varies per matrix
        if kind == 3:
            B *= 2
        elif kind == 4:
            B *= 6
        out.append(np.array(B, dtype=object))
    return out


def boundary_matrices():
    reps = [resolve_complex(spec) for spec in NAMED] + two_complex_corpus(50)
    return [rep.boundary_matrix(k) for rep in reps for k in range(1, rep.dim + 1)]


def check_against_smith(B):
    factors = _invariant_factors(_columns(B))
    expected = smith_normal_form(B).invariant_factors if B.size else []
    assert factors == expected
    assert integer_rank(B) == len(expected)
    return expected


def test_random_matrices_match_smith_normal_form():
    unit_free_torsion = 0
    for B in random_matrices():
        expected = check_against_smith(B)
        m, n = B.shape
        rep = ChainComplexRep((m, n), [B])
        assert homology_Z(rep, 0) == HomologySummary(
            m - len(expected), [d for d in expected if d > 1])
        assert homology_Z(rep, 1) == HomologySummary(n - len(expected), [])
        for p in PRIMES:
            rank = dense_mod_p_rank(B, p)
            assert homology_field(rep, 0, ModN(p)) == m - rank
            assert homology_field(rep, 1, ModN(p)) == n - rank
        if B.size and all(v % 2 == 0 for v in B.flat) and expected:
            unit_free_torsion += 1
    assert unit_free_torsion >= 50


def test_random_matrices_match_dense_mod_p_rank():
    for B in random_matrices():
        for p in PRIMES:
            assert mod_p_rank(B, p) == dense_mod_p_rank(B, p)


def test_boundary_matrices_match_smith_normal_form():
    for B in boundary_matrices():
        check_against_smith(B)


@pytest.mark.parametrize("p", PRIMES)
def test_boundary_matrices_match_dense_mod_p_rank(p):
    for B in boundary_matrices():
        assert mod_p_rank(B, p) == dense_mod_p_rank(B, p)


def unit_rich_matrices(count=300, seed=3):
    """Seeded matrices of 5 to 29 rows and columns with entries in -2..2,
    about a third of them nonzero: their many columns of equal length make
    the pivot choice depend on the order in which a length bucket is walked."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m, n = rng.integers(5, 30, size=2)
        B = rng.integers(-2, 3, size=(m, n))
        B[rng.random((m, n)) < 0.6] = 0
        out.append(np.array(B, dtype=object))
    return out


@pytest.fixture(scope="module")
def corpus_columns():
    """Sparse columns of every random, unit-rich and boundary matrix above
    and of B_1, B_2 of each complex of the benchmark's ladder."""
    ladder = [resolve_complex(spec).columns(k) for spec in LADDER for k in (1, 2)]
    matrices = random_matrices() + unit_rich_matrices() + boundary_matrices()
    return [_columns(B) for B in matrices] + ladder


@pytest.mark.parametrize("p", (None,) + PRIMES)
def test_elimination_pivots_as_the_dict_loop(corpus_columns, p):
    for columns in corpus_columns:
        if p is None:
            pivots, remainder = _eliminate(columns)
            loop_pivots, loop_remainder = loop_eliminate(columns, p)
            assert pivots == loop_pivots
            assert np.array_equal(remainder, loop_remainder)
        else:  # the rank over Z/p of a rep whose only boundary is these columns
            n_rows = 1 + max((i for col in columns for i, _ in col), default=-1)
            rep = ChainComplexRep._from_columns((n_rows, len(columns)), [columns])
            assert _rank(rep, 1, p) == loop_eliminate(columns, p)[0]


def test_smith_normal_form_steps_as_the_entry_loop():
    matrices = random_matrices() + unit_rich_matrices() + boundary_matrices()
    shapes = [np.zeros(shape, dtype=object) for shape in ((0, 0), (0, 3), (3, 0), (3, 4))]
    vectors = [np.array([[0, 4, -6, 0, 10]], dtype=object),
               np.array([[0], [-4], [6]], dtype=object)]
    examples = {  # matrix: invariant factors
        ((-3, 6), (9, -12)): [3, 6],  # a negative pivot, negated
        ((2, 0), (0, 3)): [1, 6],  # 2 does not divide 3: the divisibility step
        ((4, 6, 0), (0, 0, 10)): [2, 10],
    }
    cases = [np.array(B, dtype=object) for B in examples]
    for B in matrices + [B.T for B in matrices] + shapes + vectors + cases:
        snf, loop = smith_normal_form(B), loop_smith_normal_form(B)
        assert np.array_equal(snf.S, loop.S)
        assert np.array_equal(snf.U, loop.U)
        assert np.array_equal(snf.V, loop.V)
        assert snf.rank == loop.rank
        assert snf.verify(B)
    for B, factors in examples.items():
        assert smith_normal_form(np.array(B, dtype=object)).invariant_factors == factors
    assert smith_normal_form(vectors[0]).invariant_factors == [2]


def test_row_and_column_order_leave_ranks_and_factors_unchanged():
    rng = np.random.default_rng(31)
    for B in random_matrices() + boundary_matrices():
        P = B[rng.permutation(B.shape[0])][:, rng.permutation(B.shape[1])]
        assert _invariant_factors(_columns(P)) == (
            smith_normal_form(B).invariant_factors if B.size else [])
        for p in PRIMES:
            assert mod_p_rank(P, p) == dense_mod_p_rank(B, p)


def test_integer_search_passes_over_short_columns_without_a_unit():
    B = np.array([[2, 0, 1, 0],
                  [0, 0, 1, -1],
                  [0, 6, 0, 1]], dtype=object)
    assert _eliminate(_columns(B))[0] == 2
    assert _invariant_factors(_columns(B)) == smith_normal_form(B).invariant_factors == [1, 1, 2]
    # the same in bulk: unit-free columns 2 e_i and 6 e_i of length 1 in front
    rng = np.random.default_rng(32)
    passed = 0
    for B in random_matrices():
        if not any(v in (1, -1) for v in B.flat):
            continue
        m = B.shape[0]
        short = np.zeros((m, 2), dtype=object)
        short[rng.integers(m), 0] = 2
        short[rng.integers(m), 1] = 6
        C = np.hstack([short, B])
        assert _eliminate(_columns(C))[0] >= 1
        assert _invariant_factors(_columns(C)) == smith_normal_form(C).invariant_factors
        passed += 1
    assert passed >= 100


def test_homology_of_random_70_matches_its_mod_3_ranks(capsys):
    spec = "random(70,0.5,1.0,11)"
    assert main(["homology", spec, "--all"]) == 0
    assert capsys.readouterr().out == "H_0 = Z, H_1 = 0, H_2 = Z^6138\n"
    rep = resolve_complex(spec)
    ranks = [0] + [mod_p_rank(rep.boundary_matrix(k), 3) for k in (1, 2)] + [0]
    assert [rep.n_cells(k) - ranks[k] - ranks[k + 1] for k in range(3)] == [1, 0, 6138]
