"""Sparse boundary storage against the dense face-sign loop and the full
integrality scan it replaced.

The stored CSC arrays, read as per-column tuples (`csc_tuples`), and
`boundary_matrix(k)` and `boundary_float(k)` must equal, entry for entry and
type for type, what that loop and scan give, on the named complexes,
criterion 2's corpus and `random(70,0.5,1.0,11)`; the file formats must
round-trip byte for byte.  `_dense_csc`, which reads a dense
matrix into that storage (`read_columns` views its arrays as tuples), must
give what the entry-by-entry loop it replaced (`entrywise_columns`) gives,
refusals included.
"""

import re

import numpy as np
import pytest

from oracles import (csc_tuples, dense_build_boundary, dense_exact_boundary,
                     dense_nonzero_columns, entrywise_columns, read_columns)
from test_acceptance import two_complex_corpus

from gssc import (ChainComplexRep, SimplicialComplex, canonical_complex,
                  load_complex, load_delta, random_complex, resolve_complex,
                  save_complex, save_delta, to_chain_complex)

SIMPLICIAL = ("filled_triangle", "cycle(7)", "path(5)", "default",
              "random(30,0.5,1.0,11)")
DELTA = {"rp2": [[[-1, -1, 0], [1, 1, 0]], [[-1, 1], [1, -1], [1, 1]]],
         "torus": [[[0, 0, 0]], [[1, 1], [1, 1], [-1, -1]]]}


def simplicial_of(rep):
    """The simplicial complex behind a `to_chain_complex` rep (its labels)."""
    return SimplicialComplex(rep.n_cells(0), rep.labels)


def check_against_dense(rep, dense):
    """`dense` is [B_1, ..., B_K] as the reference builds them."""
    for k, mat in enumerate(dense, start=1):
        exact = dense_exact_boundary(k, mat)
        assert [list(col) for col in csc_tuples(rep.csc(k))] == dense_nonzero_columns(exact)
        assert read_columns(mat) == entrywise_columns(mat)
        assert all(type(v) is int for col in csc_tuples(rep.csc(k)) for _, v in col)
        view = rep.boundary_matrix(k)
        assert view.dtype == object and view.shape == exact.shape
        assert view.tolist() == exact.tolist()
        assert all(type(v) is int for v in view.flat)
        as_float = rep.boundary_float(k)
        reference = exact.astype(float)
        assert as_float.dtype == reference.dtype and as_float.shape == reference.shape
        assert as_float.tobytes() == reference.tobytes()
    for k in (0, len(dense) + 1):
        assert csc_tuples(rep.csc(k)) == ((),) * rep.n_cells(k)
        assert rep.boundary_matrix(k).shape == (rep.n_cells(k - 1), rep.n_cells(k))


def check_simplicial(rep):
    sc = simplicial_of(rep)
    dense = [dense_build_boundary(sc, k) for k in range(1, sc.dim + 1)]
    check_against_dense(rep, dense)
    rebuilt = to_chain_complex(sc)
    for k in range(-1, sc.dim + 3):
        built = rebuilt.boundary_matrix(k)
        assert built.shape == dense_build_boundary(sc, k).shape
        assert built.tolist() == dense_build_boundary(sc, k).tolist()
    # the public constructor, reading the dense matrices, stores the same columns
    public = ChainComplexRep(rep.dims, dense)
    assert all(csc_tuples(public.csc(k)) == csc_tuples(rep.csc(k))
               for k in range(1, rep.dim + 1))


@pytest.mark.parametrize("spec", SIMPLICIAL)
def test_named_simplicial_complexes_match_the_dense_loop(spec):
    check_simplicial(resolve_complex(spec))


@pytest.mark.parametrize("name", sorted(DELTA))
def test_named_delta_complexes_match_their_dense_matrices(name):
    check_against_dense(canonical_complex(name),
                        [np.array(m, dtype=object) for m in DELTA[name]])


def test_corpus_matches_the_dense_loop():
    for rep in two_complex_corpus(50):
        check_simplicial(rep)


def test_random_70_matches_the_dense_loop():
    rep = resolve_complex("random(70,0.5,1.0,11)")
    sc = simplicial_of(rep)
    check_against_dense(rep, [dense_build_boundary(sc, k) for k in (1, 2)])


@pytest.mark.parametrize("bad,message", [
    ({}, None),
    # (0, 2) comes first row by row, (1, 0) first column by column
    ({(0, 2): 2.5, (1, 0): 0.5}, "B_2 entry (0, 2) = 2.5 is not an integer"),
    ({(2, 4): float("nan"), (2, 0): 1.0}, "B_2 entry (2, 4) = nan is not an integer"),
    ({(1, 1): "1"}, "B_2 entry (1, 1) = '1' is not an integer"),
])
def test_columns_read_mixed_entry_types_as_the_entrywise_loop(bad, message):
    mat = np.array([[1, np.int64(-1), 0, True, 0],
                    [2.0, 0, np.int64(3), -4.0, False],
                    [0, np.float64(6.0), 5, 0, np.int64(0)]], dtype=object)
    for at, v in bad.items():
        mat[at] = v
    if message is None:
        columns = read_columns(mat, "B_2 entry")
        assert columns == entrywise_columns(mat, "B_2 entry")
        assert columns == (((0, 1), (1, 2)), ((0, -1), (2, 6)), ((1, 3), (2, 5)),
                           ((0, 1), (1, -4)), ())
        assert all(type(v) is int for col in columns for _, v in col)
        return
    with pytest.raises(ValueError, match=re.escape(message)):
        entrywise_columns(mat, "B_2 entry")
    with pytest.raises(ValueError, match=re.escape(message)):
        read_columns(mat, "B_2 entry")


def test_scx_and_dcx_round_trips_are_byte_identical(tmp_path):
    reps = [canonical_complex(name) for name in sorted(DELTA)]
    for seed, n in ((3, 9), (5, 6)):
        sc = random_complex(n, 0.6, 0.7, seed=seed)
        first, again = tmp_path / "a.scx", tmp_path / "b.scx"
        save_complex(sc, first)
        save_complex(load_complex(first), again)
        assert first.read_bytes() == again.read_bytes()
        reps.append(to_chain_complex(sc))
    reps.append(ChainComplexRep((2, 0, 1), [np.zeros((2, 0), dtype=object),
                                            np.zeros((0, 1), dtype=object)]))
    for rep in reps:
        first, again = tmp_path / "a.dcx", tmp_path / "b.dcx"
        save_delta(rep, first)
        save_delta(load_delta(first), again)
        assert first.read_bytes() == again.read_bytes()
        blocks = []
        for k in range(1, rep.dim + 1):
            rows = rep.boundary_matrix(k).tolist() if rep.n_cells(k) else []
            blocks.append(f"B{k}\n" + "".join(
                " ".join(str(v) for v in row) + "\n" for row in rows))
        header = "dims " + " ".join(map(str, rep.dims)) + "\n"
        assert first.read_text().split("\n", 1)[1] == header + "".join(blocks)
