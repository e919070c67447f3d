"""Complex construction, boundary matrices, validation, and file formats."""

import re

import numpy as np
import pytest

from gssc import (ChainComplexRep, FormatError, SimplicialComplex,
                  UnsupportedError, canonical_complex, load_complex, load_delta,
                  random_complex, save_complex, save_delta, to_chain_complex,
                  validate)


def boundary_terms(simplex):
    """Alternating-sum face map straight from the defining formula."""
    return [((-1) ** j, simplex[:j] + simplex[j + 1:])
            for j in range(len(simplex))]


def permutation_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def test_triangle_closure_and_ordering():
    sc = SimplicialComplex.from_maximal([(0, 1, 2)])
    assert sc.dim == 2
    assert sc.simplexes(0) == [(0,), (1,), (2,)]
    assert sc.simplexes(1) == [(0, 1), (0, 2), (1, 2)]
    assert sc.simplexes(2) == [(0, 1, 2)]
    assert sc.simplexes(1).index((0, 2)) == 1


def test_face_closure_is_enforced():
    with pytest.raises(ValueError, match="face"):
        SimplicialComplex(3, [[], [], [(0, 1, 2)]])


def test_vertex_tuples_must_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        SimplicialComplex(3, [[], [(1, 0)]])
    with pytest.raises(ValueError, match="strictly increasing"):
        SimplicialComplex(3, [[], [(1, 1)]])


def test_edge_boundary_is_signed_endpoints():
    sc = SimplicialComplex.from_maximal([(0, 1)])
    B1 = to_chain_complex(sc).boundary_matrix(1)
    assert B1.tolist() == [[-1], [1]]


def test_cycle3_boundary_matrix_by_enumeration():
    rep = canonical_complex("cycle(3)")
    assert rep.boundary_matrix(1).tolist() == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]


def test_boundary_matches_definition_on_random_complexes():
    for seed in range(8):
        sc = random_complex(7, 0.6, 0.7, seed=seed)
        for k in range(1, sc.dim + 1):
            B = to_chain_complex(sc).boundary_matrix(k)
            expected = np.zeros_like(B)
            for col, simplex in enumerate(sc.simplexes(k)):
                for sign, face in boundary_terms(simplex):
                    expected[sc.simplexes(k - 1).index(face), col] = sign
            assert (B == expected).all()


def test_boundary_columns_have_k_plus_1_unit_entries():
    sc = random_complex(8, 0.7, 0.8, seed=2)
    for k in range(1, sc.dim + 1):
        B = to_chain_complex(sc).boundary_matrix(k)
        for col in range(B.shape[1]):
            entries = [int(v) for v in B[:, col] if v != 0]
            assert len(entries) == k + 1
            assert all(v in (-1, 1) for v in entries)


def test_odd_vertex_permutation_negates_the_boundary():
    # expanding the defining formula on a reordered tuple gives the
    # permutation sign times the sorted simplex's column
    sc = SimplicialComplex.from_maximal([(0, 1, 2, 3)])
    B = to_chain_complex(sc).boundary_matrix(2)
    simplex = (0, 2, 3)
    col = sc.simplexes(2).index(simplex)
    for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
        reordered = tuple(simplex[i] for i in perm)
        acc = np.zeros(sc.n_simplexes(1), dtype=object)
        for sign, face in boundary_terms(reordered):
            ordered = tuple(sorted(face))
            face_perm = tuple(sorted(range(2), key=lambda i: face[i]))
            acc[sc.simplexes(1).index(ordered)] += sign * permutation_sign(face_perm)
        assert (acc == permutation_sign(perm) * B[:, col]).all()


def test_out_of_range_boundaries_are_empty_shaped():
    rep = canonical_complex("filled_triangle")
    assert rep.boundary_matrix(0).shape == (0, 3)
    assert rep.boundary_matrix(3).shape == (1, 0)
    assert rep.n_cells(-1) == 0
    assert rep.n_cells(5) == 0


def test_chain_identity_exact_on_100_random_complexes():
    for seed in range(100):
        sc = random_complex(4 + seed % 7, 0.5, 0.6, seed=seed)
        rep = to_chain_complex(sc)
        for k in range(1, rep.dim + 1):
            prod = rep.boundary_matrix(k) @ rep.boundary_matrix(k + 1)
            assert not prod.size or (prod == 0).all()


def test_validate_passes_simplicial_and_flags_a_flipped_sign():
    rep = canonical_complex("rp2")
    assert validate(rep).ok
    B2 = np.array(rep.boundary_matrix(2))
    B2[0, 0] = -B2[0, 0]
    bad = ChainComplexRep((2, 3, 2), [rep.boundary_matrix(1), B2])
    report = validate(bad)
    assert not report.ok
    assert len(report.failures) >= 1
    k, row, col, value = report.failures[0]
    assert k == 1 and value != 0


def dense_failures(rep):
    """Nonzero entries of every dense product B_k @ B_{k+1}, row-major."""
    out = []
    for k in range(1, rep.dim):
        prod = rep.boundary_matrix(k) @ rep.boundary_matrix(k + 1)
        out.extend((k, i, j, prod[i, j]) for i, j in np.ndindex(prod.shape)
                   if prod[i, j] != 0)
    return out


def test_validate_lists_the_dense_product_failures_in_order():
    rp2 = canonical_complex("rp2")
    B2 = np.array(rp2.boundary_matrix(2))
    B2[0, 1] = 3
    flipped = ChainComplexRep(rp2.dims, [rp2.boundary_matrix(1), B2])
    assert validate(flipped).failures == dense_failures(flipped) != []

    rng = np.random.default_rng(9)
    good = to_chain_complex(SimplicialComplex.from_maximal(
        [(0, 1, 2, 3), (1, 2, 3, 4), (0, 4), (4, 5)]))
    for _ in range(5):
        corrupted = []
        for k in range(1, good.dim + 1):
            B = np.array(good.boundary_matrix(k))
            hits = rng.random(B.shape) < 0.15
            B[hits] = [int(v) for v in rng.integers(-3, 4, size=int(hits.sum()))]
            corrupted.append(B)
        bad = ChainComplexRep(good.dims, corrupted)
        expected = dense_failures(bad)
        assert {k for k, *_ in expected} == {1, 2}
        assert validate(bad).failures == expected


def test_rep_refuses_non_integral_boundary_entries():
    cases = [((2, 1), [[[0.5], [-1.0]]], "B_1 entry (0, 0)"),
             ((2, 1), [[[1.0], [np.inf]]], "B_1 entry (1, 0)"),
             ((2, 1), [[[np.nan], [1]]], "B_1 entry (0, 0)"),
             ((1, 2, 1), [[[0, 0]], [[1], [1e-9 + 1]]], "B_2 entry (1, 0)"),
             ((2, 1), [[[None], [1]]], "B_1 entry (0, 0) = None"),
             ((2, 1), [[[""], [1]]], "B_1 entry (0, 0) = ''")]
    for dims, mats, where in cases:
        with pytest.raises(ValueError, match=re.escape(where)):
            ChainComplexRep(dims, [np.array(m) for m in mats])
    rep = ChainComplexRep((2, 1), [np.array([[1.0], [-1.0]])])
    assert rep.boundary_matrix(1).tolist() == [[1], [-1]]
    assert all(type(v) is int for v in rep.boundary_matrix(1).flat)


def test_boundary_matrix_hands_out_a_fresh_copy():
    rep = canonical_complex("cycle(3)")
    B = rep.boundary_matrix(1)
    B[0, 0] = 5
    assert rep.boundary_matrix(1).tolist() == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
    F = rep.boundary_float(1)
    F[0, 0] = 5.0
    assert rep.boundary_float(1).tolist() == [[-1.0, -1.0, 0.0], [1.0, 0.0, -1.0],
                                              [0.0, 1.0, 1.0]]
    assert rep.columns(1)[0] == ((0, -1), (1, 1))
    assert validate(rep).ok


def test_canonical_rp2_matches_its_frozen_matrices():
    rep = canonical_complex("rp2")
    assert [rep.n_cells(k) for k in range(3)] == [2, 3, 2]
    assert rep.boundary_matrix(1).tolist() == [[-1, -1, 0], [1, 1, 0]]
    assert rep.boundary_matrix(2).tolist() == [[-1, 1], [1, -1], [1, 1]]


def test_canonical_torus_and_shapes():
    rep = canonical_complex("torus")
    assert [rep.n_cells(k) for k in range(3)] == [1, 3, 2]
    assert validate(rep).ok
    tri = canonical_complex("filled_triangle")
    assert [tri.n_cells(k) for k in range(3)] == [3, 3, 1]
    assert canonical_complex("path(4)").n_cells(1) == 3
    assert canonical_complex("cycle(5)").n_cells(1) == 5


def test_unknown_canonical_name_lists_choices():
    with pytest.raises(UnsupportedError, match="rp2"):
        canonical_complex("mobius")


def test_random_complex_determinism_and_extremes():
    a = random_complex(9, 0.5, 0.5, seed=4)
    b = random_complex(9, 0.5, 0.5, seed=4)
    assert a == b
    graph = random_complex(9, 0.5, 0.0, seed=4)
    assert graph.dim <= 1
    tetra = random_complex(4, 1.0, 1.0, seed=0)
    assert (tetra.n_simplexes(0), tetra.n_simplexes(1), tetra.n_simplexes(2)) == (4, 6, 4)


def test_scx_round_trip_and_closure(tmp_path):
    sc = random_complex(8, 0.5, 0.6, seed=1)
    path = tmp_path / "c.scx"
    save_complex(sc, path)
    assert load_complex(path) == sc

    bare = tmp_path / "t.scx"
    bare.write_text("# a filled triangle\n0 1 2\n")
    tri = load_complex(bare)
    assert tri.n_simplexes(0) == 3 and tri.n_simplexes(1) == 3
    assert tri.n_simplexes(2) == 1


def test_scx_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.scx"
    path.write_text("0 1\n0 x 2\n")
    with pytest.raises(FormatError, match="line 2"):
        load_complex(path)


def test_dcx_round_trip_and_corruption_rejected(tmp_path):
    rep = canonical_complex("rp2")
    path = tmp_path / "rp2.dcx"
    save_delta(rep, path)
    loaded = load_delta(path)
    assert loaded.boundary_matrix(1).tolist() == rep.boundary_matrix(1).tolist()
    assert loaded.boundary_matrix(2).tolist() == rep.boundary_matrix(2).tolist()

    lines = path.read_text().splitlines()
    broken = [line.replace("-1 1", "1 1", 1) if line == "-1 1" else line
              for line in lines]
    bad = tmp_path / "bad.dcx"
    bad.write_text("\n".join(broken) + "\n")
    with pytest.raises(FormatError):
        load_delta(bad)


def test_dcx_round_trip_with_empty_blocks(tmp_path):
    rep = ChainComplexRep((2, 0, 1), [np.zeros((2, 0), dtype=object),
                                      np.zeros((0, 1), dtype=object)])
    path = tmp_path / "z.dcx"
    save_delta(rep, path)
    loaded = load_delta(path)
    assert loaded.dims == (2, 0, 1)
    assert loaded.boundary_matrix(1).shape == (2, 0)
    assert loaded.boundary_matrix(2).shape == (0, 1)


def test_delta_rep_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        ChainComplexRep((2, 2), [np.zeros((3, 2), dtype=object)])


@pytest.mark.parametrize("boundary", [[1, -1], [[[1]]], [[1, 2], [3]]])
def test_delta_rep_rejects_boundaries_that_are_not_2d(boundary):
    with pytest.raises(ValueError, match="2-d"):
        ChainComplexRep((2, 1), [boundary])
