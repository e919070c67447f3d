"""Integer CSC boundaries against the per-column tuple code they replaced.

`ChainComplexRep` stores each B_k as read-only CSC arrays (indptr, rows,
values).  The arrays read as tuples (`oracles.csc_tuples`), the dense and
sparse views, the Z/2 masks, `validate` and the chain action
`apply_boundary`/`apply_coboundary` must give what the tuple code
(`oracles.tuple_face_columns`, `tuple_columns`, `tuple_to_dense`,
`tuple_validate` and `tuple_apply_boundary`) gives.  The generators build
their complexes through the unchecked `SimplicialComplex._unchecked`; what
they build must equal what the public constructor builds from the same
simplexes, listed in any order.  Entries past int64 stay exact.
"""

import re

import numpy as np
import pytest
import scipy.sparse

from oracles import (csc_tuples, dense_mod_p_rank, scalar_random_complex, tuple_apply_boundary,
                     tuple_columns, tuple_face_columns, tuple_to_dense, tuple_validate)
from test_acceptance import two_complex_corpus

from gssc import (ChainComplexRep, FourierFn, HomologySummary, Integer, ModN, Real,
                  SimplicialComplex, apply_boundary, apply_coboundary, canonical_complex,
                  homology_Z, integer_rank, load_delta, mod_p_rank, random_chain,
                  random_complex, resolve_complex, save_complex, save_delta,
                  smith_normal_form, validate)
from gssc import gf2
from gssc.cli import main
from gssc.complexes import default_experiment_complex

SIMPLICIAL = ("filled_triangle", "cycle(3)", "cycle(7)", "path(1)", "path(5)", "default",
              "random(40,0.5,1.0,11)", "random(70,0.5,1.0,11)")
DELTA = {"rp2": [[[-1, -1, 0], [1, 1, 0]], [[-1, 1], [1, -1], [1, 1]]],
         "torus": [[[0, 0, 0]], [[1, 1], [1, 1], [-1, -1]]]}


def tuple_sparse_boundary(columns, n_rows):
    """The float CSR array the tuple columns were read into."""
    indptr = np.cumsum([0] + [len(col) for col in columns])
    rows = [i for col in columns for i, _ in col]
    vals = [v for col in columns for _, v in col]
    return scipy.sparse.csc_array(
        (np.array(vals, dtype=float), np.array(rows, dtype=np.int64), indptr),
        shape=(n_rows, len(columns))).tocsr()


def tuple_row_masks(columns, n_rows):
    out = [0] * n_rows
    for j, col in enumerate(columns):
        for i, v in col:
            if v % 2:
                out[i] |= 1 << j
    return out


def check_views(rep, expected):
    """`expected` is [columns of B_1, ..., B_K] as the tuple code gives them."""
    for k in range(-1, rep.dim + 3):
        columns = expected[k - 1] if 1 <= k <= rep.dim else ((),) * rep.n_cells(k)
        indptr, rows, values = rep.csc(k)
        assert indptr.dtype == rows.dtype == np.int64
        assert values.dtype in (np.int64, object)
        assert csc_tuples(rep.csc(k)) == columns
        assert all(type(v) is int for col in csc_tuples(rep.csc(k)) for _, v in col)
        n_rows = rep.n_cells(k - 1)
        dense, reference = rep.boundary_matrix(k), tuple_to_dense(columns, n_rows)
        assert dense.dtype == object and dense.shape == reference.shape
        assert dense.tolist() == reference.tolist()
        assert all(type(v) is int for v in dense.flat)
        as_float = rep.boundary_float(k)
        assert as_float.tobytes() == tuple_to_dense(columns, n_rows, float).tobytes()
        sparse, tuple_sparse = rep._sparse_boundary(k), tuple_sparse_boundary(columns, n_rows)
        for attr in ("indptr", "indices", "data"):
            got, want = getattr(sparse, attr), getattr(tuple_sparse, attr)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert gf2.column_masks(rep.csc(k)) == [
            sum(1 << i for i, v in col if v % 2) for col in columns]
        assert gf2.row_masks(rep.csc(k), n_rows) == tuple_row_masks(columns, n_rows)
    assert validate(rep).failures == tuple_validate(rep).failures == []


def check_simplicial(rep):
    public = SimplicialComplex(rep.n_cells(0), rep.labels)
    check_views(rep, [tuple_face_columns(public, k) for k in range(1, public.dim + 1)])


@pytest.mark.parametrize("spec", SIMPLICIAL)
def test_named_simplicial_arrays_match_the_face_loop(spec):
    check_simplicial(resolve_complex(spec))


@pytest.mark.parametrize("name", sorted(DELTA))
def test_delta_arrays_match_the_tuple_reader(name):
    check_views(canonical_complex(name), [tuple_columns(m) for m in DELTA[name]])


def test_corpus_arrays_match_the_face_loop():
    for rep in two_complex_corpus(50):
        check_simplicial(rep)


@pytest.mark.parametrize("n,edge_prob,fill_prob,seed", [
    (1, 0.5, 0.5, 0), (6, 0.0, 1.0, 3), (7, 0.6, 0.0, 1), (8, 0.4, 0.3, 2),
    (9, 1.0, 1.0, 4), (12, 0.6, 0.8, 4), (20, 0.5, 1.0, 11), (30, 0.3, 0.5, 7)])
def test_random_complex_equals_the_public_construction(n, edge_prob, fill_prob, seed):
    sc = random_complex(n, edge_prob, fill_prob, seed)
    assert sc == scalar_random_complex(n, edge_prob, fill_prob, seed)
    rng = np.random.default_rng(seed)
    shuffled = [[sc.simplexes_by_dim[k][i] for i in rng.permutation(sc.n_simplexes(k))]
                for k in range(sc.dim + 1)]
    assert sc == SimplicialComplex(n, shuffled) == SimplicialComplex(n, sc.simplexes_by_dim)
    assert all(type(v) is int for level in sc.simplexes_by_dim for s in level for v in s)


@pytest.mark.parametrize("n", (3, 4, 9))
def test_graphs_and_default_equal_the_public_construction(n):
    vertices = [(v,) for v in range(n)]
    path = [(i, i + 1) for i in range(n - 1)]
    for spec, edges in ((f"path({n})", path), (f"cycle({n})", path + [(0, n - 1)])):
        rep = resolve_complex(spec)
        assert SimplicialComplex._unchecked(n, rep.labels) == SimplicialComplex(
            n, [vertices, edges])
    core = random_complex(20, 0.5, 1.0, seed=11)
    ring = [(20, 21), (21, 22), (22, 23), (23, 24), (24, 25), (20, 25), (0, 20)]
    public = SimplicialComplex(26, [[(v,) for v in range(26)], core.simplexes(1) + ring,
                                    core.simplexes(2)])
    assert SimplicialComplex._unchecked(26, default_experiment_complex().labels) == public


def test_public_constructor_reports_its_first_failure_in_level_order():
    with pytest.raises(ValueError, match=re.escape("(2, 1) is not strictly increasing")):
        SimplicialComplex(3, [[], [(0, 1), (2, 1)], [(0, 1, 5)]])
    with pytest.raises(ValueError, match=re.escape("face (1, 2) of (1, 2, 3) is missing")):
        SimplicialComplex(4, [[], [(0, 1), (1, 3), (2, 3)], [(1, 2, 3)]])
    assert SimplicialComplex(3, [[(2,), (0,)], [(1, 2), (0, 1), (0, 1)], []]).simplexes_by_dim \
        == [[(0,), (1,), (2,)], [(0, 1), (1, 2)]]


def test_complex_gen_writes_what_the_public_complex_saves(tmp_path, capsys):
    for spec in ("cycle(6)", "path(4)", "default", "random(40,0.5,1.0,11)"):
        rep = resolve_complex(spec)
        assert main(["complex", "gen", spec, "--out", str(tmp_path / "a.scx")]) == 0
        save_complex(SimplicialComplex(rep.n_cells(0), rep.labels), tmp_path / "b.scx")
        assert (tmp_path / "a.scx").read_bytes() == (tmp_path / "b.scx").read_bytes()
    capsys.readouterr()


def broken_reps():
    """Reps whose boundaries do not compose to zero, entries small and past int64."""
    rng = np.random.default_rng(8)
    out = []
    for scale in (1, 2 ** 20, 2 ** 31, 2 ** 62, 2 ** 70):
        for _ in range(6):
            n0, n1, n2, n3 = (int(v) for v in rng.integers(0, 7, size=4))
            mats = []
            for m, n in ((n0, n1), (n1, n2), (n2, n3)):
                B = np.array(rng.integers(-3, 4, size=(m, n)), dtype=object) * scale
                B[rng.random((m, n)) < 0.4] = 0
                mats.append(B)
            out.append(ChainComplexRep((n0, n1, n2, n3), mats))
    out.append(ChainComplexRep((1, 2, 1), [[[-2 ** 63, 1]], [[1], [-2 ** 63]]]))
    return out


def test_validate_reports_equal_the_tuple_loop_on_broken_reps():
    failing = 0
    for rep in broken_reps():
        got, want = validate(rep), tuple_validate(rep)
        assert got.ok == want.ok and got.failures == want.failures
        assert all(type(v) is int for f in got.failures for v in f)
        assert str(got) == str(want)
        failing += not got.ok
    assert failing >= 20


def test_masks_of_even_and_odd_entries_equal_the_tuple_loop():
    for rep in broken_reps():
        for k in range(1, rep.dim + 1):
            columns, n_rows = csc_tuples(rep.csc(k)), rep.n_cells(k - 1)
            assert gf2.column_masks(rep.csc(k)) == [
                sum(1 << i for i, v in col if v % 2) for col in columns]
            assert gf2.row_masks(rep.csc(k), n_rows) == tuple_row_masks(columns, n_rows)


BIG = 2 ** 64 + 1


def test_a_dcx_entry_past_int64_round_trips_exactly(tmp_path):
    rep = ChainComplexRep((2, 2, 1), [[[3 * 2 ** 64, 0], [0, 0]], [[0], [2 ** 70]]])
    assert rep.csc(1)[2].dtype == object and csc_tuples(rep.csc(2)) == (((1, 2 ** 70),),)
    path = tmp_path / "big.dcx"
    save_delta(rep, path)
    assert f"{2 ** 70}" in path.read_text() and f"{3 * 2 ** 64}" in path.read_text()
    loaded = load_delta(path)
    for k in (1, 2):
        assert csc_tuples(loaded.csc(k)) == csc_tuples(rep.csc(k))
        assert loaded.boundary_matrix(k).tolist() == rep.boundary_matrix(k).tolist()
    again = tmp_path / "again.dcx"
    save_delta(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    assert validate(loaded).ok and tuple_validate(loaded).ok
    assert [homology_Z(loaded, k) for k in range(3)] == [
        HomologySummary(1, [3 * 2 ** 64]), HomologySummary(0, [2 ** 70]), HomologySummary(0, [])]
    torsion = ChainComplexRep((1, 1, 1), [[[0]], [[BIG]]])
    assert homology_Z(torsion, 1) == HomologySummary(0, [BIG])
    broken = ChainComplexRep((1, 2, 1), [[[2 ** 64, 1]], [[1], [1 - 2 ** 64]]])
    assert validate(broken).failures == tuple_validate(broken).failures == [(1, 0, 0, 1)]


def test_mod_p_rank_of_mixed_dense_entries_is_the_dense_rank():
    matrices = [
        np.array([[2 ** 70, 2], [1, 3]], dtype=object),
        np.array([[np.int64(3), 0, 6], [np.int64(-9), 2 ** 65, 0]], dtype=object),
        np.array([[2.0, 4.0, 0.0], [1.0, -3.0, 5.0]]),
        np.array([[3.0, 2 ** 70, np.int64(6)], [True, 0, 2]], dtype=object),
        np.array([[1e20, 0], [0, 5]]),
    ]
    for B in matrices:
        assert integer_rank(B) == len(smith_normal_form(B).invariant_factors)
        for p in (2, 3, 5, 7):
            assert mod_p_rank(B, p) == dense_mod_p_rank(B, p)


@pytest.mark.parametrize("bad,where", [
    ({(1, 2): 0.5, (0, 3): float("nan")}, "(0, 3) = nan"),
    ({(2, 0): "1", (1, 1): 2.5}, "(1, 1) = 2.5"),
    ({(0, 1): np.float64(1.5)}, f"(0, 1) = {np.float64(1.5)!r}"),
    ({(2, 3): 1 + 0j}, "(2, 3) = (1+0j)"),
])
def test_a_non_integer_is_refused_naming_the_first_row_major_offender(bad, where):
    mat = np.array([[1, 0, 2 ** 70, 0], [0, 3, 0, np.int64(4)], [5.0, 0, 6, 0]], dtype=object)
    for at, v in bad.items():
        mat[at] = v
    with pytest.raises(ValueError, match=re.escape(f"entry {where} is not an integer")):
        tuple_columns(mat)
    for call in (integer_rank, smith_normal_form, lambda B: mod_p_rank(B, 3)):
        with pytest.raises(ValueError, match=re.escape(f"entry {where} is not an integer")):
            call(mat)
    with pytest.raises(ValueError, match=re.escape(f"B_1 entry {where} is not an integer")):
        ChainComplexRep((3, 4), [mat])


def test_the_stored_arrays_refuse_writes(tmp_path):
    save_delta(canonical_complex("rp2"), tmp_path / "rp2.dcx")
    for rep in (resolve_complex("random(8,0.6,0.7,2)"), resolve_complex("cycle(5)"),
                canonical_complex("rp2"), ChainComplexRep((1, 1, 1), [[[0]], [[2 ** 70]]]),
                load_delta(tmp_path / "rp2.dcx")):
        before = [csc_tuples(rep.csc(k)) for k in range(1, rep.dim + 1)]
        for k in range(1, rep.dim + 1):
            for array in rep.csc(k):
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[:1] = 7
        assert [csc_tuples(rep.csc(k)) for k in range(1, rep.dim + 1)] == before


EXACT = (Integer(), ModN(2), ModN(6))


def chain_action_reps():
    """Named complexes, the corpus and reps with entries past int64."""
    yield from (resolve_complex(spec) for spec in SIMPLICIAL + tuple(DELTA))
    yield from two_complex_corpus(50)
    yield ChainComplexRep((2, 3, 2), [[[2 ** 70, -2 ** 70, 0], [3 * 2 ** 64, 0, 1]],
                                      [[1, 0], [1, -2 ** 70], [0, 3 * 2 ** 64]]])
    yield from broken_reps()


def test_the_chain_action_equals_the_tuple_loop_at_every_degree():
    rng = np.random.default_rng(5)
    cases = 0
    for rep in chain_action_reps():
        for degree in range(-1, rep.dim + 2):
            for system in EXACT + (Real(), FourierFn(2)):
                x = random_chain(rep, degree, system, rng)
                chains = [x]
                if system == Integer():  # values past int64 too
                    chains.append(x.with_values(x.values * 2 ** 65 + 1))
                for x in chains:
                    for got, want in ((apply_boundary(x), tuple_apply_boundary(x, degree, False)),
                                      (apply_coboundary(x),
                                       tuple_apply_boundary(x, degree + 1, True))):
                        assert got.degree == want.degree and got.system == want.system
                        if system.exact:
                            assert got.values.dtype == object
                            assert got.values.tolist() == want.values.tolist()
                            assert all(type(v) is int for v in got.values.tolist())
                        else:
                            assert got.values.dtype == want.values.dtype
                            assert got.values.shape == want.values.shape
                            assert got.values.tobytes() == want.values.tobytes()
                        cases += 1
    assert cases > 3000
