"""Face closure by level against the face loops it replaced.

`SimplicialComplex.from_maximal` closes one level at a time through
`complexes._faces`, `maximal_simplexes` reads the level above through it
and the public constructor checks closure through it.  Each must equal the
loops they replaced (`oracles.loop_from_maximal`, `loop_maximal_simplexes`
and `loop_simplicial_complex`), by `==`, with every vertex a Python int,
and refuse the same input with the same first message.
"""

import itertools

import numpy as np
import pytest

from oracles import loop_from_maximal, loop_maximal_simplexes, loop_simplicial_complex
from test_acceptance import two_complex_corpus

from gssc import SimplicialComplex, random_complex, resolve_complex

NAMED = ["filled_triangle", "default", "cycle(3)", "cycle(7)", "path(1)", "path(2)", "path(6)",
         "random(1,0.5,0.5,0)", "random(9,1.0,1.0,4)", "random(12,0.6,0.8,4)",
         "random(20,0.5,1.0,11)"]


def complexes():
    """Every named simplicial complex, `two_complex_corpus(50)` and two larger ones."""
    reps = [resolve_complex(spec) for spec in NAMED] + two_complex_corpus(50)
    return ([SimplicialComplex(rep.n_cells(0), rep.labels) for rep in reps]
            + [random_complex(40, 0.5, 1.0, 11), random_complex(70, 0.3, 0.3, 11)])


def ints_only(complex):
    return all(type(v) is int for level in complex.simplexes_by_dim for s in level for v in s)


def mixed_maximal(rng):
    """Overlapping, repeated simplexes of 1 to 4 vertices, each in a shuffled
    vertex order, in a shuffled list, some as numpy integers."""
    n = int(rng.integers(1, 9))
    out = []
    for _ in range(int(rng.integers(0, 12))):
        s = rng.permutation(n)[:int(rng.integers(1, min(n, 4) + 1))]
        out += [s.tolist(), tuple(s)] if rng.random() < 0.2 else [s.tolist()]
    return [out[i] for i in rng.permutation(len(out))], n


def test_from_maximal_equals_the_loop_on_mixed_lists():
    rng = np.random.default_rng(38)
    for _ in range(400):
        maximal, n = mixed_maximal(rng)
        for n_vertices in (None, n, n + 3):
            if not maximal and n_vertices is None:
                continue
            got = SimplicialComplex.from_maximal(maximal, n_vertices)
            assert got == loop_from_maximal(maximal, n_vertices)
            assert ints_only(got)
            assert got.maximal_simplexes() == loop_maximal_simplexes(got)


def test_vertices_only_with_room_to_spare():
    got = SimplicialComplex.from_maximal([(4,), (1,), (4,)], n_vertices=7)
    assert got == loop_from_maximal([(4,), (1,), (4,)], 7)
    assert got.simplexes_by_dim == [[(v,) for v in range(7)]]
    assert got.maximal_simplexes() == loop_maximal_simplexes(got) == got.simplexes(0)


def test_named_corpus_and_random_complexes_close_and_read_back_as_the_loops():
    rng = np.random.default_rng(7)
    for complex in complexes():
        maximal = complex.maximal_simplexes()
        assert maximal == loop_maximal_simplexes(complex)
        shuffled = [s[::-1] for s in maximal] + maximal[:len(maximal) // 2]
        shuffled = [shuffled[i] for i in rng.permutation(len(shuffled))]
        for given in (maximal, shuffled):
            got = SimplicialComplex.from_maximal(given, complex.n_vertices)
            assert got == loop_from_maximal(given, complex.n_vertices) == complex
            assert ints_only(got)
        levels = [[level[i] for i in rng.permutation(len(level))]
                  for level in complex.simplexes_by_dim]
        assert SimplicialComplex(complex.n_vertices, levels) == complex \
            == loop_simplicial_complex(complex.n_vertices, levels)


def refusal(call, *args):
    with pytest.raises(ValueError) as info:
        call(*args)
    return str(info.value)


def test_the_constructor_refuses_missing_faces_as_the_loop_does():
    rng = np.random.default_rng(11)
    cases = 0
    for complex in complexes()[:30]:
        if complex.dim < 2:
            continue
        for _ in range(5):
            levels = [list(level) for level in complex.simplexes_by_dim]
            for k in range(1, complex.dim):  # drop some simplexes below the top
                keep = rng.random(len(levels[k])) > 0.2
                levels[k] = list(itertools.compress(levels[k], keep.tolist()))
            try:
                want = loop_simplicial_complex(complex.n_vertices, levels)
            except ValueError as exc:
                assert refusal(SimplicialComplex, complex.n_vertices, levels) == str(exc)
                cases += 1
            else:
                assert SimplicialComplex(complex.n_vertices, levels) == want
    assert cases >= 20


@pytest.mark.parametrize("maximal,n_vertices", [
    ([(0, 1), (2, 2), (-1, 3)], None), ([(0, 1), (3, -1), (2, 2)], None),
    ([(0, 5)], 5), ([(0, 5)], 5.5), ([], None), ([], 0), ([()], None), ([(), (2,)], 0)])
def test_from_maximal_refuses_as_the_loop_does(maximal, n_vertices):
    assert refusal(SimplicialComplex.from_maximal, maximal, n_vertices) \
        == refusal(loop_from_maximal, maximal, n_vertices)
