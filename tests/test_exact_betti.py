"""Every Betti number and every harmonic width comes from one exact rank.

`homology_field` over the reals and over Z/p, and the width of U0 in
`_full_bases`, read the rank of each boundary from the elimination held in
the rep's memo.  The reference is the float count it replaced,
`oracles.float_betti`.
"""

import pytest

from gssc import ModN, Real, homology_field, homology_Z, resolve_complex, spectral_bases
from gssc import hodge, homology
from gssc.errors import NumericalError

from oracles import float_betti
from test_sparse_spectral import CORPUS

# the named complexes, then the rest of the benchmark's ladder
SPECS = ("rp2", "torus", "filled_triangle", "cycle(3)", "cycle(7)", "path(5)",
         "default", "random(30,0.5,1.0,11)", "random(40,0.5,1.0,11)")


@pytest.mark.parametrize("spec", SPECS + CORPUS)
def test_real_betti_is_the_integer_betti_and_the_float_count(spec):
    rep = resolve_complex(spec)
    for k in range(rep.dim + 1):
        betti = homology_field(rep, k, Real())
        assert betti == homology_Z(rep, k).betti == float_betti(rep, k)


@pytest.mark.parametrize("spec", ("rp2", "torus", "random(30,0.5,1.0,11)"))
def test_real_betti_runs_no_eigendecomposition(spec, monkeypatch):
    def refuse(*args):
        raise AssertionError("eig_sym ran")
    monkeypatch.setattr(hodge, "eig_sym", refuse)
    rep = resolve_complex(spec)
    assert [homology_field(rep, k, Real()) for k in range(rep.dim + 1)] == [
        homology_Z(rep, k).betti for k in range(rep.dim + 1)]


@pytest.mark.parametrize("p", (2, 3, None))
def test_a_second_mod_p_call_runs_no_elimination(p, monkeypatch):
    """A second call over Z/p runs no elimination, and after one over the
    reals (p None) neither do the first calls over Z/3 and Z/5: every odd p
    reads its rank off the one integer elimination of each boundary."""
    rep = resolve_complex("rp2")
    first = [homology_field(rep, k, ModN(p) if p else Real()) for k in range(rep.dim + 1)]

    def refuse(*args):
        raise AssertionError("_eliminate ran")
    monkeypatch.setattr(homology, "_eliminate", refuse)
    for q in (p,) if p else (3, 5):
        assert [homology_field(rep, k, ModN(q)) for k in range(rep.dim + 1)] == first
    assert first == ([1, 1, 1] if p == 2 else [1, 0, 0])


def test_bases_refuse_an_exact_rank_the_float_modes_disagree_with(monkeypatch):
    real = homology._rank
    monkeypatch.setattr(homology, "_rank",
                        lambda rep, k, p=None: real(rep, k, p) + (k == 1))
    rep = resolve_complex("cycle(4)")
    with pytest.raises(NumericalError, match=r"degree 1: 3 \+ 0 nonzero float modes "
                       r"and the exact beta_1 = 0 do not sum to n_1 = 4"):
        hodge._full_bases(rep, 1)
    monkeypatch.setattr(homology, "_rank", real)
    assert spectral_bases(rep, 1, 5, 5).n_harmonic == 1
