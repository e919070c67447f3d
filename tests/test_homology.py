"""Integer and field homology, Smith forms, and the seminorm of a class."""

import re
import time

import numpy as np
import pytest
import scipy.linalg

from oracles import (bareiss_det, component_count, dense_mod_p_rank,
                     dense_solve_integer, gcd_of_minors, primes_between)

from gssc import (ChainVector, HomologySummary, Integer, ModN, Real,
                  UnsupportedError, canonical_complex, homology_Z,
                  homology_field, integer_rank, mod_p_rank, random_complex,
                  resolve_complex, simplicial_seminorm, smith_normal_form,
                  to_chain_complex)
from gssc.homology import _prime


def random_int_matrix(rng, max_side=6, lo=-5, hi=5):
    m = int(rng.integers(1, max_side + 1))
    n = int(rng.integers(1, max_side + 1))
    return np.array(rng.integers(lo, hi + 1, size=(m, n)), dtype=object)


def test_smith_form_of_simple_matrices():
    eye = np.eye(3, dtype=object)
    snf = smith_normal_form(eye)
    assert snf.rank == 3 and snf.invariant_factors == [1, 1, 1]

    snf = smith_normal_form(np.array([[2, 0], [0, 3]], dtype=object))
    assert snf.invariant_factors == [1, 6]

    snf = smith_normal_form(np.array([[2, 4], [6, 8]], dtype=object))
    assert snf.invariant_factors == [2, 4]

    snf = smith_normal_form(np.zeros((2, 3), dtype=object))
    assert snf.rank == 0 and snf.invariant_factors == []


def test_smith_form_against_determinantal_divisors():
    # prod of the first k invariant factors equals the gcd of k x k minors
    rng = np.random.default_rng(12)
    for _ in range(25):
        B = random_int_matrix(rng, max_side=4)
        snf = smith_normal_form(B)
        assert snf.verify(B)
        prod = 1
        for k in range(1, min(B.shape) + 1):
            g = gcd_of_minors(B, k)
            if k <= snf.rank:
                prod *= snf.invariant_factors[k - 1]
                assert prod == g
            else:
                assert g == 0


def test_smith_form_certificates_are_unimodular():
    rng = np.random.default_rng(3)
    for _ in range(25):
        B = random_int_matrix(rng)
        snf = smith_normal_form(B)
        assert snf.verify(B)
        assert abs(bareiss_det(snf.U)) == 1
        assert abs(bareiss_det(snf.V)) == 1


def test_integer_rank_matches_float_rank_for_small_entries():
    rng = np.random.default_rng(8)
    for _ in range(20):
        B = random_int_matrix(rng)
        assert integer_rank(B) == np.linalg.matrix_rank(B.astype(float))


def test_mod_p_rank_bounds_and_prime_check():
    rng = np.random.default_rng(5)
    for _ in range(20):
        B = random_int_matrix(rng)
        r = integer_rank(B)
        for p in (2, 3, 5, 7):
            assert mod_p_rank(B, p) <= r
    assert mod_p_rank(np.array([[2]], dtype=object), 2) == 0
    with pytest.raises(UnsupportedError, match="prime"):
        mod_p_rank(np.eye(2, dtype=object), 4)


def test_prime_check_agrees_with_a_sieve():
    accepted = []
    for p in range(-3, 10**4 + 1):
        try:
            accepted.append(_prime(p))
        except UnsupportedError as exc:
            assert str(exc) == f"{p} is not prime"
    assert accepted == primes_between(0, 10**4)


@pytest.mark.parametrize("p,message", [
    ((2**31 - 1) ** 2, f"{(2**31 - 1) ** 2} is not prime"),
    # the least composite that passes Miller-Rabin on the bases 2, ..., 37
    (318665857834031151167461, "318665857834031151167461 is not prime"),
    # past 3.3e24 the modulus is named by its bit length, as Python refuses to print
    # an int of more than 4,300 digits
    (3317044064679887385961981, "a modulus of 82 bits is at least 3.3e24"),
    (10**400, "a modulus of 1329 bits is at least 3.3e24"),
    pytest.param(10**5000, "a modulus of 16610 bits is at least 3.3e24", id="10**5000"),
])
def test_prime_check_refuses_composites_and_moduli_beyond_its_range(p, message):
    with pytest.raises(UnsupportedError, match=re.escape(message)):
        mod_p_rank(np.eye(2, dtype=object), p)
    with pytest.raises(UnsupportedError, match=re.escape(message)):
        homology_field(canonical_complex("rp2"), 1, ModN(p))


def test_mod_p_rank_at_a_61_bit_prime_is_the_rank_over_q():
    boundary = canonical_complex("rp2").boundary_matrix(2)
    start = time.perf_counter()
    assert mod_p_rank(boundary, 2**61 - 1) == integer_rank(boundary) == 2
    assert time.perf_counter() - start < 1.0
    assert homology_field(canonical_complex("rp2"), 1, ModN(2**61 - 1)) == 0


@pytest.mark.parametrize("p,shown", [(3.5, "3.5"), ("3", "'3'")])
def test_mod_p_rank_refuses_a_non_integral_modulus(p, shown):
    with pytest.raises(ValueError, match=re.escape(f"modulus {shown} is not an integer")):
        mod_p_rank(np.eye(2, dtype=object), p)
    assert mod_p_rank(np.eye(2, dtype=object), 3.0) == 2


@pytest.mark.parametrize("bad,entry", [
    ([[0.5, 1.0], [2.0, 2.7]], "(0, 0) = 0.5"),
    ([[1, 0], [float("nan"), 1]], "(1, 0) = nan"),
    ([[None, 1], [1, 1]], "(0, 0) = None"),
    ([["", 1], [1, 1]], "(0, 0) = ''"),
])
def test_exact_api_refuses_non_integral_entries(bad, entry):
    for call in (smith_normal_form, integer_rank, lambda m: mod_p_rank(m, 3)):
        with pytest.raises(ValueError, match=re.escape(f"entry {entry} is not")):
            call(bad)
    # integer-valued floats are integers
    assert smith_normal_form([[2.0, 0.0], [0.0, 3.0]]).invariant_factors == [1, 6]
    assert integer_rank([[1.0, 2.0], [2.0, 4.0]]) == 1
    assert mod_p_rank([[1.0, 2.0], [2.0, 1.0]], 3) == 1


def test_solve_integer_round_trip_and_infeasible():
    rng = np.random.default_rng(21)
    for _ in range(20):
        B = random_int_matrix(rng)
        z0 = np.array(rng.integers(-4, 5, size=B.shape[1]), dtype=object)
        t = B @ z0
        z = dense_solve_integer(B, t)
        assert z is not None
        assert (B @ z == t).all()
    assert dense_solve_integer(np.array([[2]], dtype=object), [1]) is None
    assert dense_solve_integer(np.array([[2, 0], [0, 3]], dtype=object), [1, 3]) is None


def test_homology_of_named_complexes():
    rp2 = canonical_complex("rp2")
    assert homology_Z(rp2, 0) == HomologySummary(1, [])
    assert homology_Z(rp2, 1) == HomologySummary(0, [2])
    assert homology_Z(rp2, 2) == HomologySummary(0, [])
    assert str(homology_Z(rp2, 1)) == "Z/2"

    torus = canonical_complex("torus")
    assert homology_Z(torus, 1) == HomologySummary(2, [])
    assert homology_Z(torus, 2) == HomologySummary(1, [])

    assert homology_Z(canonical_complex("cycle(3)"), 1) == HomologySummary(1, [])
    assert homology_Z(canonical_complex("filled_triangle"), 1) == HomologySummary(0, [])
    with pytest.raises(UnsupportedError):
        homology_Z(rp2, 3)


def test_homology_of_the_largest_ladder_rung():
    # dims (40, 408, 1386): every degree took ~88 s by dense Smith form
    rep = resolve_complex("random(40,0.5,1.0,11)")
    start = time.perf_counter()
    groups = [homology_Z(rep, k) for k in range(rep.dim + 1)]
    elapsed = time.perf_counter() - start
    for p in (3, 5):
        ranks = [dense_mod_p_rank(rep.boundary_matrix(k), p)
                 for k in range(rep.dim + 2)]
        assert [g.betti for g in groups] == [
            rep.n_cells(k) - ranks[k] - ranks[k + 1] for k in range(rep.dim + 1)]
    assert [g.torsion for g in groups] == [()] * (rep.dim + 1)
    assert elapsed < 30.0


def test_h0_counts_connected_components():
    for seed in range(15):
        sc = random_complex(10, 0.25, 0.5, seed=seed)
        rep = to_chain_complex(sc)
        expected = component_count(sc.n_vertices, sc.simplexes(1))
        assert homology_Z(rep, 0) == HomologySummary(expected, [])
        assert homology_field(rep, 0, Real()) == expected
        assert homology_field(rep, 0, ModN(2)) == expected


def test_field_homology_sees_torsion_only_mod_2():
    rp2 = canonical_complex("rp2")
    assert homology_field(rp2, 1, ModN(2)) == 1
    assert homology_field(rp2, 1, Real()) == 0
    assert homology_field(rp2, 2, ModN(2)) == 1
    assert homology_field(rp2, 2, Real()) == 0
    assert homology_field(rp2, 1, ModN(3)) == 0
    assert homology_field(canonical_complex("cycle(3)"), 1, Real()) == 1
    with pytest.raises(UnsupportedError):
        homology_field(rp2, 1, ModN(4))
    with pytest.raises(UnsupportedError):
        homology_field(rp2, 1, Integer())


def test_seminorm_at_degree_zero_is_the_scaled_mean():
    # on a connected graph the class of x is x + im B_1, whose least-squares
    # point is the constant vector at the mean
    rep = canonical_complex("cycle(5)")
    rng = np.random.default_rng(2)
    x = ChainVector(rep, 0, Real(), rng.standard_normal(5))
    value, mini = simplicial_seminorm(x)
    mean = float(np.mean(np.asarray(x.values, dtype=float)))
    assert np.allclose(np.asarray(mini.values, dtype=float), mean, atol=1e-10)
    assert value == pytest.approx(abs(mean) * np.sqrt(5))


def test_seminorm_of_a_trivial_class_is_zero():
    rep = canonical_complex("filled_triangle")
    bd = rep.boundary_float(2)[:, 0]
    x = ChainVector(rep, 1, Real(), 2.5 * bd)
    value, mini = simplicial_seminorm(x)
    assert value == pytest.approx(0.0, abs=1e-10)
    assert np.allclose(np.asarray(mini.values, dtype=float), 0.0, atol=1e-10)


def test_seminorm_mod2_on_the_projective_plane():
    rep = canonical_complex("rp2")
    cases = {(0, 0, 0): 0.0, (1, 1, 0): 1.0, (0, 0, 1): 1.0, (1, 1, 1): 0.0}
    for rep_chain, expected in cases.items():
        x = ChainVector(rep, 1, ModN(2), list(rep_chain))
        value, mini = simplicial_seminorm(x, p=1)
        assert value == expected
    _, mini = simplicial_seminorm(ChainVector(rep, 1, ModN(2), [1, 1, 0]), p=1)
    assert list(mini.values) == [0, 0, 1]


def test_seminorm_rejects_non_cycles():
    rep = canonical_complex("filled_triangle")
    x = ChainVector(rep, 1, Real(), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="cycle"):
        simplicial_seminorm(x)
    y = ChainVector(rep, 1, ModN(2), [1, 0, 0])
    with pytest.raises(ValueError, match="cycle"):
        simplicial_seminorm(y)


def kernel_sample(rep, k, rng):
    null = scipy.linalg.null_space(rep.boundary_float(k))
    if null.shape[1] == 0:
        return None
    return ChainVector(rep, k, Real(), null @ rng.standard_normal(null.shape[1]))


def test_real_seminorm_minimizer_is_orthogonal_to_boundaries():
    rng = np.random.default_rng(17)
    found = 0
    for seed in range(12):
        rep = to_chain_complex(random_complex(8, 0.5, 0.6, seed=seed))
        if rep.dim < 2:
            continue
        x = kernel_sample(rep, 1, rng)
        if x is None:
            continue
        found += 1
        value, mini = simplicial_seminorm(x)
        flat = np.asarray(mini.values, dtype=float)
        resid = rep.boundary_float(2).T @ flat
        scale = max(1.0, float(np.max(np.abs(flat))))
        assert np.max(np.abs(resid), initial=0.0) < 1e-10 * scale
        assert value == pytest.approx(np.linalg.norm(flat))
    assert found >= 5


def test_seminorm_homogeneity_and_triangle_inequality():
    rep = canonical_complex("rp2")
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = kernel_sample(rep, 1, rng)
        y = kernel_sample(rep, 1, rng)
        vx, _ = simplicial_seminorm(x)
        vy, _ = simplicial_seminorm(y)
        vxy, _ = simplicial_seminorm(x + y)
        assert vxy <= vx + vy + 1e-10
        c = float(rng.standard_normal())
        from gssc import scale
        vcx, _ = simplicial_seminorm(scale(c, x))
        assert vcx == pytest.approx(abs(c) * vx, abs=1e-10)


def test_integer_seminorm_trivial_or_refused():
    rep = canonical_complex("rp2")
    trivial = ChainVector(rep, 1, Integer(), [0, 0, 2])
    value, _ = simplicial_seminorm(trivial)
    assert value == 0.0
    nontrivial = ChainVector(rep, 1, Integer(), [0, 0, 1])
    with pytest.raises(UnsupportedError, match="out of scope"):
        simplicial_seminorm(nontrivial)
