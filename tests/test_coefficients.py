"""Coefficient systems, chain arithmetic, norms, and chain CSV files."""

import decimal
import itertools
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gssc import (ChainVector, FormatError, FourierFn, Integer, ModN,
                  NumericalError, Real, UnsupportedError, apply_boundary, apply_coboundary,
                  canonical_complex, eval_fn, load_chain, norm_p,
                  random_chain, save_chain, scale, solve_fundamental,
                  zero_chain)

from oracles import values_retry_norm_p

SYSTEMS = [Real(), Integer(), ModN(2), ModN(5), FourierFn(2)]


def chains_equal(a, b, tol=1e-12):
    if a.system.exact:
        return bool(np.all(a.values == b.values))
    return bool(np.max(np.abs(np.asarray(a.values - b.values, dtype=float)),
                       initial=0.0) <= tol)


@pytest.mark.parametrize("system", SYSTEMS, ids=repr)
def test_group_axioms(system):
    rep = canonical_complex("cycle(5)")
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_chain(rep, 1, system, rng)
        b = random_chain(rep, 1, system, rng)
        c = random_chain(rep, 1, system, rng)
        zero = zero_chain(rep, 1, system)
        assert chains_equal(a + b, b + a)
        assert chains_equal((a + b) + c, a + (b + c))
        assert chains_equal(a + zero, a)
        assert chains_equal(a + (-a), zero)


@pytest.mark.parametrize("system", SYSTEMS, ids=repr)
def test_boundary_is_additive(system):
    rep = canonical_complex("rp2")
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = random_chain(rep, 2, system, rng)
        b = random_chain(rep, 2, system, rng)
        assert chains_equal(apply_boundary(a + b),
                            apply_boundary(a) + apply_boundary(b))


def test_mod2_one_plus_one_is_zero():
    rep = canonical_complex("cycle(3)")
    ones = ChainVector(rep, 1, ModN(2), [1, 1, 1])
    assert chains_equal(ones + ones, zero_chain(rep, 1, ModN(2)))


def test_integer_scale_is_repeated_addition():
    rep = canonical_complex("cycle(4)")
    rng = np.random.default_rng(0)
    for system in (Integer(), ModN(5), Real()):
        a = random_chain(rep, 1, system, rng)
        assert chains_equal(scale(3, a), a + a + a)
        assert chains_equal(scale(0, a), zero_chain(rep, 1, system))
        assert chains_equal(scale(-2, a), -(a + a))


def test_fractional_scale_needs_a_field():
    rep = canonical_complex("cycle(3)")
    a = ChainVector(rep, 1, Integer(), [1, 2, 3])
    with pytest.raises(UnsupportedError):
        scale(0.5, a)
    b = ChainVector(rep, 1, Real(), [1.0, 2.0, 3.0])
    assert chains_equal(scale(0.5, b), ChainVector(rep, 1, Real(), [0.5, 1.0, 1.5]))


@pytest.mark.parametrize("system", [Integer(), ModN(5)], ids=repr)
@pytest.mark.parametrize("c", [float("inf"), float("nan")])
def test_non_finite_scale_is_a_non_integer_scalar(system, c):
    a = zero_chain(canonical_complex("cycle(3)"), 1, system)
    with pytest.raises(UnsupportedError, match="non-integer scalar"):
        scale(c, a)


@pytest.mark.parametrize("system,value,shown", [
    (ModN, 2.5, "modulus 2.5"),
    (ModN, "3", "modulus '3'"),
    (FourierFn, 2.7, "order 2.7"),
])
def test_integer_parameters_refuse_non_integral_values(system, value, shown):
    with pytest.raises(ValueError, match=re.escape(f"{shown} is not an integer")):
        system(value)


@pytest.mark.parametrize("call,message", [
    (lambda rep: ModN(1), "modulus must be >= 2"),
    (lambda rep: norm_p(zero_chain(rep, 1, Real()), 2, weights=np.ones((3, 1))),
     "weights must be one-dimensional"),
    (lambda rep: zero_chain(rep, 1, Real()) + zero_chain(canonical_complex("cycle(4)"), 1, Real()),
     "chains live on different complexes"),
    (lambda rep: zero_chain(rep, 1, Real()) - zero_chain(rep, 0, Real()),
     "degrees differ: 1 vs 0"),
    (lambda rep: zero_chain(rep, 1, Real()) + zero_chain(rep, 1, Integer()),
     "coefficient systems differ: Real() vs Integer()"),
], ids=["modulus-1", "weights-2d", "add-complexes", "add-degrees", "add-systems"])
def test_chain_arguments_that_do_not_fit_are_refused(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(canonical_complex("cycle(3)"))


def test_integer_parameters_accept_integral_values_of_any_type():
    assert ModN(3.0).modulus == 3
    assert ModN(np.int64(7)).modulus == 7
    assert FourierFn(2.0).n_coeffs == 5


def test_norm_triangle_inequality_and_homogeneity():
    rep = canonical_complex("cycle(6)")
    rng = np.random.default_rng(5)
    for system in (Real(), FourierFn(3)):
        for p in (1, 2):
            for _ in range(10):
                a = random_chain(rep, 1, system, rng)
                b = random_chain(rep, 1, system, rng)
                lhs = norm_p(a + b, p)
                assert lhs <= norm_p(a, p) + norm_p(b, p) + 1e-12
                c = float(rng.standard_normal())
                assert norm_p(scale(c, a), p) == pytest.approx(abs(c) * norm_p(a, p))


def test_mod2_norm_counts_nonzeros():
    rep = canonical_complex("cycle(4)")
    x = ChainVector(rep, 1, ModN(2), [1, 0, 1, 1])
    assert norm_p(x, 1) == 3.0
    assert norm_p(x, 2) == pytest.approx(np.sqrt(3.0))
    # an odd multiple leaves the support alone, an even one kills it
    assert norm_p(scale(3, x), 1) == 3.0
    assert norm_p(scale(2, x), 1) == 0.0


def test_weighted_norm_value():
    rep = canonical_complex("cycle(3)")
    x = ChainVector(rep, 1, Real(), [1.0, 1.0, 1.0])
    assert norm_p(x, 2, weights=[1.0, 2.0, 3.0]) == pytest.approx(np.sqrt(14.0))
    assert norm_p(x, 1, weights=[1.0, 2.0, 3.0]) == pytest.approx(6.0)


def test_an_overflowing_norm_is_refused_without_a_numpy_warning():
    rep = canonical_complex("cycle(3)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # squares up to 3e306 still sum to a finite value
        assert norm_p(ChainVector(rep, 1, Real(), [1e153, -1e153, 1e153]), 2) == \
            float(np.sqrt(3e306))
        assert norm_p(ChainVector(rep, 1, Integer(), [10**200, 0, 0]), 1) == 1e200
        # a cell of weight 0 adds nothing, however far beyond float range it is
        w = [0, 1, 1]
        assert norm_p(ChainVector(rep, 0, Integer(), [10**400, 0, 0]), 1, weights=w) == 0.0
        assert norm_p(ChainVector(rep, 0, Real(), [1e200, 1, 1]), 2, weights=w) == np.sqrt(2)
        fourier = np.ones((3, 3))
        fourier[0] = 1e200
        assert norm_p(ChainVector(rep, 1, FourierFn(1), fourier), 2, weights=w) == np.sqrt(6)
        # finite 2-norms whose squares overflow: taken on the values over their largest
        assert norm_p(ChainVector(rep, 0, Real(), [1e308, -1e308, 1e308]), 2) == \
            1e308 * float(np.sqrt(3))
        assert norm_p(ChainVector(rep, 1, FourierFn(1), np.full((3, 3), 1e200)), 2) == \
            pytest.approx(3e200, rel=1e-15)
        assert norm_p(ChainVector(rep, 0, Integer(), [10**200, 0, 0]), 2) == 1e200
        for x, p in ((ChainVector(rep, 0, Real(), [1e308, -1e308, 1e308]), 1),
                     # a 2-norm of 2e308 is past the float maximum
                     (ChainVector(canonical_complex("cycle(4)"), 0, Real(), [1e308] * 4), 2),
                     # beyond float range: float() itself overflows
                     (ChainVector(rep, 0, Integer(), [10**400, 0, 0]), 1),
                     (ChainVector(rep, 0, Integer(), [-10**400, 0, 0]), 2)):
            with pytest.raises(NumericalError, match=f"weighted {p}-norm of a "
                               f"{x.degree}-chain overflows"):
                norm_p(x, p)


def decimal_norm(x, weights):
    """The weighted 2-norm of a Real or FourierFn chain in 60-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        rows = np.asarray(x.values, dtype=float).reshape(len(x.values), -1)
        total = sum(decimal.Decimal(w) ** 2 * sum(decimal.Decimal(v) ** 2 for v in row)
                    for w, row in zip(weights, rows.tolist()))
        return float(total.sqrt())


def test_a_norm_whose_weights_overflow_its_squares_is_answered():
    rep = canonical_complex("cycle(3)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ones = ChainVector(rep, 1, Real(), [1, 1, 1])
        assert norm_p(ones, 2, weights=[1e200] * 3) == pytest.approx(1e200 * np.sqrt(3),
                                                                      rel=1e-15)
        big = ChainVector(rep, 1, Real(), [1e200] * 3)
        assert norm_p(big, 2, weights=[1e100] * 3) == pytest.approx(1e300 * np.sqrt(3),
                                                                    rel=1e-15)
        # the largest weight and the largest value on different cells
        apart = ChainVector(rep, 1, Real(), [1e10, 0.0, 1e-100])
        assert norm_p(apart, 2, weights=[1, 1, 1e300]) == pytest.approx(1e200, rel=1e-15)
        with pytest.raises(NumericalError, match="weighted 2-norm of a 1-chain overflows"):
            norm_p(big, 2, weights=[1e200] * 3)


def test_every_norm_the_values_retry_answers_keeps_its_bits():
    rep = canonical_complex("cycle(3)")
    scales = (0.5, 1.0, 1e100, 1e153, 1e155, 1e200, 1e300)
    answered = 0
    for v, w in itertools.product(itertools.product(scales, repeat=2), repeat=2):
        weights = [w[0], w[1], 1.0]
        for x in (ChainVector(rep, 1, Real(), [v[0], -v[1], 1.0]),
                  ChainVector(rep, 1, FourierFn(1), np.outer([v[0], v[1], 1.0], [1, -1, 1]))):
            for p in (1, 2):
                want = values_retry_norm_p(x, p, weights)
                try:
                    got = norm_p(x, p, weights)
                except NumericalError:
                    assert want is None
                    assert p == 1 or decimal_norm(x, weights) > np.finfo(float).max
                    continue
                if want is None:  # answered by the weights' retry
                    assert p == 2 and got == pytest.approx(decimal_norm(x, weights), rel=1e-15)
                else:
                    answered += 1
                    assert got == want
    assert answered > 100


def test_negative_weights_are_rejected():
    rep = canonical_complex("cycle(3)")
    x = ChainVector(rep, 1, Real(), [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        norm_p(x, 2, weights=[1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        norm_p(x, 2, weights=[1.0, 1.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            norm_p(x, 2, weights=[1.0, bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            solve_fundamental(x, weights=[1.0, bad, 1.0])


def test_unsupported_p_is_named():
    rep = canonical_complex("cycle(3)")
    x = zero_chain(rep, 1, Real())
    with pytest.raises(UnsupportedError, match="p = 1 and p = 2"):
        norm_p(x, 3)


def test_fourier_basis_is_orthonormal_by_quadrature():
    system = FourierFn(3)
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal(system.n_coeffs)
    ts = np.linspace(-np.pi, np.pi, 20001)
    values = eval_fn(system, coeffs, ts)
    integral = np.trapezoid(values ** 2, ts)
    assert integral == pytest.approx(float(coeffs @ coeffs), rel=1e-6)


def test_eval_fn_closed_forms():
    system = FourierFn(2)
    const = np.zeros(system.n_coeffs)
    const[0] = 1.0
    assert eval_fn(system, const, 0.3) == pytest.approx(1.0 / np.sqrt(2 * np.pi))
    sin1 = np.zeros(system.n_coeffs)
    sin1[1] = 1.0
    assert eval_fn(system, sin1, np.pi / 2) == pytest.approx(1.0 / np.sqrt(np.pi))
    # the same formula applies outside [-pi, pi]
    assert eval_fn(system, sin1, 10.0) == pytest.approx(np.sin(10.0) / np.sqrt(np.pi))
    with pytest.raises(UnsupportedError):
        eval_fn(Real(), np.array([1.0]), 0.0)


def test_fourier_norm_matches_function_norm():
    system = FourierFn(3)
    rep = canonical_complex("cycle(3)")
    coeffs = np.zeros((3, system.n_coeffs))
    coeffs[0, 1] = 1.0  # sin(t)/sqrt(pi) on the first edge only
    x = ChainVector(rep, 1, system, coeffs)
    assert norm_p(x, 2) == pytest.approx(1.0)


def test_rp2_mod2_boundary_of_both_triangles_vanishes():
    rep = canonical_complex("rp2")
    x = ChainVector(rep, 2, ModN(2), [1, 1])
    assert (apply_boundary(x).values == 0).all()
    one = ChainVector(rep, 2, ModN(2), [1, 0])
    assert (apply_boundary(one).values == np.array([1, 1, 1], dtype=object)).all()


def test_coboundary_of_a_vertex_indicator():
    rep = canonical_complex("cycle(3)")
    delta = ChainVector(rep, 0, Integer(), [1, 0, 0])
    up = apply_coboundary(delta)
    assert up.degree == 1
    assert list(up.values) == [-1, -1, 0]


def test_coboundary_boundary_adjointness():
    # <Bx, y> = <x, B^T y> for real chains, over random complexes
    from gssc import random_complex, to_chain_complex
    rng = np.random.default_rng(9)
    for seed in range(5):
        rep = to_chain_complex(random_complex(7, 0.6, 0.7, seed=seed))
        for k in range(1, rep.dim + 1):
            x = random_chain(rep, k, Real(), rng)
            y = random_chain(rep, k - 1, Real(), rng)
            lhs = float(apply_boundary(x).values @ y.values)
            rhs = float(x.values @ apply_coboundary(y).values)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_boundary_off_the_end_is_zero():
    rep = canonical_complex("filled_triangle")
    top = ChainVector(rep, 2, Real(), [1.0])
    assert (apply_coboundary(top).values == 0).all()
    bottom = ChainVector(rep, 0, Real(), [1.0, 2.0, 3.0])
    assert (apply_boundary(bottom).values == 0).all()


def test_scalar_chain_csv_round_trip(tmp_path):
    rep = canonical_complex("cycle(4)")
    rng = np.random.default_rng(2)
    for system in (Real(), Integer(), ModN(5)):
        x = random_chain(rep, 1, system, rng)
        path = tmp_path / "x.csv"
        save_chain(x, path)
        y = load_chain(path, rep, 1, system)
        assert chains_equal(x, y)


def test_fourier_chain_csv_round_trip(tmp_path):
    rep = canonical_complex("cycle(4)")
    x = random_chain(rep, 1, FourierFn(3), np.random.default_rng(4))
    path = tmp_path / "f.csv"
    save_chain(x, path)
    y = load_chain(path, rep, 1, FourierFn(3))
    assert chains_equal(x, y)
    with pytest.raises(FormatError, match="header"):
        load_chain(path, rep, 1, FourierFn(2))


@pytest.mark.parametrize("rows", ["", "0,1\n"], ids=["header-only", "one-row"])
def test_a_chain_file_at_a_degree_outside_the_complex_is_refused(tmp_path, rows):
    path = tmp_path / "x.csv"
    path.write_text("cell,value\n" + rows)
    rep = canonical_complex("cycle(4)")
    for k in (-1, 2, 5):
        for system in (Real(), ModN(2), Integer()):
            with pytest.raises(UnsupportedError, match=f"degree {k} outside 0..1"):
                load_chain(path, rep, k, system)


def test_chain_csv_errors_carry_line_numbers(tmp_path):
    rep = canonical_complex("cycle(3)")
    path = tmp_path / "bad.csv"
    path.write_text("cell,value\n0,1.0\nx,2.0\n")
    with pytest.raises(FormatError, match="line 3"):
        load_chain(path, rep, 1, Real())
    path.write_text("cell,value\n0,1.0\n0,2.0\n")
    with pytest.raises(FormatError, match="duplicate"):
        load_chain(path, rep, 1, Real())
    path.write_text("cell,value\n0,1.0\n1,2.0\n")
    with pytest.raises(FormatError, match="missing"):
        load_chain(path, rep, 1, Real())
    path.write_text("cell,value\n0,1.0\n1,2.0\n7,3.0\n")
    with pytest.raises(FormatError, match="out of range"):
        load_chain(path, rep, 1, Real())
    for value in ("nan", "inf", "-inf"):
        path.write_text(f"cell,value\n0,1.0\n1,{value}\n2,3.0\n")
        with pytest.raises(FormatError, match="line 3: non-finite"):
            load_chain(path, rep, 1, Real())
    path.write_text("edge,c0,c1,c2\n0,1,0,0\n1,0,nan,0\n2,0,0,1\n")
    with pytest.raises(FormatError, match="line 3: non-finite"):
        load_chain(path, rep, 1, FourierFn(1))


def test_integer_system_rejects_fractions():
    rep = canonical_complex("cycle(3)")
    with pytest.raises(ValueError):
        ChainVector(rep, 1, Integer(), [1.0, 2.5, 3.0])


def test_exact_systems_refuse_non_integral_values():
    rep = canonical_complex("cycle(3)")
    cases = [(ModN(2), [0.5, 1.0, 2.7], "0.5"),
             (ModN(5), [1, 2.5, 0], "2.5"),
             (ModN(5), [float("inf"), 0, 0], "inf"),
             (ModN(3), [float("nan"), 0, 0], "nan"),
             (Integer(), [Fraction(5, 2), 0, 0], "Fraction"),
             (Integer(), ["7", 0, 0], "'7'"),
             (Integer(), [float("-inf"), 0, 0], "-inf")]
    for system, values, shown in cases:
        with pytest.raises(ValueError, match=re.escape(shown)) as err:
            ChainVector(rep, 1, system, values)
        assert repr(system) in str(err.value)
    # integral values of any type are read exactly, then reduced
    exact = [4.0, np.int64(-1), Fraction(10, 2)]
    assert list(ChainVector(rep, 1, ModN(3), exact).values) == [1, 2, 2]
    assert list(ChainVector(rep, 1, Integer(), exact).values) == [4, -1, 5]
