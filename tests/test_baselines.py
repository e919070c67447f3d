"""Kernel ridge regression per edge and the joint space-time smoother."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest

from gssc import (GridEstimate, KrrConfig, NumericalError,
                  SynthSpec, canonical_complex, evaluation_grid,
                  krr_fit_eval, krr_grid, laplacian, rbf_kernel,
                  resolve_complex, sample_async, sc_product, synthesize)

from oracles import batched_krr_fit_eval, dense_sc_product
from test_acceptance import two_complex_corpus


def test_config_validation():
    with pytest.raises(ValueError):
        KrrConfig(lengthscale=0.0)
    with pytest.raises(ValueError):
        KrrConfig(ridge=-1.0)
    for bad in ({"lengthscale": float("nan")}, {"ridge": float("nan")}):
        with pytest.raises(ValueError):
            KrrConfig(**bad)
    assert KrrConfig().ridge == pytest.approx(1e-2)


@pytest.mark.parametrize("name", ["lengthscale", "ridge"])
def test_config_refuses_infinite_hyperparameters(name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        KrrConfig(**{name: float("inf")})


def test_kernel_matrix_values():
    K = rbf_kernel([0.0, 1.0], [0.0, 1.0], lengthscale=1.0)
    assert K[0, 0] == pytest.approx(1.0)
    assert K[0, 1] == pytest.approx(np.exp(-0.5))
    wide = rbf_kernel([0.0], [3.0], lengthscale=100.0)
    assert wide[0, 0] == pytest.approx(1.0, rel=1e-3)


def test_single_sample_interpolates_without_ridge():
    pred = krr_fit_eval([0.5], [2.0], KrrConfig(ridge=0.0), [0.5])
    assert pred[0] == pytest.approx(2.0)


def test_constant_samples_predict_the_constant():
    t = np.linspace(-3, 3, 30)
    y = np.full(30, 4.2)
    pred = krr_fit_eval(t, y, KrrConfig(lengthscale=1.0, ridge=1e-8), t)
    assert np.allclose(pred, 4.2, atol=1e-6)


def test_dense_samples_recover_a_smooth_curve():
    t = np.linspace(-np.pi, np.pi, 40)
    y = np.sin(t)
    pred = krr_fit_eval(t, y, KrrConfig(lengthscale=1.0, ridge=1e-6), t)
    assert np.max(np.abs(pred - y)) < 1e-2


def test_duplicate_instants_without_ridge_fail_loudly():
    with pytest.raises(NumericalError, match="ridge"):
        krr_fit_eval([1.0, 1.0], [0.0, 1.0], KrrConfig(ridge=0.0), [1.0])


def random_edges(n, m, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-np.pi, np.pi, (n, m)), rng.standard_normal((n, m))


# every (edges, samples, evaluation points) whose one-batch oracle holds at
# most 2^23 doubles in one kernel; at M = 700 one edge is over the budget
KRR_SHAPES = [(n, m, g) for n, m, g in itertools.product((1, 7, 110, 333), (1, 5, 40, 700),
                                                         (1, 100, 1000))
              if n * m * max(m, g) <= 1 << 23]


@pytest.mark.parametrize("n,m,g", KRR_SHAPES)
def test_blocked_fit_is_bit_equal_to_one_batch(n, m, g):
    t, y = random_edges(n, m)
    points = np.linspace(-np.pi, np.pi, g)
    for config in (KrrConfig(1.0, 1e-2), KrrConfig(0.3, 0.5)):
        got = krr_fit_eval(t, y, config, points)
        want = batched_krr_fit_eval(t, y, config, points)
        assert got.shape == want.shape == (n, g)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("m,g", itertools.product((1, 5, 40, 700), (1, 100, 1000)))
def test_one_edge_fit_is_bit_equal_to_one_batch(m, g):
    t, y = random_edges(1, m)
    points = np.linspace(-np.pi, np.pi, g)
    got = krr_fit_eval(t[0], y[0], KrrConfig(), points)
    want = batched_krr_fit_eval(t[0], y[0], KrrConfig(), points)
    assert got.shape == want.shape == (g,)
    assert np.array_equal(got, want)
    assert np.array_equal(got, krr_fit_eval(t, y, KrrConfig(), points)[0])


@pytest.mark.parametrize("n,m,blocks", [(110, 5, 1), (110, 40, 7), (7, 700, 7), (333, 1, 1)])
def test_blocks_keep_the_evaluation_kernel_within_the_budget(monkeypatch, n, m, blocks):
    # 65,536 doubles per (b, 100, M) kernel: 16 edges at M = 40, one at M = 700
    shapes = []
    real = np.linalg.solve

    def counted(a, b):
        shapes.append(a.shape)
        return real(a, b)
    monkeypatch.setattr(np.linalg, "solve", counted)
    t, y = random_edges(n, m)
    krr_fit_eval(t, y, KrrConfig(), evaluation_grid())
    assert len(shapes) == blocks
    assert sum(s[0] for s in shapes) == n
    assert all(s[0] * 100 * m <= 1 << 16 or s[0] == 1 for s in shapes)


def test_a_singular_kernel_in_a_middle_block_fails_loudly():
    # 1,000 points and M = 5 make blocks of 13 edges; edge 20 is in the second of four
    t, y = random_edges(40, 5)
    points = np.linspace(-np.pi, np.pi, 1000)
    config = KrrConfig(ridge=0.0)
    assert np.array_equal(krr_fit_eval(t, y, config, points),
                          batched_krr_fit_eval(t, y, config, points))
    t[20, 3] = t[20, 1]
    with pytest.raises(NumericalError, match="ridge"):
        krr_fit_eval(t, y, config, points)


@pytest.mark.parametrize("t_shape,y_shape,points,message", [
    *[(t, y, [0.0, 1.0], f"t {t} and y {y}") for t, y in [
        ((4, 5), (5,)), ((5,), (4, 5)), ((4, 5), (4, 6)), ((4, 5), (5, 4)),
        ((2, 3, 4), (2, 3, 4)), ((), ())]],
    ((3, 3), (3, 3), np.zeros((3, 2)), "eval_points must be a 1-D array, got shape (3, 2)"),
    ((3,), (3,), 0.5, "eval_points must be a 1-D array, got shape ()"),
    ((3, 3), (3, 3), [0.0, np.nan, 1.0], "eval_points[1] = nan is not finite"),
    ((3, 3), (3, 3), [0.0, 1.0, -np.inf], "eval_points[2] = -inf is not finite"),
    ((3, 0), (3, 0), [0.0, 1.0], "need at least one sample"),
    # a list in place of a shape is the array itself
    ([0.0, np.nan], (2,), [0.0, 1.0], "t = nan at edge 0, sample 1 is not finite"),
    ([[0.0, 1.0, 2.0], [0.0, 1.0, np.nan]], (2, 3), [0.0],
     "t = nan at edge 1, sample 2 is not finite"),
    ((2, 3), [[1.0, 1.0, 1.0], [1.0, np.inf, 1.0]], [0.0],
     "y = inf at edge 1, sample 1 is not finite"),
])
def test_fit_refuses_mismatched_shapes(t_shape, y_shape, points, message):
    t = np.zeros(t_shape) if isinstance(t_shape, tuple) else np.array(t_shape)
    y = np.ones(y_shape) if isinstance(y_shape, tuple) else np.array(y_shape)
    with pytest.raises(ValueError, match=re.escape(message)):
        krr_fit_eval(t, y, KrrConfig(), points)


def test_fit_at_sweep_size_holds_no_whole_kernel():
    # one batch of 110 edges at M = 40 peaks at 4.86 MB, 3.5 MB of it the
    # (110, 100, 40) evaluation kernel
    t, y = random_edges(110, 40)
    grid = evaluation_grid()
    tracemalloc.start()
    try:
        krr_fit_eval(t, y, KrrConfig(), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_training_residual_shrinks_with_the_ridge():
    rng = np.random.default_rng(0)
    t = np.sort(rng.uniform(-3, 3, 25))
    y = np.sin(t) + 0.1 * rng.standard_normal(25)
    resid = [float(np.sum((krr_fit_eval(t, y, KrrConfig(ridge=r), t) - y) ** 2))
             for r in (1.0, 1e-1, 1e-2, 1e-4)]
    assert all(a >= b - 1e-12 for a, b in zip(resid, resid[1:]))


def test_grid_fit_runs_per_edge():
    rep = canonical_complex("cycle(4)")
    truth = synthesize(rep, SynthSpec(n_irr=4, n_sol=4, time_order=2, seed=0))
    samples = sample_async(truth, 30, sigma=0.0, seed=1)
    est = krr_grid(samples, KrrConfig(lengthscale=1.0, ridge=1e-6))
    assert est.n_edges == 4
    assert est.values.shape == (4, 100)
    # independent of every other edge: refitting a single edge agrees
    single = krr_fit_eval(samples.t[2], samples.y[2],
                          KrrConfig(lengthscale=1.0, ridge=1e-6), est.grid)
    assert np.allclose(est.values[2], single, atol=0)


def test_product_smoother_identity_at_zero_strength():
    rep = canonical_complex("cycle(4)")
    rng = np.random.default_rng(2)
    grid0 = GridEstimate(rng.standard_normal((4, 12)), np.linspace(-3, 3, 12))
    out = sc_product(grid0, rep, alpha=0.0, beta=0.0)
    assert np.allclose(out.values, grid0.values, atol=1e-12)
    for bad in ({"alpha": -0.1}, {"alpha": float("nan")}, {"beta": float("nan")}):
        with pytest.raises(ValueError):
            sc_product(grid0, rep, **bad)


@pytest.mark.parametrize("name", ["alpha", "beta"])
def test_product_smoother_refuses_infinite_strengths(name):
    rep = canonical_complex("cycle(4)")
    grid0 = GridEstimate(np.ones((4, 12)), np.linspace(-3, 3, 12))
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        sc_product(grid0, rep, **{name: float("inf")})


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_grid_estimate_refuses_non_finite_values(bad):
    values = np.ones((4, 12))
    values[2, 7] = bad
    message = f"values = {bad} at edge 2, grid point 7 is not finite"
    with pytest.raises(ValueError, match=re.escape(message)):
        GridEstimate(values, np.linspace(-3, 3, 12))


def test_product_smoother_refuses_a_grid_of_another_complex():
    grid0 = GridEstimate(np.ones((3, 12)), np.linspace(-3, 3, 12))
    with pytest.raises(ValueError, match="3 grid rows for 4 edges"):
        sc_product(grid0, canonical_complex("cycle(4)"))


def test_product_smoother_fixes_harmonic_constant_signals():
    # a harmonic edge vector times a constant-in-time profile is a fixed
    # point: L_1 kills the space factor and L_t the time factor
    rep = canonical_complex("cycle(4)")
    L1 = laplacian(rep, 1)
    eigvals, eigvecs = np.linalg.eigh(L1)
    h = eigvecs[:, 0]
    assert abs(eigvals[0]) < 1e-12
    grid0 = GridEstimate(np.outer(h, np.ones(15)), np.linspace(-3, 3, 15))
    out = sc_product(grid0, rep, alpha=0.7, beta=1.3)
    assert np.allclose(out.values, grid0.values, atol=1e-10)


def test_product_smoother_matches_a_kron_solve():
    rep = canonical_complex("cycle(3)")
    rng = np.random.default_rng(3)
    n_t = 6
    grid0 = GridEstimate(rng.standard_normal((3, n_t)), np.linspace(-1, 1, n_t))
    alpha, beta = 0.4, 0.9
    out = sc_product(grid0, rep, alpha=alpha, beta=beta)

    L1 = laplacian(rep, 1)
    ones = np.zeros((n_t - 1, n_t))
    ones[np.arange(n_t - 1), np.arange(n_t - 1)] = -1.0
    ones[np.arange(n_t - 1), np.arange(1, n_t)] = 1.0
    Lt = ones.T @ ones
    A_big = np.kron(np.eye(n_t), np.eye(3) + alpha * L1) + beta * np.kron(Lt.T, np.eye(3))
    z = np.linalg.solve(A_big, grid0.values.ravel(order="F"))
    assert np.allclose(out.values, z.reshape((3, n_t), order="F"), atol=1e-10)


def test_product_smoother_repeats_bit_for_bit_without_another_eigh(monkeypatch):
    calls = []
    real = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    rep = canonical_complex("cycle(4)")
    rng = np.random.default_rng(6)
    grid0 = GridEstimate(rng.standard_normal((4, 7)), np.linspace(-1, 1, 7))
    first = sc_product(grid0, rep, 0.3, 0.7)
    assert calls  # the first call factors the Grams of cycle(4)
    calls.clear()
    again = sc_product(grid0, rep, 0.3, 0.7)
    sc_product(GridEstimate(rng.standard_normal((4, 7)), grid0.grid), rep, 0.1, 0.2)
    assert calls == []
    assert again.values.tobytes() == first.values.tobytes()


def product_cases():
    for spec in ("default", "cycle(3)", "cycle(4)", "path(5)"):
        yield pytest.param(resolve_complex(spec), id=spec)
    for i, rep in enumerate(two_complex_corpus()):
        yield pytest.param(rep, id=f"corpus{i}")


@pytest.mark.parametrize("rep", product_cases())
def test_product_smoother_matches_the_dense_eigh_oracle(rep):
    grid = evaluation_grid(30)
    rng = np.random.default_rng(rep.dims)
    values = rng.standard_normal((rep.n_cells(1), len(grid)))
    for alpha, beta in ((0.05, 0.05), (1.0, 0.0), (0.0, 2.0), (0.7, 1.3)):
        got = sc_product(GridEstimate(values, grid), rep, alpha, beta).values
        want = dense_sc_product(values, rep, alpha, beta)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_product_smoother_lowers_its_own_objective():
    rep = canonical_complex("cycle(4)")
    rng = np.random.default_rng(4)
    grid0 = GridEstimate(rng.standard_normal((4, 10)), np.linspace(-2, 2, 10))
    alpha, beta = 0.5, 0.5
    out = sc_product(grid0, rep, alpha=alpha, beta=beta)
    L1 = laplacian(rep, 1)
    ones = np.zeros((9, 10))
    ones[np.arange(9), np.arange(9)] = -1.0
    ones[np.arange(9), np.arange(1, 10)] = 1.0
    Lt = ones.T @ ones

    def objective(Z):
        return (np.sum((Z - grid0.values) ** 2)
                + alpha * np.trace(Z.T @ L1 @ Z)
                + beta * np.trace(Z @ Lt @ Z.T))

    assert objective(out.values) <= objective(grid0.values) + 1e-10
    # and a first-order stationarity check of the quadratic
    grad = 2 * (out.values - grid0.values) + 2 * alpha * L1 @ out.values \
        + 2 * beta * out.values @ Lt
    assert np.max(np.abs(grad)) <= 1e-8


def test_grid_estimate_shape_check():
    with pytest.raises(ValueError):
        GridEstimate(np.zeros((2, 5)), np.linspace(0, 1, 4))
    assert evaluation_grid().shape == (100,)
