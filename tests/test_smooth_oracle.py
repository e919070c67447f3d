"""The smoothers against their dense references.

`solve_smooth` fits one chain x' from the normal system
(W^2 + L_k / eta) x' = W^2 x, solved by one symmetric eigendecomposition,
and returns the Hodge split of x'; `oracles.dense_smooth` stacks
boundary-matrix penalty rows under the data block and solves for the
certificates by one `lstsq`.  `sc_product` filters in the eigenbases of
L_1 and L_t; `oracles.sylvester_product` runs a general Sylvester solve.
In real arithmetic each pair is the same computation.

In floating point the smooth pair are two roundings of one least-squares
problem.  With zero weights and a large eta its normal matrix
U^T W^2 U + diag(lambda / eta) (U the full Hodge eigenbasis) has
condition number kappa up to ~1e8, so parts are compared to 1e-9
relative or 10 kappa eps, whichever is larger.  Zero weights can also
leave harmonic directions unobserved; both solvers return the
minimum-norm answer there, so they are compared as well.  The same
tolerance bounds the scale invariance: the weights c w with eta give
the same parts as the weights w with eta c^2.
"""

import functools

import numpy as np
import pytest

from gssc import (FourierFn, GridEstimate, Real,
                  evaluation_grid, random_chain, resolve_complex, sc_product,
                  solve_smooth, spectral_bases)

from oracles import dense_smooth, sylvester_product

FULL_SPECS = ("default", "rp2", "cycle(6)")
# the size-ladder rungs; one (system, eta, weights) combination per kind
# keeps the 1,386-cell top degree of the larger rung affordable
RUNG_SPECS = ("random(30,0.5,1.0,11)", "random(40,0.5,1.0,11)")
RUNG_COMBOS = (("Real", 1.0, "unit"), ("FourierFn(3)", 30.0, "random"),
               ("FourierFn(3)", 1e6, "zeros"))
SYSTEMS = {"Real": Real(), "FourierFn(3)": FourierFn(3)}
EPS = np.finfo(float).eps


def cases():
    for spec in FULL_SPECS + RUNG_SPECS:
        rep = resolve_complex(spec)
        for k in range(rep.dim + 1):
            combos = (RUNG_COMBOS if spec in RUNG_SPECS else
                      [(s, eta, w) for s in SYSTEMS for eta in (1.0, 30.0, 1e6)
                       for w in ("unit", "random", "zeros")])
            for system, eta, weights in combos:
                yield pytest.param(spec, k, system, eta, weights,
                                   id=f"{spec}-k{k}-{system}-eta{eta:g}-{weights}")


@functools.lru_cache(maxsize=None)
def complex_and_bases(spec, k):
    rep = resolve_complex(spec)
    n = rep.n_cells(k)
    return rep, spectral_bases(rep, k, n, n)


def weight_vector(kind, n, k):
    if kind == "unit":
        return None
    w = np.random.default_rng([k, n]).uniform(0.2, 2.0, n)
    if kind == "zeros":
        w[::3] = 0.0
    return w


def condition(bases, w, eta):
    """Condition number of the normal matrix on its range."""
    WU = (np.ones(len(bases.U0)) if w is None else w)[:, None] * bases.stacked()
    ev = np.linalg.eigvalsh(WU.T @ WU + np.diag(bases.eigenvalues() / eta))
    top = ev[-1] if len(ev) else 1.0
    return top / np.min(ev[ev > 1e-13 * top], initial=top)


def as_matrix(chain):
    vals = np.asarray(chain.values, dtype=float)
    return vals if vals.ndim == 2 else vals[:, None]


@pytest.mark.parametrize("spec,k,system,eta,weights", cases())
def test_solve_smooth_matches_the_stacked_lstsq(spec, k, system, eta, weights):
    rep, bases = complex_and_bases(spec, k)
    x = random_chain(rep, k, SYSTEMS[system], [k, len(spec), 7])
    w = weight_vector(weights, rep.n_cells(k), k)
    got = solve_smooth(x, eta=eta, weights=w)
    want = dense_smooth(x, eta=eta, weights=w)

    kappa = condition(bases, w, eta)
    tol = max(1e-9, 10 * kappa * EPS)
    scale = max(1.0, float(np.linalg.norm(as_matrix(x))))
    for g, r in zip(got.parts(), want.parts()):
        assert np.ndim(g.values) == np.ndim(x.values)
        assert np.max(np.abs(as_matrix(g) - as_matrix(r)), initial=0.0) <= tol * scale
    # the certificates amplify by at most 1/sqrt(lambda_min)
    lam = bases.eigenvalues()
    lam_min = np.min(lam[lam > 0], initial=1.0)
    for g, r in ((got.y1, want.y1), (got.y_neg1, want.y_neg1)):
        assert np.max(np.abs(as_matrix(g) - as_matrix(r)), initial=0.0) <= \
            tol * scale / np.sqrt(lam_min)
    assert got.objective == pytest.approx(want.objective, rel=1e-9, abs=1e-9 * scale ** 2)
    for key in ("data", "roughness"):
        assert got.residuals[key] == pytest.approx(want.residuals[key],
                                                   rel=1e-9, abs=1e-9 * scale ** 2)
    # both certificate identities, directly
    up, down = rep.boundary_float(k + 1), rep.boundary_float(k)
    assert np.allclose(up @ as_matrix(got.y1), as_matrix(got.x1), atol=1e-9 * scale)
    assert np.allclose(down.T @ as_matrix(got.y_neg1), as_matrix(got.x_neg1),
                       atol=1e-9 * scale)


@pytest.mark.parametrize("spec,k,c", [
    pytest.param(spec, k, c, id=f"{spec}-k{k}-c{c:g}")
    for spec in FULL_SPECS for k in range(resolve_complex(spec).dim + 1)
    for c in (1e-2, 1e2)])
def test_solve_smooth_depends_on_weights_only_through_eta_times_their_square(spec, k, c):
    # |cW(x' - x)|^2 + x'^T L x' / eta = c^2 (|W(x' - x)|^2 + x'^T L x' / (eta c^2))
    rep, bases = complex_and_bases(spec, k)
    x = random_chain(rep, k, FourierFn(3), [k, len(spec), 11])
    scale = max(1.0, float(np.linalg.norm(as_matrix(x))))
    eta = 30.0
    for weights in ("unit", "random", "zeros"):
        w = weight_vector(weights, rep.n_cells(k), k)
        w = np.ones(rep.n_cells(k)) if w is None else w
        scaled = solve_smooth(x, eta=eta, weights=c * w)
        plain = solve_smooth(x, eta=eta * c ** 2, weights=w)
        tol = max(1e-9, 10 * condition(bases, w, eta * c ** 2) * EPS)
        for g, r in zip(scaled.parts(), plain.parts()):
            assert np.max(np.abs(as_matrix(g) - as_matrix(r)), initial=0.0) <= tol * scale


@pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (0.05, 0.05), (1.0, 0.0), (0.0, 1.0)])
def test_sc_product_matches_the_sylvester_solve(alpha, beta):
    rep = resolve_complex("default")
    grid = evaluation_grid()
    values = np.random.default_rng(5).standard_normal((rep.n_cells(1), len(grid)))
    got = sc_product(GridEstimate(values, grid), rep, alpha=alpha, beta=beta)
    want = sylvester_product(values, rep, alpha=alpha, beta=beta)
    assert np.array_equal(got.grid, grid)
    assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))
