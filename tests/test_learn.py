"""Decomposition models, synthetic signals, sampling, and reconstruction."""

import re

import numpy as np
import pytest
import scipy.linalg

from gssc import (ChainComplexRep, ChainVector, ConditioningWarning, FormatError, FourierFn,
                  InfeasibleError, Integer, ModN, Real, SampleSet, SynthSpec,
                  UnsupportedError, apply_boundary, canonical_complex, eig_sym,
                  eval_chain_on_grid, evaluation_grid, gf2, hodge_decompose,
                  laplacian, load_samples, random_chain, random_complex,
                  reconstruct_gssc, resolve_complex, rmse_ratio, sample_async,
                  save_samples, simplicial_seminorm, solve_fundamental, solve_smooth,
                  spectral_bases, synthesize, to_chain_complex, zero_chain)


def as_float(chain):
    return np.asarray(chain.values, dtype=float)


def test_fundamental_model_agrees_with_the_orthogonal_split():
    # with p = 2 and unit weights all three parts coincide with the
    # projection decomposition
    rng = np.random.default_rng(0)
    for seed in range(5):
        rep = to_chain_complex(random_complex(8, 0.5, 0.6, seed=seed))
        for k in range(rep.dim + 1):
            x = random_chain(rep, k, Real(), rng)
            a = solve_fundamental(x)
            b = hodge_decompose(x)
            scale = max(1.0, np.linalg.norm(as_float(x)))
            for name in ("x0", "x1", "x_neg1"):
                assert np.max(np.abs(as_float(getattr(a, name))
                                     - as_float(getattr(b, name)))) <= 1e-8 * scale
            assert a.objective == pytest.approx(b.objective, rel=1e-8, abs=1e-10)
            assert a.model == "fundamental"


def test_fundamental_parts_recombine_and_certify():
    rng = np.random.default_rng(1)
    rep = to_chain_complex(random_complex(8, 0.6, 0.7, seed=42))
    x = random_chain(rep, 1, Real(), rng)
    res = solve_fundamental(x)
    recon = as_float(res.x0) + as_float(res.x1) + as_float(res.x_neg1)
    assert np.allclose(recon, as_float(x), atol=1e-10)
    up = rep.boundary_float(2)
    down = rep.boundary_float(1)
    assert np.allclose(up @ as_float(res.y1), as_float(res.x1), atol=1e-8)
    assert np.allclose(down.T @ as_float(res.y_neg1), as_float(res.x_neg1), atol=1e-8)
    # the cycle part really is a cycle
    assert np.max(np.abs(down @ as_float(res.x0))) <= 1e-8


def test_fundamental_of_zero_is_zero():
    rep = canonical_complex("rp2")
    res = solve_fundamental(zero_chain(rep, 1, Real()))
    assert res.objective == pytest.approx(0.0, abs=1e-12)
    for part in res.parts():
        assert np.max(np.abs(as_float(part))) <= 1e-12


def test_fundamental_weights_change_only_the_cycle_gauge():
    # x_neg1 is the unweighted row-space projection no matter the weights;
    # the weighted metric moves only the x0 / x1 split
    rng = np.random.default_rng(2)
    rep = to_chain_complex(random_complex(8, 0.6, 0.7, seed=7))
    x = random_chain(rep, 1, Real(), rng)
    w = rng.uniform(0.5, 2.0, size=len(x.values))
    plain = solve_fundamental(x)
    weighted = solve_fundamental(x, weights=w)
    assert np.allclose(as_float(plain.x_neg1), as_float(weighted.x_neg1), atol=1e-8)
    down = rep.boundary_float(1)
    assert np.max(np.abs(down @ as_float(weighted.x0))) <= 1e-8
    # weighted normal equations: W^2 residual of the x1 fit is orthogonal
    # to the column space of B_2
    up = rep.boundary_float(2)
    resid = (w ** 2) * as_float(weighted.x0)
    assert np.max(np.abs(up.T @ resid)) <= 1e-8


def test_fundamental_p1_real_is_refused():
    rep = canonical_complex("cycle(3)")
    x = ChainVector(rep, 1, Real(), [1.0, 0.0, 0.0])
    with pytest.raises(UnsupportedError, match="p = 2"):
        solve_fundamental(x, p=1)


def test_fundamental_integer_is_refused():
    rep = canonical_complex("cycle(3)")
    x = ChainVector(rep, 1, Integer(), [1, -1, 1])
    with pytest.raises(UnsupportedError, match="out of scope"):
        solve_fundamental(x)
    with pytest.raises(UnsupportedError, match="modulus 2"):
        solve_fundamental(ChainVector(rep, 1, ModN(3), [1, 1, 1]))


def trivial_z2_cycles(spec, k):
    """The zero k-chain and the boundary of the first (k+1)-cell, over Z/2."""
    rep = resolve_complex(spec)
    top = ChainVector(rep, k + 1, ModN(2), [1] + [0] * (rep.n_cells(k + 1) - 1))
    return zero_chain(rep, k, ModN(2)), apply_boundary(top)


@pytest.mark.parametrize("which", [0, 1], ids=["zero", "triangle-boundary"])
@pytest.mark.parametrize("p,weights", [(2, None), (1, None), (1, "positive"), (2, "positive")])
def test_z2_seminorm_answers_trivial_classes_past_the_enumeration_bound(which, p, weights):
    # im B_2 of `default` has rank 84, far past the 2^24 walk
    x = trivial_z2_cycles("default", 1)[which]
    w = None if weights is None else np.linspace(0.5, 2.0, len(x.values))
    value, mini = simplicial_seminorm(x, p=p, weights=w)
    assert value == 0.0 and type(value) is float
    assert mini.system == ModN(2) and mini.degree == 1 and not mini.values.any()


@pytest.mark.parametrize("which", [0, 1], ids=["zero", "triangle-boundary"])
@pytest.mark.parametrize("p,w0", [(1, 0.0), (2, 0.0), (2, 1e-200)])
def test_z2_seminorm_walks_a_trivial_class_when_a_weight_power_is_zero(which, p, w0):
    # 1e-200 squared underflows to 0, so some other element ties the power 0
    x = trivial_z2_cycles("default", 1)[which]
    w = np.ones(len(x.values))
    w[0] = w0
    with pytest.raises(UnsupportedError, match="2\\^84 elements exceeds the 2\\^24 bound"):
        simplicial_seminorm(x, p=p, weights=w)
    if w0:
        assert simplicial_seminorm(x, p=1, weights=w)[0] == 0.0


@pytest.mark.parametrize("spec", ["rp2", "torus", "cycle(7)", "filled_triangle",
                                  "random(8,0.6,0.7,2)"])
def test_z2_seminorm_of_a_boundary_is_the_walks_answer(spec):
    rep = resolve_complex(spec)
    rng = np.random.default_rng(5)
    checked = 0
    for k in range(rep.dim):
        masks = gf2.column_masks(rep.csc(k + 1))
        gens = [masks[j] for j in gf2.independent_columns(masks)]
        for _ in range(4):
            x = apply_boundary(ChainVector(rep, k + 1, ModN(2),
                                           rng.integers(0, 2, rep.n_cells(k + 1))))
            for p in (1, 2):
                for w in (None, rng.uniform(0.5, 2.0, rep.n_cells(k))):
                    power, _, best, _ = gf2._least_in_span(
                        gf2.vector_to_mask(x.values), gens, gf2.weight_powers(w, p))
                    value, mini = simplicial_seminorm(x, p=p, weights=w)
                    assert value == (float(power) if p == 1 else float(np.sqrt(power))) == 0.0
                    assert gf2.vector_to_mask(mini.values) == best == 0
                    checked += 1
    assert checked >= 16


def test_z2_seminorm_of_a_trivial_class_takes_no_walk(monkeypatch):
    # the all-ones 0-chain of cycle(20) bounds; the walk would take 2^19 steps
    rep = resolve_complex("cycle(20)")
    x = ChainVector(rep, 0, ModN(2), [1] * 20)

    def refuse(gens):
        raise AssertionError("the span was walked")
    monkeypatch.setattr(gf2, "gray_iter", refuse)
    value, mini = simplicial_seminorm(x, p=1)
    assert value == 0.0 and not mini.values.any()
    # a zero weight keeps the walk
    with pytest.raises(AssertionError, match="walked"):
        simplicial_seminorm(x, p=1, weights=[0.0] + [1.0] * 19)


def test_mod2_objectives_on_the_projective_plane():
    rep = canonical_complex("rp2")
    for rep_chain, expected in {(0, 0, 0): 0.0, (1, 1, 0): 1.0,
                                (0, 0, 1): 1.0, (1, 1, 1): 0.0}.items():
        x = ChainVector(rep, 1, ModN(2), list(rep_chain))
        res = solve_fundamental(x, p=1)
        assert res.objective == expected
        # parts recombine mod 2 and certificates hold exactly
        total = (as_float(res.x0) + as_float(res.x1) + as_float(res.x_neg1)) % 2
        assert (total == np.asarray(rep_chain, dtype=float)).all()
        up = rep.boundary_matrix(2)
        assert ((up @ res.y1.values) % 2 == res.x1.values).all()


def test_mod2_minimizer_prefers_the_short_representative():
    rep = canonical_complex("rp2")
    res = solve_fundamental(ChainVector(rep, 1, ModN(2), [1, 1, 0]), p=1)
    assert list(res.x0.values) == [0, 0, 1]


def test_mod2_infeasible_when_the_boundary_is_unreachable():
    # both edge columns of this complex share endpoints, so coboundary
    # corrections have even boundary everywhere and an odd boundary is
    # out of reach
    rep = canonical_complex("rp2")
    x = ChainVector(rep, 1, ModN(2), [1, 0, 0])
    with pytest.raises(InfeasibleError):
        solve_fundamental(x, p=1)


def test_mod2_non_cycles_with_reachable_boundary_are_corrected():
    rep = canonical_complex("filled_triangle")
    x = ChainVector(rep, 1, ModN(2), [1, 0, 0])
    res = solve_fundamental(x, p=1)
    down = rep.boundary_matrix(1)
    assert all(v == 0 for v in (down @ res.x0.values) % 2)
    total = (res.x0.values + res.x1.values + res.x_neg1.values) % 2
    assert (total == x.values).all()
    # of the four coboundary corrections only (0,1,1) has the right
    # boundary; the remaining cycle part can then be emptied
    assert list(res.x_neg1.values) == [0, 1, 1]
    assert res.objective == 0.0


def test_smooth_model_keeps_harmonic_signals_untouched():
    rep = canonical_complex("cycle(4)")
    U0 = eig_sym(laplacian(rep, 1)).zero_space()
    x = ChainVector(rep, 1, Real(), U0[:, 0] * 2.0)
    res = solve_smooth(x, eta=1.0)
    assert np.allclose(as_float(res.x0), as_float(x), atol=1e-10)
    assert res.objective == pytest.approx(0.0, abs=1e-12)
    assert res.model == "smooth"


def test_smooth_model_approaches_the_projection_split_for_large_eta():
    rng = np.random.default_rng(3)
    rep = to_chain_complex(random_complex(8, 0.6, 0.7, seed=11))
    x = random_chain(rep, 1, Real(), rng)
    res = solve_smooth(x, eta=1e12)
    ref = hodge_decompose(x)
    scale = max(1.0, np.linalg.norm(as_float(x)))
    for name in ("x0", "x1", "x_neg1"):
        assert np.max(np.abs(as_float(getattr(res, name))
                             - as_float(getattr(ref, name)))) <= 1e-4 * scale


def smooth_oracle(rep, x_vals, eta):
    """Normal equations in orthonormal coordinates for the smooth model."""
    U0 = eig_sym(laplacian(rep, 1)).zero_space()
    Q = scipy.linalg.orth(rep.boundary_float(2)) if rep.boundary_float(2).size \
        else np.zeros((len(x_vals), 0))
    R = scipy.linalg.orth(rep.boundary_float(1).T) if rep.boundary_float(1).size \
        else np.zeros((len(x_vals), 0))
    blocks = [U0, Q, R]
    M = rep.boundary_float(2).T @ Q if Q.size else np.zeros((0, 0))
    N = rep.boundary_float(1) @ R if R.size else np.zeros((0, 0))
    ns = [b.shape[1] for b in blocks]
    H = np.zeros((sum(ns), sum(ns)))
    g = np.zeros(sum(ns))
    offs = np.cumsum([0] + ns)
    for i, bi in enumerate(blocks):
        for j, bj in enumerate(blocks):
            H[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = bi.T @ bj
        g[offs[i]:offs[i + 1]] = bi.T @ x_vals
    if M.size:
        H[offs[1]:offs[2], offs[1]:offs[2]] += (M.T @ M) / eta
    if N.size:
        H[offs[2]:offs[3], offs[2]:offs[3]] += (N.T @ N) / eta
    theta = np.linalg.solve(H, g)
    a0, aq, ar = np.split(theta, [ns[0], ns[0] + ns[1]])
    return U0 @ a0 if ns[0] else np.zeros_like(x_vals), Q @ aq, R @ ar


def test_smooth_model_matches_an_independent_quadratic_solve():
    rng = np.random.default_rng(4)
    for seed in (0, 3, 9):
        rep = to_chain_complex(random_complex(7, 0.6, 0.7, seed=seed))
        if rep.dim < 2:
            continue
        x_vals = rng.standard_normal(rep.n_cells(1))
        for eta in (0.3, 1.0, 7.0):
            want0, want1, want_neg = smooth_oracle(rep, x_vals, eta)
            res = solve_smooth(ChainVector(rep, 1, Real(), x_vals), eta=eta)
            assert np.allclose(as_float(res.x0), want0, atol=1e-8)
            assert np.allclose(as_float(res.x1), want1, atol=1e-8)
            assert np.allclose(as_float(res.x_neg1), want_neg, atol=1e-8)


def test_smooth_objective_is_non_increasing_in_eta():
    rng = np.random.default_rng(5)
    rep = to_chain_complex(random_complex(8, 0.6, 0.7, seed=21))
    x = random_chain(rep, 1, Real(), rng)
    values = [solve_smooth(x, eta=eta).objective for eta in (0.1, 1.0, 10.0, 100.0)]
    assert all(a >= b - 1e-10 for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        solve_smooth(x, eta=0.0)
    with pytest.raises(UnsupportedError):
        solve_smooth(ChainVector(rep, 1, ModN(2), [0] * rep.n_cells(1)))


@pytest.mark.parametrize("bad,shown", [
    ({"n_irr": 2.7}, "n_irr 2.7"),
    ({"n_sol": "3"}, "n_sol '3'"),
    ({"time_order": 2.5}, "time_order 2.5"),
    ({"time_order": float("nan")}, "time_order nan"),
])
def test_synth_spec_refuses_non_integral_counts(bad, shown):
    with pytest.raises(ValueError, match=re.escape(f"{shown} is not an integer")):
        SynthSpec(**bad)
    spec = SynthSpec(n_irr=4.0, n_sol=np.int64(5), time_order=2)
    assert (spec.n_irr, spec.n_sol, spec.time_order) == (4, 5, 2)
    assert type(spec.n_irr) is int and type(spec.n_sol) is int


def test_synthesize_is_seed_deterministic():
    rep = canonical_complex("cycle(3)")
    spec = SynthSpec(n_irr=5, n_sol=5, time_order=3, seed=123)
    a = synthesize(rep, spec)
    b = synthesize(rep, spec)
    assert (np.asarray(a.values) == np.asarray(b.values)).all()
    c = synthesize(rep, SynthSpec(n_irr=5, n_sol=5, time_order=3, seed=124))
    assert np.max(np.abs(np.asarray(a.values) - np.asarray(c.values))) > 1e-3


def test_synthesize_spectral_variance_law():
    # harmonic rows have unit variance, the i-th nonzero-frequency row 1/i
    rep = canonical_complex("cycle(3)")
    bases = spectral_bases(rep, 1, 5, 5)
    assert bases.n_harmonic == 1 and bases.n_irr == 2
    acc0 = []
    acc_irr = [[], []]
    for seed in range(1500):
        f = synthesize(rep, SynthSpec(n_irr=5, n_sol=5, time_order=3, seed=seed))
        coeffs = np.asarray(f.values, dtype=float)
        acc0.extend((bases.U0.T @ coeffs).ravel())
        proj = bases.U_irr.T @ coeffs
        acc_irr[0].extend(proj[0])
        acc_irr[1].extend(proj[1])
    assert np.var(acc0) == pytest.approx(1.0, rel=0.05)
    assert np.var(acc_irr[0]) == pytest.approx(1.0, rel=0.05)
    assert np.var(acc_irr[1]) == pytest.approx(0.5, rel=0.05)


def test_sampling_is_exact_at_sigma_zero():
    rep = canonical_complex("cycle(4)")
    f = synthesize(rep, SynthSpec(n_irr=4, n_sol=4, time_order=2, seed=9))
    samples = sample_async(f, 7, sigma=0.0, seed=5)
    assert samples.t.shape == (4, 7)
    assert np.all((-np.pi <= samples.t) & (samples.t <= np.pi))
    design = f.system.design_matrix(samples.t.ravel())
    exact = np.einsum("et,emt->em", np.asarray(f.values),
                      design.reshape(4, 7, -1))
    assert np.allclose(samples.y, exact, atol=1e-12)
    one = sample_async(f, 1, sigma=0.0, seed=5)
    assert one.samples_per_edge == 1


def test_sampling_noise_has_the_requested_scale():
    rep = canonical_complex("cycle(3)")
    f = synthesize(rep, SynthSpec(n_irr=3, n_sol=3, time_order=2, seed=2))
    clean = sample_async(f, 20000, sigma=0.0, seed=77)
    noisy = sample_async(f, 20000, sigma=0.3, seed=77)
    assert (clean.t == noisy.t).all()
    assert np.std(noisy.y - clean.y) == pytest.approx(0.3, rel=0.05)
    with pytest.raises(ValueError):
        sample_async(f, 0, sigma=0.1, seed=0)
    with pytest.raises(ValueError):
        sample_async(f, 3, sigma=-0.1, seed=0)


def test_samples_csv_round_trip(tmp_path):
    rep = canonical_complex("cycle(4)")
    f = synthesize(rep, SynthSpec(n_irr=4, n_sol=4, time_order=2, seed=3))
    samples = sample_async(f, 5, sigma=0.05, seed=1)
    path = tmp_path / "s.csv"
    save_samples(samples, path)
    loaded = load_samples(path, 4)
    assert np.allclose(loaded.t, samples.t, atol=0)
    assert np.allclose(loaded.y, samples.y, atol=0)

    bad = tmp_path / "bad.csv"
    bad.write_text("edge,time,value\n0,0.0,1.0\n")
    with pytest.raises(FormatError, match="header"):
        load_samples(bad, 4)
    bad.write_text("edge,t,y\n0,0.0,1.0\n0,0.1,1.0\n1,0.0,1.0\n")
    with pytest.raises(FormatError, match="unequal"):
        load_samples(bad, 2)
    for row in ("0,inf,1.0", "0,0.5,nan"):
        bad.write_text(f"edge,t,y\n0,0.0,1.0\n{row}\n1,0.0,1.0\n1,0.1,1.0\n")
        with pytest.raises(FormatError, match="line 3: non-finite"):
            load_samples(bad, 2)


@pytest.mark.parametrize("edge", ["-1", "2", "9"])
def test_load_samples_rejects_edges_outside_the_complex(tmp_path, edge):
    # -1 must not wrap to the last edge: a file missing that edge's rows
    # would then load as complete
    path = tmp_path / "s.csv"
    path.write_text(f"edge,t,y\n0,0.0,1.0\n{edge},0.1,1.0\n")
    with pytest.raises(FormatError, match=f"line 3: edge {edge} outside 0..1"):
        load_samples(path, 2)


def full_bases(rep):
    probe = spectral_bases(rep, 1, n_irr=rep.n_cells(1), n_sol=rep.n_cells(1))
    return probe


def test_reconstruction_recovers_noiseless_signals():
    rep = to_chain_complex(random_complex(9, 0.6, 0.7, seed=6))
    truth = synthesize(rep, SynthSpec(n_irr=40, n_sol=40, time_order=3, seed=4))
    samples = sample_async(truth, 25, sigma=0.0, seed=8)
    bases = full_bases(rep)
    estimate, result = reconstruct_gssc(samples, rep, bases,
                                        time_order=3, eta=1e9)
    assert rmse_ratio(estimate, truth) < 1e-6
    assert result.model == "reconstruct"
    recon = as_float(result.x0) + as_float(result.x1) + as_float(result.x_neg1)
    assert np.allclose(recon, np.asarray(estimate.values, dtype=float), atol=1e-8)


def test_reconstruction_of_silence_is_silent():
    rep = canonical_complex("cycle(4)")
    t = np.linspace(-3.0, 3.0, 8).reshape(1, -1).repeat(4, axis=0)
    from gssc import SampleSet
    samples = SampleSet(t, np.zeros((4, 8)))
    estimate, _ = reconstruct_gssc(samples, rep, full_bases(rep),
                                   time_order=2, eta=1.0)
    assert np.max(np.abs(np.asarray(estimate.values, dtype=float))) <= 1e-8


@pytest.mark.parametrize("name", ["t", "y"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_samples_refuse_non_finite_entries(name, value):
    from gssc import SampleSet
    arrays = {"t": np.linspace(-3.0, 3.0, 32).reshape(4, 8), "y": np.zeros((4, 8))}
    arrays[name][2, 3] = value
    arrays[name][3, 0] = value
    with pytest.raises(ValueError, match=re.escape(f"{name} = {value} at edge 2, sample 3")):
        SampleSet(arrays["t"], arrays["y"])


def test_reconstruction_refuses_a_right_hand_side_that_overflows():
    from gssc import NumericalError, SampleSet
    rep = canonical_complex("cycle(4)")
    t = np.linspace(-3.0, 3.0, 8).reshape(1, -1).repeat(4, axis=0)
    with pytest.raises(NumericalError, match="overflows"), np.errstate(over="ignore",
                                                                       invalid="ignore"):
        reconstruct_gssc(SampleSet(t, np.full((4, 8), 1e308)), rep, full_bases(rep),
                         time_order=2, eta=1.0)


@pytest.mark.parametrize("case,message", [
    ("eta", "eta must be positive"),
    ("sample rows", "4 sample rows for 110 edges"),
    ("basis rows", "basis with 26 rows for 110 edges"),
])
def test_reconstruction_refuses_mismatched_input(case, message):
    from gssc import SampleSet
    rep = resolve_complex("default")
    bases = spectral_bases(rep, 1, 20, 20)
    samples = sample_async(synthesize(rep, SynthSpec(20, 20, 3, seed=0)), 5, 0.01, 1)
    if case == "eta":
        args = (samples, rep, bases, 3, 0.0)
    elif case == "sample rows":
        args = (SampleSet(samples.t[:4], samples.y[:4]), rep, bases)
    else:
        args = (samples, rep, spectral_bases(rep, 0, 20, 20))
    with pytest.raises(ValueError, match=re.escape(message)):
        reconstruct_gssc(*args)


@pytest.mark.parametrize("call,error,message", [
    (lambda rep: SampleSet(np.zeros((4, 3)), np.zeros((4, 2))), ValueError,
     "t and y must be matching (n_edges, M) arrays"),
    (lambda rep: sample_async(zero_chain(rep, 1, Real()), 3, 0.0, 0), UnsupportedError,
     "sampling needs a function-valued chain"),
    (lambda rep: eval_chain_on_grid(zero_chain(rep, 1, Real())), UnsupportedError,
     "grid evaluation needs a function-valued chain"),
    (lambda rep: rmse_ratio(np.zeros((4, 3)), np.ones((4, 2))), ValueError,
     "shape mismatch (4, 3) vs (4, 2)"),
    (lambda rep: solve_fundamental(zero_chain(rep, 1, ModN(2)), p=3), UnsupportedError,
     "only p = 1 and p = 2 are supported"),
    (lambda rep: simplicial_seminorm(zero_chain(rep, 1, Real()), p=1), UnsupportedError,
     "Real seminorm is implemented for p = 2 only"),
    (lambda rep: simplicial_seminorm(zero_chain(rep, 1, ModN(2)), p=3), UnsupportedError,
     "only p = 1 and p = 2 are supported"),
    (lambda rep: simplicial_seminorm(zero_chain(rep, 1, ModN(3))), UnsupportedError,
     "seminorm not defined for ModN(3)"),
    (lambda rep: simplicial_seminorm(zero_chain(rep, 1, FourierFn(2))), UnsupportedError,
     "seminorm not defined for FourierFn(2)"),
], ids=["samples-shape", "sample-real", "grid-real", "rmse-shape", "fundamental-p3",
        "seminorm-real-p1", "seminorm-z2-p3", "seminorm-mod3", "seminorm-fourier"])
def test_signal_calls_that_do_not_fit_are_refused(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(canonical_complex("cycle(4)"))


def test_reconstruction_warns_when_underdetermined():
    rep = canonical_complex("cycle(3)")
    truth = synthesize(rep, SynthSpec(n_irr=3, n_sol=3, time_order=3, seed=1))
    samples = sample_async(truth, 1, sigma=0.0, seed=2)
    with pytest.warns(ConditioningWarning):
        reconstruct_gssc(samples, rep, full_bases(rep), time_order=3, eta=1.0)


def test_sub_basis_fits_cannot_recover_excluded_energy():
    rep = to_chain_complex(random_complex(12, 0.6, 0.7, seed=10))
    bases = full_bases(rep)
    assert bases.n_irr >= 6
    system = FourierFn(2)
    rng = np.random.default_rng(11)
    tail = bases.U_irr[:, bases.n_irr - 3:]
    truth = ChainVector(rep, 1, system, tail @ rng.standard_normal((3, system.n_coeffs)))
    samples = sample_async(truth, 12, sigma=0.0, seed=12)
    sub = bases.sub(bases.n_irr - 3, bases.n_sol)
    estimate, _ = reconstruct_gssc(samples, rep, sub, time_order=2, eta=10.0)
    est_coeffs = np.asarray(estimate.values, dtype=float)
    # nothing the sub-basis spans overlaps the planted tail
    assert np.max(np.abs(tail.T @ est_coeffs)) <= 1e-8
    # so the error energy is at least the planted energy, up to the grid
    # quadrature's condition number
    grid = evaluation_grid()
    psi = system.design_matrix(grid)
    gram_eigs = np.linalg.eigvalsh(psi.T @ psi)
    err = np.sum((eval_chain_on_grid(estimate, grid)
                  - eval_chain_on_grid(truth, grid)) ** 2)
    planted = np.sum(np.asarray(truth.values, dtype=float) ** 2)
    assert err >= gram_eigs[0] * planted * (1 - 1e-8)
    assert rmse_ratio(estimate, truth) >= gram_eigs[0] / gram_eigs[-1] * (1 - 1e-8)


def test_reconstruction_objective_improves_with_a_larger_basis():
    rep = to_chain_complex(random_complex(10, 0.6, 0.7, seed=14))
    bases = full_bases(rep)
    truth = synthesize(rep, SynthSpec(n_irr=10, n_sol=10, time_order=2, seed=5))
    samples = sample_async(truth, 10, sigma=0.05, seed=6)
    _, full_res = reconstruct_gssc(samples, rep, bases, time_order=2, eta=1.0)
    sub = bases.sub(max(bases.n_irr - 4, 0), max(bases.n_sol - 4, 0))
    _, sub_res = reconstruct_gssc(samples, rep, sub, time_order=2, eta=1.0)
    assert full_res.objective <= sub_res.objective + 1e-8


def test_error_ratio_basics():
    rep = canonical_complex("cycle(3)")
    truth = synthesize(rep, SynthSpec(n_irr=3, n_sol=3, time_order=2, seed=7))
    assert rmse_ratio(truth, truth) == pytest.approx(0.0, abs=1e-15)
    zero = ChainVector(rep, 1, truth.system,
                       np.zeros_like(np.asarray(truth.values, dtype=float)))
    assert rmse_ratio(zero, truth) == pytest.approx(1.0)
    from gssc import scale
    assert rmse_ratio(scale(2.0, truth), truth) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="zero"):
        rmse_ratio(truth, zero)
    grid = evaluation_grid(50)
    assert grid.shape == (50,)
    assert grid[0] == pytest.approx(-np.pi) and grid[-1] == pytest.approx(np.pi)


# each model with each system it accepts
MODELS = [(hodge_decompose, Real()), (hodge_decompose, FourierFn(2)),
          (solve_fundamental, Real()), (solve_fundamental, FourierFn(2)),
          (solve_fundamental, ModN(2)), (solve_smooth, Real()), (solve_smooth, FourierFn(2)),
          (simplicial_seminorm, Real()), (simplicial_seminorm, ModN(2)),
          (simplicial_seminorm, Integer())]
MODEL_IDS = [f"{model.__name__}-{system!r}" for model, system in MODELS]


@pytest.mark.parametrize("model,system", MODELS, ids=MODEL_IDS)
@pytest.mark.parametrize("spec", ["cycle(4)", "filled_triangle"])
def test_a_degree_outside_the_complex_is_refused_by_every_model(spec, model, system):
    rep = canonical_complex(spec)
    for k in (-1, rep.dim + 1):
        with pytest.raises(UnsupportedError, match=re.escape(f"degree {k} outside 0..{rep.dim}")):
            model(zero_chain(rep, k, system))


@pytest.mark.parametrize("model,system", MODELS, ids=MODEL_IDS)
def test_a_degree_with_no_cells_splits_into_zero_parts(model, system):
    # C_1 = 0 between a vertex and a 2-cell
    rep = ChainComplexRep((1, 0, 1), [np.zeros((1, 0), dtype=int), np.zeros((0, 1), dtype=int)])
    x = zero_chain(rep, 1, system)
    got = model(x)
    if model is simplicial_seminorm:
        value, mini = got
        assert value == 0.0 and len(mini) == 0
        return
    assert got.objective == 0.0
    for part in got.parts():
        assert part.degree == 1 and part.values.shape == x.values.shape
    for cert, k in ((got.y1, 2), (got.y_neg1, 0)):
        assert cert.degree == k and len(cert) == 1 and not np.any(cert.values)
