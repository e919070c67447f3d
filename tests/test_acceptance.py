"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line with the measured margin.  Tolerances here are the
contract; loosening them is a release decision, not a test fix.
"""

import csv
import itertools
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from oracles import component_count, gf2_nullspace, primes_between

from gssc import (ChainVector, HomologySummary, ModN, Real, canonical_complex,
                  courant_fischer_check, eig_sym, hodge_decompose, homology_Z,
                  laplacian, mod_p_rank, numerical_rank, parse_config,
                  random_chain, random_complex, run_experiment,
                  simplicial_seminorm, smith_normal_form, solve_fundamental,
                  to_chain_complex)
from oracles import bareiss_det

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def two_complex_corpus(count=50, max_vertices=12):
    """Seeded random complexes with at least one edge, sizes cycling 4..12."""
    out = []
    seed = 0
    while len(out) < count:
        n = 4 + seed % (max_vertices - 3)
        sc = random_complex(n, 0.5, 0.6, seed=seed)
        seed += 1
        if sc.n_simplexes(1) == 0:
            continue
        out.append(to_chain_complex(sc))
    return out


def connected_graphs(count=20, max_vertices=15):
    out = []
    seed = 0
    while len(out) < count:
        n = 4 + seed % (max_vertices - 3)
        sc = random_complex(n, 0.4, 0.0, seed=seed)
        seed += 1
        if component_count(sc.n_vertices, sc.simplexes(1)) != 1:
            continue
        out.append(to_chain_complex(sc))
    return out


def announce(n, ok, detail):
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_closed_form_equals_projection_split():
    start = time.perf_counter()
    worst = 0.0
    try:
        rng = np.random.default_rng(101)
        corpus = two_complex_corpus(50)
        for rep in corpus:
            x = random_chain(rep, 1, Real(), rng)
            a = solve_fundamental(x, p=2)
            b = hodge_decompose(x)
            scale = max(1.0, float(np.linalg.norm(np.asarray(x.values, dtype=float))))
            for name in ("x0", "x1", "x_neg1"):
                err = float(np.max(np.abs(
                    np.asarray(getattr(a, name).values, dtype=float)
                    - np.asarray(getattr(b, name).values, dtype=float)))) / scale
                worst = max(worst, err)
        elapsed = time.perf_counter() - start
        assert worst < 1e-8
        assert elapsed < 30.0
    except BaseException:
        announce(1, False, f"max relative part error {worst:.2e}")
        raise
    announce(1, True, f"50 complexes, max relative part error {worst:.2e}, "
                      f"{elapsed:.1f}s")


def test_criterion_2_betti_numbers_equal_kernel_dimensions():
    mismatches = []
    checked = 0
    try:
        corpus = two_complex_corpus(50)
        corpus += [canonical_complex("rp2"), canonical_complex("torus")]
        corpus += [canonical_complex(f"cycle({n})") for n in range(3, 11)]
        for rep in corpus:
            for k in (0, 1, 2):
                if k > rep.dim:
                    continue
                betti = homology_Z(rep, k).betti
                n_zero = eig_sym(laplacian(rep, k)).n_zero
                checked += 1
                if betti != n_zero:
                    mismatches.append((rep, k, betti, n_zero))
        assert not mismatches
    except BaseException:
        announce(2, False, f"{len(mismatches)} mismatches in {checked} checks")
        raise
    announce(2, True, f"{checked} degree checks, zero mismatches")


def test_criterion_3_projective_plane_torsion_with_empty_kernel():
    try:
        rep = canonical_complex("rp2")
        assert homology_Z(rep, 1) == HomologySummary(0, [2])
        assert str(homology_Z(rep, 1)) == "Z/2"
        spec = eig_sym(laplacian(rep, 1))
        assert spec.n_zero == 0
        lam_min = float(spec.eigenvalues[0])
        assert lam_min > spec.zero_tol
    except BaseException:
        announce(3, False, "rp2 torsion or spectrum check failed")
        raise
    announce(3, True, f"H_1 = Z/2 and smallest eigenvalue {lam_min:g} > "
                      f"zero_tol {spec.zero_tol:.1e}")


def test_criterion_4_decomposition_invariants_hold_everywhere():
    worst = 0.0
    try:
        rng = np.random.default_rng(104)
        for rep in two_complex_corpus(50):
            for k in range(rep.dim + 1):
                down_i = rep.boundary_matrix(k)
                up_i = rep.boundary_matrix(k + 1)
                # exact composite, zero tolerance
                if down_i.size and up_i.size:
                    assert ((down_i @ up_i) == 0).all()
                down = rep.boundary_float(k)
                up = rep.boundary_float(k + 1)
                null = scipy.linalg.null_space(down) if down.size else np.eye(rep.n_cells(k))
                U0 = eig_sym(laplacian(rep, k)).zero_space()
                q_up = scipy.linalg.orth(up) if up.size else np.zeros((rep.n_cells(k), 0))
                # rank-nullity bookkeeping, exact
                assert (U0.shape[1] + numerical_rank(down)
                        + numerical_rank(up) == rep.n_cells(k))
                for _ in range(10):
                    # images of consecutive maps are orthogonal
                    if up.size and down.size:
                        a = up @ rng.standard_normal(up.shape[1])
                        b = down.T @ rng.standard_normal(down.shape[0])
                        s = max(1.0, np.linalg.norm(a) * np.linalg.norm(b))
                        worst = max(worst, abs(float(a @ b)) / s)
                    # kernel vectors are orthogonal to the row space
                    if null.size and down.size:
                        v = null @ rng.standard_normal(null.shape[1])
                        w = down.T @ rng.standard_normal(down.shape[0])
                        s = max(1.0, np.linalg.norm(v) * np.linalg.norm(w))
                        worst = max(worst, abs(float(v @ w)) / s)
                    # harmonic vectors sit in both kernels
                    if U0.size:
                        u = U0 @ rng.standard_normal(U0.shape[1])
                        s = max(1.0, np.linalg.norm(u))
                        if down.size:
                            worst = max(worst, float(np.max(np.abs(down @ u))) / s)
                        if up.size:
                            worst = max(worst, float(np.max(np.abs(up.T @ u))) / s)
                    # cycles split into boundaries plus harmonics
                    if null.size:
                        v = null @ rng.standard_normal(null.shape[1])
                        recon = U0 @ (U0.T @ v) if U0.size else np.zeros_like(v)
                        if q_up.size:
                            recon = recon + q_up @ (q_up.T @ v)
                        s = max(1.0, float(np.max(np.abs(v))))
                        worst = max(worst, float(np.max(np.abs(recon - v))) / s)
        assert worst <= 1e-10
    except BaseException:
        announce(4, False, f"worst relative residual {worst:.2e}")
        raise
    announce(4, True, f"50 complexes x 10 vectors, worst relative residual "
                      f"{worst:.2e}")


def test_criterion_5_frequency_identity_on_connected_graphs():
    worst = 0.0
    checked = 0
    try:
        for rep in connected_graphs(20, 15):
            for l in range(2, rep.n_cells(0) + 1):
                lhs, rhs, gap = courant_fischer_check(rep, l)
                worst = max(worst, gap)
                checked += 1
        assert worst < 1e-8
    except BaseException:
        announce(5, False, f"worst relative gap {worst:.2e}")
        raise
    announce(5, True, f"{checked} eigenvalue checks on 20 graphs, worst "
                      f"relative gap {worst:.2e}")


def test_criterion_6_vertex_seminorm_is_the_scaled_mean():
    worst_vec = 0.0
    worst_val = 0.0
    try:
        rng = np.random.default_rng(106)
        for rep in connected_graphs(20, 15):
            n0 = rep.n_cells(0)
            x = ChainVector(rep, 0, Real(), rng.standard_normal(n0))
            value, mini = simplicial_seminorm(x, p=2)
            mean = float(np.mean(np.asarray(x.values, dtype=float)))
            worst_vec = max(worst_vec, float(np.max(np.abs(
                np.asarray(mini.values, dtype=float) - mean))))
            expected = abs(mean) * np.sqrt(n0)
            worst_val = max(worst_val,
                            abs(value - expected) / max(1.0, expected))
        assert worst_vec <= 1e-10
        assert worst_val <= 1e-10
    except BaseException:
        announce(6, False, f"minimizer error {worst_vec:.2e}, "
                           f"value error {worst_val:.2e}")
        raise
    announce(6, True, f"20 graphs, minimizer error {worst_vec:.2e}, "
                      f"value error {worst_val:.2e}")


def mod2_cycle_space(rep):
    basis = gf2_nullspace(rep.boundary_matrix(1))
    assert len(basis) <= 10, "test complex has too large a cycle space"
    chains = []
    for bits in itertools.product((0, 1), repeat=len(basis)):
        vec = np.zeros(rep.n_cells(1), dtype=int)
        for b, vecb in zip(bits, basis):
            if b:
                vec = (vec + np.asarray(vecb)) % 2
        chains.append(vec)
    return chains


def mod2_boundary_span(rep):
    span = {0}
    up = rep.boundary_matrix(2)
    for j in range(up.shape[1]):
        mask = 0
        for i in range(up.shape[0]):
            if int(up[i, j]) % 2:
                mask |= 1 << i
        span |= {s ^ mask for s in span}
    return span


def test_criterion_7_mod2_model_equals_the_coset_minimum():
    checked = 0
    try:
        reps = [canonical_complex("rp2")]
        seed = 0
        while len(reps) < 6:
            sc = random_complex(6, 0.7, 0.7, seed=seed)
            seed += 1
            if sc.dim < 2:
                continue
            rep = to_chain_complex(sc)
            if len(gf2_nullspace(rep.boundary_matrix(1))) > 10:
                continue
            reps.append(rep)
        for rep in reps:
            span = mod2_boundary_span(rep)
            for vec in mod2_cycle_space(rep):
                target = 0
                for i, v in enumerate(vec):
                    if v:
                        target |= 1 << i
                brute1 = min((target ^ s).bit_count() for s in span)
                x = ChainVector(rep, 1, ModN(2), vec)
                for p, brute in ((1, float(brute1)), (2, float(np.sqrt(brute1)))):
                    res = solve_fundamental(x, p=p)
                    semi, _ = simplicial_seminorm(x, p=p)
                    assert res.objective == pytest.approx(brute, abs=1e-12)
                    assert semi == pytest.approx(brute, abs=1e-12)
                    checked += 1
    except BaseException:
        announce(7, False, f"coset-minimum mismatch after {checked} chains")
        raise
    announce(7, True, f"{checked} kernel chains across 6 complexes, all "
                      f"objectives equal the exhaustive minimum")


def read_aggregate(path):
    table = {}
    with open(path, newline="") as fh:
        for row in itertools.islice(csv.reader(fh), 1, None):
            method, noise, m, mean, _ = row
            table[(method, noise, int(m))] = float(mean)
    return table


def test_criterion_8_reconstruction_study_properties(tmp_path):
    try:
        start = time.perf_counter()
        out_root = tmp_path
        agg = {}
        for name in ("exact_recovery", "default_samples_sweep",
                     "default_noise_sweep"):
            config = parse_config(CONFIG_DIR / f"{name}.cfg")
            paths = run_experiment(config, out_root / name, jobs=4)
            agg[name] = read_aggregate(paths["aggregate"])
        elapsed = time.perf_counter() - start

        # the same bytes whether cells run one at a time or four at a time
        run_experiment(parse_config(CONFIG_DIR / "default_samples_sweep.cfg"),
                       out_root / "samples_jobs1", jobs=1)
        for name in ("results.csv", "aggregate.csv"):
            assert ((out_root / "samples_jobs1" / name).read_bytes()
                    == (out_root / "default_samples_sweep" / name).read_bytes())

        # (i) noiseless recovery with the full basis is numerically exact
        exact = agg["exact_recovery"][("gssc", "0", 40)]
        assert exact < 1e-6

        samples = agg["default_samples_sweep"]
        counts = (5, 10, 15, 20, 30, 40)
        # (ii) more samples never hurt the full-basis method
        gssc_means = [samples[("gssc", "0.01", m)] for m in counts]
        assert all(a >= b for a, b in zip(gssc_means, gssc_means[1:]))
        # (iii) the correct basis beats its truncation everywhere
        noise = agg["default_noise_sweep"]
        for key in list(samples) + list(noise):
            if key[0] != "gssc":
                continue
            table = samples if key in samples else noise
            assert table[key] <= table[("gssc_sub",) + key[1:]]
        # (iv) with few samples the structured method wins
        assert samples[("gssc_sub", "0.01", 5)] < samples[("krr", "0.01", 5)]
        # (v) with many samples per-edge smoothing wins
        assert samples[("krr", "0.01", 40)] < samples[("gssc_sub", "0.01", 40)]
        assert elapsed < 600.0
    except BaseException:
        announce(8, False, "sweep property violated or over budget")
        raise
    announce(8, True, f"exact recovery {exact:.1e}; monotone in M; full >= "
                      f"sub everywhere; sub beats krr at M=5 "
                      f"({samples[('gssc_sub', '0.01', 5)]:.3f} < "
                      f"{samples[('krr', '0.01', 5)]:.3f}); krr beats sub at "
                      f"M=40 ({samples[('krr', '0.01', 40)]:.4f} < "
                      f"{samples[('gssc_sub', '0.01', 40)]:.4f}); "
                      f"{elapsed:.0f}s")


def test_criterion_9_diagonalization_self_certifies():
    checked = 0
    try:
        rng = np.random.default_rng(109)
        prime_pool = primes_between(101, 499)
        for _ in range(200):
            m = int(rng.integers(1, 13))
            n = int(rng.integers(1, 13))
            B = np.array(rng.integers(-9, 10, size=(m, n)), dtype=object)
            snf = smith_normal_form(B)
            assert snf.verify(B)
            assert abs(bareiss_det(snf.U)) == 1
            assert abs(bareiss_det(snf.V)) == 1
            primes = rng.choice(prime_pool, size=3, replace=False)
            ranks = [mod_p_rank(B, int(p)) for p in primes]
            assert all(r <= snf.rank for r in ranks)
            assert max(ranks) == snf.rank
            checked += 1
    except BaseException:
        announce(9, False, f"failed after {checked} matrices")
        raise
    announce(9, True, f"200 matrices certified exactly, ranks confirmed at "
                      f"3 primes each")
