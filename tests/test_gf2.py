"""Bitmask linear algebra over Z/2 against brute-force enumeration."""

import itertools

import numpy as np
import pytest
from oracles import dense_fundamental_mod2, reference_seminorm_mod2

from gssc import (ChainVector, InfeasibleError, ModN, UnsupportedError,
                  resolve_complex, simplicial_seminorm, solve_fundamental)
from gssc.complexes import _dense_csc
from gssc.gf2 import (_least_in_span, check_enumeration_bound, column_masks,
                      combine, gray_iter, independent_columns, mask_norm_power,
                      mask_to_vector, solution_coset, vector_to_mask,
                      weight_powers)


def test_mask_vector_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        values = rng.integers(0, 2, size=n)
        mask = vector_to_mask(values)
        back = mask_to_vector(mask, n)
        assert [int(v) for v in back] == [int(v) for v in values]
    # reduction mod 2 happens on the way in
    assert vector_to_mask([2, 3, -1]) == 0b110


def test_column_masks_reduce_mod_2():
    mat = np.array([[1, 2], [-3, 4], [0, 5]], dtype=object)
    masks = column_masks(_dense_csc(mat))
    assert masks == [0b011, 0b100]


def test_gray_iter_visits_every_subset_once():
    rng = np.random.default_rng(1)
    gens = [int(rng.integers(0, 1 << 16)) for _ in range(5)]
    seen = {}
    for subset, combo in gray_iter(gens):
        assert subset not in seen
        seen[subset] = combo
    assert len(seen) == 32
    for bits in itertools.product((0, 1), repeat=5):
        subset = sum(b << i for i, b in enumerate(bits))
        want = 0
        for i, b in enumerate(bits):
            if b:
                want ^= gens[i]
        assert seen[subset] == want


def test_gray_iter_with_no_generators():
    assert list(gray_iter([])) == [(0, 0)]


def test_independent_columns_span_everything():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n_rows = int(rng.integers(1, 9))
        n_cols = int(rng.integers(1, 9))
        masks = [vector_to_mask(rng.integers(0, 2, size=n_rows))
                 for _ in range(n_cols)]
        kept = independent_columns(masks)
        span = {0}
        for idx in kept:
            span |= {s ^ masks[idx] for s in span}
        # kept columns are independent: the span has full size
        assert len(span) == 1 << len(kept)
        # and they generate every original column
        assert all(m in span for m in masks)


def test_norms_match_naive_counting():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        values = rng.integers(0, 2, size=n)
        mask = vector_to_mask(values)
        w = rng.uniform(0.5, 2.0, size=n)
        count = int(np.sum(values))
        assert mask_norm_power(mask) == count
        assert isinstance(mask_norm_power(mask), int)
        want1 = float(np.sum(w[values == 1]))
        assert mask_norm_power(mask, weight_powers(w, 1)) == pytest.approx(want1)
        want2 = float(np.sum(w[values == 1] ** 2))
        assert mask_norm_power(mask, weight_powers(w, 2)) == pytest.approx(want2)


def test_enumeration_bound():
    check_enumeration_bound(24, "test")
    with pytest.raises(UnsupportedError, match="2\\^25"):
        check_enumeration_bound(25, "test")


def test_column_masks_of_empty_shapes():
    assert column_masks(_dense_csc(np.zeros((0, 3), dtype=object))) == [0, 0, 0]
    assert column_masks(_dense_csc(np.zeros((3, 0), dtype=object))) == []


def test_solution_coset_is_every_subset_hitting_the_target():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n_rows = int(rng.integers(1, 7))
        n_cols = int(rng.integers(0, 8))
        masks = [vector_to_mask(rng.integers(0, 2, size=n_rows))
                 for _ in range(n_cols)]
        target = vector_to_mask(rng.integers(0, 2, size=n_rows))
        want = {subset for subset in range(1 << n_cols)
                if combine(masks, subset) == target}
        got = solution_coset(masks, target)
        if not want:
            assert got is None
            continue
        a0, kernel = got
        coset = {a0 ^ dz for _, dz in gray_iter(kernel)}
        assert coset == want
        assert len(coset) == 1 << len(kernel)


def test_enumeration_bound_names_coset_and_boundary_bits():
    check_enumeration_bound(20, "test", coset_bits=4)
    with pytest.raises(UnsupportedError,
                       match="2\\^3 coset x 2\\^22 boundary = 2\\^25"):
        check_enumeration_bound(22, "test", coset_bits=3)


def test_least_in_span_with_no_generators_is_the_target():
    assert _least_in_span(0b1011, [], None) == (3, 0, 0b1011, 0)
    powers = weight_powers([0.5, 2.0, 1.0, 3.0], 2)
    assert _least_in_span(0b1011, [], powers) == (13.25, 0, 0b1011, 0)


def test_least_in_span_breaks_ties_by_the_smallest_subset():
    # subsets 0b11 and 0b10 both leave one bit; the Gray walk meets 0b11 first
    gens = [0b1001, 0b0111]
    assert _least_in_span(0b1111, gens, None) == (1, 0b10, 0b1000, 0b0111)
    # weights that favour bit 0 make subset 0b11 the unique minimum
    powers = weight_powers([0.5, 1.0, 1.0, 2.0], 1)
    assert _least_in_span(0b1111, gens, powers) == (0.5, 0b11, 0b0001, 0b1110)


def test_least_in_span_is_the_least_key_over_every_subset():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        gens = [vector_to_mask(rng.integers(0, 2, size=n))
                for _ in range(int(rng.integers(0, 6)))]
        target = vector_to_mask(rng.integers(0, 2, size=n))
        powers = weight_powers(rng.choice([0.5, 1.0, 2.0], size=n), 1)
        for pw in (None, powers):
            want = min((mask_norm_power(target ^ combine(gens, subset), pw), subset)
                       for subset in range(1 << len(gens)))
            power, subset, element, boundary = _least_in_span(target, gens, pw)
            assert (power, subset) == want
            assert boundary == combine(gens, subset)
            assert element == target ^ boundary


@pytest.mark.parametrize("spec", ["rp2", "torus", "cycle(7)"])
def test_z2_references_do_not_call_the_library_walk(monkeypatch, spec):
    rep = resolve_complex(spec)
    want = []
    for k in range(rep.dim + 1):
        x = ChainVector(rep, k, ModN(2), np.ones(rep.n_cells(k), dtype=object))
        try:
            res = solve_fundamental(x, p=1)
        except InfeasibleError:
            continue
        want.append((x, res, simplicial_seminorm(res.x0, p=1)))
    assert want

    def refuse(*args, **kwargs):
        raise AssertionError("gf2.gray_iter called by a reference")
    monkeypatch.setattr("gssc.gf2.gray_iter", refuse)
    for x, res, (value, _) in want:
        ref = dense_fundamental_mod2(x, 1, None)
        for got, lib in zip((ref.x0, ref.x1, ref.x_neg1, ref.y1, ref.y_neg1),
                            (res.x0, res.x1, res.x_neg1, res.y1, res.y_neg1)):
            assert [int(v) for v in got.values] == [int(v) for v in lib.values]
        assert reference_seminorm_mod2(ref.x0, 1)[0] == value
