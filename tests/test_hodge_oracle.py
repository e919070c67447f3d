"""The Hodge projection kernel against the orthonormal-basis oracle.

`hodge_decompose` and the real `solve_fundamental(p=2)` both run through
one projection-and-certificate kernel, so comparing them with each other
checks nothing; here each is compared with `oracles.orthonormal_hodge_split`,
which projects with separate SVD bases and solves its own certificates.
"""

import numpy as np
import pytest

from gssc import (FourierFn, Real, canonical_complex, hodge_decompose,
                  random_chain, resolve_complex, solve_fundamental)

from oracles import orthonormal_hodge_split

SPECS = ("rp2", "torus", "cycle(3)", "cycle(7)", "default",
         "random(9,0.5,0.6,1)", "random(12,0.6,0.8,4)")
PART_TOL = 1e-10
ORTH_TOL = 1e-12


def cases():
    for spec in SPECS:
        rep = resolve_complex(spec)
        for k in range(rep.dim + 1):
            for system in (Real(), FourierFn(3)):
                yield pytest.param(spec, k, system, id=f"{spec}-k{k}-{system!r}")


@pytest.mark.parametrize("spec,k,system", cases())
@pytest.mark.parametrize("split", ["hodge_decompose", "solve_fundamental"])
def test_split_matches_orthonormal_oracle(spec, k, system, split):
    rep = resolve_complex(spec)
    x = random_chain(rep, k, system, [k, len(spec)])
    result = hodge_decompose(x) if split == "hodge_decompose" else solve_fundamental(x, p=2)
    down, up = rep.boundary_float(k), rep.boundary_float(k + 1)
    x0, x1, x_neg1, y1, y_neg1 = orthonormal_hodge_split(down, up, x.values)

    vals = np.asarray(x.values, dtype=float).reshape(len(x.values), -1)
    scale = max(1.0, float(np.linalg.norm(vals)))
    got = [np.asarray(part.values, dtype=float).reshape(vals.shape)
           for part in result.parts()]
    for name, mine, want in zip(("x0", "x1", "x_neg1"), got, (x0, x1, x_neg1)):
        assert np.max(np.abs(mine - want), initial=0.0) <= PART_TOL * scale, name

    part_zero, part_pos, part_neg = got
    for a, b in ((part_pos, part_neg), (part_zero, part_pos), (part_zero, part_neg)):
        assert abs(float(np.sum(a * b))) / scale ** 2 <= ORTH_TOL
    if split == "hodge_decompose":
        orth = [v for key, v in result.residuals.items() if key.startswith("orth_")]
        assert len(orth) == 3 and max(orth) <= ORTH_TOL

    # certificates reproduce their parts and agree with the oracle's preimages
    y_pos = np.asarray(result.y1.values, dtype=float).reshape(y1.shape)
    y_neg = np.asarray(result.y_neg1.values, dtype=float).reshape(y_neg1.shape)
    if up.size:
        assert np.max(np.abs(up @ y_pos - part_pos)) <= PART_TOL * scale
    if down.size:
        assert np.max(np.abs(down.T @ y_neg - part_neg)) <= PART_TOL * scale
    assert np.max(np.abs(y_pos - y1), initial=0.0) <= 1e-8 * scale
    assert np.max(np.abs(y_neg - y_neg1), initial=0.0) <= 1e-8 * scale
    assert result.residuals["x1_certificate"] == 0.0
    assert result.residuals["x_neg1_certificate"] <= PART_TOL * scale


def test_oracle_leaves_a_harmonic_loop_unchanged():
    rep = canonical_complex("cycle(5)")
    # edges (0,1), (0,4), (1,2), (2,3), (3,4) walked as 0 -> 1 -> ... -> 4 -> 0
    loop = np.array([1.0, -1.0, 1.0, 1.0, 1.0])
    down = rep.boundary_float(1)
    assert not np.any(down @ loop)
    x0, x1, x_neg1, _, _ = orthonormal_hodge_split(down, rep.boundary_float(2), loop)
    assert np.allclose(x0[:, 0], loop) and not np.any(x1) and np.allclose(x_neg1, 0)
