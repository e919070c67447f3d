"""Coefficient systems and chains with values in them.

A chain assigns one value per cell of a fixed degree.  Values live in one of
four systems:

* Real       -- floats with the absolute value as norm,
* Integer    -- arbitrary-precision Python ints (no overflow, ever),
* ModN(n)    -- integers mod n with the discrete norm (0 for 0, else 1),
* FourierFn(m) -- real functions on [-pi, pi] stored by their coefficients
  in the orthonormal truncated Fourier basis
      1/sqrt(2 pi), sin(t)/sqrt(pi), cos(t)/sqrt(pi), ...,
      sin(m t)/sqrt(pi), cos(m t)/sqrt(pi)
  (2 m + 1 coefficients per value; the norm is the coefficient 2-norm,
  which equals the L2 function norm by Parseval).

The boundary matrices act by integer multiples of the group operation:
exact systems sum the products of the stored integer entries in Python ints
(reduced mod n for ModN), the others take a float matrix product, row-wise
over the coefficient columns for FourierFn.
"""

from __future__ import annotations

import numpy as np

from .complexes import _as_int, _csv_rows, _entry_columns, _integral, _write_csv
from .errors import FormatError, NumericalError, UnsupportedError


class CoefficientSystem:
    """Shared interface: value storage, group ops, per-cell norms."""

    exact = False  # True when equality is decidable and arithmetic exact

    def coerce(self, values, n):
        raise NotImplementedError

    def zeros(self, n):
        raise NotImplementedError

    def add(self, a, b):
        """Group sum: plain array arithmetic unless the system reduces."""
        return a + b

    def neg(self, a):
        return -a

    def scale(self, c, a):
        """Integer action c*a (any system); float c allowed for Real/FourierFn."""
        raise NotImplementedError

    def norms(self, values):
        """Per-cell norm, as a float array."""
        raise NotImplementedError

    def random(self, n, rng):
        raise NotImplementedError

    def __repr__(self):
        return type(self).__name__ + "()"

    def __eq__(self, other):
        return type(self) is type(other) and vars(self) == vars(other)

    def __hash__(self):
        return hash((type(self), *vars(self).values()))


class Real(CoefficientSystem):
    """Real values; norm |a|."""

    def coerce(self, values, n):
        return np.array(values, dtype=float).reshape(n)

    def zeros(self, n):
        return np.zeros(n)

    def scale(self, c, a):
        return float(c) * a

    def norms(self, values):
        return np.abs(values)

    def random(self, n, rng):
        return rng.standard_normal(n)


def _exact_values(system, values, n):
    """Python ints of `values`; refuses any value that is not integral."""
    what = f"{system!r} value"
    values = np.asarray(values, dtype=object).reshape(n)
    return np.array([_as_int(what, v) for v in values], dtype=object)


class Integer(CoefficientSystem):
    """Arbitrary-precision integer values; norm |a|."""

    exact = True

    def coerce(self, values, n):
        return _exact_values(self, values, n)

    def zeros(self, n):
        return np.zeros(n, dtype=object)

    def scale(self, c, a):
        return int(c) * a

    def norms(self, values):
        return np.array([abs(int(v)) for v in values], dtype=float)

    def random(self, n, rng):
        return self.coerce(rng.integers(-9, 10, size=n), n)


class ModN(CoefficientSystem):
    """Integers mod n, canonical representatives 0..n-1; discrete norm."""

    exact = True

    def __init__(self, modulus):
        modulus = _as_int("modulus", modulus)
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        self.modulus = modulus

    def coerce(self, values, n):
        return _exact_values(self, values, n) % self.modulus

    def zeros(self, n):
        return np.zeros(n, dtype=object)

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def scale(self, c, a):
        return (int(c) * a) % self.modulus

    def norms(self, values):
        return np.array([0.0 if int(v) == 0 else 1.0 for v in values])

    def random(self, n, rng):
        return self.coerce(rng.integers(0, self.modulus, size=n), n)

    def __repr__(self):
        return f"ModN({self.modulus})"


class FourierFn(CoefficientSystem):
    """Truncated Fourier functions of a given order on [-pi, pi]."""

    def __init__(self, order=3):
        order = _as_int("order", order)
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.n_coeffs = 2 * order + 1

    def coerce(self, values, n):
        return np.array(values, dtype=float).reshape(n, self.n_coeffs)

    def zeros(self, n):
        return np.zeros((n, self.n_coeffs))

    def scale(self, c, a):
        return float(c) * a

    def norms(self, values):
        return np.sqrt(np.sum(values ** 2, axis=1))

    def random(self, n, rng):
        return rng.standard_normal((n, self.n_coeffs))

    def design_matrix(self, ts):
        """Rows of basis function values at the instants `ts`."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        cols = [np.full_like(ts, 1.0 / np.sqrt(2.0 * np.pi))]
        for i in range(1, self.order + 1):
            cols.append(np.sin(i * ts) / np.sqrt(np.pi))
            cols.append(np.cos(i * ts) / np.sqrt(np.pi))
        return np.stack(cols, axis=1)

    def __repr__(self):
        return f"FourierFn({self.order})"


def eval_fn(system, coeffs, ts):
    """Evaluate one FourierFn value at one or many instants."""
    if not isinstance(system, FourierFn):
        raise UnsupportedError("eval_fn is defined for FourierFn values only")
    coeffs = np.asarray(coeffs, dtype=float).reshape(system.n_coeffs)
    out = system.design_matrix(ts) @ coeffs
    return out if np.ndim(ts) else float(out[0])


def resolve_weights(weights, n):
    """Finite non-negative one-dimensional cell weights (None means unit), length n."""
    if weights is None:
        return np.ones(n)
    arr = np.array(weights, dtype=float)
    if arr.ndim != 1:
        raise ValueError("weights must be one-dimensional")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError("weights must be finite and non-negative")
    if len(arr) != n:
        raise ValueError(f"{len(arr)} weights for {n} cells")
    return arr


class ChainVector:
    """One value per degree-k cell of a complex, in a coefficient system."""

    __slots__ = ("complex", "degree", "system", "values")

    def __init__(self, complex, degree, system, values):
        n = complex.n_cells(degree)
        vals = system.coerce(values, n)
        vals.setflags(write=False)
        self.complex = complex
        self.degree = int(degree)
        self.system = system
        self.values = vals

    def with_values(self, values):
        return ChainVector(self.complex, self.degree, self.system, values)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, negate(other))

    def __neg__(self):
        return negate(self)

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        return (f"ChainVector(degree={self.degree}, system={self.system!r}, "
                f"n={len(self.values)})")


def _check_compatible(x, y):
    if x.complex is not y.complex and x.complex.dims != y.complex.dims:
        raise ValueError("chains live on different complexes")
    if x.degree != y.degree:
        raise ValueError(f"degrees differ: {x.degree} vs {y.degree}")
    if x.system != y.system:
        raise ValueError(f"coefficient systems differ: {x.system!r} vs {y.system!r}")


def add(x, y):
    _check_compatible(x, y)
    return x.with_values(x.system.add(x.values, y.values))


def negate(x):
    return x.with_values(x.system.neg(x.values))


def scale(c, x):
    """Integer action on any system; real scaling for Real/FourierFn."""
    if not isinstance(x.system, (Real, FourierFn)) and not _integral(c):
        raise UnsupportedError(f"non-integer scalar for {x.system!r}")
    return x.with_values(x.system.scale(c, x.values))


def zero_chain(rep, degree, system):
    return ChainVector(rep, degree, system, system.zeros(rep.n_cells(degree)))


def random_chain(rep, degree, system, rng):
    rng = np.random.default_rng(rng)
    return ChainVector(rep, degree, system, system.random(rep.n_cells(degree), rng))


def _apply_boundary(x, k, adjoint):
    """B_k x (degree k - 1) or, with `adjoint`, B_k^T x (degree k); zero
    when the complex has no B_k.  Exact systems scatter the products of the
    stored entries (i, j, v), v x_j into row i (v x_i into j for the
    adjoint), in Python ints."""
    rep = x.complex
    degree = k if adjoint else k - 1
    if not x.system.exact:
        B = rep._sparse_boundary(k)
        out = (B.T if adjoint else B) @ x.values
    else:
        indptr, rows, values = rep.csc(k)
        cols = _entry_columns(indptr)
        src, dst = (rows, cols) if adjoint else (cols, rows)
        out = np.zeros(rep.n_cells(degree), dtype=object)
        np.add.at(out, dst, values.astype(object) * x.values[src])
    return ChainVector(rep, degree, x.system, out)  # ModN reduces on coercion


def apply_boundary(x):
    """Boundary of a degree-k chain: y_j = sum_i (B_k)_{j i} x_i, degree k-1."""
    return _apply_boundary(x, x.degree, adjoint=False)


def apply_coboundary(x):
    """Adjoint action B_{k+1}^T on a degree-k chain; result has degree k+1."""
    return _apply_boundary(x, x.degree + 1, adjoint=True)


def norm_p(x, p=2, weights=None):
    """Weighted p-norm (sum_i w_i^p |x_i|_A^p)^(1/p), p in {1, 2}; an
    overflowing sum raises NumericalError."""
    if p not in (1, 2):
        raise UnsupportedError("only p = 1 and p = 2 are supported")
    w = resolve_weights(weights, len(x.values))
    on = w > 0  # a cell of weight 0 adds nothing, so its norm is not taken
    with np.errstate(over="ignore"):
        try:
            total = float(np.sum((w[on] ** p) * (x.system.norms(x.values[on]) ** p)))
        except OverflowError:  # an Integer value beyond float range
            total = np.inf
    if not np.isfinite(total):
        raise NumericalError(f"the weighted {p}-norm of a {x.degree}-chain overflows: "
                             f"its sum of p-th powers is {total}")
    return total if p == 1 else float(np.sqrt(total))


# -- CSV interchange ----------------------------------------------------------

def _chain_header(system):
    """Scalar chains: `cell,value`.  FourierFn: `edge,c0,...,c{T-1}`."""
    if isinstance(system, FourierFn):
        return ["edge"] + [f"c{j}" for j in range(system.n_coeffs)]
    return ["cell", "value"]


def save_chain(x, path):
    """One row per cell, its index and values: exact ones as ints, others as round-trip floats."""
    fmt = int if x.system.exact else lambda v: repr(float(v))
    rows = x.values if isinstance(x.system, FourierFn) else x.values[:, None]
    _write_csv(path, _chain_header(x.system),
               ([i] + [fmt(v) for v in row] for i, row in enumerate(rows)))


def load_chain(path, rep, degree, system):
    """Inverse of save_chain; rows may appear in any order but must cover
    every cell index exactly once."""
    n = rep.n_cells(degree)
    values = system.zeros(n)
    parse = int if system.exact else float
    seen = set()
    for lineno, row in _csv_rows(path, _chain_header(system)):
        try:
            idx = int(row[0])
        except ValueError:
            raise FormatError(f"bad cell index {row[0]!r}", lineno)
        if not 0 <= idx < n:
            raise FormatError(f"cell index {idx} out of range 0..{n - 1}", lineno)
        if idx in seen:
            raise FormatError(f"duplicate cell index {idx}", lineno)
        seen.add(idx)
        try:
            parsed = [parse(v) for v in row[1:]]
        except ValueError:
            raise FormatError(f"bad value row {row}", lineno)
        values[idx] = parsed if isinstance(system, FourierFn) else parsed[0]
        if not system.exact and not np.all(np.isfinite(values[idx])):
            raise FormatError(f"non-finite value in row {row}", lineno)
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)[:5]
        raise FormatError(f"{path}: missing rows for cells {missing}")
    return ChainVector(rep, degree, system, values)
