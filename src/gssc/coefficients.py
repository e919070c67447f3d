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

The boundary matrices act by integer multiples of the group operation, so
applying a boundary is a plain matrix product in every system, reduced mod n
for ModN and taken row-wise over the coefficient columns for FourierFn.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import FormatError, UnsupportedError


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
        return type(self) is type(other)

    def __hash__(self):
        return hash(type(self))


class Real(CoefficientSystem):
    """Real values; norm |a|."""

    def coerce(self, values, n):
        arr = np.array(values, dtype=float).reshape(n)
        return arr

    def zeros(self, n):
        return np.zeros(n)

    def scale(self, c, a):
        return float(c) * a

    def norms(self, values):
        return np.abs(values)

    def random(self, n, rng):
        return rng.standard_normal(n)


class Integer(CoefficientSystem):
    """Arbitrary-precision integer values; norm |a|."""

    exact = True

    def coerce(self, values, n):
        arr = np.empty(n, dtype=object)
        for i, v in enumerate(np.asarray(values, dtype=object).reshape(n)):
            if isinstance(v, float) and not v.is_integer():
                raise ValueError(f"non-integer value {v!r} in an Integer chain")
            arr[i] = int(v)
        return arr

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
        modulus = int(modulus)
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        self.modulus = modulus

    def coerce(self, values, n):
        arr = np.empty(n, dtype=object)
        for i, v in enumerate(np.asarray(values, dtype=object).reshape(n)):
            arr[i] = int(v) % self.modulus
        return arr

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

    def __eq__(self, other):
        return type(other) is ModN and other.modulus == self.modulus

    def __hash__(self):
        return hash((ModN, self.modulus))


class FourierFn(CoefficientSystem):
    """Truncated Fourier functions of a given order on [-pi, pi]."""

    def __init__(self, order=3):
        order = int(order)
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.n_coeffs = 2 * order + 1

    def coerce(self, values, n):
        arr = np.array(values, dtype=float).reshape(n, self.n_coeffs)
        return arr

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

    def __eq__(self, other):
        return type(other) is FourierFn and other.order == self.order

    def __hash__(self):
        return hash((FourierFn, self.order))


def eval_fn(system, coeffs, ts):
    """Evaluate one FourierFn value at one or many instants."""
    if not isinstance(system, FourierFn):
        raise UnsupportedError("eval_fn is defined for FourierFn values only")
    coeffs = np.asarray(coeffs, dtype=float).reshape(system.n_coeffs)
    out = system.design_matrix(ts) @ coeffs
    return out if np.ndim(ts) else float(out[0])


def resolve_weights(weights, n):
    """Non-negative one-dimensional cell weights (None means unit), length n."""
    if weights is None:
        return np.ones(n)
    arr = np.array(weights, dtype=float)
    if arr.ndim != 1:
        raise ValueError("weights must be one-dimensional")
    if np.any(arr < 0):
        raise ValueError("weights must be non-negative")
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
    if not isinstance(x.system, (Real, FourierFn)) and int(c) != c:
        raise UnsupportedError(f"non-integer scalar for {x.system!r}")
    return x.with_values(x.system.scale(c, x.values))


def zero_chain(rep, degree, system):
    return ChainVector(rep, degree, system, system.zeros(rep.n_cells(degree)))


def random_chain(rep, degree, system, rng):
    rng = np.random.default_rng(rng)
    return ChainVector(rep, degree, system, system.random(rep.n_cells(degree), rng))


def apply_boundary(x):
    """Boundary of a degree-k chain: y_j = sum_i (B_k)_{j i} x_i, degree k-1."""
    rep = x.complex
    k = x.degree
    if k < 1 or k > rep.dim:
        return zero_chain(rep, k - 1, x.system)
    if x.system.exact:
        out = rep.boundary_matrix(k) @ x.values
        if isinstance(x.system, ModN):
            out = out % x.system.modulus
    else:
        out = rep.boundary_float(k) @ x.values
    return ChainVector(rep, k - 1, x.system, out)


def apply_coboundary(x):
    """Adjoint action B_{k+1}^T on a degree-k chain; result has degree k+1."""
    rep = x.complex
    k = x.degree + 1
    if k < 1 or k > rep.dim:
        return zero_chain(rep, x.degree + 1, x.system)
    if x.system.exact:
        out = rep.boundary_matrix(k).T @ x.values
        if isinstance(x.system, ModN):
            out = out % x.system.modulus
    else:
        out = rep.boundary_float(k).T @ x.values
    return ChainVector(rep, k, x.system, out)


def norm_p(x, p=2, weights=None):
    """Weighted p-norm (sum_i w_i^p |x_i|_A^p)^(1/p), p in {1, 2}."""
    if p not in (1, 2):
        raise UnsupportedError("only p = 1 and p = 2 are supported")
    w = resolve_weights(weights, len(x.values))
    cell = x.system.norms(x.values)
    total = float(np.sum((w ** p) * (cell ** p)))
    return total if p == 1 else float(np.sqrt(total))


def allclose(x, y, tol=1e-10):
    _check_compatible(x, y)
    if x.system.exact:
        return bool(np.all(x.values == y.values))
    diff = np.asarray(x.values - y.values, dtype=float)
    scale_ = max(1.0, float(np.max(np.abs(np.asarray(x.values, dtype=float)))))
    return bool(np.max(np.abs(diff), initial=0.0) <= tol * scale_)


# -- CSV interchange ----------------------------------------------------------

def save_chain(x, path):
    """Scalar chains: `cell,value` rows.  FourierFn: `edge,c0,...,c{T-1}`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if isinstance(x.system, FourierFn):
            writer.writerow(["edge"] + [f"c{j}" for j in range(x.system.n_coeffs)])
            for i, row in enumerate(x.values):
                writer.writerow([i] + [repr(float(v)) for v in row])
        else:
            writer.writerow(["cell", "value"])
            for i, v in enumerate(x.values):
                writer.writerow([i, repr(float(v)) if isinstance(x.system, Real) else int(v)])


def load_chain(path, rep, degree, system):
    """Inverse of save_chain; rows may appear in any order but must cover
    every cell index exactly once."""
    n = rep.n_cells(degree)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty chain file")
        if isinstance(system, FourierFn):
            expected = ["edge"] + [f"c{j}" for j in range(system.n_coeffs)]
            if header != expected:
                raise FormatError(
                    f"{path}: header {header} does not match {expected}")
            values = np.zeros((n, system.n_coeffs))
        else:
            if header != ["cell", "value"]:
                raise FormatError(f"{path}: header {header} is not cell,value")
            values = system.zeros(n)
        seen = set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
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
                if isinstance(system, FourierFn):
                    values[idx] = [float(v) for v in row[1:]]
                elif isinstance(system, Real):
                    values[idx] = float(row[1])
                else:
                    values[idx] = int(row[1])
            except (ValueError, IndexError):
                raise FormatError(f"bad value row {row}", lineno)
    if len(seen) != n:
        missing = sorted(set(range(n)) - seen)[:5]
        raise FormatError(f"{path}: missing rows for cells {missing}")
    return ChainVector(rep, degree, system, values)
