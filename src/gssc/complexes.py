"""Simplicial complexes, delta-complexes, and their integer boundary matrices.

Conventions fixed here and relied on everywhere else:

* Vertices are 0-based integers.  A k-simplex is a strictly increasing
  (k+1)-tuple of vertex indices, and its increasing vertex order is its
  positive orientation.
* Within each dimension simplexes are listed in lexicographic order.  That
  ordering defines the basis of the chain group C_k, hence every matrix
  column/row layout and every file format.
* The boundary of [v_0, ..., v_k] is the alternating sum over vertex
  deletions, sum_j (-1)^j [..., v_{j-1}, v_{j+1}, ...].
* Boundary matrices are stored once, as read-only compressed sparse column
  arrays of integers (int64, or Python ints past it).  Exact code reads
  them, so B_k B_{k+1} = 0 is checked with zero tolerance; a sparse float
  view, and dense object and float arrays, are built from them on request.
* Out-of-range degrees denote the zero module: C_{-1} = C_{K+1} = 0, and
  boundary matrices off the end have an empty shape instead of raising.

Delta-complexes (cells glued with identifications, e.g. the projective
plane with two triangles, three edges and two vertices) cannot be listed as
vertex tuples;  they are handled directly as a `ChainComplexRep`, the
boundary-matrix presentation shared by both kinds of complex.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import re
import sys

import numpy as np

from .errors import FormatError, UnsupportedError


def _integral(v):
    try:
        return int(v) == v
    except (TypeError, ValueError, OverflowError):
        return False


def _as_int(what, v):
    """int(v); refuses any v that is not integral, naming it."""
    if not _integral(v):
        raise ValueError(f"{what} {v!r} is not an integer")
    return int(v)


def _read_text(path, newline):
    """The text of a UTF-8 file, as a stream with `open`'s newline handling;
    a byte that is not UTF-8 is refused naming the path and its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: byte {exc.start} is not UTF-8",
                          data.count(b"\n", 0, exc.start) + 1) from None


def _text_lines(path):
    """(line number, text) of each line of a text file that keeps some text
    once its '#' comment and surrounding blanks are stripped."""
    return [(lineno, text)
            for lineno, raw in enumerate(_read_text(path, None), start=1)
            if (text := raw.split("#", 1)[0].strip())]


def _csv_rows(path, header):
    """(line number, row) of each non-empty row of a CSV file after its
    first row, which must equal `header`; every row has as many fields."""
    reader = csv.reader(_read_text(path, ""))
    try:
        first = next(reader, None)
        if first is None:
            raise FormatError(f"{path}: empty file")
        if first != header:
            raise FormatError(f"{path}: header {first} is not {','.join(header)}")
        for row in filter(None, reader):
            if len(row) != len(header):
                raise FormatError(f"row has {len(row)} fields, header has "
                                  f"{len(header)}", reader.line_num)
            yield reader.line_num, row
    except csv.Error as exc:
        raise FormatError(f"{path}: {exc}", reader.line_num) from None


def _write_csv(path, header, rows):
    """`header`, then `rows`, as UTF-8 CSV with \\r\\n line ends to `path`, or stdout if None."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="")) as fh:
        csv.writer(fh).writerows(itertools.chain([header], rows))


def _exact(values):
    """Integers as int64 when every one fits, else as Python ints (object)."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _entry_columns(indptr):
    """The column of each stored entry of CSC arrays with this `indptr`."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _dense_csc(mat, what="entry"):
    """CSC arrays (indptr, rows, values) of a dense 2-d integer matrix, rows
    ascending in each column; refuses the first entry, row-major, that is
    != 0 and not an integer."""
    mat = np.asarray(mat, dtype=object)
    if mat.ndim != 2:
        raise ValueError("need a 2-d matrix")
    cols, rows = np.nonzero((mat != 0).T)
    values = mat[rows, cols].tolist()
    if not set(map(type, values)) <= {int}:
        bad = [(rows[t], cols[t], v) for t, v in enumerate(values) if not _integral(v)]
        if bad:
            i, j, v = min(bad, key=lambda b: b[:2])
            raise ValueError(f"{what} ({i}, {j}) = {v!r} is not an integer")
        values = [int(v) for v in values]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=mat.shape[1]))))
    return indptr, rows, _exact(values)


def _csc_dense(csc, n_rows, dtype=object):
    """The dense n_rows-row array of CSC arrays, by one scatter."""
    indptr, rows, values = csc
    out = np.zeros((n_rows, len(indptr) - 1), dtype=dtype)
    out[rows, _entry_columns(indptr)] = values
    return out


class SimplicialComplex:
    """A face-closed set of simplexes over vertices 0..n_vertices-1.

    `simplexes_by_dim[k]` is the lexicographically sorted list of
    k-simplexes.  Every vertex is present as a 0-simplex, so isolated
    vertices are allowed and n_0 always equals `n_vertices`.
    """

    def __init__(self, n_vertices, simplexes_by_dim):
        n_vertices = int(n_vertices)
        if n_vertices < 1:
            raise ValueError("a complex needs at least one vertex")
        levels = []
        for k, level in enumerate(simplexes_by_dim):
            level = [tuple(int(v) for v in s) for s in level]
            for s in level:
                if len(s) != k + 1:
                    raise ValueError(f"{s} listed at dimension {k}")
                if any(a >= b for a, b in zip(s, s[1:])):
                    raise ValueError(f"simplex {s} is not strictly increasing")
                if s[0] < 0 or s[-1] >= n_vertices:
                    raise ValueError(f"simplex {s} has a vertex out of range")
            levels.append(level if all(a < b for a, b in zip(level, level[1:]))
                          else sorted(set(level)))
        levels[:1] = [[(v,) for v in range(n_vertices)]]
        for below, level in zip(levels[1:], levels[2:]):  # face closure
            below = set(below)
            for s in level:
                for j in range(len(s)):
                    if (face := s[:j] + s[j + 1:]) not in below:
                        raise ValueError(f"face {face} of {s} is missing")
        self.n_vertices, self.simplexes_by_dim = n_vertices, [lv for lv in levels if lv]

    @classmethod
    def _unchecked(cls, n_vertices, levels):
        """The complex the constructor would build from `levels`, which must
        list every vertex and be face-closed and sorted, of int tuples."""
        complex = cls.__new__(cls)
        complex.n_vertices, complex.simplexes_by_dim = n_vertices, [lv for lv in levels if lv]
        return complex

    @classmethod
    def from_maximal(cls, maximal, n_vertices=None):
        """Build the closure of a list of simplexes (any order, any overlap)."""
        stored = set()
        for s in maximal:
            s = tuple(sorted(int(v) for v in s))
            if len(set(s)) != len(s):
                raise ValueError(f"repeated vertex in simplex {s}")
            if s and s[0] < 0:
                raise ValueError(f"negative vertex in simplex {s}")
            for r in range(1, len(s) + 1):
                stored.update(itertools.combinations(s, r))
        top = max((s[-1] + 1 for s in stored), default=0)
        if n_vertices is None:
            n_vertices = top
        elif n_vertices < top:
            raise ValueError("n_vertices smaller than the largest vertex used")
        by_dim = [[] for _ in range(max((len(s) for s in stored), default=1))]
        for s in stored:
            by_dim[len(s) - 1].append(s)
        return cls(n_vertices, by_dim)

    @property
    def dim(self):
        return len(self.simplexes_by_dim) - 1

    def simplexes(self, k):
        if 0 <= k <= self.dim:
            return self.simplexes_by_dim[k]
        return []

    def n_simplexes(self, k):
        return len(self.simplexes(k))

    def maximal_simplexes(self):
        """Simplexes that are not a face of any other stored simplex."""
        faces = {s[:j] + s[j + 1:] for level in self.simplexes_by_dim[1:]
                 for s in level for j in range(len(s))}
        return [s for level in self.simplexes_by_dim for s in level if s not in faces]

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (self.n_vertices == other.n_vertices
                and self.simplexes_by_dim == other.simplexes_by_dim)

    def __repr__(self):
        counts = ", ".join(str(self.n_simplexes(k)) for k in range(self.dim + 1))
        return f"SimplicialComplex(dims=({counts}))"


class ChainComplexRep:
    """Boundary-matrix presentation of a chain complex.

    dims       -- (n_0, ..., n_K), the rank of each chain group
    boundaries -- [B_1, ..., B_K]; B_k is integer, shape n_{k-1} x n_k
    labels     -- optional per-dimension cell labels (for reports only)

    Each B_k is stored once as compressed sparse columns, `csc(k)`: column
    pointers, the rows of the nonzeros (ascending in each column) and their
    values, int64 when every entry fits and Python ints otherwise.  The
    arrays are read-only, so no write can leave the memo out of date;
    sparse and dense views are built from them on request.
    """

    def __init__(self, dims, boundaries, labels=None, name=None):
        dims = tuple(int(n) for n in dims)
        if not dims or any(n < 0 for n in dims):
            raise ValueError("dims must be a non-empty tuple of sizes >= 0")
        if len(boundaries) != len(dims) - 1:
            raise ValueError("need exactly one boundary matrix per adjacent pair of dims")
        csc = []
        for k, mat in enumerate(boundaries, start=1):
            mat = np.asarray(mat, dtype=object)
            if mat.shape != (dims[k - 1], dims[k]):
                raise ValueError(f"B_{k} has shape {mat.shape}, expected the 2-d "
                                 f"shape {(dims[k - 1], dims[k])}")
            csc.append(_dense_csc(mat, f"B_{k} entry"))
        self._store(dims, csc, labels, name)

    @classmethod
    def _from_csc(cls, dims, csc, labels=None):
        """The rep of CSC arrays [B_1, ..., B_K] as `csc(k)` holds them."""
        rep = cls.__new__(cls)
        rep._store(tuple(dims), csc, labels)
        return rep

    def _store(self, dims, csc, labels, name=None):
        """Hold the CSC arrays of [B_1, ..., B_K] read-only, with an empty memo."""
        for array in itertools.chain.from_iterable(csc):
            array.setflags(write=False)
        self.dims, self._csc = dims, dict(enumerate(csc, start=1))
        self.labels, self.name, self._cache = labels, name, {}

    @property
    def dim(self):
        return len(self.dims) - 1

    def n_cells(self, k):
        if 0 <= k <= self.dim:
            return self.dims[k]
        return 0

    def csc(self, k):
        """B_k as stored, read-only: (indptr, rows, values); off-range
        degrees give n_k empty columns."""
        empty = np.zeros(0, dtype=np.int64)
        return self._csc.get(k) or (np.zeros(self.n_cells(k) + 1, dtype=np.int64), empty, empty)

    def boundary_matrix(self, k):
        """A fresh dense object array of the exact integer B_k."""
        return _csc_dense(self.csc(k), self.n_cells(k - 1))

    def boundary_float(self, k):
        """A fresh dense float array of B_k."""
        return _csc_dense(self.csc(k), self.n_cells(k - 1), float)

    def _sparse_boundary(self, k):
        """B_k as a float `scipy.sparse` CSR array, built once from the
        arrays; the library's float code reads this, not `boundary_float`."""
        def build():
            import scipy.sparse  # here, so exact code never loads scipy
            indptr, rows, values = self.csc(k)
            return scipy.sparse.csc_array(
                (values.astype(float), rows, indptr),
                shape=(self.n_cells(k - 1), self.n_cells(k))).tocsr()
        return self._memo(("sparse", k), build)

    def _memo(self, key, build):
        """The value cached under `key`, from build() on first use.

        One dict per rep holds every derived value (sparse boundaries, Gram
        eigenpairs, Hodge bases, eliminations); the values depend on the
        read-only arrays alone, so a concurrent first use at worst builds one
        twice.
        """
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"ChainComplexRep{tag}(dims={self.dims})"


def to_chain_complex(complex):
    """ChainComplexRep of a simplicial complex, labels = vertex tuples.

    Column j of B_k holds the faces of the j-th k-simplex: the one deleting
    vertex i, signed (-1)^i, is found by a binary search of its digits in
    base n_vertices (Python ints past 2^63) among the (k-1)-simplexes'.
    Deleting i sorts before deleting i - 1, so rows ascend as i falls.
    """
    n_v, levels = complex.n_vertices, complex.simplexes_by_dim

    def codes(a):
        digits = n_v ** np.arange(a.shape[1] - 1, -1, -1, dtype=object)
        return a @ (digits if n_v ** a.shape[1] >= 2 ** 63 else digits.astype(np.int64))
    csc, below = [], np.arange(n_v)
    for k, level in enumerate(levels[1:], start=1):
        top = np.fromiter(itertools.chain.from_iterable(level), np.int64,
                          count=len(level) * (k + 1)).reshape(-1, k + 1)
        faces = np.stack([np.delete(top, i, axis=1) for i in range(k, -1, -1)], axis=1)
        rows = np.searchsorted(below, codes(faces.reshape(-1, k)))
        csc.append((np.arange(0, top.size + 1, k + 1), rows,
                    np.tile((-1) ** np.arange(k, -1, -1), len(top))))
        below = codes(top)
    return ChainComplexRep._from_csc([len(lv) for lv in levels], csc,
                                     labels=[list(lv) for lv in levels])


class ValidationReport:
    """Outcome of the chain identity check B_k @ B_{k+1} = 0."""

    def __init__(self, ok, failures):
        self.ok = ok
        self.failures = failures  # list of (k, row, col, value)

    def __bool__(self):
        return self.ok

    def __str__(self):
        if self.ok:
            return "ok: boundary of boundary vanishes"
        lines = [f"{len(self.failures)} nonzero entries in boundary-squared products:"]
        for k, i, j, v in self.failures[:20]:
            lines.append(f"  (B_{k} @ B_{k + 1})[{i}, {j}] = {v}")
        if len(self.failures) > 20:
            lines.append(f"  ... and {len(self.failures) - 20} more")
        return "\n".join(lines)


def validate(rep):
    """Check B_k @ B_{k+1} = 0 exactly for every k; list offending entries.

    Each nonzero v at (i, j) of B_{k+1} and w at (r, i) of B_k make a term
    w v at (r, j).  The terms are summed by (r, j) after one sort, in int64
    while the sum of their sizes stays below 2^63 and in Python ints past
    that, with no dense product; failures are listed row-major.
    """
    failures = []
    for k in range(1, rep.dim):
        (ptr, down, w), (up_ptr, mid, v) = rep.csc(k), rep.csc(k + 1)
        counts = np.diff(ptr)[mid]  # the terms of each nonzero of B_{k+1}
        if not (n_terms := int(counts.sum())):
            continue
        pick = np.arange(n_terms) + np.repeat(ptr[mid] + counts - np.cumsum(counts), counts)
        w_size, v_size = (max(int(a.max()), -int(a.min())) for a in (w, v))
        if w_size * v_size * n_terms >= 2 ** 63:
            w, v = w.astype(object), v.astype(object)
        key = np.repeat(_entry_columns(up_ptr), counts) * rep.n_cells(k - 1) + down[pick]
        order = np.argsort(key, kind="stable")  # runs: keys ascend by column
        start = np.flatnonzero(np.diff(key[order], prepend=-1))
        sums = np.add.reduceat((w[pick] * np.repeat(v, counts))[order], start)
        cols, rows = np.divmod(key[order][start[sums != 0]], rep.n_cells(k - 1))
        failures.extend((k, i, j, s) for i, j, s in sorted(
            zip(rows.tolist(), cols.tolist(), sums[sums != 0].tolist())))
    return ValidationReport(not failures, failures)


# -- canonical complexes -----------------------------------------------------

# one grammar for every named complex: fixed canonical names, the
# parametrized graphs, the seeded random generator and the built-in testbed
_SPEC = re.compile(
    r"(?P<fixed>rp2|torus|filled_triangle)|(?P<default>default)"
    r"|(?P<graph>cycle|path)\(\s*(?P<n>\d+)\s*\)"
    r"|random\(\s*(?P<vertices>\d+)\s*,\s*(?P<edge_prob>[0-9.eE+-]+)\s*,"
    r"\s*(?P<fill_prob>[0-9.eE+-]+)\s*,\s*(?P<seed>\d+)\s*\)")
# the two delta-complexes of `canonical_complex`: dims, B_1, B_2, vertex labels
_DELTA = {"rp2": ((2, 3, 2), [[-1, -1, 0], [1, 1, 0]], [[-1, 1], [1, -1], [1, 1]], ["v", "w"]),
          "torus": ((1, 3, 2), [[0, 0, 0]], [[1, 1], [1, 1], [-1, -1]], ["v"])}


def _named_complex(m):
    """The rep named by `m`, a full match of `_SPEC` on a stripped spec."""
    spec = m.string
    if m["fixed"] in _DELTA:
        dims, b1, b2, vertices = _DELTA[m["fixed"]]
        return ChainComplexRep(dims, [b1, b2], name=m["fixed"],
                               labels=[vertices, ["a", "b", "c"], ["U", "L"]])
    if m["fixed"]:
        rep = to_chain_complex(SimplicialComplex.from_maximal([(0, 1, 2)]))
        rep.name = "filled_triangle"
        return rep
    if m["default"]:
        return default_experiment_complex()
    if m["graph"]:
        kind, n = m["graph"], int(m["n"])
        least = 3 if kind == "cycle" else 1
        if n < least:
            raise FormatError(f"complex {spec!r}: n {n} is below {least}")
        edges = sorted([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)] * (kind == "cycle"))
        rep = to_chain_complex(SimplicialComplex._unchecked(n, [[(v,) for v in range(n)], edges]))
        rep.name = f"{kind}({n})"
        return rep
    probs = []
    for field in ("edge_prob", "fill_prob"):
        try:
            probs.append(float(m[field]))
        except ValueError:
            raise FormatError(f"complex {spec!r}: {field} {m[field]!r} is not a number") from None
        if not 0 <= probs[-1] <= 1:
            raise FormatError(f"complex {spec!r}: {field} {probs[-1]} is not in [0, 1]")
    if (n_vertices := int(m["vertices"])) < 1:
        raise FormatError(f"complex {spec!r}: n_vertices {n_vertices} is below 1")
    return to_chain_complex(random_complex(n_vertices, *probs, int(m["seed"])))


def canonical_complex(name):
    """Small library of named complexes used throughout tests and demos.

    rp2              projective plane as a delta-complex: the square with
                     both pairs of opposite sides glued in reverse, cut along
                     a diagonal.  Two vertices v, w; edges a, b from v to w
                     and a loop c at v; faces U, L with dU = -a + b + c and
                     dL = a - b + c.
    torus            one vertex, three loop edges a, b, c, two faces with
                     boundary a + b - c each.
    filled_triangle  the full simplex on three vertices.
    cycle(n)         the n-cycle graph, n >= 3.
    path(n)          the path graph on n vertices.
    """
    m = _SPEC.fullmatch(name.strip())
    if m is None or not (m["fixed"] or m["graph"]):
        raise UnsupportedError(
            f"unknown complex {name.strip()!r}; known: rp2, torus, filled_triangle, "
            "cycle(n), path(n)")
    return _named_complex(m)


def random_complex(n_vertices, edge_prob, fill_prob, seed):
    """Random 2-complex: G(n, edge_prob) edges, then each triangle of the
    edge graph kept with probability fill_prob.  Face-closed by construction
    and deterministic for a fixed seed: one uniform per vertex pair, then one
    per triangle of the edge graph, each in lexicographic order.
    """
    n_vertices = _as_int("n_vertices", n_vertices)
    if not (0.0 <= edge_prob <= 1.0 and 0.0 <= fill_prob <= 1.0):
        raise ValueError("probabilities must be in [0, 1]")
    if n_vertices < 1:
        raise ValueError("need at least one vertex")
    rng = np.random.default_rng(seed)
    kept = rng.random(n_vertices * (n_vertices - 1) // 2) < edge_prob
    edges = list(itertools.compress(itertools.combinations(range(n_vertices), 2), kept.tolist()))
    above = [set() for _ in range(n_vertices)]  # neighbours above each vertex
    for a, b in edges:
        above[a].add(b)
    candidates = [(a, b, c) for a, b in edges for c in sorted(above[a] & above[b])]
    kept = rng.random(len(candidates)) < fill_prob
    triangles = list(itertools.compress(candidates, kept.tolist()))
    return SimplicialComplex._unchecked(n_vertices, [[*zip(range(n_vertices))], edges, triangles])


def default_experiment_complex():
    """The built-in benchmark complex: a dense core plus a genuine 1-cycle.

    A random 2-complex on vertices 0..19 (every triangle of the graph
    filled) is bridged to a hexagonal ring on vertices 20..25.  The ring
    bounds no triangles, so its circulation is exactly harmonic and the
    degree-1 harmonic space is nontrivial; the core supplies enough
    gradient and curl directions for the default basis sizes.
    """
    core = random_complex(20, 0.5, 1.0, seed=11)
    ring = [(20, 21), (21, 22), (22, 23), (23, 24), (24, 25), (20, 25), (0, 20)]
    levels = [[(v,) for v in range(26)], sorted(core.simplexes(1) + ring), core.simplexes(2)]
    return to_chain_complex(SimplicialComplex._unchecked(26, levels))


def resolve_complex(spec):
    """Interpret a complex spec: a name in `_SPEC`'s grammar (blanks around it
    and inside its parentheses ignored), or a .scx/.dcx path."""
    if m := _SPEC.fullmatch(spec.strip()):
        return _named_complex(m)
    if spec.endswith(".scx"):
        return to_chain_complex(load_complex(spec))
    if spec.endswith(".dcx"):
        return load_delta(spec)
    raise FormatError(
        f"cannot interpret complex {spec!r}: expected 'default', a canonical "
        "name, random(n, edge_prob, fill_prob, seed), or a .scx/.dcx path")


# -- file formats ------------------------------------------------------------

def save_complex(complex, path):
    """Write the `.scx` format: one maximal simplex per line, '#' comments."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# simplicial complex: one maximal simplex per line, "
                 "space-separated vertex indices\n")
        for s in complex.maximal_simplexes():
            fh.write(" ".join(str(v) for v in s) + "\n")


def load_complex(path):
    """Read the `.scx` format and apply face closure.

    Vertex labels are 0-based; the vertex count is max index + 1, so indices
    skipped by every line still exist as isolated vertices.
    """
    maximal = []
    for lineno, text in _text_lines(path):
        try:
            vertices = [int(tok) for tok in text.split()]
        except ValueError:
            raise FormatError(f"expected vertex indices, got {text!r}", lineno)
        if any(v < 0 for v in vertices):
            raise FormatError("negative vertex index", lineno)
        if len(set(vertices)) != len(vertices):
            raise FormatError(f"repeated vertex in simplex {vertices}", lineno)
        maximal.append(tuple(vertices))
    if not maximal:
        raise FormatError(f"{path}: no simplexes found")
    return SimplicialComplex.from_maximal(maximal)


def save_delta(rep, path):
    """Write the `.dcx` format: a dims header then one B_k block per degree."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# delta complex: dims header, then boundary matrix blocks\n")
        fh.write("dims " + " ".join(str(n) for n in rep.dims) + "\n")
        for k in range(1, rep.dim + 1):
            fh.write(f"B{k}\n")
            mat = rep.boundary_matrix(k)
            if mat.size:
                fh.writelines(" ".join(map(str, row)) + "\n" for row in mat.tolist())


def load_delta(path):
    """Read the `.dcx` format; reject it unless boundary-of-boundary vanishes.

    Layout: a `dims n_0 ... n_K` line, then for each k = 1..K a `B<k>` line
    followed by n_{k-1} rows of n_k integers (rows are omitted when the block
    is empty).  Blank lines and '#' comments are ignored.
    """
    lines = iter(_text_lines(path))

    def take(missing):
        if (line := next(lines, None)) is None:
            raise FormatError(f"{path}: {missing}")
        return line

    lineno, header = take("empty file")
    if not header.startswith("dims"):
        raise FormatError("expected 'dims n_0 ... n_K' header", lineno)
    try:
        dims = [int(tok) for tok in header.split()[1:]]
    except ValueError:
        raise FormatError("dims header must list integers", lineno)
    if not dims or any(n < 0 for n in dims):
        raise FormatError("dims must be non-negative and non-empty", lineno)
    boundaries = []
    for k in range(1, len(dims)):
        lineno, text = take(f"missing block B{k}")
        if text != f"B{k}":
            raise FormatError(f"expected block header 'B{k}', got {text!r}", lineno)
        rows, cols = dims[k - 1], dims[k]
        block = []
        for i in range(rows if cols else 0):
            lineno, text = take(f"block B{k} ends after {i} of {rows} rows")
            try:
                row = [int(tok) for tok in text.split()]
            except ValueError:
                raise FormatError(f"non-integer entry in block B{k}", lineno)
            if len(row) != cols:
                raise FormatError(
                    f"block B{k} row has {len(row)} entries, expected {cols}", lineno)
            block.append(row)
        boundaries.append(np.array(block, dtype=object).reshape(rows, cols))
    if (extra := next(lines, None)) is not None:
        raise FormatError(f"unexpected trailing content {extra[1]!r}", extra[0])
    rep = ChainComplexRep(dims, boundaries)
    report = validate(rep)
    if not report.ok:
        raise FormatError(f"{path}: not a chain complex; {report}")
    return rep
