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
* Boundary matrices are stored once, as sparse columns of Python ints: column
  j of B_k is the tuple of its nonzeros (row, value), by row.  Exact code reads
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

import csv
import io
import itertools
import re

import numpy as np
import scipy.sparse

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


def _columns(mat, what="entry"):
    """Sparse columns of a dense 2-d integer matrix, tuples of (row, int) by
    row; refuses the first entry, row-major, that is != 0 and not an integer."""
    mat = np.asarray(mat, dtype=object)
    if mat.ndim != 2:
        raise ValueError("need a 2-d matrix")
    cols = [[] for _ in range(mat.shape[1])]
    at_row, at_col = np.nonzero(mat != 0)
    for i, j in zip(at_row.tolist(), at_col.tolist()):
        v = mat[i, j]
        if not _integral(v):
            raise ValueError(f"{what} ({i}, {j}) = {v!r} is not an integer")
        cols[j].append((i, int(v)))
    return tuple(map(tuple, cols))


def _to_dense(columns, n_rows, dtype=object):
    """The n_rows x len(columns) array of sparse columns (zeros elsewhere)."""
    out = np.zeros((n_rows, len(columns)), dtype=dtype)
    for j, col in enumerate(columns):
        for i, v in col:
            out[i, j] = v
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
        self.n_vertices = n_vertices

        levels = [list(level) for level in simplexes_by_dim]
        while levels and not levels[-1]:
            levels.pop()
        if not levels:
            levels = [[]]
        stored = set()
        for k, level in enumerate(levels):
            for s in level:
                s = tuple(int(v) for v in s)
                if len(s) != k + 1:
                    raise ValueError(f"{s} listed at dimension {k}")
                if any(a >= b for a, b in zip(s, s[1:])):
                    raise ValueError(f"simplex {s} is not strictly increasing")
                if s[0] < 0 or s[-1] >= n_vertices:
                    raise ValueError(f"simplex {s} has a vertex out of range")
                stored.add(s)
        expected_vertices = {(v,) for v in range(n_vertices)}
        if not expected_vertices <= {s for s in stored if len(s) == 1}:
            stored |= expected_vertices
        # face closure
        for s in stored:
            for j in range(len(s)):
                face = s[:j] + s[j + 1:]
                if face and face not in stored:
                    raise ValueError(f"face {face} of {s} is missing")
        dim = max(len(s) for s in stored) - 1
        self.simplexes_by_dim = [
            sorted(s for s in stored if len(s) == k + 1) for k in range(dim + 1)
        ]

    @classmethod
    def from_maximal(cls, maximal, n_vertices=None):
        """Build the closure of a list of simplexes (any order, any overlap)."""
        stored = set()
        top = 0
        for s in maximal:
            s = tuple(sorted(int(v) for v in s))
            if len(set(s)) != len(s):
                raise ValueError(f"repeated vertex in simplex {s}")
            if s and s[0] < 0:
                raise ValueError(f"negative vertex in simplex {s}")
            top = max(top, s[-1] + 1 if s else 0)
            for r in range(1, len(s) + 1):
                stored.update(itertools.combinations(s, r))
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
        all_faces = set()
        for k in range(1, self.dim + 1):
            for s in self.simplexes(k):
                for j in range(len(s)):
                    all_faces.add(s[:j] + s[j + 1:])
        out = []
        for k in range(self.dim + 1):
            out.extend(s for s in self.simplexes(k) if s not in all_faces)
        return out

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return (self.n_vertices == other.n_vertices
                and self.simplexes_by_dim == other.simplexes_by_dim)

    def __repr__(self):
        counts = ", ".join(str(self.n_simplexes(k)) for k in range(self.dim + 1))
        return f"SimplicialComplex(dims=({counts}))"


def _face_columns(complex, k):
    """Sparse columns of B_k: each k-simplex's alternating face signs, rows in
    order (the face deleting vertex j sorts before the one deleting j - 1)."""
    if k < 1:
        return ((),) * complex.n_simplexes(k)
    face_index = {s: i for i, s in enumerate(complex.simplexes(k - 1))}
    return tuple(
        tuple((face_index[s[:j] + s[j + 1:]], -1 if j % 2 else 1)
              for j in range(k, -1, -1))
        for s in complex.simplexes(k))


class ChainComplexRep:
    """Boundary-matrix presentation of a chain complex.

    dims       -- (n_0, ..., n_K), the rank of each chain group
    boundaries -- [B_1, ..., B_K]; B_k is integer, shape n_{k-1} x n_k
    labels     -- optional per-dimension cell labels (for reports only)
    """

    def __init__(self, dims, boundaries, labels=None, name=None):
        dims = tuple(int(n) for n in dims)
        if not dims or any(n < 0 for n in dims):
            raise ValueError("dims must be a non-empty tuple of sizes >= 0")
        if len(boundaries) != len(dims) - 1:
            raise ValueError("need exactly one boundary matrix per adjacent pair of dims")
        self.dims = dims
        self._columns = {}
        for k, mat in enumerate(boundaries, start=1):
            mat = np.asarray(mat, dtype=object)
            if mat.shape != (dims[k - 1], dims[k]):
                raise ValueError(f"B_{k} has shape {mat.shape}, expected the 2-d "
                                 f"shape {(dims[k - 1], dims[k])}")
            self._columns[k] = _columns(mat, f"B_{k} entry")
        self.labels = labels
        self.name = name
        self._cache = {}

    @classmethod
    def _from_columns(cls, dims, columns, labels=None):
        """The rep of integral sparse columns [B_1, ..., B_K] of the right shapes."""
        rep = cls((0,), [], labels)
        rep.dims, rep._columns = tuple(dims), dict(enumerate(columns, start=1))
        return rep

    @property
    def dim(self):
        return len(self.dims) - 1

    def n_cells(self, k):
        if 0 <= k <= self.dim:
            return self.dims[k]
        return 0

    def columns(self, k):
        """B_k as stored: per column, a tuple of (row, int) by row; off-range
        degrees give n_k empty columns."""
        if k in self._columns:
            return self._columns[k]
        return ((),) * self.n_cells(k)

    def boundary_matrix(self, k):
        """A fresh dense object array of the exact integer B_k."""
        return _to_dense(self.columns(k), self.n_cells(k - 1))

    def boundary_float(self, k):
        """A fresh dense float array of B_k."""
        return _to_dense(self.columns(k), self.n_cells(k - 1), float)

    def _sparse_boundary(self, k):
        """B_k as a float `scipy.sparse` CSR array, built once from the
        columns; the library's float code reads this, not `boundary_float`."""
        def build():
            cols = self.columns(k)
            indptr = np.cumsum([0] + [len(col) for col in cols])
            rows = [i for col in cols for i, _ in col]
            vals = [v for col in cols for _, v in col]
            return scipy.sparse.csc_array(
                (np.array(vals, dtype=float), np.array(rows, dtype=np.int64), indptr),
                shape=(self.n_cells(k - 1), len(cols))).tocsr()
        return self._memo(("sparse", k), build)

    def _memo(self, key, build):
        """The value cached under `key`, from build() on first use.

        One dict per rep holds every derived value (sparse boundaries, Gram
        eigenpairs, Hodge bases, eliminations); the values depend on the
        rep alone, so a concurrent first use at worst builds one twice.
        """
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"ChainComplexRep{tag}(dims={self.dims})"


def to_chain_complex(complex):
    """ChainComplexRep of a simplicial complex, labels = vertex tuples."""
    dims = [complex.n_simplexes(k) for k in range(complex.dim + 1)]
    columns = [_face_columns(complex, k) for k in range(1, complex.dim + 1)]
    labels = [list(complex.simplexes(k)) for k in range(complex.dim + 1)]
    return ChainComplexRep._from_columns(dims, columns, labels=labels)


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

    Each column of the product sums the columns of B_k picked out by the
    nonzeros of the matching column of B_{k+1}, in Python ints; failures are
    listed row-major, as a dense product would give them.
    """
    failures = []
    for k in range(1, rep.dim):
        down = rep.columns(k)
        entries = []
        for j, col in enumerate(rep.columns(k + 1)):
            total = {}
            for i, v in col:
                for r, w in down[i]:
                    total[r] = total.get(r, 0) + w * v
            entries.extend((r, j, s) for r, s in total.items() if s)
        failures.extend((k, i, j, s) for i, j, s in sorted(entries))
    return ValidationReport(not failures, failures)


# -- canonical complexes -----------------------------------------------------

# one grammar for every named complex: fixed canonical names, the
# parametrized graphs, and the seeded random generator
_SPEC = re.compile(
    r"(?P<fixed>rp2|torus|filled_triangle)"
    r"|(?P<graph>cycle|path)\((?P<n>\d+)\)"
    r"|random\(\s*(?P<vertices>\d+)\s*,\s*(?P<edge_prob>[0-9.eE+-]+)\s*,"
    r"\s*(?P<fill_prob>[0-9.eE+-]+)\s*,\s*(?P<seed>\d+)\s*\)")
_FLOAT = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


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
    name = name.strip()
    if name == "rp2":
        b1 = [[-1, -1, 0], [1, 1, 0]]
        b2 = [[-1, 1], [1, -1], [1, 1]]
        return ChainComplexRep((2, 3, 2), [b1, b2], name="rp2",
                               labels=[["v", "w"], ["a", "b", "c"], ["U", "L"]])
    if name == "torus":
        b1 = [[0, 0, 0]]
        b2 = [[1, 1], [1, 1], [-1, -1]]
        return ChainComplexRep((1, 3, 2), [b1, b2], name="torus",
                               labels=[["v"], ["a", "b", "c"], ["U", "L"]])
    if name == "filled_triangle":
        rep = to_chain_complex(SimplicialComplex.from_maximal([(0, 1, 2)]))
        rep.name = "filled_triangle"
        return rep
    m = _SPEC.fullmatch(name)
    if m and m["graph"]:
        kind, n = m["graph"], int(m["n"])
        if kind == "cycle":
            if n < 3:
                raise UnsupportedError("cycle(n) needs n >= 3")
            edges = [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
        else:
            if n < 1:
                raise UnsupportedError("path(n) needs n >= 1")
            edges = [(i, i + 1) for i in range(n - 1)]
        sc = SimplicialComplex.from_maximal(edges + [(v,) for v in range(n)])
        rep = to_chain_complex(sc)
        rep.name = name
        return rep
    raise UnsupportedError(
        f"unknown complex {name!r}; known: rp2, torus, filled_triangle, "
        "cycle(n), path(n)")


def random_complex(n_vertices, edge_prob, fill_prob, seed):
    """Random 2-complex: G(n, edge_prob) edges, then each triangle of the
    edge graph kept with probability fill_prob.  Face-closed by construction
    and deterministic for a fixed seed (edges drawn in lexicographic pair
    order, then triangles in lexicographic triple order).
    """
    if not (0.0 <= edge_prob <= 1.0 and 0.0 <= fill_prob <= 1.0):
        raise ValueError("probabilities must be in [0, 1]")
    if n_vertices < 1:
        raise ValueError("need at least one vertex")
    rng = np.random.default_rng(seed)
    edges = set()
    for pair in itertools.combinations(range(n_vertices), 2):
        if rng.random() < edge_prob:
            edges.add(pair)
    triangles = []
    for a, b, c in itertools.combinations(range(n_vertices), 3):
        if {(a, b), (a, c), (b, c)} <= edges and rng.random() < fill_prob:
            triangles.append((a, b, c))
    maximal = triangles + sorted(edges) + [(v,) for v in range(n_vertices)]
    return SimplicialComplex.from_maximal(maximal, n_vertices=n_vertices)


def default_experiment_complex():
    """The built-in benchmark complex: a dense core plus a genuine 1-cycle.

    A random 2-complex on vertices 0..19 (every triangle of the graph
    filled) is bridged to a hexagonal ring on vertices 20..25.  The ring
    bounds no triangles, so its circulation is exactly harmonic and the
    degree-1 harmonic space is nontrivial; the core supplies enough
    gradient and curl directions for the default basis sizes.
    """
    core = random_complex(20, 0.5, 1.0, seed=11)
    extra = [(20, 21), (21, 22), (22, 23), (23, 24), (24, 25), (20, 25),
             (0, 20)]
    maximal = core.maximal_simplexes() + extra
    return to_chain_complex(SimplicialComplex.from_maximal(maximal, n_vertices=26))


def resolve_complex(spec):
    """Interpret a complex spec: default, canonical, random, or path."""
    if spec == "default":
        return default_experiment_complex()
    m = _SPEC.fullmatch(spec)
    if m and m["vertices"]:
        fields = ("edge_prob", "fill_prob")
        if bad := [f for f in fields if not _FLOAT.fullmatch(m[f])]:
            raise FormatError(f"complex {spec!r}: {bad[0]} {m[bad[0]]!r} is not a number")
        probs = [float(m[f]) for f in fields]
        if bad := [(f, v) for f, v in zip(fields, probs) if not 0 <= v <= 1]:
            raise FormatError(f"complex {spec!r}: {bad[0][0]} {bad[0][1]} is not in [0, 1]")
        if (n_vertices := int(m["vertices"])) < 1:
            raise FormatError(f"complex {spec!r}: n_vertices {n_vertices} is below 1")
        return to_chain_complex(random_complex(n_vertices, *probs, int(m["seed"])))
    if m:
        return canonical_complex(spec)
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
