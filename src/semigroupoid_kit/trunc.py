"""Finite matrix truncations of isometric families, with interior-exact checks.

Two models are built.  The left-regular truncation acts on the paths of
length at most N from a source set; edges prepend themselves and annihilate
the top grade.  The colored model assigns each vertex a block spanned by
color words of length at most N and lets an edge act as the truncated
left-regular word shift of its color between blocks: a strong complete
coloring makes paths into a vertex correspond bijectively to color words,
which is what the checks below exploit.  Genuine everywhere-defined
coisometric word families have no finite matrix model, so the word shifts
stand in for them and every axiom is verified on interior grades where the
truncation is artifact-free; boundary residuals are reported separately and
are never failures.

Matrix entries of all generators are 0 or a single unimodular phase per
column, so sums and products of small integer combinations stay exactly
representable and interior residuals of phase-free models are exactly 0.0
in floating point, no tolerance needed.

Every operator the builders make is a weighted partial injection, a
column -> row index map with one value per column.  The builders compute
the maps in closed form and keep them on the ``TruncatedRep``; the checks
compose them, so every ``A* A`` or ``A A*`` is a diagonal.  An operator's
CSR matrix is built on first read.  One read out that way, or assigned, is
decoded from its CSR arrays, in O(nnz), so an edit is checked as it stands;
two nonzeros in a row or a column raise ``DomainError("truncation operator
is not a partial injection", op=...)`` with ``op`` ``"v:<vertex>"`` or ``"e:<edge>"``.
"""

from __future__ import annotations

from collections import UserDict
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import product
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, EnumerationOverflow
from .graph import Graph, cycle_graph
from .paths import BASIS_CAP, SYMBOL_CAP, Path, _count_levels, _sources, enumerate_paths
from .paths import path_range
from .roadcoloring import Coloring, format_word, validate_coloring
from .series import FormalElement


class TruncatedRep:
    """A "left_regular" or "colored" truncation: basis grades, a projection
    per vertex and an operator per edge.  The builders pass None for
    ``labels`` and ``label_vertex``, made on first read from ``meta``."""

    def __init__(
        self, graph: Graph, depth: int, kind: str, labels: list | None, grades: np.ndarray,
        label_vertex: list[str] | None, vertex_ops, edge_ops, meta: dict | None = None,
    ):
        self.graph, self.depth, self.kind, self.grades = graph, depth, kind, grades
        self.vertex_ops, self.edge_ops, self.meta = vertex_ops, edge_ops, meta or {}
        if labels is not None:
            self.labels = labels
        if label_vertex is not None:
            self.label_vertex = label_vertex

    def __setattr__(self, name: str, value) -> None:
        if name in ("vertex_ops", "edge_ops"):
            value = _Operators(value)
        super().__setattr__(name, value)

    @cached_property
    def labels(self) -> list:
        """Paths for the left-regular model, (vertex, word) for the colored one."""
        if self.kind == "left_regular":
            return enumerate_paths(self.graph, self.meta["sources"], self.depth)
        letters = range(1, self.meta["coloring"]["d"] + 1)
        # one block's words, shared by every vertex; a graph with no vertex has none
        levels = range(self.depth + 1 if self.graph.vertices else 0)
        words = [format_word(w) for k in levels for w in product(letters, repeat=k)]
        return [(v, w) for v in self.graph.sorted_vertices() for w in words]

    @cached_property
    def label_vertex(self) -> list[str]:
        colored = self.kind == "colored"
        return [label[0] if colored else path_range(self.graph, label) for label in self.labels]

    @property
    def dim(self) -> int:
        return len(self.grades)

    def index(self) -> dict:
        return {label: i for i, label in enumerate(self.labels)}


class _Operators(UserDict):
    """The operators of a rep by vertex or edge id; ``data`` holds each as a
    builder's ``_Map`` or as a matrix.  A map is read as its CSR matrix,
    built on first read and held in its place, so an edit to what was read
    is what the checks see."""

    def __init__(self, ops):
        self.data = ops

    def __getitem__(self, key: str):
        op = self.data[key]
        if isinstance(op, _Map):
            op = self.data[key] = _csr(len(op.row), *_entries(op))
        return op


def build_left_regular_trunc(g: Graph, sources, depth: int) -> TruncatedRep:
    """Truncation of the path-space family generated by the source vertices.

    The basis is ``enumerate_paths(g, sources, depth)``, by length and then
    by stored edge tuple, which starts with the last edge.  So level k+1
    lists, for each edge e in id order, the level-k paths that end at the
    source of e, in level-k order, and e sends each of them there.
    """
    if depth < 0:
        raise DomainError("depth must be nonnegative", depth=depth)
    start = _sources(g, sources)
    _count_levels(g, start, depth)
    verts, edges = g.sorted_vertices(), g.sorted_edge_ids()
    at = {v: i for i, v in enumerate(verts)}
    src, dst = (np.array([at[end(e)] for e in edges], dtype=np.intp) for end in (g.src, g.dst))
    ends = [np.array([at[v] for v in start], dtype=np.intp)]  # each level's ranges
    parent, via = [ends[0][:0]], [ends[0][:0]]  # for each longer path: what it extends, by what
    first = 0  # index of the first path of the last level
    while len(ends) <= depth and len(ends[-1]):
        level = ends[-1]
        order = np.argsort(level, kind="stable")
        bounds = np.searchsorted(level[order], np.arange(len(verts) + 1))
        count = bounds[src + 1] - bounds[src]  # the paths each edge extends
        edge = np.repeat(np.arange(len(edges)), count)
        # the k-th path an edge extends is order[bounds[src] + k]
        skip = np.repeat(bounds[src] - (np.cumsum(count) - count), count)
        parent.append(order[skip + np.arange(len(edge))] + first)
        via.append(edge)
        ends.append(dst[edge])
        first += len(level)
    end, parent, via = (np.concatenate(part) for part in (ends, parent, via))
    n = len(end)
    blocks = [np.flatnonzero(end == i) for i in range(len(verts))]
    hits = [np.flatnonzero(via == j) for j in range(len(edges))]
    return TruncatedRep(
        g, depth, "left_regular", None,
        np.repeat(np.arange(len(ends)), [len(level) for level in ends]), None,
        {v: _from_entries(n, rows, rows) for v, rows in zip(verts, blocks)},
        {e: _from_entries(n, hit + len(start), parent[hit]) for e, hit in zip(edges, hits)},
        {"sources": start},
    )


def build_colored_trunc(g: Graph, coloring: Coloring, depth: int) -> TruncatedRep:
    """Colored model: vertex blocks of color words, edges act by their color shift.

    A block holds the words of length 0..depth by length, then in base-d
    order.  So the word w of length k has local index j = off[k] + rank(w),
    and an edge of colour c sends it to c w at off[k+1] + (c-1) d^k +
    rank(w) = j + c d^k.
    """
    if depth < 0:
        raise DomainError("depth must be nonnegative", depth=depth)
    report = validate_coloring(g, coloring)
    if not report.valid:
        raise DomainError("coloring is not strong", findings=[f.message for f in report.errors])
    d = coloring.d
    for v in g.sorted_vertices():
        # strong with colours in 1..d: complete iff the in-fibre has d edges
        if len(g.in_edges(v)) != d:
            raise DomainError(
                "colored truncation needs a complete strong coloring "
                "(in-degree d-regular, every color in every fiber)", vertex=v
            )
    size, symbols = _colored_basis_size(len(g.vertices), d, depth)
    if size > BASIS_CAP:
        raise EnumerationOverflow("basis too large", size=size, cap=BASIS_CAP)
    if symbols > SYMBOL_CAP:
        raise EnumerationOverflow(
            "basis exceeds the symbol budget", size=size, symbols=symbols, budget=SYMBOL_CAP
        )
    # words per length; a graph with no vertex has none, at any depth
    count = d ** np.arange(depth + 1 if g.vertices else 0)
    grade = np.repeat(np.arange(len(count)), count)  # of each word in a block
    j = np.flatnonzero(grade < depth)  # the words an edge moves
    at = {v: i * len(grade) for i, v in enumerate(g.sorted_vertices())}
    n, step = len(at) * len(grade), count[grade[j]]  # d^k for each word moved
    blocks = {v: base + np.arange(len(grade)) for v, base in at.items()}
    return TruncatedRep(
        g, depth, "colored", None, np.tile(grade, len(at)), None,
        {v: _from_entries(n, rows, rows) for v, rows in blocks.items()},
        {
            e: _from_entries(n, at[g.dst(e)] + j + coloring.of(e) * step, at[g.src(e)] + j)
            for e in g.sorted_edge_ids()
        },
        {"coloring": coloring.to_json_dict()},
    )


def _colored_basis_size(vertices: int, d: int, depth: int) -> tuple[int, int]:
    """(size, symbols), in integers: the colored basis size |V| * (d^0 + ...
    + d^depth) and its colour words' total length |V| * (1 d^1 + ... + depth d^depth).

    Exact up to a size of BASIS_CAP**2.  Past that the sums stop at the
    first level that crosses it, so a huge depth neither loops long nor
    yields a number too long to print; any such figure is far over the cap.
    """
    if d == 1 or not vertices:  # the levels do not grow
        return vertices * min(depth + 1, BASIS_CAP**2), vertices * depth * (depth + 1) // 2
    size, symbols, level = vertices, 0, vertices
    for length in range(1, depth + 1):
        level *= d
        size, symbols = size + level, symbols + length * level
        if size > BASIS_CAP**2:
            break
    return size, symbols


# ---------------------------------------------------------------------------
# operators as index maps


class _Map(NamedTuple):
    """A weighted partial injection: column c holds ``val[c]`` at row
    ``row[c]``.  ``dom`` lists the nonzero columns in increasing order; off
    it ``row`` is -1 and ``val`` is 0."""

    row: np.ndarray
    val: np.ndarray
    dom: np.ndarray


def _csr(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> sp.csr_matrix:
    """n x n CSR matrix with ``vals`` at (``rows``, ``cols``), columns
    increasing, built from its arrays with no COO pass."""
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n))
    return sp.csr_matrix((vals[order], cols[order].astype(np.int32), indptr), shape=(n, n))


def _decode(op, name: str) -> _Map:
    """The map of one operator, read from its CSR arrays in O(nnz)."""
    op = sp.csr_matrix(op, copy=True)
    op.sum_duplicates()
    keep = op.data != 0
    rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))[keep]
    cols = op.indices[keep]
    if rows.size and max(np.bincount(rows).max(), np.bincount(cols).max()) > 1:
        raise DomainError("truncation operator is not a partial injection", op=name)
    return _from_entries(op.shape[1], rows, cols, op.data[keep])


def _from_entries(n: int, rows: np.ndarray, cols: np.ndarray, vals=None) -> _Map:
    """The map with ``vals[i]``, or 1.0, at (``rows[i]``, ``cols[i]``), columns distinct."""
    row = np.full(n, -1, dtype=np.int32)
    row[cols] = rows
    val = np.zeros(n, dtype=float if vals is None else vals.dtype)
    val[cols] = 1.0 if vals is None else vals
    return _Map(row, val, np.sort(cols).astype(np.int32, copy=False))


class _Ops:
    """The operators of one truncation as maps: a builder's map as it is, a
    matrix decoded on first use."""

    def __init__(self, rep: TruncatedRep):
        self.rep = rep
        self.maps: dict[str, _Map] = {}

    def vertex(self, v: str) -> _Map:
        return self._map("vertex", self.rep.vertex_ops, v)

    def edge(self, eid: str) -> _Map:
        return self._map("edge", self.rep.edge_ops, eid)

    def _map(self, kind: str, ops: _Operators, key: str) -> _Map:
        name = f"{kind[0]}:{key}"
        if name not in self.maps:
            if key not in ops:
                raise DomainError(f"unknown {kind}", **{kind: key})
            op = ops.data[key]
            self.maps[name] = op if isinstance(op, _Map) else _decode(op, name)
        return self.maps[name]

    def path(self, p: Path) -> _Map:
        """Map of S_p: the vertex projection for length 0, else the product of
        the edge maps, composed left to right as the matrix product runs."""
        if not p.edges:
            return self.vertex(p.base)
        m = self.edge(p.edges[0])
        for eid in p.edges[1:]:
            m = _from_entries(len(m.row), *_product(m, self.edge(eid)))
        return m


def _product(a: _Map, b: _Map) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, vals) of the entries of a @ b: b sends column c to row
    b.row[c], and a sends that on to a.row[b.row[c]]."""
    mid = b.row[b.dom]
    hit = a.row[mid] >= 0
    cols, mid = b.dom[hit], mid[hit]
    return a.row[mid], cols, a.val[mid] * b.val[cols]


def _square(vals: np.ndarray) -> np.ndarray:
    """|v|^2 entry by entry, as the product v * conj(v) forms its real part."""
    if np.iscomplexobj(vals):
        return vals.real * vals.real + vals.imag * vals.imag
    return vals * vals


def _range_diagonal(m: _Map, weight: np.ndarray) -> np.ndarray:
    """Diagonal of S diag(weight) S* for the operator S of the map m."""
    rows = m.row[m.dom]
    return np.bincount(rows, weights=_square(m.val[m.dom]) * weight[m.dom], minlength=len(m.row))


def _add_up(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, increasing, and each one's values summed from zero
    in the order given."""
    keys, where = np.unique(keys, return_inverse=True)
    total = np.zeros(len(keys), dtype=vals.dtype)
    np.add.at(total, where, vals)
    return keys, total


class _Sum(NamedTuple):
    """A matrix given as a sum of sparse terms: ``re`` and ``im`` (None for a
    real sum) hold its diagonal, and its entries off the diagonal are listed
    by row, column and value."""

    re: np.ndarray
    im: np.ndarray | None
    off_row: np.ndarray
    off_col: np.ndarray
    off_val: np.ndarray


def _entries(m: _Map, negate: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, vals) of the entries of a map, or of its negative."""
    vals = m.val[m.dom]
    return m.row[m.dom], m.dom, -vals if negate else vals


def _sum(n: int, terms: list) -> _Sum:
    """Add sparse terms (rows, cols, vals) the way a running sparse sum adds
    them: each entry is summed from zero, in the order of the terms.

    Healthy operators put every entry on the diagonal, which one
    ``np.bincount`` sums; only a corrupted operator puts entries off it.
    """
    rows, cols, vals = (np.concatenate(part) for part in zip(*terms))
    on = rows == cols
    re = np.bincount(cols[on], weights=vals.real[on], minlength=n)
    im = None
    if np.iscomplexobj(vals):
        im = np.bincount(cols[on], weights=vals.imag[on], minlength=n)
    off = ~on
    if not off.any():
        return _Sum(re, im, rows[off], cols[off], vals[off])
    keys, total = _add_up(rows[off].astype(np.int64) * n + cols[off], vals[off])
    return _Sum(re, im, *np.divmod(keys, n), total)


def _residual(s: _Sum, inside: np.ndarray) -> tuple[float, float]:
    """(max |entry| over the columns ``inside`` marks, max over the rest) of a
    summed matrix."""
    mags = np.abs(s.re) if s.im is None else np.hypot(s.re, s.im)
    off = np.hypot(s.off_val.real, s.off_val.imag)
    hit = inside[s.off_col]
    return (
        max(_max_or_zero(mags[inside]), _max_or_zero(off[hit])),
        max(_max_or_zero(mags[~inside]), _max_or_zero(off[~hit])),
    )


# ---------------------------------------------------------------------------
# relation checks


@dataclass
class RelationReport:
    relation: str
    interior_lo: int
    interior_hi: int
    max_residual: float
    exact_zero: bool
    boundary_residual: float
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.max_residual == 0.0

    def to_json(self) -> dict:
        data = asdict(self)
        data["interior"] = [data.pop("interior_lo"), data.pop("interior_hi")]
        return data


def _entry_residual(
    cols: np.ndarray, vals: np.ndarray, grades: np.ndarray, lo: int, hi: int
) -> tuple[float, float]:
    """(max |entry| over the entries in columns with grade in [lo, hi], max
    over the rest), for the entries ``vals`` in the columns ``cols``."""
    # abs() entry by entry; np.abs of complex data can differ from it in the last bit
    mags = np.hypot(vals.real, vals.imag)
    grade = grades[cols]
    inside = (lo <= grade) & (grade <= hi)
    return _max_or_zero(mags[inside]), _max_or_zero(mags[~inside])


def _max_or_zero(mags: np.ndarray) -> float:
    return float(mags.max()) if mags.size else 0.0


def _worst(values, details: list[str]) -> tuple[float, str]:
    """The largest value and the detail of the first place it occurs, or
    (0.0, "") when every value is zero."""
    worst, detail = 0.0, ""
    for value, text in zip(values, details):
        if value > worst:
            worst, detail = float(value), text
    return worst, detail


def verify_tck(rep: TruncatedRep) -> list[RelationReport]:
    """Check the isometric-family axioms as matrix identities on interior grades.

    (P) projections orthogonal, (ND) vertex sum is the identity, and the
    domination inequality are artifact-free at every grade; identities that
    move one edge, (IS), lose the top grade; range-sum identities (CK)/(F)
    also lose grade 0, where the wandering vectors of a truncation live.
    Boundary residuals are recorded but do not affect the residual field.

    Every matrix checked is one ``_sum`` of sparse terms, each term an
    index composition of the operators' maps.
    """
    g = rep.graph
    grades = rep.grades
    N = rep.depth
    n = rep.dim
    ops = _Ops(rep)
    verts = g.sorted_vertices()
    proj = {v: ops.vertex(v) for v in verts}
    edges = {eid: ops.edge(eid) for eid in g.sorted_edge_ids()}
    reports: list[RelationReport] = []

    def within(lo: int, hi: int) -> np.ndarray:
        return (lo <= grades) & (grades <= hi)

    every, below_top, interior = within(0, N), within(0, N - 1), within(1, N - 1)
    values, details = [], []
    for v, s in proj.items():
        rows, cols, vals = _entries(s)
        square = _sum(n, [_product(s, s), (rows, cols, -vals)])
        adjoint = _sum(n, [(rows, cols, vals), (cols, rows, -vals.conj())])
        values.append(max(_residual(square, every)[0], _residual(adjoint, every)[0]))
        details.append(f"projection identity fails at {v}")
    for i, v in enumerate(verts):
        for w in verts[i + 1:]:
            _, cols, vals = _product(proj[v], proj[w])
            values.append(_entry_residual(cols, vals, grades, 0, N)[0])
            details.append(f"projections at {v} and {w} overlap")
    worst, detail = _worst(values, details)
    reports.append(RelationReport("P", 0, N, worst, worst == 0.0, 0.0, detail))

    # S_e* S_e - S_src(e); S_e* S_e is the diagonal |val|^2 on the columns of e
    values, boundary = [], 0.0
    for eid, e in edges.items():
        square = (e.dom, e.dom, _square(e.val[e.dom]))
        inner, outer = _residual(_sum(n, [square, _entries(proj[g.src(eid)], True)]), below_top)
        values.append(inner)
        boundary = max(boundary, outer)
    worst, detail = _worst(values, [f"isometry identity fails at {eid}" for eid in edges])
    reports.append(RelationReport("IS", 0, N - 1, worst, worst == 0.0, boundary, detail))

    # S_v minus the range sum of the edges into v, which TCK, CK and F read;
    # S_e S_e* is the diagonal |val|^2 on the rows of e.  On the diagonal the
    # defect exceeds by its negative real part or its imaginary part, off it
    # by its modulus.
    excess, misses = [], {}
    for v in verts:
        terms = []
        for eid in g.in_edges(v):
            e = edges[eid]
            rows = e.row[e.dom]
            terms.append((rows, rows, -_square(e.val[e.dom])))
        defect = _sum(n, terms + [_entries(proj[v])])
        over = -defect.re if defect.im is None else np.maximum(-defect.re, np.abs(defect.im))
        off = np.hypot(defect.off_val.real, defect.off_val.imag)
        excess.append(max(float(over.max(initial=0.0)), _max_or_zero(off)))
        misses[v] = _residual(defect, interior)
    worst, detail = _worst(excess, [f"range sum exceeds the projection at {v}" for v in verts])
    reports.append(RelationReport("TCK", 0, N, worst, worst == 0.0, 0.0, detail))

    for name, keep in (("CK", [v for v in verts if g.in_edges(v)]), ("F", verts)):
        worst, detail = _worst(
            [misses[v][0] for v in keep], [f"range sum misses the projection at {v}" for v in keep]
        )
        boundary = max([0.0] + [misses[v][1] for v in keep])
        reports.append(RelationReport(name, 1, N - 1, worst, worst == 0.0, boundary, detail))

    diagonal = np.arange(n)
    total = _sum(n, [_entries(s) for s in proj.values()] + [(diagonal, diagonal, -np.ones(n))])
    worst = _residual(total, every)[0]
    reports.append(RelationReport("ND", 0, N, worst, worst == 0.0, 0.0, ""))
    return reports


def path_matrix(rep: TruncatedRep, p: Path) -> sp.csr_matrix:
    """Matrix of S_p: product of edge matrices, vertex projection for length 0.

    A path of length 0 or 1 gives its stored operator itself; a longer one
    composes the edge maps into a new CSR matrix.
    """
    if len(p.edges) > 1:
        return _csr(rep.dim, *_entries(_Ops(rep).path(p)))
    kind, ops, key = ("edge", rep.edge_ops, p.edges[0]) if p.edges else (
        "vertex", rep.vertex_ops, p.base
    )
    if key not in ops:
        raise DomainError(f"unknown {kind}", **{kind: key})
    return ops[key].tocsr()


def apply_formal(rep: TruncatedRep, elem: FormalElement) -> sp.csr_matrix:
    """Truncated matrix of a formal polynomial.

    The terms' entries are added in term order, each entry's sum running
    left to right from zero as a running sparse sum adds them.
    """
    if elem.graph.key != rep.graph.key:
        raise DomainError("formal element and truncation use different graphs")
    n = rep.dim
    ops = _Ops(rep)
    keys, vals = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=complex)]
    for p, c in elem.sorted_terms():
        m = ops.path(p)
        keys.append(m.row[m.dom].astype(np.int64) * n + m.dom)
        vals.append(m.val[m.dom].astype(complex) * c)
    keys, total = _add_up(np.concatenate(keys), np.concatenate(vals))
    nonzero = total != 0
    return _csr(n, *np.divmod(keys[nonzero], n), total[nonzero])


def coisometric_defect(rep: TruncatedRep, k: int) -> tuple[float, float]:
    """(max |sum - I| on grades >= k, max |sum| on grades < k) for the grade-k
    range sum over all paths of length k.

    For a complete strong coloring the length-k paths into a vertex carry
    every length-k color word exactly once, so the sum acts as the identity
    on every grade at least k; on a left-regular truncation it is the
    projection onto grades at least k, so it vanishes below grade k.  Both
    statements are checked from this one defect pair.

    No path is built.  The sum is diagonal, and the part over the paths
    into w is R_k^w = sum over edges e into w of S_e R_{k-1}^{src e} S_e*,
    starting from R_0 = I (or S_v S_v* itself when k = 0).  The paths are
    counted first, against the same budget as ``enumerate_paths``.
    """
    if k < 0:
        raise DomainError("grade must be nonnegative", k=k)
    g = rep.graph
    n = rep.dim
    _count_levels(g, sorted(g.vertices), k)
    ops = _Ops(rep)
    verts = g.sorted_vertices()
    ones = np.ones(n)
    if k == 0:
        total = sum((_range_diagonal(ops.vertex(v), ones) for v in verts), np.zeros(n))
    else:
        weight = dict.fromkeys(verts, ones)
        for _ in range(k):
            weight = {
                w: sum(
                    (_range_diagonal(ops.edge(eid), weight[g.src(eid)]) for eid in g.in_edges(w)),
                    np.zeros(n),
                )
                for w in verts
            }
            if not any(r.any() for r in weight.values()):
                break  # no longer path reaches a nonzero vector
        total = sum(weight.values(), np.zeros(n))
    cols = np.arange(n)
    upper = _entry_residual(cols, total - 1.0, rep.grades, k, rep.depth)[0]
    lower = _entry_residual(cols, total, rep.grades, 0, k - 1)[0] if k > 0 else 0.0
    return upper, lower


def wandering_certificate(rep: TruncatedRep, label, upto: int | None = None) -> bool:
    """Exact pairwise-orthogonality check of the path orbit of one basis vector.

    Certifies wandering behavior through grade ``upto`` (default N-1): the
    images S_mu xi over distinct paths mu must have disjoint supports or
    vanish.  Every operator is a weighted partial injection, so each image
    is one basis vector times a nonzero value, or zero, and the check is
    that the nonzero images land on distinct basis vectors.
    """
    if upto is None:
        upto = rep.depth - 1
    try:
        idx = rep.index()[label]
    except KeyError:
        raise DomainError("unknown basis label", label=str(label)) from None
    base = rep.label_vertex[idx]
    ops = _Ops(rep)
    image = {(): idx}  # stored edge tuple -> where the edges send idx, -1 once it vanishes
    hit = set()
    for p in enumerate_paths(rep.graph, [base], max(0, upto)):
        if p.edges:
            j = image[p.edges[1:]]
            j = image[p.edges] = int(ops.edge(p.edges[0]).row[j]) if j >= 0 else -1
        else:
            j = int(ops.vertex(base).row[idx])
        if j >= 0:
            if j in hit:
                return False
            hit.add(j)
    return True


# ---------------------------------------------------------------------------
# cycle truncation block identity


@dataclass
class CycleLemmaReport:
    n: int
    depth: int
    ok: bool
    max_residual: float
    blocks: list[str]

    def to_json(self) -> dict:
        return asdict(self)


def cycle_lemma_check(n: int, depth: int) -> CycleLemmaReport:
    """Verify the block form of the cycle-graph truncation.

    On the n-cycle from its first vertex, regrouping the path basis by end
    vertex writes every edge but the closing one as the identity between
    consecutive vertex blocks, and the closing edge as the one-step shift
    back into the first block.  The comparison is exact: expected and built
    matrices are equal entry by entry over the integers.
    """
    if n < 1:
        raise DomainError("cycle length must be positive", n=n)
    if depth < n:
        raise DomainError("depth below the cycle length leaves blocks empty", depth=depth)
    g = cycle_graph(n)
    rep = build_left_regular_trunc(g, ["v1"], depth)
    ops = _Ops(rep)
    worst = 0.0
    blocks: list[str] = []
    for i in range(1, n + 1):
        # the path of length k is basis vector k, which e_i moves when k = i - 1 mod n
        want = _from_entries(rep.dim, np.arange(i, depth + 1, n), np.arange(i - 1, depth, n))
        diff = _sum(rep.dim, [_entries(ops.edge(f"e{i}")), _entries(want, negate=True)])
        residual = _residual(diff, rep.grades >= 0)[0]
        worst = max(worst, residual)
        block = f"identity block from vertex block {i} to {i + 1}" if i < n else (
            f"one-step shift block from vertex block {n} to 1"
        )
        blocks.append(f"edge e{i}: {block}" + ("" if residual == 0 else f" (residual {residual})"))
    return CycleLemmaReport(n, depth, worst == 0.0, worst, blocks)


def operator_coordinates(rep: TruncatedRep) -> dict[str, list[list[float]]]:
    """``matrix_to_coordinates`` of every operator, keyed ``v:<vertex>`` and
    ``e:<edge>``, read off the maps with no matrix built."""
    ops = _Ops(rep)
    coords = {f"v:{v}": _quadruples(*_entries(ops.vertex(v))) for v in rep.vertex_ops}
    coords.update({f"e:{e}": _quadruples(*_entries(ops.edge(e))) for e in rep.edge_ops})
    return coords


def matrix_to_coordinates(mat: sp.spmatrix) -> list[list[float]]:
    """Sorted (row, col, re, im) quadruples of the nonzero entries."""
    coo = mat.tocoo()
    return _quadruples(coo.row, coo.col, coo.data)


def _quadruples(rows: np.ndarray, cols: np.ndarray, data: np.ndarray) -> list[list[float]]:
    """(row, col, re, im) of the nonzero entries, sorted by row and then column."""
    keep = data != 0
    rows, cols, data = rows[keep], cols[keep], data[keep]
    order = np.lexsort((cols, rows))
    data = data[order]
    quads = zip(rows[order].tolist(), cols[order].tolist(), data.real.tolist(), data.imag.tolist())
    return [list(q) for q in quads]
