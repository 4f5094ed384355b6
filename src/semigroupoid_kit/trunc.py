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

Every operator the builders make is a weighted partial injection, kept as
its entry list ``_Map(row, dom, val)``: one item per nonzero, columns
increasing.  A builder writes them in closed form, in Theta(n + nnz) and
O(1) numpy calls, as two stacked entry tables (``_Stack``): P, the vertex
maps in sorted-vertex order, and E, the edge maps in sorted-edge order
with each edge's source and range.  Each stored ``_Map`` is a slice of
its table.  The checks compose maps, so every ``A* A`` or ``A A*`` is a
diagonal, and find an entry by one binary search.  An operator's CSR
matrix is built on first read.  Reading one out, assigning or deleting
one drops its kind's table, and a check then stacks the maps anew,
decoding a matrix from its CSC arrays, so an edit is checked as it
stands; two nonzeros in a row or a column raise ``DomainError("truncation
operator is not a partial injection", op=...)`` with ``op``
``"v:<vertex>"`` or ``"e:<edge>"``.

``verify_tck``, ``coisometric_defect`` and ``cycle_lemma_check`` check
each relation on the two tables in a fixed number of array passes:
O(n + nnz) work in O(1) numpy calls, whatever the graph.
Each entry of a checked matrix has a closed form per column, summed from
zero in term order by ``np.bincount`` or one scalar operation and never by
numpy's pairwise ``sum``, so residuals are a running sparse sum's, bit for bit.
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
    per vertex and an operator per edge.  The builders pass their tables
    for the operators, and None for ``labels`` and ``label_vertex``, made on
    first read from ``meta``."""

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
            value = _Operators(value, self.dim)
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
    is what the checks see.  Given a builder's table, ``data`` holds slices
    of it, and ``table`` keeps it until any read-out, assignment or deletion."""

    table: _Stack | None = None

    def __init__(self, ops, n: int):
        self.data, self.n = ops, n
        if isinstance(ops, _Stack):
            bounds = ops.start.tolist()
            self.table, self.data = ops, {
                key: _Map(ops.row[a:b], ops.col[a:b], ops.val[a:b])
                for key, a, b in zip(ops.keys, bounds, bounds[1:])
            }

    def __getitem__(self, key: str):
        self.table = None
        op = self.data[key]
        if isinstance(op, _Map):
            op = self.data[key] = _csr(self.n, *op)
        return op

    def __setitem__(self, key: str, value) -> None:
        self.table = None
        self.data[key] = value

    def __delitem__(self, key: str) -> None:
        self.table = None
        del self.data[key]


def build_left_regular_trunc(g: Graph, sources, depth: int) -> TruncatedRep:
    """Truncation of the path-space family generated by the source vertices.

    The basis is ``enumerate_paths(g, sources, depth)``, by length and then
    by stored edge tuple, which starts with the last edge.  So level k+1
    lists, for each edge e in id order, the level-k paths that end at the
    source of e, in level-k order, and e sends each of them there: the
    columns of each edge's map increase with its rows.  Stable argsorts of
    the paths' ends and last edges give P and E.
    """
    if depth < 0:
        raise DomainError("depth must be nonnegative", depth=depth)
    start = _sources(g, sources)
    _count_levels(g, start, depth)
    verts, edges, at = g.sorted_vertices(), g.sorted_edge_ids(), g._index
    src, dst = _ends(g, edges)
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
    end, parent, via = (np.concatenate(part).astype(np.int32) for part in (ends, parent, via))
    paths, hit = (np.argsort(key, kind="stable").astype(np.int32) for key in (end, via))
    return TruncatedRep(
        g, depth, "left_regular", None,
        np.repeat(np.arange(len(ends)), [len(level) for level in ends]), None,
        _Stack(end[paths], paths, paths, np.ones(len(paths)),
               np.searchsorted(end[paths], np.arange(len(verts) + 1)), verts),
        _Stack(via[hit], parent[hit], hit + len(start), np.ones(len(hit)),
               np.searchsorted(via[hit], np.arange(len(edges) + 1)), edges, (src, dst)),
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
    step = count[grade[j]]  # d^k for each word moved
    verts, edges, block, moved = g.sorted_vertices(), g.sorted_edge_ids(), len(grade), len(j)
    src, dst = _ends(g, edges)
    colour = np.array([coloring.of(e) for e in edges], dtype=np.intp)[:, None]
    rows = np.arange(len(verts) * block, dtype=np.int32)
    return TruncatedRep(
        g, depth, "colored", None, np.tile(grade, len(verts)), None,
        _Stack(np.repeat(np.arange(len(verts), dtype=np.int32), block), rows, rows,
               np.ones(len(rows)), np.arange(len(verts) + 1) * block, verts),
        _Stack(np.repeat(np.arange(len(edges), dtype=np.int32), moved),
               (src[:, None] * block + j).ravel().astype(np.int32),
               (dst[:, None] * block + j + colour * step).ravel().astype(np.int32),
               np.ones(len(edges) * moved), np.arange(len(edges) + 1) * moved, edges, (src, dst)),
        {"coloring": coloring.to_json_dict()},
    )


def _ends(g: Graph, eids) -> tuple[np.ndarray, np.ndarray]:
    """Each edge's source and range, as positions in ``g.sorted_vertices()``."""
    at = g._index
    return tuple(np.array([at[end(e)] for e in eids], dtype=np.intp) for end in (g.src, g.dst))


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
    """A weighted partial injection as its entry list, laid out as a
    ``_Stack`` segment: column ``dom[i]`` holds ``val[i]`` at row ``row[i]``,
    one item per nonzero, and ``dom`` strictly increases."""

    row: np.ndarray
    dom: np.ndarray
    val: np.ndarray


def _csr(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> sp.csr_matrix:
    """n x n CSR matrix with ``vals`` at (``rows``, ``cols``), columns
    increasing, built from its arrays with no COO pass."""
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n))
    return sp.csr_matrix((vals[order], cols[order].astype(np.int32), indptr), shape=(n, n))


def _decode(op, name: str) -> _Map:
    """The map of one operator, read from its CSC arrays in column order."""
    op = sp.csc_matrix(op, copy=True)
    op.sum_duplicates()
    op.eliminate_zeros()
    rows = op.indices.astype(np.int32, copy=False)
    cols = np.repeat(np.arange(op.shape[1], dtype=np.int32), np.diff(op.indptr))
    if rows.size and max(np.bincount(rows).max(), np.bincount(cols).max()) > 1:
        raise DomainError("truncation operator is not a partial injection", op=name)
    return _Map(rows, cols, op.data)


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

    def table(self, kind: str, keys: tuple[str, ...]) -> _Stack:
        """The maps of ``keys`` stacked: the builder's table while it stands,
        else the maps, a matrix decoded, stacked anew in key order."""
        ops = self.rep.vertex_ops if kind == "vertex" else self.rep.edge_ops
        if ops.table is not None and ops.table.keys == keys:
            return ops.table
        return _stack(keys, [self._map(kind, ops, key) for key in keys])

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
            m = _product(m, self.edge(eid))
        return m


def _product(a: _Map, b: _Map) -> _Map:
    """The map of a @ b: b sends column b.dom[i] to row b.row[i], and a
    sends that on if it is a column of a, so the columns stay increasing."""
    j = _search(a.dom, b.row)
    hit = j >= 0
    j = j[hit]
    return _Map(a.row[j], b.dom[hit], a.val[j] * b.val[hit])


def _search(keys: np.ndarray, want):
    """The index of each ``want`` in the increasing ``keys``, or -1 where it
    is absent, as it is from empty ``keys``: a binary search, nothing sorted."""
    at = np.searchsorted(keys, want)
    return np.where(len(keys) and keys[np.minimum(at, len(keys) - 1)] == want, at, -1)


def _square(vals: np.ndarray) -> np.ndarray:
    """|v|^2 entry by entry, as the product v * conj(v) forms its real part."""
    if np.iscomplexobj(vals):
        return vals.real * vals.real + vals.imag * vals.imag
    return vals * vals


def _abs(vals: np.ndarray) -> np.ndarray:
    """|v| entry by entry as abs() gives it; np.abs of complex data can
    differ from it in the last bit."""
    return np.hypot(vals.real, vals.imag) if np.iscomplexobj(vals) else np.abs(vals)


def _range_diagonal(entries, weight: np.ndarray) -> np.ndarray:
    """Diagonal of S diag(weight) S* for the operator S with the entries
    (rows, cols, vals), each row's terms summed from zero in entry order."""
    rows, cols, vals = entries
    return np.bincount(rows, weights=_square(vals) * weight[cols], minlength=len(weight))


def _add_up(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, increasing, and each one's values summed from zero
    in the order given."""
    keys, where = np.unique(keys, return_inverse=True)
    total = np.zeros(len(keys), dtype=vals.dtype)
    np.add.at(total, where, vals)
    return keys, total


class _Stack(NamedTuple):
    """Several maps' entry lists end to end: map ``group[i]`` sends column
    ``col[i]`` to row ``row[i]`` with value ``val[i]``, and the entries
    ``start[j]:start[j + 1]`` are map j's ``row``, ``dom`` and ``val``.
    Map j is the operator ``keys[j]``; a builder's edges carry ``ends``,
    each one's source and range as positions in ``sorted_vertices()``."""

    group: np.ndarray
    col: np.ndarray
    row: np.ndarray
    val: np.ndarray
    start: np.ndarray
    keys: tuple[str, ...] = ()
    ends: tuple[np.ndarray, np.ndarray] | None = None


def _stack(keys, maps: list[_Map]) -> _Stack:
    start = np.zeros(len(maps) + 1, dtype=np.int64)
    start[1:] = np.cumsum([len(m.dom) for m in maps])
    parts = maps or [(np.zeros(0, np.int32),) * 2 + (np.zeros(0),)]
    row, col, val = (np.concatenate(part) for part in zip(*parts))
    group = np.repeat(np.arange(len(maps), dtype=np.int32), np.diff(start))
    return _Stack(group, col, row, val, start, tuple(keys))


def _find(s: _Stack, n: int, groups: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The index of the entry of map ``groups[i]`` in column ``cols[i]``, or
    -1 where it has none, found by its key group * n + col."""
    return _search(s.group.astype(np.int64) * n + s.col, groups.astype(np.int64) * n + cols)


def _group_max(vals: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The largest of each ``vals[..., start[j]:start[j + 1]]``, 0.0 if empty."""
    out = np.zeros(vals.shape[:-1] + (len(start) - 1,))
    full = np.flatnonzero(start[:-1] < start[1:])
    out[..., full] = np.maximum.reduceat(vals, start[full], axis=-1)
    return out


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
    mags = _abs(vals)
    grade = grades[cols]
    inside = (lo <= grade) & (grade <= hi)
    return _max_or_zero(mags[inside]), _max_or_zero(mags[~inside])


def _max_or_zero(mags: np.ndarray) -> float:
    return float(mags.max()) if mags.size else 0.0


def _worst(values: np.ndarray, detail=lambda i: "") -> tuple[float, str]:
    """The largest value above zero and ``detail(i)`` of the first place i
    it occurs, or (0.0, "") when no value is above zero."""
    above = np.flatnonzero(values > 0.0)
    if not above.size:
        return 0.0, ""
    i = above[np.argmax(values[above])]
    return float(values[i]), detail(i)


def verify_tck(rep: TruncatedRep) -> list[RelationReport]:
    """Check the isometric-family axioms as matrix identities on interior grades.

    (P) projections orthogonal, (ND) vertex sum is the identity, and the
    domination inequality are artifact-free at every grade; identities that
    move one edge, (IS), lose the top grade; range-sum identities (CK)/(F)
    also lose grade 0, where the wandering vectors of a truncation live.
    Boundary residuals are recorded but do not affect the residual field.

    Each relation is a fixed number of array passes over the stacked maps.
    The products of two projections are formed only when (P) or (ND) fails:
    a projection that passes (P) exactly is diagonal with entries 1.0, and
    an exact (ND) then gives each column to one vertex, so no two meet.
    """
    g, grades, N, n = rep.graph, rep.grades, rep.depth, rep.dim
    ops = _Ops(rep)
    verts, eids = g.sorted_vertices(), g.sorted_edge_ids()
    P, E = ops.table("vertex", verts), ops.table("edge", eids)
    src, dst = E.ends or _ends(g, eids)

    def within(lo: int, hi: int) -> np.ndarray:
        return (lo <= grades) & (grades <= hi)

    every, below_top, interior = within(0, N), within(0, N - 1), within(1, N - 1)
    nd = _vertex_sum_residual(P, n, every)
    values, pairs = _projection_residuals(P, n, every), []
    if values.any() or nd != 0.0:
        proj = {v: ops.vertex(v) for v in verts}
        pairs = [(v, w) for a, v in enumerate(verts) for w in verts[a + 1:]]
        values = np.append(values, [
            _entry_residual(*_product(proj[v], proj[w])[1:], grades, 0, N)[0] for v, w in pairs
        ])
    worst, detail = _worst(values, lambda i: (
        f"projection identity fails at {verts[i]}" if i < len(verts)
        else "projections at {} and {} overlap".format(*pairs[i - len(verts)])
    ))
    reports = [RelationReport("P", 0, N, worst, worst == 0.0, 0.0, detail)]

    values, boundary = _isometry_residuals(P, E, src, below_top)
    worst, detail = _worst(values, lambda i: f"isometry identity fails at {eids[i]}")
    reports.append(RelationReport("IS", 0, N - 1, worst, worst == 0.0, boundary, detail))

    excess, inner, outer = _range_defects(P, E, dst, interior)
    worst, detail = _worst(excess, lambda i: f"range sum exceeds the projection at {verts[i]}")
    reports.append(RelationReport("TCK", 0, N, worst, worst == 0.0, 0.0, detail))
    has_in = np.bincount(dst, minlength=len(verts)) > 0
    for name, keep in (("CK", has_in), ("F", np.ones(len(verts), dtype=bool))):
        worst, detail = _worst(
            np.where(keep, inner, 0.0), lambda i: f"range sum misses the projection at {verts[i]}"
        )
        boundary = _worst(outer[keep])[0]
        reports.append(RelationReport(name, 1, N - 1, worst, worst == 0.0, boundary, detail))
    reports.append(RelationReport("ND", 0, N, nd, nd == 0.0, 0.0, ""))
    return reports


def _vertex_sum_residual(P: _Stack, n: int, every: np.ndarray) -> float:
    """(ND): max |entry| of the vertex sum minus the identity, on ``every``."""
    on = P.row == P.col
    re = np.bincount(P.col[on], weights=P.val.real[on], minlength=n) - 1.0
    mags = np.abs(re)
    if np.iscomplexobj(P.val):
        mags = np.hypot(re, np.bincount(P.col[on], weights=P.val.imag[on], minlength=n))
    worst = _max_or_zero(mags[every])
    if not on.all():  # entries off the diagonal: corrupted projections
        keys, off = _add_up(P.row[~on].astype(np.int64) * n + P.col[~on], P.val[~on])
        worst = max(worst, _max_or_zero(_abs(off)[every[keys % n]]))
    return worst


def _projection_residuals(P: _Stack, n: int, every: np.ndarray) -> np.ndarray:
    """(P) at each vertex: max |entry| of S^2 - S and of S - S* on ``every``.

    S sends column c to r = row[c].  When r is a column of S, S^2 has an
    entry in column c at row[r], meeting that of S when row[r] = r; S* sends
    column r to row c, meeting the entry of S there when row[r] = c.
    """
    j = _find(P, n, P.group, P.row)
    row2, val2 = np.append(P.row, -1)[j], np.append(P.val, 0)[j]  # row[r], val[r]
    size, prod = _abs(P.val), val2 * P.val
    square = np.where(
        row2 == P.row, _abs(prod - P.val), np.maximum(np.where(j >= 0, _abs(prod), 0.0), size)
    )
    paired = row2 == P.col
    adjoint = np.where(paired, _abs(P.val - val2.conj()), size)
    return _group_max(np.maximum(
        np.where(every[P.col], np.maximum(square, adjoint), 0.0),
        np.where(~paired & every[P.row], size, 0.0),  # an entry of S* alone in column r
    ), P.start)


def _isometry_residuals(P: _Stack, E: _Stack, src: np.ndarray, inside: np.ndarray):
    """(IS) S_e* S_e - S_src(e): max |entry| at each edge on ``inside``, and
    over all edges off it.

    S_e* S_e is |val|^2 on the diagonal in the columns of e, which the entry
    of S_src(e) in such a column meets when on the diagonal.  Each other
    entry of S_src(e) stands alone, once for every edge e out of its vertex:
    entry k is at first[e] + k - start[src[e]] in the list of them all.
    """
    n, sq = len(inside), _square(E.val)
    j = _find(P, n, src[E.group], E.col)
    meets = np.append(P.row, -1)[j] == E.col
    own = np.where(meets, _abs(sq - np.append(P.val, 0)[j]), sq)
    count = np.diff(P.start)[src]
    first = np.cumsum(count) - count
    k = np.arange(count.sum()) + np.repeat(P.start[src] - first, count)
    rest = _abs(P.val)[k]
    rest[(first - P.start[src])[E.group[meets]] + j[meets]] = 0.0
    own_in, rest_in = inside[E.col], inside[P.col[k]]
    values = np.maximum(
        _group_max(np.where(own_in, own, 0.0), E.start),
        _group_max(np.where(rest_in, rest, 0.0), np.append(first, count.sum())),
    )
    return values, _worst(np.concatenate([own[~own_in], rest[~rest_in]]))[0]


def _range_defects(P: _Stack, E: _Stack, dst: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """S_v less the range sum of the edges into v, which TCK, CK and F read:
    at each vertex, by how much the sum exceeds S_v, and max |entry| on
    ``inside`` and off it, as three rows.

    S_e S_e* is |val|^2 on the diagonal at the rows of e.  These add up in
    edge order in the slot of the entry of S_v in that column, and the entry
    of S_v comes last.  On the diagonal the defect exceeds by its negative
    real part or its imaginary part, off it by its modulus.
    """
    n, sq = len(inside), _square(E.val)
    j = _find(P, n, dst[E.group], E.row)
    hit, on = j >= 0, P.row == P.col
    slot = np.bincount(j[hit], weights=-sq[hit], minlength=len(P.col))
    diag = np.where(on, slot + P.val, slot)
    alone = np.where(on, 0.0, _abs(P.val))
    miss, miss_in = np.maximum(_abs(diag), alone), inside[P.col]
    out = _group_max(np.array([
        np.maximum(np.maximum(-diag.real, np.abs(diag.imag)), alone),
        np.where(miss_in, miss, 0.0),
        np.where(miss_in, 0.0, miss),
    ]), P.start)
    if not hit.all():  # rows of an edge into v that are no column of S_v: a corruption
        keys, stray = _add_up((dst[E.group].astype(np.int64) * n + E.row)[~hit], sq[~hit])
        vertex, stray_in = keys // n, inside[keys % n]
        split = np.where(stray_in, stray, 0.0), np.where(stray_in, 0.0, stray)
        for row, vals in zip(out, (stray, *split)):
            np.maximum.at(row, vertex, vals)
    return out


def path_matrix(rep: TruncatedRep, p: Path) -> sp.csr_matrix:
    """Matrix of S_p: product of edge matrices, vertex projection for length 0.

    A path of length 0 or 1 gives its stored operator itself; a longer one
    composes the edge maps into a new CSR matrix.
    """
    if len(p.edges) > 1:
        return _csr(rep.dim, *_Ops(rep).path(p))
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
        keys.append(m.row.astype(np.int64) * n + m.dom)
        vals.append(m.val.astype(complex) * c)
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
    starting from R_0 = I (or S_v S_v* itself when k = 0).  The R^w are the
    rows of one vertices x n array; a grade step is one ``np.bincount`` of
    the edge table, and the rows are then added vertex by vertex.  A slot
    w * n + row takes terms only from the edges into w, in id order as in
    ``in_edges``, so each sum runs as over the paths.  The paths are
    counted first, against the same budget as ``enumerate_paths``.
    """
    if k < 0:
        raise DomainError("grade must be nonnegative", k=k)
    g = rep.graph
    n = rep.dim
    _count_levels(g, sorted(g.vertices), k)
    total = _range_sum(rep, k)
    cols = np.arange(n)
    upper = _entry_residual(cols, total - 1.0, rep.grades, k, rep.depth)[0]
    lower = _entry_residual(cols, total, rep.grades, 0, k - 1)[0] if k > 0 else 0.0
    return upper, lower


def _range_sum(rep: TruncatedRep, k: int) -> np.ndarray:
    """The diagonal of the grade-k range sum that ``coisometric_defect`` checks."""
    g, n = rep.graph, rep.dim
    ops = _Ops(rep)
    verts = g.sorted_vertices()
    if k == 0:
        P = ops.table("vertex", verts)
        return _range_diagonal((P.row, P.col, P.val), np.broadcast_to(1.0, n))
    E = ops.table("edge", g.sorted_edge_ids())
    src, dst = E.ends or _ends(g, E.keys)
    # row w of the weights, flat, is R^w on the basis
    step = (dst[E.group] * n + E.row, src[E.group] * n + E.col, E.val)
    weight = np.broadcast_to(1.0, len(verts) * n)
    for _ in range(k):
        weight = _range_diagonal(step, weight)
        if not weight.any():
            break  # no longer path reaches a nonzero vector
    return sum(weight.reshape(len(verts), n), np.zeros(n))  # vertex by vertex, from zero


def wandering_certificate(rep: TruncatedRep, label, upto: int | None = None) -> bool:
    """Exact pairwise-orthogonality check of the path orbit of one basis vector.

    Certifies wandering behavior through grade ``upto`` (default N-1): the
    images S_mu xi over distinct paths mu must have disjoint supports or
    vanish.  Every operator is a weighted partial injection, so each image
    is one basis vector times a nonzero value, or zero, and the check is
    that the nonzero images land on distinct basis vectors.

    The paths are counted first, as ``enumerate_paths`` counts them.  Those
    of one length are stepped together, one ``_search`` per edge in id order,
    carrying only nonzero images: an operator is read only where one reaches.
    """
    upto = max(0, rep.depth - 1 if upto is None else upto)
    try:
        idx = rep.index()[label]
    except KeyError:
        raise DomainError("unknown basis label", label=str(label)) from None
    g, base = rep.graph, rep.label_vertex[idx]
    _count_levels(g, [base], upto)
    ops = _Ops(rep)
    m = ops.vertex(base)
    i = _search(m.dom, idx)
    hit = {int(m.row[i])} if i >= 0 else set()
    edges = [(e, g.src(e), g.dst(e)) for e in g.sorted_edge_ids()]
    level = {base: np.array([idx])}  # end vertex -> where the paths ending there send idx
    for _ in range(upto):
        ending: dict[str, list[np.ndarray]] = {}
        for e, src, dst in edges:
            if src in level:
                m = ops.edge(e)
                i = _search(m.dom, level[src])
                image = m.row[i[i >= 0]]
                before = len(hit)
                hit.update(image.tolist())
                if len(hit) < before + len(image):
                    return False  # two paths met, or one met an earlier image
                if len(image):
                    ending.setdefault(dst, []).append(image)
        level = {v: np.concatenate(parts) for v, parts in ending.items()}
        if not level:
            break
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
    # one path per level, as on the loop: count them before building the graph
    _count_levels(cycle_graph(1), ["v1"], depth)
    rep = build_left_regular_trunc(cycle_graph(n), ["v1"], depth)
    keys, dim = rep.graph.sorted_edge_ids(), rep.dim
    E = _Ops(rep).table("edge", keys)
    edge = np.array([int(key[1:]) - 1 for key in keys])[E.group]  # e_{i + 1} is edge i
    # the path of length k is basis vector k, which e_i moves when k = i - 1 mod n
    k = np.arange(depth)
    # entry by entry: the built one less the wanted one, each summed from zero
    cells, total = _add_up(
        np.concatenate([(edge * dim + E.col) * dim + E.row, (k % n * dim + k) * dim + k + 1]),
        np.concatenate([E.val, -np.ones(depth)]),
    )
    residuals = np.zeros(n)
    np.maximum.at(residuals, cells // (dim * dim), _abs(total))
    worst = 0.0
    blocks: list[str] = []
    for i, residual in enumerate(residuals.tolist(), 1):
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
    coords = {f"v:{v}": _quadruples(*ops.vertex(v)) for v in rep.vertex_ops}
    coords.update({f"e:{e}": _quadruples(*ops.edge(e)) for e in rep.edge_ops})
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
