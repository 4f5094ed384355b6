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

Every operator of a rep is a weighted partial injection, kept as its
entry list ``_Map(row, dom, val)``: one item per nonzero, columns
increasing.  Each kind is one stacked entry table (``_Stack``) in sorted
key order: P, the vertex maps, and E, the edge maps, which a builder
writes in closed form, in Theta(n + nnz) and O(1) numpy calls.  A map is
a slice of its table, and every ``A* A`` or ``A A*`` is a diagonal.  A
read-out is a new CSR matrix in the dtype its operator was given in.  An
assigned matrix is decoded once, from its CSC arrays: one of the wrong
shape, with two nonzeros in a row or a column, or of an integer dtype
with an entry past 2^53 in magnitude, which float64 would round, raises a
``DomainError`` with ``op`` ``"v:<vertex>"`` or ``"e:<edge>"``; otherwise
its entries are spliced into its kind's table in key order, as a deletion
cuts its key's entries out.

``verify_tck``, ``coisometric_defect`` and ``cycle_lemma_check`` check
each relation on the two tables in O(1) array passes, O(n + nnz) in all.
The first two share one join of P and E (``_Join``), which gathers an
entry by its column (a binary search where a column holds two, as on a
corrupted rep only), and the range sums R_k kept on it.  (IS) lists an
entry once per out-edge only where some but not all out-edges meet it.
Each entry of a checked matrix has a closed form per column, summed from
zero in term order by ``np.bincount`` or one scalar operation and never by
numpy's pairwise ``sum``, so residuals are a running sparse sum's, bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import UserDict
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import DomainError
from .graph import Graph, cycle_graph
from .paths import Path, _count_in_regular, _count_levels, _sources, enumerate_paths, path_range
from .roadcoloring import Coloring, backward_automaton, format_word
from .series import FormalElement


class TruncatedRep:
    """A "left_regular" or "colored" truncation: basis grades, a projection
    per vertex and an operator per edge.  The builders pass their tables
    for the operators, and None for ``labels`` and ``label_vertex``, made on
    first read from ``meta``.  Operators given as matrices, here or later
    as a dict for ``vertex_ops`` or ``edge_ops``, are checked in sorted key
    order, so of two bad ones the first in id order is named."""

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
            value = _Operators(value, self.dim, name.removesuffix("_ops"))
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

    @cached_property
    def _label_index(self) -> dict:
        return {label: i for i, label in enumerate(self.labels)}

    @property
    def dim(self) -> int:
        return len(self.grades)

    def index(self) -> dict:
        return dict(self._label_index)


class _Operators(UserDict):
    """The "vertex" or "edge" operators of a rep by id: one ``_Stack``,
    ``table``, in sorted key order, and in ``data`` each key's segment and
    the dtype it was given in.  A map is a slice of the table; a read gives
    a new CSR matrix, so an edit to it must be assigned back.  An edit
    splices the table, and a refused one leaves it as it was."""

    def __init__(self, ops, n: int, kind: str):
        self.n, self.kind = n, kind
        if isinstance(ops, _Stack):
            self.table, self.data = ops, {key: (j, ops.val.dtype) for j, key in enumerate(ops.keys)}
        else:
            maps = {key: _decode(ops[key], n, f"{kind[0]}:{key}") for key in sorted(ops)}
            self.table = _stack(maps, list(maps.values()))
            self.data = {key: (j, m.val.dtype) for j, (key, m) in enumerate(maps.items())}

    def __getitem__(self, key: str) -> sp.csr_matrix:
        if key not in self.data:
            raise KeyError(key)
        return _csr(self.n, *self.map(key))

    def __setitem__(self, key: str, value) -> None:
        self._splice(key, _decode(value, self.n, f"{self.kind[0]}:{key}"))

    def __delitem__(self, key: str) -> None:
        del self.data[key]  # its entries stay in the table until the splice
        self._splice(key, None)

    copy = UserDict.__copy__  # the table is shared: no edit writes its arrays in place

    def map(self, key: str) -> _Map:
        if key not in self.data:
            raise DomainError(f"unknown {self.kind}", **{self.kind: key})
        (j, dtype), t = self.data[key], self.table
        a, b = t.start[j], t.start[j + 1]
        val = t.val[a:b] if dtype.kind == "c" else t.val[a:b].real
        return _Map(t.row[a:b], t.col[a:b], val.astype(dtype, copy=False))

    def stack(self, keys: tuple[str, ...]) -> _Stack:
        """The maps of ``keys`` stacked: the table, or a new stack if it has other keys."""
        return self.table if self.table.keys == keys else _stack(keys, [self.map(k) for k in keys])

    def _splice(self, key: str, new: _Map | None) -> None:
        """The table with ``new`` as ``key``'s entries, in key order, or None to cut them
        out; the rest move as two blocks, and values take the recorded dtypes' common one."""
        t, data = self.table, self.data
        j = bisect_left(t.keys, key)
        had = int(t.keys[j:j + 1] == (key,))  # the table's keys: a deletion has left data
        a, b = t.start[j], t.start[j + had]
        mid = () if new is None else (key,)
        new = new or _Map(t.row[:0], t.col[:0], t.val[:0])  # a deletion leaves no entries
        keys, shift = t.keys[:j] + mid + t.keys[j + had:], len(new.dom) - (b - a)
        start = np.concatenate((t.start[:j + 1], t.start[j + had + 1 - len(mid):] + shift))
        group = np.repeat(np.arange(len(keys), dtype=np.int32), np.diff(start))
        row, col, val = (np.concatenate((old[:a], part, old[b:]))
                         for old, part in zip((t.row, t.col, t.val), new))
        if mid:
            data[key] = (j, new.val.dtype)
        if len(keys) != len(t.keys):  # the keys after j move by one place
            self.data = data = {k: (i, data[k][1]) for i, k in enumerate(keys)}
        common = np.result_type(*{dtype for _, dtype in data.values()}) if data else np.dtype(float)
        val = np.ascontiguousarray(val if common.kind == "c" else val.real, dtype=common)
        self.table = _Stack(group, col, row, val, start, keys)


def build_left_regular_trunc(g: Graph, sources, depth: int) -> TruncatedRep:
    """Truncation of the path-space family generated by the source vertices.

    The basis is ``enumerate_paths(g, sources, depth)``, by length and then
    by stored edge tuple, which starts with the last edge.  So level k+1
    lists, for each edge e in id order, the level-k paths that end at the
    source of e, in level-k order, and e sends each of them there: the
    columns of each edge's map increase with its rows.  The budget's
    counts of paths per (level, end) lay out every level at once: the
    level-k paths ending at v are one group of a stable argsort of level *
    |V| + end, and each edge out of v extends it as one block of level k+1,
    one block per nonempty group and out-edge.  Stable argsorts of the
    paths' ends and last edges give P and E.
    """
    if depth < 0:
        raise DomainError("depth must be nonnegative", depth=depth)
    start = _sources(g, sources)
    levels = _count_levels(g, start, depth)
    ix, dst = g.index, np.frombuffer(g.index.dst, dtype=np.intc)
    blocks, offset = [], 0  # (level, edge, size, group position of its first parent)
    for k, level in enumerate(levels[:-1]):
        for v in sorted(level):
            for e in ix.out[v]:
                blocks.append((k, e, level[v], offset))
            offset += level[v]
    blocks.sort()
    _, via, size, first = np.array(blocks, dtype=np.intp).reshape(-1, 4).T
    via = np.repeat(via, size)
    end = np.concatenate((np.array([ix.at[v] for v in start], dtype=np.intp), dst[via]))
    grades = np.repeat(np.arange(len(levels)), [sum(level.values()) for level in levels])
    order = np.argsort(grades * len(ix.vertices) + end, kind="stable")
    parent = order[np.repeat(first - (np.cumsum(size) - size), size) + np.arange(len(via))]
    end, parent, via = (part.astype(np.int32) for part in (end, parent, via))
    paths, hit = (np.argsort(key, kind="stable").astype(np.int32) for key in (end, via))
    return TruncatedRep(
        g, depth, "left_regular", None, grades, None,
        _Stack(end[paths], paths, paths, np.ones(len(paths)),
               np.searchsorted(end[paths], np.arange(len(ix.vertices) + 1)), ix.vertices),
        _Stack(via[hit], parent[hit], hit + len(start), np.ones(len(hit)),
               np.searchsorted(via[hit], np.arange(len(ix.edges) + 1)), ix.edges),
        {"sources": start},
    )


def build_colored_trunc(g: Graph, coloring: Coloring, depth: int) -> TruncatedRep:
    """Colored model: vertex blocks of color words, edges act by their color shift.

    A block holds the words of length 0..depth by length, then in base-d
    order.  So the word w of length k has local index j = off[k] + rank(w),
    and an edge of colour c sends it to c w at off[k+1] + (c-1) d^k +
    rank(w) = j + c d^k.  The words of a block are the paths into its
    vertex, and are budgeted as paths, in closed form.
    """
    if depth < 0:
        raise DomainError("depth must be nonnegative", depth=depth)
    backward_automaton(g, coloring)
    d, ix = coloring.d, g.index
    if len(ix.edges) != d * len(ix.vertices):  # strong: complete iff every in-fibre has d edges
        v = next(v for v, inc in zip(ix.vertices, ix.inc) if len(inc) != d)
        raise DomainError("colored truncation needs a complete strong coloring "
                          "(in-degree d-regular, every color in every fiber)", vertex=v)
    _count_in_regular(len(ix.vertices), d, depth)
    # words per length; a graph with no vertex has none, at any depth
    count = d ** np.arange(depth + 1 if g.vertices else 0)
    grade = np.repeat(np.arange(len(count)), count)  # of each word in a block
    j = np.flatnonzero(grade < depth)  # the words an edge moves
    step = count[grade[j]]  # d^k for each word moved
    verts, edges, block, moved = g.sorted_vertices(), g.sorted_edge_ids(), len(grade), len(j)
    src, dst = (np.frombuffer(a, dtype=np.intc) for a in (g.index.src, g.index.dst))
    colour = np.array([coloring.of(e) for e in edges], dtype=np.intp)[:, None]
    rows = np.arange(len(verts) * block, dtype=np.int32)
    return TruncatedRep(
        g, depth, "colored", None, np.tile(grade, len(verts)), None,
        _Stack(np.repeat(np.arange(len(verts), dtype=np.int32), block), rows, rows,
               np.ones(len(rows)), np.arange(len(verts) + 1) * block, verts),
        _Stack(np.repeat(np.arange(len(edges), dtype=np.int32), moved),
               (src[:, None] * block + j).ravel().astype(np.int32),
               (dst[:, None] * block + j + colour * step).ravel().astype(np.int32),
               np.ones(len(edges) * moved), np.arange(len(edges) + 1) * moved, edges),
        {"coloring": coloring.to_json_dict()},
    )


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


def _decode(op, n: int, name: str) -> _Map:
    """The map of one n x n operator, read from its CSC arrays in column order.
    The checks compute in float64, so an integer entry past 2^53 in
    magnitude, which float64 would round, is refused."""
    op = sp.csc_matrix(op, copy=True)
    if op.shape != (n, n):
        raise DomainError("truncation operator has the wrong shape", op=name, shape=list(op.shape))
    op.sum_duplicates()
    op.eliminate_zeros()
    if op.dtype.kind in "iu" and op.nnz and max(-int(op.data.min()), int(op.data.max())) > 2**53:
        raise DomainError("integer truncation operator has an entry past 2^53", op=name)
    rows = op.indices.astype(np.int32, copy=False)
    cols = np.repeat(np.arange(n, dtype=np.int32), np.diff(op.indptr))
    if rows.size and max(np.bincount(rows).max(), np.bincount(cols).max()) > 1:
        raise DomainError("truncation operator is not a partial injection", op=name)
    return _Map(rows, cols, op.data)


def _path_map(rep: TruncatedRep, p: Path) -> _Map:
    """Map of S_p: the vertex projection for length 0, else the product of
    the edge maps, composed left to right as the matrix product runs."""
    if not p.edges:
        return rep.vertex_ops.map(p.base)
    m = rep.edge_ops.map(p.edges[0])
    for eid in p.edges[1:]:
        m = _product(m, rep.edge_ops.map(eid))
    return m


def _product(a: _Map, b: _Map) -> _Map:
    """The map of a @ b: b sends column b.dom[i] to row b.row[i], and a
    sends that on if it is a column of a, so the columns stay increasing.
    Integer and bool values multiply in float64, where they cannot wrap."""
    j = _search(a.dom, b.row)
    hit = j >= 0
    j = j[hit]
    dtype = np.float64 if a.val.dtype.kind in "biu" and b.val.dtype.kind in "biu" else None
    return _Map(a.row[j], b.dom[hit], np.multiply(a.val[j], b.val[hit], dtype=dtype))


def _search(keys: np.ndarray, want):
    """The index of each ``want`` in the increasing ``keys``, or -1 where it
    is absent, as it is from empty ``keys``: a binary search, nothing sorted."""
    at = np.searchsorted(keys, want)
    return np.where(len(keys) and keys[np.minimum(at, len(keys) - 1)] == want, at, -1)


def _square(vals: np.ndarray) -> np.ndarray:
    """|v|^2 entry by entry, as v * conj(v) forms its real part; real ones,
    bool and unsigned too, in float64."""
    if np.iscomplexobj(vals):
        return vals.real * vals.real + vals.imag * vals.imag
    return np.square(vals, dtype=np.float64)


def _abs(vals: np.ndarray) -> np.ndarray:
    """|v| entry by entry as abs() gives it; np.abs of complex data can
    differ from it in the last bit."""
    return np.hypot(vals.real, vals.imag) if np.iscomplexobj(vals) else np.abs(vals)


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
    Map j is the operator ``keys[j]``."""

    group: np.ndarray
    col: np.ndarray
    row: np.ndarray
    val: np.ndarray
    start: np.ndarray
    keys: tuple[str, ...]


def _stack(keys, maps: list[_Map]) -> _Stack:
    start = np.zeros(len(maps) + 1, dtype=np.int64)
    start[1:] = np.cumsum([len(m.dom) for m in maps])
    parts = maps or [(np.zeros(0, np.int32),) * 2 + (np.zeros(0),)]
    row, col, val = (np.concatenate(part) for part in zip(*parts))
    group = np.repeat(np.arange(len(maps), dtype=np.int32), np.diff(start))
    return _Stack(group, col, row, val, start, tuple(keys))


class _Join:
    """P, the projections, joined by column with E, the edge table, once per
    pair of tables for ``verify_tck`` and ``coisometric_defect``.  ``find``
    gathers the entry of P's map ``groups[i]`` in column ``cols[i]`` and
    checks its group, or gives -1; a column with two or more entries, which
    only a corrupted rep has, is binary-searched in P's keys ``at``, group *
    n + col.  Each entry of E has ``meet``, its source vertex's entry at its
    column, and ``into``, the slot of its target vertex's entry at its row.
    A slot is a key w * n + row in ``at`` or, on a corrupted rep only,
    another row an edge into w reaches; then ``into`` and ``back``, the slot
    at ``meet``, are searched.  ``sums[k]`` is R_k, kept once computed."""

    def __init__(self, graph: Graph, P: _Stack, E: _Stack, n: int):
        self.graph, self.P, self.E, self.n = graph, P, E, n
        self.src, self.dst = np.array([graph.index.src, graph.index.dst], dtype=np.intp)
        self.at, entry = P.group.astype(np.int64) * n + P.col, np.arange(len(P.col))
        self.column, self.owner = np.full(n, -1, dtype=np.intp), np.append(P.group, -1)
        self.column[P.col] = entry
        self.crowded = P.col[self.column.take(P.col) != entry]  # columns with two or more entries
        tail, head = self.src.take(E.group), self.dst.take(E.group)
        self.meet, self.into = self.find(tail, E.col), self.find(head, E.row)
        self.slots, self.back = self.at, self.meet
        if (self.into < 0).any():  # a row no projection entry has: a corrupted rep
            keys = head * n + E.row
            self.slots = np.union1d(self.at, keys)
            self.into = np.searchsorted(self.slots, keys)
            self.back = _search(self.slots, tail * n + E.col)
        self.sq, self.sums = _square(E.val), [1.0]  # R_0 = I reads 1.0 in every slot

    def find(self, groups: np.ndarray, cols: np.ndarray) -> np.ndarray:
        j = self.column.take(cols)
        j = np.where(self.owner.take(j) == groups, j, -1)
        if self.crowded.size and (many := np.isin(cols, self.crowded)).any():
            j[many] = _search(self.at, groups[many].astype(np.int64) * self.n + cols[many])
        return j

    def range_sum(self, k: int) -> np.ndarray:
        """The diagonal of R_k^w on the slots, k >= 1: the sum of S_p S_p* over
        the length-k paths p into w, from R_0^w = I by R_k^w = the sum over
        the edges e into w of S_e R_{k-1}^{src e} S_e*.  A grade step is one
        ``np.bincount`` of the edge table over the slots, each adding its
        terms from zero in entry order; a term from an empty slot reads 0.0
        there.  Once R_j is 0, no longer path reaches a nonzero vector."""
        sums = self.sums
        while len(sums) <= k and (len(sums) == 1 or sums[-1].any()):
            weight = np.append(sums[-1], 0.0)[self.back] if len(sums) > 1 else sums[0]
            sums.append(np.bincount(self.into, weights=self.sq * weight, minlength=len(self.slots)))
        return sums[min(k, len(sums) - 1)]


def _join(rep: TruncatedRep, P: _Stack) -> _Join:
    """The join of ``P`` and the rep's edges, kept on the rep until the graph,
    ``P`` or the edge table is another object: an edit makes a new table."""
    g = rep.graph
    E, J = rep.edge_ops.stack(g.sorted_edge_ids()), getattr(rep, "_joined", None)
    if J is None or J.graph is not g or J.P is not P or J.E is not E:
        rep._joined = J = _Join(g, P, E, rep.dim)
    return J


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
        return {"relation": self.relation, "max_residual": self.max_residual,
                "exact_zero": self.exact_zero, "boundary_residual": self.boundary_residual,
                "detail": self.detail, "interior": [self.interior_lo, self.interior_hi]}


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
    Even then only pairs that meet are multiplied; the rest give 0.0.
    """
    g, grades, N, n = rep.graph, rep.grades, rep.depth, rep.dim
    verts, eids = g.sorted_vertices(), g.sorted_edge_ids()
    J = _join(rep, rep.vertex_ops.stack(verts))

    def within(lo: int, hi: int) -> np.ndarray:
        return (lo <= grades) & (grades <= hi)

    every, below_top, interior = within(0, N), within(0, N - 1), within(1, N - 1)
    nd = _vertex_sum_residual(J.P, n, every)
    values, pairs = _projection_residuals(J, every), []
    if values.any() or nd != 0.0:
        proj, pairs = rep.vertex_ops.map, [(verts[a], verts[b]) for a, b in _meeting_pairs(J.P)]
        values = np.append(values, [
            _entry_residual(*_product(proj(v), proj(w))[1:], grades, 0, N)[0] for v, w in pairs
        ])
    worst, detail = _worst(values, lambda i: (
        f"projection identity fails at {verts[i]}" if i < len(verts)
        else "projections at {} and {} overlap".format(*pairs[i - len(verts)])
    ))
    reports = [RelationReport("P", 0, N, worst, worst == 0.0, 0.0, detail)]

    values, boundary = _isometry_residuals(J, below_top)
    worst, detail = _worst(values, lambda i: f"isometry identity fails at {eids[i]}")
    reports.append(RelationReport("IS", 0, N - 1, worst, worst == 0.0, boundary, detail))

    excess, inner, outer = _range_defects(J, interior)
    worst, detail = _worst(excess, lambda i: f"range sum exceeds the projection at {verts[i]}")
    reports.append(RelationReport("TCK", 0, N, worst, worst == 0.0, 0.0, detail))
    has_in = np.bincount(J.dst, minlength=len(verts)) > 0
    for name, keep in (("CK", has_in), ("F", np.ones(len(verts), dtype=bool))):
        worst, detail = _worst(
            np.where(keep, inner, 0.0), lambda i: f"range sum misses the projection at {verts[i]}"
        )
        boundary = _worst(outer[keep])[0]
        reports.append(RelationReport(name, 1, N - 1, worst, worst == 0.0, boundary, detail))
    reports.append(RelationReport("ND", 0, N, nd, nd == 0.0, 0.0, ""))
    return reports


def _meeting_pairs(P: _Stack) -> list[tuple[int, int]]:
    """The pairs a < b of maps of ``P``, in order, where a row of map b is a
    column of map a: the only pairs whose product S_a S_b has an entry."""
    order = np.argsort(P.col, kind="stable")
    lo, hi = (np.searchsorted(P.col[order], P.row, side) for side in ("left", "right"))
    count = hi - lo  # the entries whose column is each entry's row
    at = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
    a, b, m = P.group.take(order[at]).astype(np.int64), np.repeat(P.group, count), len(P.keys)
    key = np.unique(a[a < b] * m + b[a < b])
    return list(zip((key // m).tolist(), (key % m).tolist()))


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


def _projection_residuals(J: _Join, every: np.ndarray) -> np.ndarray:
    """(P) at each vertex: max |entry| of S^2 - S and of S - S* on ``every``.

    S sends column c to r = row[c].  When r is a column of S, S^2 has an
    entry in column c at row[r], meeting that of S when row[r] = r; S* sends
    column r to row c, meeting the entry of S there when row[r] = c.
    """
    P = J.P
    j = J.find(P.group, P.row)
    row2, val2 = np.append(P.row, -1)[j], np.append(P.val, 0)[j]  # row[r], val[r]
    size, prod = _abs(P.val), val2 * P.val
    square = np.where(
        row2 == P.row, _abs(prod - P.val), np.maximum(np.where(j >= 0, _abs(prod), 0.0), size)
    )
    paired = row2 == P.col
    adjoint = np.where(paired, _abs(P.val - val2.conj()), size)
    return _group_max(np.maximum(
        np.where(every.take(P.col), np.maximum(square, adjoint), 0.0),
        np.where(~paired & every.take(P.row), size, 0.0),  # an entry of S* alone in column r
    ), P.start)


def _isometry_residuals(J: _Join, inside: np.ndarray):
    """(IS) S_e* S_e - S_src(e): max |entry| at each edge on ``inside``, and
    over all edges off it.

    S_e* S_e is |val|^2 on the diagonal in the columns of e, which the entry
    of S_src(e) in such a column meets when on the diagonal.  Each other
    entry of S_src(e) stands alone.  One ``np.bincount`` counts, for each
    entry, the edges out of its vertex that meet it.  An entry met by none
    enters every out-edge through its vertex's largest, on ``inside`` and
    off it, and one met by all never stands alone.  Only an entry met by
    some but not all is listed, once for every out-edge e of its vertex:
    entry k of the listed is at first[e] + k - start[src[e]].  No builder
    rep has such an entry, so (IS) is O(n + nnz).
    """
    P, E, src, j = J.P, J.E, J.src, J.meet
    meets = np.append(P.row, -1)[j] == E.col
    own = np.where(meets, _abs(J.sq - np.append(P.val, 0)[j]), J.sq)
    size, own_in, size_in = _abs(P.val), inside.take(E.col), inside.take(P.col)
    met = np.bincount(j[meets], minlength=len(size))
    out = np.bincount(src, minlength=len(P.start) - 1).take(P.group)  # its vertex's out-edges
    alone, listed = (met == 0) & (out > 0), (0 < met) & (met < out)
    values = np.maximum(
        _group_max(np.where(own_in, own, 0.0), E.start),
        _group_max(np.where(alone & size_in, size, 0.0), P.start)[src],
    )
    stray = [own[~own_in], size[alone & ~size_in]]
    if listed.any():
        before = np.append(0, np.cumsum(listed))  # listed entries before each entry
        start, part = before[P.start], np.flatnonzero(listed)
        count = np.diff(start)[src]
        first = np.cumsum(count) - count
        k = part[np.arange(count.sum()) + np.repeat(start[src] - first, count)]
        rest, hit = size[k], meets & np.append(listed, False)[j]
        rest[(first - start[src]).take(E.group[hit]) + before[j[hit]]] = 0.0
        rest_in = inside.take(P.col[k])
        listed_max = _group_max(np.where(rest_in, rest, 0.0), np.append(first, count.sum()))
        values, stray = np.maximum(values, listed_max), stray + [rest[~rest_in]]
    return values, _worst(np.concatenate(stray))[0]


def _range_defects(J: _Join, inside: np.ndarray) -> np.ndarray:
    """S_v less R_1^v, the range sum of the edges into v, which TCK, CK and F
    read: at each vertex, by how much the sum exceeds S_v, and max |entry| on
    ``inside`` and off it, as three rows.  The entry of S_v in a slot's
    column meets R_1^v there when on the diagonal; there the defect exceeds
    by its negative real part or its imaginary part, elsewhere by its modulus.
    """
    P, n, slots, r = J.P, len(inside), J.slots, J.range_sum(1)
    on, j, bounds = P.row == P.col, np.arange(len(slots)), P.start  # S_v's slots, each vertex's
    if len(slots) > len(J.at):  # rows no projection entry has: a corrupted rep
        j = np.searchsorted(slots, J.at)
        bounds = np.searchsorted(slots, np.arange(len(P.start)) * n)
    own, alone = np.zeros(len(slots), np.result_type(float, P.val)), np.zeros(len(slots))
    own[j[on]], alone[j[~on]] = P.val[on], _abs(P.val[~on])
    diag = own - r
    miss, miss_in = np.maximum(_abs(diag), alone), inside[slots % n]
    return _group_max(np.array([
        np.maximum(np.maximum(-diag.real, np.abs(diag.imag)), alone),
        np.where(miss_in, miss, 0.0),
        np.where(miss_in, 0.0, miss),
    ]), bounds)


def path_matrix(rep: TruncatedRep, p: Path) -> sp.csr_matrix:
    """Matrix of S_p: product of edge matrices, vertex projection for length 0,
    built anew from the stored maps for every call."""
    return _csr(rep.dim, *_path_map(rep, p))


def apply_formal(rep: TruncatedRep, elem: FormalElement) -> sp.csr_matrix:
    """Truncated matrix of a formal polynomial.

    The terms' entries are added in term order, each entry's sum running
    left to right from zero as a running sparse sum adds them.
    """
    return _csr(rep.dim, *_formal_entries(rep, elem))


def _formal_entries(rep: TruncatedRep, elem: FormalElement) -> tuple[np.ndarray, ...]:
    """(rows, cols, values) of the nonzero entries of ``apply_formal``."""
    if elem.graph.key != rep.graph.key:
        raise DomainError("formal element and truncation use different graphs")
    n = rep.dim
    keys, vals = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=complex)]
    for p, c in elem.sorted_terms():
        m = _path_map(rep, p)
        keys.append(m.row.astype(np.int64) * n + m.dom)
        vals.append(m.val.astype(complex) * c)
    keys, total = _add_up(np.concatenate(keys), np.concatenate(vals))
    nonzero = total != 0
    return (*np.divmod(keys[nonzero], n), total[nonzero])


def coisometric_defect(rep: TruncatedRep, k: int) -> tuple[float, float]:
    """(max |sum - I| on grades >= k, max |sum| on grades < k) for the grade-k
    range sum over all paths of length k.

    For a complete strong coloring the length-k paths into a vertex carry
    every length-k color word exactly once, so the sum acts as the identity
    on every grade at least k; on a left-regular truncation it is the
    projection onto grades at least k, so it vanishes below grade k.  Both
    statements are checked from this one defect pair.

    No path is built.  The sum is diagonal: S_v S_v* summed over v at k =
    0, and above it the R_k^w of ``_Join.range_sum``, added vertex by vertex
    from zero.  Their slots start from the projections' entries when the
    vertex table's keys are the graph's vertices, else from none, so k >= 1
    reads no vertex operator; then the join, and the R_j it holds, are those
    ``verify_tck`` read.  A slot w * n + row takes terms only from the edges
    into w, in id order as in ``in_edges``, so each sum runs as over the
    paths.  The paths are counted first, against ``enumerate_paths``' budget.
    """
    if k < 0:
        raise DomainError("grade must be nonnegative", k=k)
    g, n, verts = rep.graph, rep.dim, rep.graph.sorted_vertices()
    _count_levels(g, sorted(g.vertices), k)
    if k == 0:
        P = rep.vertex_ops.stack(verts)
        total = np.bincount(P.row, weights=_square(P.val), minlength=n)
    else:
        P = rep.vertex_ops.table
        J = _join(rep, P if P.keys == verts else _stack((), []))
        total = np.bincount(J.slots % n, weights=J.range_sum(k), minlength=n)  # vertex by vertex
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

    The paths are counted first, as ``enumerate_paths`` counts them.  Those
    of one length are stepped together, one ``_search`` per edge in id order,
    carrying only nonzero images: an operator is read only where one reaches.
    """
    upto = max(0, rep.depth - 1 if upto is None else upto)
    idx = rep._label_index.get(label)
    if idx is None:
        raise DomainError("unknown basis label", label=str(label))
    g, base = rep.graph, rep.label_vertex[idx]
    _count_levels(g, [base], upto)
    m = rep.vertex_ops.map(base)
    i = _search(m.dom, idx)
    hit = {int(m.row[i])} if i >= 0 else set()
    edges = g.key[1]  # (id, src, dst), in id order
    level = {base: np.array([idx])}  # end vertex -> where the paths ending there send idx
    for _ in range(upto):
        ending: dict[str, list[np.ndarray]] = {}
        for e, src, dst in edges:
            if src in level:
                m = rep.edge_ops.map(e)
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
        return {"n": self.n, "depth": self.depth, "ok": self.ok,
                "max_residual": self.max_residual, "blocks": list(self.blocks)}


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
    _count_in_regular(1, 1, depth)  # one path per level, as on the loop, before the n-cycle
    rep = build_left_regular_trunc(cycle_graph(n), ["v1"], depth)
    E, dim = rep.edge_ops.table, rep.dim  # the builder's, in sorted-edge order
    edge = np.array([int(key[1:]) - 1 for key in E.keys])[E.group]  # e_{i + 1} is edge i
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
    ``e:<edge>``, read off the tables' segments with no matrix built."""
    return {name: list(quads) for name, quads in _coordinates(rep).items()}


def _coordinates(rep: TruncatedRep) -> dict:
    """``operator_coordinates``, each operator's quadruples made as they are read:
    its map is sliced now, and ``_quadruples`` runs at the first read."""
    maps = {f"{o.kind[0]}:{k}": o.map(k) for o in (rep.vertex_ops, rep.edge_ops) for k in o}
    return {name: (q for one in [m] for q in _quadruples(*one)) for name, m in maps.items()}


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
