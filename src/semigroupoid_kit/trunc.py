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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, EnumerationOverflow
from .graph import Graph, cycle_graph
from .paths import BASIS_CAP, SYMBOL_CAP, Path, enumerate_paths, path_range
from .roadcoloring import Coloring, validate_coloring
from .series import FormalElement

Label = object  # Path for the left-regular model, (vertex, word) for the colored one


@dataclass
class TruncatedRep:
    graph: Graph
    depth: int
    kind: str  # "left_regular" | "colored"
    labels: list
    grades: np.ndarray
    label_vertex: list[str]
    vertex_ops: dict[str, sp.csr_matrix]
    edge_ops: dict[str, sp.csr_matrix]
    meta: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self) -> dict:
        return {label: i for i, label in enumerate(self.labels)}


def build_left_regular_trunc(g: Graph, sources, depth: int) -> TruncatedRep:
    """Truncation of the path-space family generated by the source vertices."""
    if depth < 0:
        raise DomainError("depth must be nonnegative", depth=depth)
    basis = enumerate_paths(g, sources, depth)
    return _assemble(
        g, depth, "left_regular", basis, [len(p) for p in basis],
        [path_range(g, p) for p in basis], lambda p, eid: Path(p.base, (eid,) + p.edges),
        {"sources": sorted(set(sources))},
    )


def build_colored_trunc(g: Graph, coloring: Coloring, depth: int) -> TruncatedRep:
    """Colored model: vertex blocks of color words, edges act by their color shift."""
    if depth < 0:
        raise DomainError("depth must be nonnegative", depth=depth)
    report = validate_coloring(g, coloring)
    if not report.valid:
        raise DomainError(
            "coloring is not strong", findings=[f.message for f in report.errors]
        )
    d = coloring.d
    for v in g.sorted_vertices():
        fiber = sorted(coloring.of(e) for e in g.in_edges(v))
        if fiber != list(range(1, d + 1)):
            raise DomainError(
                "colored truncation needs a complete strong coloring "
                "(in-degree d-regular, every color in every fiber)",
                vertex=v,
            )
    size, symbols = _colored_basis_size(len(g.vertices), d, depth)
    if size > BASIS_CAP:
        raise EnumerationOverflow("basis too large", size=size, cap=BASIS_CAP)
    if symbols > SYMBOL_CAP:
        raise EnumerationOverflow(
            "basis exceeds the symbol budget", size=size, symbols=symbols, budget=SYMBOL_CAP
        )
    words: list[str] = [""]
    level = [""]
    for _ in range(depth):
        level = [str(j) + w for w in level for j in range(1, d + 1)]
        level.sort()
        words.extend(level)
    labels = [(v, w) for v in g.sorted_vertices() for w in words]
    color = {eid: str(coloring.of(eid)) for eid in g.sorted_edge_ids()}
    return _assemble(
        g, depth, "colored", labels, [len(w) for _, w in labels], [v for v, _ in labels],
        lambda lab, eid: (g.dst(eid), color[eid] + lab[1]),
        {"coloring": coloring.to_json_dict()},
    )


def _assemble(
    g: Graph, depth: int, kind: str, labels: list, grades: list[int],
    label_vertex: list[str], shift: Callable[[Label, str], Label], meta: dict,
) -> TruncatedRep:
    """Vertex projections and one 0/1 matrix per edge, from one pass over the
    basis: the edge e sends each label of grade below ``depth`` at its source
    vertex to ``shift(label, e)``.  Entries are laid down in basis order."""
    n = len(labels)
    index = {label: i for i, label in enumerate(labels)}
    diagonal = {v: [] for v in g.sorted_vertices()}
    entries = {eid: ([], []) for eid in g.sorted_edge_ids()}
    for i, (label, v) in enumerate(zip(labels, label_vertex)):
        diagonal[v].append(i)
        if grades[i] < depth:
            for eid in g.out_edges(v):
                rows, cols = entries[eid]
                rows.append(index[shift(label, eid)])
                cols.append(i)
    vertex_ops = {
        v: sp.csr_matrix((np.ones(len(rows)), (rows, rows)), shape=(n, n))
        for v, rows in diagonal.items()
    }
    edge_ops = {
        eid: sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        for eid, (rows, cols) in entries.items()
    }
    return TruncatedRep(
        g, depth, kind, labels, np.array(grades, dtype=int), label_vertex,
        vertex_ops, edge_ops, meta,
    )


def _colored_basis_size(vertices: int, d: int, depth: int) -> tuple[int, int]:
    """(size, symbols), in integers: the colored basis size |V| * (d^0 + ...
    + d^depth) and its colour words' total length |V| * (1 d^1 + ... + depth d^depth).

    Exact up to a size of BASIS_CAP**2.  Past that the sums stop at the
    first level that crosses it, so a huge depth neither loops long nor
    yields a number too long to print; any such figure is far over the cap.
    """
    if d == 1:
        return vertices * min(depth + 1, BASIS_CAP**2), vertices * depth * (depth + 1) // 2
    size = level = vertices
    symbols = 0
    for length in range(1, depth + 1):
        level *= d
        size += level
        symbols += length * level
        if size > BASIS_CAP**2:
            break
    return size, symbols


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
        return {
            "relation": self.relation,
            "interior": [self.interior_lo, self.interior_hi],
            "max_residual": self.max_residual,
            "exact_zero": self.exact_zero,
            "boundary_residual": self.boundary_residual,
            "detail": self.detail,
        }


def _column_residual(
    mat: sp.spmatrix, grades: np.ndarray, lo: int, hi: int
) -> tuple[float, float]:
    """(max |entry| over columns with grade in [lo, hi], max over the rest)."""
    coo = mat.tocoo()
    # abs() entry by entry; np.abs of complex data can differ from it in the last bit
    mags = np.hypot(coo.data.real, coo.data.imag)
    grade = grades[coo.col]
    inside = (lo <= grade) & (grade <= hi)
    return _max_or_zero(mags[inside]), _max_or_zero(mags[~inside])


def _max_or_zero(mags: np.ndarray) -> float:
    return float(mags.max()) if mags.size else 0.0


def verify_tck(rep: TruncatedRep) -> list[RelationReport]:
    """Check the isometric-family axioms as matrix identities on interior grades.

    (P) projections orthogonal, (ND) vertex sum is the identity, and the
    domination inequality are artifact-free at every grade; identities that
    move one edge, (IS), lose the top grade; range-sum identities (CK)/(F)
    also lose grade 0, where the wandering vectors of a truncation live.
    Boundary residuals are recorded but do not affect the residual field.
    """
    g = rep.graph
    grades = rep.grades
    N = rep.depth
    reports: list[RelationReport] = []

    worst = 0.0
    detail = ""
    n = rep.dim
    ident = sp.identity(n, format="csr")
    for v in g.sorted_vertices():
        sv = rep.vertex_ops[v]
        r1 = _column_residual(sv @ sv - sv, grades, 0, N)[0]
        r2 = _column_residual(sv - sv.conjugate().transpose().tocsr(), grades, 0, N)[0]
        local = max(r1, r2)
        if local > worst:
            worst, detail = local, f"projection identity fails at {v}"
    for i, v in enumerate(g.sorted_vertices()):
        for w in g.sorted_vertices()[i + 1:]:
            r = _column_residual(
                rep.vertex_ops[v] @ rep.vertex_ops[w], grades, 0, N
            )[0]
            if r > worst:
                worst, detail = r, f"projections at {v} and {w} overlap"
    reports.append(RelationReport("P", 0, N, worst, worst == 0.0, 0.0, detail))

    worst, boundary, detail = 0.0, 0.0, ""
    for eid in g.sorted_edge_ids():
        se = rep.edge_ops[eid]
        res = se.conjugate().transpose() @ se - rep.vertex_ops[g.src(eid)]
        inner, outer = _column_residual(res.tocsr(), grades, 0, N - 1)
        boundary = max(boundary, outer)
        if inner > worst:
            worst, detail = inner, f"isometry identity fails at {eid}"
    reports.append(RelationReport("IS", 0, N - 1, worst, worst == 0.0, boundary, detail))

    # S_v minus the range sum of the edges into v, shared by TCK, CK and F
    defect = {}
    for v in g.sorted_vertices():
        acc = sp.csr_matrix((n, n))
        for eid in g.in_edges(v):
            se = rep.edge_ops[eid]
            acc = acc + se @ se.conjugate().transpose()
        defect[v] = rep.vertex_ops[v] - acc

    worst, detail = 0.0, ""
    for v in g.sorted_vertices():
        diff = defect[v].tocoo()
        local = 0.0
        for r, c, val in zip(diff.row, diff.col, diff.data):
            if r == c:
                local = max(local, max(0.0, -val.real), abs(val.imag))
            else:
                local = max(local, abs(val))
        if local > worst:
            worst, detail = local, f"range sum exceeds the projection at {v}"
    reports.append(RelationReport("TCK", 0, N, worst, worst == 0.0, 0.0, detail))

    for name, verts in (
        ("CK", [v for v in g.sorted_vertices() if g.in_edges(v)]),
        ("F", list(g.sorted_vertices())),
    ):
        worst, boundary, detail = 0.0, 0.0, ""
        for v in verts:
            inner, outer = _column_residual(defect[v].tocsr(), grades, 1, N - 1)
            boundary = max(boundary, outer)
            if inner > worst:
                worst, detail = inner, f"range sum misses the projection at {v}"
        reports.append(
            RelationReport(name, 1, N - 1, worst, worst == 0.0, boundary, detail)
        )

    total = sp.csr_matrix((n, n))
    for v in g.sorted_vertices():
        total = total + rep.vertex_ops[v]
    worst = _column_residual(total - ident, grades, 0, N)[0]
    reports.append(RelationReport("ND", 0, N, worst, worst == 0.0, 0.0, ""))
    return reports


def path_matrix(rep: TruncatedRep, p: Path) -> sp.csr_matrix:
    """Matrix of S_p: product of edge matrices, vertex projection for length 0."""
    if not p.edges:
        try:
            return rep.vertex_ops[p.base]
        except KeyError:
            raise DomainError("unknown vertex", vertex=p.base) from None
    mat: sp.csr_matrix | None = None
    for eid in p.edges:
        try:
            factor = rep.edge_ops[eid]
        except KeyError:
            raise DomainError("unknown edge", edge=eid) from None
        mat = factor if mat is None else mat @ factor
    return mat.tocsr()


def apply_formal(rep: TruncatedRep, elem: FormalElement) -> sp.csr_matrix:
    """Truncated matrix of a formal polynomial."""
    if elem.graph != rep.graph:
        raise DomainError("formal element and truncation use different graphs")
    n = rep.dim
    acc = sp.csr_matrix((n, n), dtype=complex)
    for p, c in elem.sorted_terms():
        acc = acc + c * path_matrix(rep, p).astype(complex)
    return acc.tocsr()


def coisometric_defect(rep: TruncatedRep, k: int) -> tuple[float, float]:
    """(max |sum - I| on grades >= k, max |sum| on grades < k) for the grade-k
    range sum over all paths of length k.

    For a complete strong coloring the length-k paths into a vertex carry
    every length-k color word exactly once, so the sum acts as the identity
    on every grade at least k; on a left-regular truncation it is the
    projection onto grades at least k, so it vanishes below grade k.  Both
    statements are checked from this one defect pair.
    """
    if k < 0:
        raise DomainError("grade must be nonnegative", k=k)
    g = rep.graph
    n = rep.dim
    acc = sp.csr_matrix((n, n))
    for p in enumerate_paths(g, g.vertices, k):
        if len(p) != k:
            continue
        m = path_matrix(rep, p)
        acc = acc + m @ m.conjugate().transpose()
    ident = sp.identity(n, format="csr")
    upper = _column_residual(acc - ident, rep.grades, k, rep.depth)[0]
    lower = _column_residual(acc, rep.grades, 0, k - 1)[0] if k > 0 else 0.0
    return upper, lower


def wandering_certificate(rep: TruncatedRep, label, upto: int | None = None) -> bool:
    """Exact pairwise-orthogonality check of the path orbit of one basis vector.

    Certifies wandering behavior through grade ``upto`` (default N-1): the
    images S_mu xi over distinct paths mu must have disjoint supports or
    vanish, which the 0/phase entries make an exact integer check.
    """
    if upto is None:
        upto = rep.depth - 1
    idx = rep.index()[label]
    e = np.zeros(rep.dim, dtype=complex)
    e[idx] = 1.0
    vecs = []
    base_vertex = rep.label_vertex[idx]
    for p in enumerate_paths(rep.graph, [base_vertex], max(0, upto)):
        vec = path_matrix(rep, p).astype(complex) @ e
        if np.any(vec):
            vecs.append(vec)
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if np.vdot(vecs[i], vecs[j]) != 0:
                return False
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
        return {
            "n": self.n,
            "depth": self.depth,
            "ok": self.ok,
            "max_residual": self.max_residual,
            "blocks": self.blocks,
        }


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
    # the unique path of length k is mu_k; locate basis indices by length
    by_len = {len(p): i for i, p in enumerate(rep.labels)}
    dim = rep.dim
    worst = 0.0
    blocks: list[str] = []
    for i in range(1, n + 1):
        eid = f"e{i}"
        rows, cols = [], []
        for k in range(0, depth):
            if k % n == i - 1:
                rows.append(by_len[k + 1])
                cols.append(by_len[k])
        expected = sp.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(dim, dim)
        )
        diff = rep.edge_ops[eid] - expected
        residual = 0.0 if diff.nnz == 0 else float(np.max(np.abs(diff.data)))
        worst = max(worst, residual)
        if i < n:
            blocks.append(
                f"edge e{i}: identity block from vertex block {i} to {i + 1}"
                + ("" if residual == 0 else f" (residual {residual})")
            )
        else:
            blocks.append(
                f"edge e{n}: one-step shift block from vertex block {n} to 1"
                + ("" if residual == 0 else f" (residual {residual})")
            )
    return CycleLemmaReport(n, depth, worst == 0.0, worst, blocks)


def matrix_to_coordinates(mat: sp.spmatrix) -> list[list[float]]:
    """Sorted (row, col, re, im) quadruples of the nonzero entries."""
    coo = mat.tocoo()
    entries = [
        [int(r), int(c), float(np.real(v)), float(np.imag(v))]
        for r, c, v in zip(coo.row, coo.col, coo.data)
        if v != 0
    ]
    entries.sort(key=lambda q: (q[0], q[1]))
    return entries
