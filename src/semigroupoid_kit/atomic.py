"""Atomic isometric families on a graph and their classification.

An explicit atomic family assigns to each vertex v a finite index set
Lambda_v, to each edge e a partial injection pi_e from Lambda_{s(e)} into
Lambda_{r(e)}, and to each defined pair (e, i) a unimodular phase.  The
family acts on the basis {xi_{v,i}} by S_e xi_{s(e),i} = phase * xi_{r(e),
pi_e(i)}.  The index-level structure is the labeled graph H on the nodes
(v, i): injectivity plus disjointness of the pi-ranges over edges with a
common range vertex make every node have at most one incoming arc, so each
connected component of H contains either a single sourceless node (a root)
or a single directed cycle, never both.

Canonical (symbolic) families describe the infinite-dimensional cases that
no finite explicit family can encode.  Classification decomposes a family
into irreducible atoms, each a canonical family in normal form: left-regular
at a vertex, or a cycle type with its phase or a tail, each on the canonical
rotation of a primitive cycle; so a sum of the atoms classifies to them again.

One scan reads each vertex's in-edges once.  It counts the labels no arc
hits, the roots of H and so the left-regular atoms at each vertex, and where
a test fails it names the faults and goes on: a query on any data, total,
partial or invalid, is answered or refused from that pass; only
``validate_atomic`` makes a report.  Core lemma: every node of a cycle
component lies over the graph's elimination core, as an H-cycle lifts a
graph cycle and the rest of its component lies downstream of it; so cycles
are sought only in the H over the core, and on a forest that H is empty.
There one backward walk per component, from its least node, finds the
component and traces its cycle; ``trace_backward`` is that walk from one
node.  A canonical family is read as its summands: a sum's parts, or the
family once.
"""

from __future__ import annotations

import enum
import heapq
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import groupby, repeat
from operator import itemgetter
from typing import Iterable, Union

from .errors import DomainError, NonTotalPresentation, NotACycle
from .graph import Graph, directed_closure
from .paths import (
    Path,
    _cycle_vertices,
    _cyclic_canonical_form,
    _primitive_root,
    _require_cycle,
    is_cycle,
    validate_path,
)
from .phases import Phase
from .validation import ValidationReport

Node = tuple[str, str]

OMEGA = "omega"
Multiplicity = Union[int, str]

_ONE = Phase.one()  # the default arc phase; Phase is frozen, so one object serves
_NO_LABELS: frozenset[str] = frozenset()


def mult_add(a: Multiplicity, b: Multiplicity) -> Multiplicity:
    if a == OMEGA or b == OMEGA:
        return OMEGA
    return a + b


def mult_scale(a: Multiplicity, k: Multiplicity) -> Multiplicity:
    if a == OMEGA or k == OMEGA:
        return OMEGA
    return a * k


# ---------------------------------------------------------------------------
# explicit data


@dataclass(frozen=True)
class ExplicitAtomic:
    """Finite atomic family presented by index sets, partial injections, phases.

    Index labels are scoped to their vertex: the basis node for label i at
    vertex v is the pair (v, i), so index sets at distinct vertices are
    disjoint by construction.  ``pi[e]`` maps source labels to range labels;
    ``phases[(e, i)]`` defaults to 1 when missing.  The family is frozen; it
    keeps its one scan, ``_survey`` (free counts, faults, owing edges), and the
    split of H, made on first use.  Queries raise from the scan; no report is kept.
    """

    graph: Graph
    lam: dict[str, tuple[str, ...]]
    pi: dict[str, dict[str, str]]
    phases: dict[tuple[str, str], Phase] = field(default_factory=dict)

    def labels(self, v: str) -> tuple[str, ...]:
        return self.lam.get(v, ())

    def nodes(self) -> list[Node]:
        return [(v, i) for v in sorted(self.lam) for i in self.lam[v]]

    def phase(self, eid: str, i: str) -> Phase:
        return self.phases.get((eid, i), _ONE)

    def dim(self) -> int:
        return sum(len(ix) for ix in self.lam.values())

    @cached_property
    def _survey(self) -> tuple[dict[str, int], list[tuple], list[int]]:
        return _scan(self)

    @cached_property
    def _split(self) -> tuple[dict[str, int], tuple[CycleFound, ...], frozenset[Node]]:
        """The roots of H as the scan's free counts, ``{vertex: n}`` in vertex
        order, the cycle traces in least-node order, and the nodes of the
        cycle components.  By the core lemma, H is built once, over the
        elimination core alone, and its one walk traces each cycle."""
        _require_valid(self, require_total=False)
        h = _labeled_h(self, sorted(self.graph._elimination[0]))
        components = _h_components(sorted(h.nodes), h.pred)
        cyclic = [(w, nodes) for w, nodes in components if w[2] is not None]  # closed walks
        cycles = tuple(_trace(*w) for w, _ in cyclic)
        return self._survey[0], cycles, frozenset(n for _, nodes in cyclic for n in nodes)


def _scan(a: ExplicitAtomic) -> tuple[dict[str, int], list[tuple], list[int]]:
    """The one pass over the data: how many labels at each vertex no arc
    hits, where that is not zero; the faults, each as (sort key, code,
    message, where); and the positions of the edges that owe an image.

    Every vertex's in-edges are read once, by position.  On valid data an
    edge costs one set test, its map's keys against its source's labels,
    and a vertex one more, the labels hit against its own, as many as its
    arcs.  Where a test fails, the vertex's faults are named and the walk
    goes on.  Phases sit on arcs of known edges.
    """
    ix, lam, pi = a.graph.index, a.lam, a.pi
    at, names, edges, src, inc = ix.at, ix.vertices, ix.edges, ix.src, ix.inc
    faults: list[tuple] = []
    own: list = [_NO_LABELS] * len(at)  # each vertex's label set, by position
    for v, listed in lam.items():
        labels = set(listed)
        if len(labels) != len(listed):
            faults.append(((0, v, 1), "duplicate-label", f"duplicate index labels at {v}", v))
        if v in at:
            own[at[v]] = labels
        else:
            message = f"index set attached to unknown vertex {v}"
            faults.append(((0, v, 0), "unknown-vertex", message, v))
    free: dict[str, int] = {}
    owing: list[int] = []
    for k, labels in enumerate(own):
        hit: set[str] = set()
        arcs, faulty = 0, False
        for j in inc[k]:
            mapping = pi.get(edges[j], {})
            if mapping.keys() != own[src[j]]:
                faulty = True
            hit.update(mapping.values())
            arcs += len(mapping)
        if faulty or arcs != len(hit) or not hit <= labels:
            _name_faults(a, k, own, faults, owing)
            hit &= labels  # an image off the labels hits no node
        if len(hit) < len(labels):
            free[names[k]] = len(labels) - len(hit)
    known = ix.edge_at.keys()
    ghosts = () if pi.keys() <= known else pi.keys() - known  # no set built on valid data
    for eid in ghosts:
        faults.append(((1, eid), "unknown-edge", f"pi attached to unknown edge {eid}", eid))
    for eid, i in a.phases:
        if i not in pi.get(eid, ()) or eid in ghosts:
            if eid in known:
                message = f"phase attached to ({eid}, {i}) but pi_{eid} is undefined there"
                faults.append(((3, eid, i), "phase-without-arc", message, eid))
            else:
                message = f"phase attached to unknown edge {eid}"
                faults.append(((3, eid, i), "unknown-edge", message, eid))
    return free, faults, owing


def _name_faults(a: ExplicitAtomic, k: int, own: list, faults: list, owing: list) -> None:
    """Name the faults of the arcs into the vertex at position ``k``: keys
    off the source's labels, images it owes, maps that are not injective,
    images off ``k``'s labels, and labels hit twice, each arc onto one
    stamped against the first in (edge, label) order."""
    ix = a.graph.index
    v, labels = ix.vertices[k], own[k]
    maps = [(e, ix.edges[e], a.pi.get(ix.edges[e], {})) for e in ix.inc[k]]
    onto = Counter(j for _, _, mapping in maps for j in mapping.values())
    first: dict[str, str] = {}
    for e, eid, mapping in maps:
        s, sname = own[ix.src[e]], ix.vertices[ix.src[e]]
        if not s <= mapping.keys():
            owing.append(e)
        if len(set(mapping.values())) != len(mapping):
            faults.append(((1, eid, 1), "not-injective", f"pi_{eid} is not injective", eid))
        for i, j in sorted(mapping.items()):
            if i not in s:
                message = f"pi_{eid} defined on {i} not in Lambda_{sname}"
                faults.append(((1, eid, 0, i, 0), "bad-from", message, eid))
            if j not in labels:
                message = f"pi_{eid} sends {i} to {j} not in Lambda_{v}"
                faults.append(((1, eid, 0, i, 1), "bad-to", message, eid))
            if onto[j] > 1 and j in first:
                message = f"label {j} at {v} is hit by {first[j]} and {eid}[{i}]"
                faults.append(((2, v), "overlapping-ranges", message, v))
            elif onto[j] > 1:
                first[j] = f"{eid}[{i}]"


def validate_atomic(a: ExplicitAtomic, require_total: bool = True) -> ValidationReport:
    """Check the explicit data against the atomic family contract.

    Errors: unknown vertices/edges/labels, non-injective pi_e, overlapping
    pi-ranges among edges with a common range vertex, and (when
    ``require_total``) any source label without an image.  Informational
    findings report which coisometry identities hold: CK asks the pi-ranges
    over the edges into each vertex with an incoming edge to cover its
    index set, and full coisometry also asks in-degree-0 vertices to carry
    no labels.  The family's one scan, kept as its ``_survey``, gives the
    faults with their sort keys: by vertex, then by edge and label, then
    overlaps by vertex, then phases, never in the iteration order of a set.
    """
    free, faults, owing = a._survey
    ix, report = a.graph.index, ValidationReport()
    for _, code, message, where in sorted(faults, key=itemgetter(0)):
        report.add(code, message, where)
    if owing:
        report.add("non-total", _non_total(a, owing), severity="error" if require_total else "info")
    # each vertex in ``free`` holds a label no arc hits, so it fails full
    # coisometry, and CK if it has an in-edge
    ck_fail = [v for v in free if ix.inc[ix.at[v]]]
    report.add(
        "ck",
        f"CK fails at {ck_fail}" if ck_fail else "CK identity holds at every finite receiver",
        severity="info",
    )
    report.add(
        "fully-coisometric",
        f"coisometry fails at {list(free)}" if free else "family is fully coisometric",
        severity="info",
    )
    report.add("nondegenerate", "vertex projections sum to the identity", severity="info")
    return report


def _non_total(a: ExplicitAtomic, owing: list[int]) -> str:
    """The non-total message: the images the edges at ``owing`` owe, in ``g.key`` order."""
    ix = a.graph.index
    owed = ((ix.edges[e], ix.vertices[ix.src[e]]) for e in sorted(owing))
    missing = [(eid, i) for eid, s in owed for i in a.labels(s) if i not in a.pi.get(eid, {})]
    sample = ", ".join(f"pi_{e}[{i}]" for e, i in missing[:5])
    return f"{len(missing)} undefined image(s), e.g. {sample}"


# ---------------------------------------------------------------------------
# the index-level labeled graph H


@dataclass(frozen=True, slots=True)
class Arc:
    src: Node
    dst: Node
    edge: str
    phase: Phase


@dataclass
class LabeledH:
    nodes: tuple[Node, ...]
    arcs: tuple[Arc, ...]
    pred: dict[Node, Arc | None]

    def components(self) -> list[list[Node]]:
        """Undirected components of H, each sorted, ordered by least node,
        read off the predecessor links as ``ExplicitAtomic._split`` does."""
        return [members for _, members in _h_components(sorted(self.nodes), self.pred)]

    def to_dot(self) -> str:
        lines = ["digraph H {"]
        for v, i in self.nodes:
            lines.append(f'  "{v}:{i}";')
        for arc in self.arcs:
            label = f"{arc.edge} {arc.phase}"
            lines.append(
                f'  "{arc.src[0]}:{arc.src[1]}" -> "{arc.dst[0]}:{arc.dst[1]}" [label="{label}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def _h_components(
    nodes: list[Node], pred: dict[Node, Arc | None]
) -> list[tuple[tuple[list[Node], list[Arc | None], int | None], list[Node]]]:
    """The components of H met from ``nodes``, by its predecessor arcs
    alone, each with the walk that met it and its nodes among ``nodes`` in
    the order given; a node off ``pred`` is a root.

    ``nodes`` come sorted and each has at most one predecessor, so the
    backward walk from a node ends at its component's root or closes on its
    cycle.  Walking from each node not yet labeled, in order, meets the
    components in the order of their least nodes among ``nodes``, each from
    that node.  That walk is kept as its nodes, the arc into each (None at
    a root) and the position it closed on, None at a root, for ``_trace``.
    """
    walks: list[tuple] = []
    comp_of: dict[Node, int] = {}
    for start in nodes:
        walk, arcs, node = [], [], start
        while node is not None and node not in comp_of:
            comp_of[node] = ~len(walk)  # on the current walk, at this position
            walk.append(node)
            arcs.append(arc := pred.get(node))
            node = arc and arc.src
        if node is not None and comp_of[node] >= 0:
            k = comp_of[node]
        else:  # a new component: the walk ended at its root or closed on its cycle
            k = len(walks)
            walks.append((walk, arcs, None if node is None else ~comp_of[node]))
        for n in walk:
            comp_of[n] = k
    members: list[list[Node]] = [[] for _ in walks]
    for n in nodes:
        members[comp_of[n]].append(n)
    return list(zip(walks, members))


def _require_valid(a: ExplicitAtomic, require_total: bool) -> None:
    """Raise unless the family's kept scan allows the call; no report is built.

    Structural faults raise DomainError with their messages in sort-key order, as
    ``validate_atomic`` lists them; a missing image raises NonTotalPresentation
    with the one non-total message, and only when ``require_total`` is set.
    """
    _, faults, owing = a._survey
    if faults:
        structural = [message for _, _, message, _ in sorted(faults, key=itemgetter(0))]
        raise DomainError("explicit atomic data is structurally invalid", findings=structural)
    if require_total and owing:
        raise NonTotalPresentation(
            "pi is not total; finite explicit data cannot present this family",
            findings=[_non_total(a, owing)],
        )


def build_H(a: ExplicitAtomic) -> LabeledH:
    """Labeled graph on basis nodes; requires structurally valid data.

    Totality is not required here so that depth-truncated materializations
    can still be inspected; classification enforces totality separately.
    Valid data gives every node at most one incoming arc.
    """
    _require_valid(a, require_total=False)
    h = _labeled_h(a, sorted(a.lam))
    return LabeledH(h.nodes, tuple(sorted(h.arcs, key=lambda arc: (arc.edge, arc.src[1]))), h.pred)


def _labeled_h(a: ExplicitAtomic, vertices: list[str]) -> LabeledH:
    """H over ``vertices``: their nodes in ``a.nodes()`` order, keying ``pred``, and
    one arc per map entry of their in-edges, by position; a source may lie off it."""
    ix, phase = a.graph.index, a.phases.get
    nodes = tuple((v, i) for v in vertices for i in a.labels(v))
    pred: dict[Node, Arc | None] = dict.fromkeys(nodes)
    for v in vertices:
        for e in ix.inc[ix.at[v]]:
            eid, s = ix.edges[e], ix.vertices[ix.src[e]]
            for i, j in a.pi.get(eid, {}).items():
                pred[v, j] = Arc((s, i), (v, j), eid, phase((eid, i), _ONE))
    return LabeledH(nodes, tuple(arc for arc in pred.values() if arc), pred)


@dataclass(frozen=True, slots=True)
class RootFound:
    root: Node
    path: Path  # the path carrying the root basis vector onto the queried one


@dataclass(frozen=True, slots=True)
class CycleFound:
    cycle_nodes: tuple[Node, ...]  # forward order, starting at the entry node
    cycle: Path  # cycle in the host graph based at the entry node's vertex
    phase: Phase  # product of arc phases once around
    entry_offset: int  # backward steps from the queried node to the cycle


def trace_backward(h: LabeledH, node: Node) -> RootFound | CycleFound:
    """Follow the unique predecessor chain from ``node``.

    Ends at an in-degree-0 node (RootFound, with the host-graph path from
    the root to the queried node) or closes up on the unique directed cycle
    of the component (CycleFound).  Finite data admits no third outcome: an
    infinite strictly backward chain would need infinitely many nodes.  The
    walk is that of ``_h_components`` from ``node`` alone; a node off
    ``h.pred`` ends it as a root.
    """
    if node not in h.pred:
        raise DomainError("unknown node", node=node)
    ((walk, _),) = _h_components([node], h.pred)
    return _trace(*walk)


def _trace(walk: list[Node], arcs: list[Arc | None], t: int | None) -> RootFound | CycleFound:
    """What the backward walk from ``walk[0]`` found: the root ``walk[-1]``
    when ``t`` is None, else the cycle it closed on at ``walk[t]``, whose
    arcs are those into ``walk[t:]``, the last one leaving ``walk[t]``."""
    if t is None:
        return RootFound(walk[-1], Path(walk[-1][0], tuple(a.edge for a in arcs[:-1])))
    cyc_arcs, nodes_fwd = arcs[t:], (walk[t],) + tuple(reversed(walk[t + 1:]))
    phase = _phase_product([a.phase for a in cyc_arcs])
    return CycleFound(nodes_fwd, Path(walk[t][0], tuple(a.edge for a in cyc_arcs)), phase, t)


def _phase_product(phases: list[Phase]) -> Phase:
    """The product of ``phases``: exact turns summed as integers per
    denominator and reduced mod 1 once, or, with an approximate phase
    anywhere, the ordered product, the same to the bit."""
    if any(ph.turns is None for ph in phases):
        return reduce(Phase.__mul__, phases, _ONE)
    sums: dict[int, int] = {}
    for ph in phases:
        sums[ph.turns.denominator] = sums.get(ph.turns.denominator, 0) + ph.turns.numerator
    return Phase.from_fraction(sum((Fraction(n, d) for d, n in sums.items()), Fraction(0)))


# ---------------------------------------------------------------------------
# canonical (symbolic) families


@dataclass(frozen=True, slots=True)
class LeftRegular:
    vertex: str


@dataclass(frozen=True, slots=True)
class CycleType:
    cycle: Path
    phase: Phase


@dataclass(frozen=True, slots=True)
class TailType:
    cycle: Path  # primitive cycle whose backward-infinite repetition is the tail


@dataclass(frozen=True, slots=True)
class DirectSum:
    parts: tuple[tuple["CanonicalAtomic", Multiplicity], ...]


CanonicalAtomic = Union[LeftRegular, CycleType, TailType, DirectSum]
AnyFamily = Union[ExplicitAtomic, CanonicalAtomic]


def _summands(fam: CanonicalAtomic) -> tuple[tuple[CanonicalAtomic, Multiplicity], ...]:
    """A direct sum's parts with their multiplicities, or the family once."""
    return fam.parts if isinstance(fam, DirectSum) else ((fam, 1),)


def validate_canonical(g: Graph, fam: CanonicalAtomic) -> None:
    for part, mult in _summands(fam):
        if isinstance(part, LeftRegular):
            if not g.has_vertex(part.vertex):
                raise DomainError("unknown vertex", vertex=part.vertex)
        elif isinstance(part, (CycleType, TailType)):
            validate_path(g, part.cycle)
            if not is_cycle(g, part.cycle) or len(part.cycle) == 0:
                kind = "cycle-type" if isinstance(part, CycleType) else "tail"
                raise NotACycle(f"{kind} family needs a cycle of positive length")
            if isinstance(part, TailType) and _primitive_root(part.cycle)[1] != 1:
                raise DomainError(
                    "tail cycle must be primitive; pass its primitive root",
                    cycle=list(part.cycle.edges),
                )
        elif isinstance(part, DirectSum):
            raise DomainError("direct sums do not nest; flatten the parts")
        else:
            raise DomainError("unknown canonical family", got=type(part).__name__)
        if mult != OMEGA and (not isinstance(mult, int) or mult < 1):
            raise DomainError("multiplicity must be a positive integer or omega", got=mult)


# ---------------------------------------------------------------------------
# atoms and decompositions: an atom is a canonical family in normal form

LeftRegularAtom, CycleAtom, TailAtom = LeftRegular, CycleType, TailType
Atom = Union[LeftRegular, CycleType, TailType]


def _atom_sort_key(atom: Atom) -> tuple:
    """The decomposition order; the first three entries name the atom, or a
    cycle atom's cycle."""
    if isinstance(atom, LeftRegular):
        return (0, atom.vertex, (), 0.0)
    if isinstance(atom, CycleType):
        return (1, atom.cycle.base, atom.cycle.edges, atom.phase.sort_key())
    return (2, atom.cycle.base, atom.cycle.edges, 0.0)


@dataclass
class AtomDecomposition:
    atoms: list[tuple[Atom, Multiplicity]]
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        merged: list[tuple[Atom, Multiplicity]] = []
        for atom, mult in sorted(self.atoms, key=lambda am: _atom_sort_key(am[0])):
            if merged and merged[-1][0] == atom:
                merged[-1] = (atom, mult_add(merged[-1][1], mult))
            else:
                merged.append((atom, mult))
        self.atoms = merged


def atoms_equal(a: Atom, b: Atom, tol: float = 1e-9) -> bool:
    if isinstance(a, CycleType) and isinstance(b, CycleType):
        return a.cycle == b.cycle and a.phase.approx_eq(b.phase, tol)
    return a == b


def decompose_cycle(g: Graph, w: Path, phase: Phase) -> list[tuple[Atom, Multiplicity]]:
    """Split a cycle-type family along the primitive root of its cycle.

    For w = u^p with u primitive, the family splits into the p atoms built
    on u whose phases are the p-th roots of the full-cycle phase.
    """
    _require_cycle(g, w)
    return _decompose_cycle(g, w, phase)


def _decompose_cycle(g: Graph, w: Path, phase: Phase) -> list[tuple[Atom, Multiplicity]]:
    """``decompose_cycle`` of a cycle already checked."""
    u, p = _primitive_root(w)
    return [(CycleType(_cyclic_canonical_form(g, u), theta), 1) for theta in phase.roots(p)]


_TAIL_NOTE = (
    "tail atoms on a periodic backward orbit carry a direct-integral "
    "identity: the family is equivalent to the integral over the unit "
    "circle of the cycle families on its primitive period, and it never "
    "splits into a countable direct sum of atoms"
)


def classify(g: Graph, fam: AnyFamily) -> AtomDecomposition:
    """Decompose a family into irreducible atoms with multiplicities.

    Explicit data must be structurally valid and total; each component of H
    contributes either one left-regular atom (root component) or the cycle
    atoms of its unique cycle.  Canonical data decomposes symbolically.
    """
    if isinstance(fam, ExplicitAtomic):
        return _classify_explicit(fam)
    validate_canonical(g, fam)
    return _classify_canonical(g, fam)


def _classify_canonical(g: Graph, fam: CanonicalAtomic) -> AtomDecomposition:
    atoms: list[tuple[Atom, Multiplicity]] = []
    notes: list[str] = []
    for part, mult in _summands(fam):
        if isinstance(part, LeftRegular):
            found = [(part, 1)]
        elif isinstance(part, CycleType):
            found = _decompose_cycle(g, part.cycle, part.phase)
        else:
            found, notes = [(TailType(_cyclic_canonical_form(g, part.cycle)), 1)], [_TAIL_NOTE]
        atoms.extend((atom, mult_scale(m, mult)) for atom, m in found)
    return AtomDecomposition(atoms, notes)


def _classify_explicit(a: ExplicitAtomic) -> AtomDecomposition:
    """Lemma: no root of valid total data reaches a cycle.  A forward walk in H
    from the root along a path into the cycle could not stop (the data is total)
    nor revisit a node (two in-arcs, or one at the root), and H is finite.
    The split comes first: its pass over pi gives the verdict too."""
    roots, cycles, _ = a._split
    _require_valid(a, require_total=True)
    atoms: list[tuple[Atom, Multiplicity]] = [(LeftRegular(v), n) for v, n in roots.items()]
    for found in cycles:
        atoms.extend(_decompose_cycle(a.graph, found.cycle, found.phase))
    return AtomDecomposition(atoms)


# ---------------------------------------------------------------------------
# Wold data


@dataclass
class WoldData:
    alpha: dict[str, Multiplicity]
    remainder_nodes: frozenset[Node]
    supported_on_g0: bool
    notes: list[str] = field(default_factory=list)


def wold_atomic(a: AnyFamily, g: Graph | None = None) -> WoldData:
    """Wold-type splitting data.

    For explicit data: alpha_v counts the in-degree-0 nodes at v (the
    wandering dimensions), and the remainder collects every node whose
    backward trace closes on a cycle (one trace per component of H).

    For canonical data: left-regular families contribute one wandering
    dimension at their vertex; tails are fully coisometric (alpha = 0);
    cycle-type families report the multiplicities of the left-regular part
    that remains after compressing away the minimal cyclic subspace, the
    same numbers ``cycle_structure_multiplicities`` computes from the graph.

    ``supported_on_g0`` is always True.  Lemma: each vertex on a cycle or
    downstream of one has an in-edge from such a vertex, so source
    elimination removes none of them.  That covers every vertex of a
    canonical cycle or tail, and the vertex of every remainder node, which
    is reached forward from its H-cycle, itself a lift of a graph cycle.
    """
    if isinstance(a, ExplicitAtomic):
        roots, _, remainder = a._split  # the root counts, in vertex order
        return WoldData(dict(roots), remainder, True)
    if g is None:
        raise DomainError("canonical wold data needs the host graph")
    validate_canonical(g, a)
    return _wold_canonical(g, a)


def _wold_canonical(g: Graph, fam: CanonicalAtomic) -> WoldData:
    alpha: dict[str, Multiplicity] = {}
    notes: list[str] = []
    for part, mult in _summands(fam):
        if isinstance(part, LeftRegular):
            found, note = {part.vertex: 1}, None
        elif isinstance(part, TailType):
            found, note = {}, "tail families are fully coisometric"
        else:
            found = _cycle_structure_multiplicities(g, part.cycle)
            note = ("multiplicities refer to the left-regular part left over after compressing "
                    "away the minimal cyclic subspace; the family itself is fully coisometric")
        for v, m in found.items():
            if m:
                alpha[v] = mult_add(alpha.get(v, 0), mult_scale(m, mult))
        if note and note not in notes:
            notes.append(note)
    return WoldData(alpha, frozenset(), True, notes=notes)


# ---------------------------------------------------------------------------
# structure multiplicity formulas


def cycle_structure_multiplicities(g: Graph, w: Path) -> dict[str, int]:
    """Left-regular multiplicities attached to a cycle w = e_k ... e_1.

    alpha_v counts, over the cycle positions j, the edges leaving the
    visited vertex s(e_j) other than e_j itself whose range is v.
    """
    validate_path(g, w)
    if not is_cycle(g, w) or len(w) == 0:
        raise NotACycle("structure multiplicities need a cycle of positive length")
    return _cycle_structure_multiplicities(g, w)


def _cycle_structure_multiplicities(g: Graph, w: Path) -> dict[str, int]:
    """``cycle_structure_multiplicities`` of a cycle already checked."""
    alpha, ix = {v: 0 for v in g.vertices}, g.index
    for e in map(ix.edge_at.__getitem__, w.edges):
        for f in ix.out[ix.src[e]]:
            if f != e:
                alpha[ix.vertices[ix.dst[f]]] += 1
    return alpha


def finitely_correlated_multiplicities(
    g: Graph, rank: dict[str, int]
) -> dict[str, int]:
    """Evaluate alpha_v = -rank(A_v) + sum over edges into v of rank(A_{s(e)})."""
    for v in g.vertices:
        if v not in rank:
            raise DomainError("rank value missing for vertex", vertex=v)
    ix = g.index
    return {
        v: -rank[v] + sum(rank[ix.vertices[ix.src[e]]] for e in ix.inc[ix.at[v]])
        for v in g.vertices
    }


# ---------------------------------------------------------------------------
# unitary equivalence


@dataclass
class EquivalenceReport:
    equivalent: bool
    witness: str


def are_unitarily_equivalent(
    g: Graph, a: AnyFamily, b: AnyFamily, tol: float = 1e-9
) -> EquivalenceReport:
    """Compare the atom multisets of two families over one host graph.

    Left-regular atoms match by vertex, tail atoms by the canonical rotation
    of their period, and cycle atoms by that of their primitive cycle, with
    phases within ``tol``.
    """
    return compare_decompositions(classify(g, a), classify(g, b), tol)


def compare_decompositions(
    da: AtomDecomposition, db: AtomDecomposition, tol: float = 1e-9
) -> EquivalenceReport:
    """Compare two atom multisets.  A side's multiplicity at an atom sums its
    atoms within ``tol`` of it: the atom, or cycle atoms on its cycle with a
    phase that close.  Both lists are sorted, so one merged walk meets each
    group, an atom or a cycle's atoms, once; equal lists need no walk.  The
    witness is the first failing atom of ``da``, else of ``db``.  A negative
    or NaN ``tol`` is refused."""
    if not tol >= 0:
        raise DomainError("tolerance must be a nonnegative number", tol=tol)
    if da.atoms == db.atoms:
        return EquivalenceReport(True, "atom multisets agree")
    failed: list[str | None] = [None, None]
    sides = (zip(dec.atoms, repeat(s)) for s, dec in enumerate((da, db)))
    merged = heapq.merge(*sides, key=lambda t: _atom_sort_key(t[0][0]))
    for _, group in groupby(merged, key=lambda t: _atom_sort_key(t[0][0])[:3]):
        runs: tuple[list, list] = ([], [])
        for am, s in group:
            runs[s].append(am)
        if runs[0] == runs[1]:  # so each atom has one multiplicity on both sides
            continue
        cyclic = isinstance(am[0], CycleType)  # a group of one cycle's atoms, by angle
        turns = [[a.phase.angle_turns() for a, _ in run] if cyclic else None for run in runs]
        for s, run in enumerate(runs):
            for atom, _ in run:
                here = [_mass(r, t, atom, tol) for r, t in zip(runs, turns)]
                if failed[s] is None and here[0] != here[1]:
                    failed[s] = f"unmatched atom {describe_atom(atom)}" if not here[1 - s] else (
                        f"multiplicity differs at {describe_atom(atom)}: {here[0]} vs {here[1]}")
    witness = failed[0] or failed[1]
    return EquivalenceReport(witness is None, witness or "atom multisets agree")


def _mass(run: list, turns: list[float] | None, atom: Atom, tol: float) -> Multiplicity:
    """The multiplicity ``run``, one side's atoms of ``atom``'s group, has within
    ``tol`` of ``atom``.  Phases within tol lie at most tol/4 turns apart, so on
    a cycle, its angles ``turns`` in order, three windows round the circle do."""
    reach = tol / 2 + 1e-12
    if turns is not None and reach < 0.5:  # the windows are apart
        a = atom.phase.angle_turns()
        run = [am for s in (-1, 0, 1)
               for am in run[bisect_left(turns, a + s - reach):bisect_right(turns, a + s + reach)]]
    return reduce(mult_add, (m for other, m in run if atoms_equal(atom, other, tol)), 0)


def describe_atom(atom: Atom) -> str:
    if isinstance(atom, LeftRegular):
        return f"left-regular at {atom.vertex}"
    if isinstance(atom, CycleType):
        return f"cycle {list(atom.cycle.edges)} with phase {atom.phase}"
    return f"tail over {list(atom.cycle.edges)}"


# ---------------------------------------------------------------------------
# gauge and relabeling (used by tests and demos; invariance is a theorem)


def gauge_transform(a: ExplicitAtomic, gauge: dict[Node, Phase]) -> ExplicitAtomic:
    """Rescale each basis vector by a unimodular scalar.

    The arc phase for (e, i) becomes phase * gauge[s-node] * conj(gauge[t-node]):
    unitary equivalence is untouched, and every cycle's phase product is
    literally invariant.
    """
    g = a.graph
    new_phases: dict[tuple[str, str], Phase] = {}
    for eid, mapping in a.pi.items():
        for i, j in mapping.items():
            ph = a.phase(eid, i) * gauge.get((g.src(eid), i), _ONE)
            new_phases[(eid, i)] = ph * gauge.get((g.dst(eid), j), _ONE).conj()
    return ExplicitAtomic(a.graph, dict(a.lam), {e: dict(m) for e, m in a.pi.items()}, new_phases)


def relabel(a: ExplicitAtomic, rename: dict[Node, str]) -> ExplicitAtomic:
    """Apply a bijective relabeling of the index sets (per vertex)."""
    g = a.graph

    def nm(v: str, i: str) -> str:
        return rename.get((v, i), i)

    lam = {v: tuple(nm(v, i) for i in labels) for v, labels in a.lam.items()}
    for v, labels in lam.items():
        if len(set(labels)) != len(labels):
            raise DomainError("relabeling is not injective at vertex", vertex=v)
    pi = {
        eid: {nm(g.src(eid), i): nm(g.dst(eid), j) for i, j in mapping.items()}
        for eid, mapping in a.pi.items()
    }
    phases = {(eid, nm(g.src(eid), i)): ph for (eid, i), ph in a.phases.items()}
    return ExplicitAtomic(a.graph, lam, pi, phases)


# ---------------------------------------------------------------------------
# condition (M): orbit analysis of S_mu on the vertex space at its base


class MClass(enum.Enum):
    NOT_UNITARY = "NotUnitary"
    SINGULAR = "Singular"
    DOMINATES_LEBESGUE = "DominatesLebesgue"


@dataclass
class MReport:
    kind: MClass
    detail: str


def orbit_condition_M(fam: AnyFamily, mu: Path, g: Graph | None = None) -> MReport:
    """Classify the spectral behavior of S_mu on the space at its base vertex.

    S_mu restricted to the range of S_v (v the base of the cycle mu) is
    unitary exactly when it permutes the basis vectors at v.  All orbits
    finite means the spectral measure is atomic, hence singular; an
    infinite orbit produces a bilateral shift summand, whose measure
    dominates Lebesgue measure on the circle.  Non-bijective action reports
    NotUnitary.
    """
    if isinstance(fam, ExplicitAtomic):
        host = fam.graph
    else:
        if g is None:
            raise DomainError("canonical condition-M analysis needs the host graph")
        host = g
        validate_canonical(host, fam)
    validate_path(host, mu)
    if not is_cycle(host, mu):
        raise NotACycle("condition (M) analyzes cycles only")
    if len(mu) == 0:
        return MReport(MClass.SINGULAR, "trivial cycle acts as the identity")
    if isinstance(fam, ExplicitAtomic):
        return _condM_explicit(fam, mu)
    return _condM_canonical(host, fam, mu)


def _condM_explicit(a: ExplicitAtomic, mu: Path) -> MReport:
    """A pi_mu defined on every label at the base is onto: on valid data each
    pi_e is injective into Lambda_dst(e), so pi_mu injects Lambda_v into itself."""
    _require_valid(a, require_total=False)
    v = mu.base
    labels = a.labels(v)
    if not labels:
        return MReport(MClass.SINGULAR, f"no basis vectors at {v}; the compression is zero")
    image: dict[str, str] = {}
    for i in labels:
        cur: str | None = i
        for eid in reversed(mu.edges):
            cur = a.pi.get(eid, {}).get(cur)
            if cur is None:
                return MReport(
                    MClass.NOT_UNITARY,
                    f"pi along the cycle is undefined starting from index {i} at {v}",
                )
        image[i] = cur
    orbits = _orbit_lengths(image)
    return MReport(
        MClass.SINGULAR,
        f"pi_mu is a permutation with orbit lengths {sorted(orbits)}; "
        "all orbits finite, so the spectral measure is atomic",
    )


def _orbit_lengths(perm: dict[str, str]) -> list[int]:
    seen: set[str] = set()
    lengths = []
    for start in perm:
        if start in seen:
            continue
        n = 0
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = perm[cur]
            n += 1
        lengths.append(n)
    return lengths


def _condM_canonical(g: Graph, fam: CanonicalAtomic, mu: Path) -> MReport:
    """Condition (M) on canonical data, from the support and a walk along mu.

    The support is the closure of the family's vertex or cycle, which holds
    the cycle and the tree off it.  A cycle family whose mu has no second
    incoming word is singular: the base is then off the tree.  Lemma: then
    every vertex on mu's backward walk has one supported in-edge, mu's own.
    A tree path into the base starts with an edge f off the family's cycle
    at a vertex u, so it runs backward along mu to u, and so does the
    family's cycle from u.  Both are powers of one primitive cycle visiting
    each vertex once, whose one edge out of u would be f and the family's
    cycle edge there alike, and f is not that edge.
    """
    if isinstance(fam, DirectSum):
        verdicts = [_condM_canonical(g, part, mu) for part, _ in fam.parts]
        for kind in (MClass.NOT_UNITARY, MClass.DOMINATES_LEBESGUE):
            for rep in verdicts:
                if rep.kind is kind:
                    return rep
        return MReport(MClass.SINGULAR, "every summand acts with finite orbits")
    v = mu.base
    # the vertices whose compression of the family is nonzero
    start = [fam.vertex] if isinstance(fam, LeftRegular) else _cycle_vertices(g, fam.cycle)
    support = directed_closure(g, start)
    if v not in support:
        return MReport(MClass.SINGULAR, f"no basis vectors at {v}; the compression is zero")
    if isinstance(fam, LeftRegular):
        return MReport(
            MClass.NOT_UNITARY,
            "left-regular vectors of minimal length at the base escape the range of S_mu",
        )
    extra = _second_incoming_word(g, mu, support)
    if extra is not None:
        return MReport(
            MClass.NOT_UNITARY,
            f"a second incoming word {list(extra)} lands at {v}, so S_mu is not onto",
        )
    if isinstance(fam, TailType):
        return MReport(
            MClass.DOMINATES_LEBESGUE,
            "S_mu shifts the backward-infinite chain, one infinite orbit",
        )
    return MReport(
        MClass.SINGULAR,
        "S_mu permutes the finitely many cycle vectors at the base",
    )


def _second_incoming_word(g: Graph, mu: Path, support: frozenset[str]) -> tuple[str, ...] | None:
    """The least length-|mu| path into the base of mu with supported source,
    other than mu itself (edge tuple in product order); None if mu is alone.

    The support is closed under out-edges and each of its vertices has an
    in-edge from it, so a backward walk from the base ends in the support
    exactly when it stays inside, and inside it can always go on.  The
    least other walk follows mu to its first step that has a smaller
    supported in-edge, or else to its last step that has a larger one,
    takes the least such edge there and then the least edge at every step.
    """

    def steps(x: str) -> list[str]:
        ix = g.index
        return [ix.edges[e] for e in ix.inc[ix.at[x]] if ix.vertices[ix.src[e]] in support]

    branch = None
    x = mu.base
    for j, eid in enumerate(mu.edges):
        others = [fid for fid in steps(x) if fid != eid]
        if others:
            branch = j, others[0]
            if others[0] < eid:
                break
        x = g.src(eid)
    if branch is None:
        return None
    j, fid = branch
    word = list(mu.edges[:j]) + [fid]
    while len(word) < len(mu):
        word.append(steps(g.src(word[-1]))[0])
    return tuple(word)


# ---------------------------------------------------------------------------
# helpers for building explicit families programmatically


def pure_cycle_family(
    g: Graph, laps: int = 1, phases: Iterable[Phase] | None = None
) -> ExplicitAtomic:
    """Explicit family on a cycle graph whose H is a single cycle of laps*n arcs.

    Index sets get ``laps`` labels per vertex; pi advances the lap counter
    on the edge closing the cycle.  Valid only on graphs where every vertex
    has exactly one outgoing and one incoming edge.
    """
    ix = g.index
    for v in g.vertices:
        if len(ix.out[ix.at[v]]) != 1 or len(ix.inc[ix.at[v]]) != 1:
            raise DomainError("pure cycle family needs a single-cycle graph", vertex=v)
    lam = {v: tuple(f"i{t}" for t in range(laps)) for v in g.vertices}
    pi: dict[str, dict[str, str]] = {}
    v = start = min(g.vertices)
    while True:  # round the cycle from its least vertex
        (e,) = ix.out[ix.at[v]]
        eid, v = ix.edges[e], ix.vertices[ix.dst[e]]
        closing = v == start  # the edge closing the cycle advances the lap counter
        pi[eid] = {f"i{t}": f"i{(t + closing) % laps}" for t in range(laps)}
        if closing:
            break
    phase_map: dict[tuple[str, str], Phase] = {}
    if phases is not None:
        supplied = list(phases)
        arcs = [(eid, i) for eid in sorted(pi) for i in sorted(pi[eid])]
        if len(supplied) != len(arcs):
            raise DomainError("need one phase per arc", arcs=len(arcs), given=len(supplied))
        phase_map = dict(zip(arcs, supplied))
    return ExplicitAtomic(g, lam, pi, phase_map)
