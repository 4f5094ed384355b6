"""Finitely supported formal series over the path space of a graph.

A FormalElement is a finite complex combination of paths, the polynomial
part of the operator calculus: symbols multiply by path composition, with
non-composable products contributing zero.  The grade of a term is its path
length; grade-m extraction, Cesaro-weighted partial sums, the minimum grade
of an element, and the column l2 norms of a graded piece are the tools the
truncation module cross-checks against.  Only the public constructor
validates and copies its terms.  Each operation builds a fresh dict and
hands it to ``FormalElement._trusted``, which keeps it as the result's
terms and rebuilds it only to drop a zero or make a value a ``complex``;
``fourier_coeff`` copies terms that are already so and skips that scan.

``fourier_coeff``, ``l2_row_norm``, ``degree`` and ``graded_ideal_degree``
read one split of the terms by grade, made in one pass on the first grade
query and kept, so editing ``terms`` after a grade query is unsupported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DomainError, GraphFormatError
from .graph import Graph
from .paths import Path, _check_symbols, validate_path


@dataclass
class FormalElement:
    """Paths of ``graph`` with nonzero coefficients; the constructor validates each path."""

    graph: Graph
    terms: dict[Path, complex] = field(default_factory=dict)

    def __post_init__(self):
        for p in self.terms:
            validate_path(self.graph, p)
        self.terms = _nonzero(self.terms)

    @classmethod
    def _trusted(cls, g: Graph, terms: dict[Path, complex]) -> "FormalElement":
        """Element owning ``terms``, a fresh dict over paths of g; validates nothing."""
        for c in terms.values():
            if type(c) is not complex or not c:
                terms = _nonzero(terms)
                break
        elem = cls.__new__(cls)
        elem.graph, elem.terms = g, terms
        return elem

    @staticmethod
    def zero(g: Graph) -> "FormalElement":
        return FormalElement(g, {})

    @staticmethod
    def vertex(g: Graph, v: str, coeff: complex = 1.0) -> "FormalElement":
        return FormalElement(g, {Path.vertex(v): coeff})

    @staticmethod
    def path(g: Graph, p: Path, coeff: complex = 1.0) -> "FormalElement":
        return FormalElement(g, {p: coeff})

    @cached_property
    def _grades(self) -> dict[int, dict[Path, complex]]:
        """The terms split by grade, ``{m: {path: coeff}}``, each part in term
        order; built in one pass on first use and shared, so read only."""
        grades: dict[int, dict[Path, complex]] = {}
        for p, c in self.terms.items():
            grades.setdefault(len(p.edges), {})[p] = c
        return grades

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Largest grade with a nonzero term; None for the zero element."""
        return max(self._grades) if self.terms else None

    def sorted_terms(self) -> list[tuple[Path, complex]]:
        return sorted(self.terms.items(), key=lambda t: (len(t[0].edges), t[0].edges, t[0].base))

    def __add__(self, other: "FormalElement") -> "FormalElement":
        _require_same_graph(self, other)
        merged = dict(self.terms)
        for p, c in other.terms.items():
            merged[p] = merged.get(p, 0) + c
        return FormalElement._trusted(self.graph, merged)

    def scale(self, c: complex) -> "FormalElement":
        return FormalElement._trusted(self.graph, {p: c * a for p, a in self.terms.items()})

    def __sub__(self, other: "FormalElement") -> "FormalElement":
        return self + other.scale(-1)

    def approx_eq(self, other: "FormalElement", tol: float = 1e-9) -> bool:
        _require_same_graph(self, other)
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(p, 0) - other.terms.get(p, 0)) <= tol for p in keys
        )


def _nonzero(terms: dict[Path, complex]) -> dict[Path, complex]:
    return {p: z for p, c in terms.items() if (z := complex(c)) != 0}


def _require_same_graph(a: FormalElement, b: FormalElement) -> None:
    if a.graph.key != b.graph.key:
        raise DomainError("formal elements live over different host graphs")


def formal_mul(a: FormalElement, b: FormalElement) -> FormalElement:
    """Product by path composition; non-composable pairs contribute nothing.

    The terms of b are grouped by range, in their order, and each term mu
    of a meets only the group ending at its source, so the composable pairs
    are met, and summed, in the same order as over all pairs.  Every pair
    met composes, so its product is made with no check: summed under the
    plain tuple (base, edges), which a ``Path`` equals and hashes as, and
    made a path once per distinct product, since a plain tuple is built
    with no Python-level call and a ``Path`` with one.  The grade split is
    not used here: products of two terms land in any grade.

    The pairs and their total length are counted first, from each group's
    size and length sum: past SYMBOL_CAP raises before any path is built.
    """
    _require_same_graph(a, b)
    g = a.graph
    if not (a.terms and b.terms):
        return FormalElement._trusted(g, {})
    ending: dict[str, list[tuple[Path, complex]]] = {}
    length: dict[str, int] = {}
    for nu, cb in b.terms.items():
        v = g._by_id[nu.edges[0]].dst if nu.edges else nu.base  # the graph's own edge
        ending.setdefault(v, []).append((nu, cb))
        length[v] = length.get(v, 0) + len(nu.edges)
    pairs = symbols = 0
    for mu in a.terms:
        if (v := mu.base) in ending:
            pairs += len(ending[v])
            symbols += len(ending[v]) * len(mu.edges) + length[v]
    _check_symbols("product", pairs, symbols)
    out: dict[tuple[str, tuple[str, ...]], complex] = {}
    for mu, ca in a.terms.items():
        for nu, cb in ending.get(mu.base, ()):
            key = nu.base, mu.edges + nu.edges
            out[key] = out.get(key, 0) + ca * cb
    return FormalElement._trusted(g, {Path(*key): c for key, c in out.items()})


def fourier_coeff(a: FormalElement, m: int) -> FormalElement:
    """Grade-m homogeneous part; zero element when no term has length m.

    A copy of the grade-m part of a's cached split, so the result owns its
    terms; they are a's own, already nonzero and ``complex``, so it is
    built as ``_trusted`` builds one, without the scan."""
    part = a._grades.get(m)
    elem = FormalElement.__new__(FormalElement)
    elem.graph, elem.terms = a.graph, part.copy() if part else {}
    return elem


def cesaro(a: FormalElement, k: int) -> FormalElement:
    """Cesaro-weighted partial sum: terms of grade < k scaled by 1 - grade/k."""
    if k < 1:
        raise DomainError("Cesaro order must be a positive integer", k=k)
    terms = {p: c * (1 - n / k) for p, c in a.terms.items() if (n := len(p.edges)) < k}
    return FormalElement._trusted(a.graph, terms)


def graded_ideal_degree(a: FormalElement) -> int | None:
    """Minimum grade carrying a nonzero term; None (infinity marker) for zero."""
    return min(a._grades) if a.terms else None


def l2_row_norm(a: FormalElement, m: int, v: str) -> float:
    """l2 norm of the grade-m coefficients sourced at v.

    Equals the operator norm of the grade-m part compressed to the v-column:
    the ranges of distinct paths are orthogonal, so the norm is the plain
    l2 norm of the coefficient family {a_mu : |mu| = m, source(mu) = v},
    summed over the grade-m part in term order.  GraphFormatError when v is
    not a vertex of the graph.
    """
    if not a.graph.has_vertex(v):
        raise GraphFormatError("unknown vertex", vertex=v)
    total = 0.0
    for p, c in a._grades.get(m, {}).items():
        if p.base == v:
            total += abs(c) ** 2
    return math.sqrt(total)
