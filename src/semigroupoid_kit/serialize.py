"""JSON codecs for the file formats the command line accepts and emits.

Formats:
  graph          {"vertices": [...], "edges": [{"id","src","dst"}, ...]}
  path           {"base": "v", "edges": ["e2", "e1"]}   (product order)
  formal element {"terms": [{"path": {...}, "re": 1.0, "im": 0.0}, ...]}
  phase          {"angle": {"num": 1, "den": 4}} or {"re": ..., "im": ...}
  explicit atomic {"graph": ..., "lambda": {...}, "pi": [...], "phase": [...]}
  canonical atomic {"tag": "left_regular"|"cycle"|"tail"|"direct_sum", ...}
  coloring       {"d": 2, "color": {"e1": 1, ...}}

Output goes through one streaming renderer, ``write_json``: the text of
``json.dumps(data, indent=2, sort_keys=True)`` plus a newline, byte for byte,
handed to ``write`` in batches, so a large answer is never held whole.  An
iterator in it renders as a list whose items are made as they are written.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _str
from types import GeneratorType
from typing import Any, Iterable, Iterator

from .atomic import (
    OMEGA,
    AtomDecomposition,
    CanonicalAtomic,
    CycleType,
    DirectSum,
    ExplicitAtomic,
    LeftRegular,
    TailType,
    WoldData,
)
from .errors import MALFORMED, DomainError, json_int, json_list, json_number
from .graph import Graph
from .paths import Path, validate_path
from .phases import Phase
from .roadcoloring import Coloring
from .series import FormalElement


def path_to_json(p: Path) -> dict:
    return {"base": p.base, "edges": list(p.edges)}


def path_from_json(g: Graph, data: dict) -> Path:
    try:
        edges = tuple(str(e) for e in json_list(data.get("edges", ())))
        base = data.get("base")
    except MALFORMED as exc:
        raise DomainError(f"path object needs 'base' and 'edges': {exc}")
    if base is None:
        if not edges:
            raise DomainError("path object without edges needs a base vertex")
        base = g.src(edges[-1])
    p = Path(str(base), edges)
    validate_path(g, p)
    return p


def formal_to_json(a: FormalElement) -> dict:
    return {"terms": list(_terms(a.sorted_terms()))}


def _terms(pairs: Iterable[tuple[Path, complex]]) -> Iterator[dict]:
    """The JSON term of each (path, coefficient) pair, made as it is read."""
    return ({"path": path_to_json(p), "re": c.real, "im": c.imag} for p, c in pairs)


def formal_from_json(g: Graph, data: dict) -> FormalElement:
    terms: dict[Path, complex] = {}
    try:
        for item in data["terms"]:
            p = path_from_json(g, item["path"])
            c = complex(json_number(item.get("re", 0.0)), json_number(item.get("im", 0.0)))
            terms[p] = terms.get(p, 0) + c
    except MALFORMED as exc:
        raise DomainError(f"formal element needs 'terms' of 'path' and numeric 're'/'im': {exc}")
    return FormalElement._trusted(g, terms)  # path_from_json validated every path


def explicit_atomic_to_json(a: ExplicitAtomic) -> dict:
    pi_rows = [
        {"edge": eid, "from": i, "to": j}
        for eid in sorted(a.pi)
        for i, j in sorted(a.pi[eid].items())
    ]
    phase_rows = []
    for (eid, i), ph in sorted(a.phases.items(), key=lambda kv: kv[0]):
        row: dict[str, Any] = {"edge": eid, "from": i}
        row.update(ph.to_json())
        phase_rows.append(row)
    return {
        "graph": a.graph.to_json_dict(),
        "lambda": {v: list(labels) for v, labels in sorted(a.lam.items())},
        "pi": pi_rows,
        "phase": phase_rows,
    }


def explicit_atomic_from_json(data: dict) -> ExplicitAtomic:
    try:
        g = Graph.from_json_dict(data["graph"])
        lam_raw = data.get("lambda", {})
        if not isinstance(lam_raw, dict):
            raise TypeError(f"expected an object, got {type(lam_raw).__name__}")
        pi_raw, phase_raw = json_list(data.get("pi", [])), json_list(data.get("phase", []))
        lam = {str(v): tuple(str(i) for i in json_list(labels)) for v, labels in lam_raw.items()}
    except MALFORMED as exc:
        raise DomainError(f"explicit atomic object malformed: {exc}")
    pi: dict[str, dict[str, str]] = {}
    for row in pi_raw:
        try:
            eid, i, j = str(row["edge"]), str(row["from"]), str(row["to"])
        except MALFORMED as exc:
            raise DomainError(f"pi row needs 'edge', 'from', 'to': {exc}")
        cell = pi.setdefault(eid, {})
        if i in cell:
            raise DomainError("duplicate pi row", edge=eid, index=i)
        cell[i] = j
    phases: dict[tuple[str, str], Phase] = {}
    for row in phase_raw:
        try:
            eid, i = str(row["edge"]), str(row["from"])
        except MALFORMED as exc:
            raise DomainError(f"phase row needs 'edge' and 'from': {exc}")
        if (eid, i) in phases:
            raise DomainError("duplicate phase row", edge=eid, index=i)
        phases[(eid, i)] = Phase.from_json(row)
    return ExplicitAtomic(g, lam, pi, phases)


def canonical_to_json(fam: CanonicalAtomic) -> dict:
    if isinstance(fam, LeftRegular):
        return {"tag": "left_regular", "vertex": fam.vertex}
    if isinstance(fam, CycleType):
        return {"tag": "cycle", "path": path_to_json(fam.cycle), "phase": fam.phase.to_json()}
    if isinstance(fam, TailType):
        return {"tag": "tail", "path": path_to_json(fam.cycle)}
    if isinstance(fam, DirectSum):
        return {
            "tag": "direct_sum",
            "parts": [
                {"term": canonical_to_json(part), "multiplicity": mult}
                for part, mult in fam.parts
            ],
        }
    raise DomainError("unknown canonical family", got=type(fam).__name__)


def canonical_from_json(g: Graph, data: dict) -> CanonicalAtomic:
    try:
        tag = data.get("tag")
        if tag == "left_regular":
            return LeftRegular(str(data["vertex"]))
        if tag == "cycle":
            p = path_from_json(g, data["path"])
            phase = Phase.from_json(data["phase"]) if "phase" in data else Phase.one()
            return CycleType(p, phase)
        if tag == "tail":
            return TailType(path_from_json(g, data["path"]))
        if tag == "direct_sum":
            parts = []
            for item in json_list(data.get("parts", [])):
                term = canonical_from_json(g, item["term"])
                mult = item.get("multiplicity", 1)
                mult = OMEGA if mult == OMEGA else json_int(mult)
                parts.append((term, mult))
            return DirectSum(tuple(parts))
    except MALFORMED as exc:
        raise DomainError(f"canonical atomic object malformed: {exc}")
    raise DomainError("unknown canonical tag", tag=tag)


def atomic_family_from_json(data: dict) -> tuple[Graph, ExplicitAtomic | CanonicalAtomic]:
    """Decode an explicit atomic object, or a canonical one (with a ``"tag"``)
    whose host graph is its ``"graph"`` field; returns (graph, family)."""
    if isinstance(data, dict) and "tag" in data:
        if "graph" not in data:
            raise DomainError("canonical atomic JSON needs a host graph")
        g = Graph.from_json_dict(data["graph"])
        return g, canonical_from_json(g, data)
    fam = explicit_atomic_from_json(data)
    return fam.graph, fam


def decomposition_to_json(dec: AtomDecomposition) -> dict:
    atoms = []
    for atom, mult in dec.atoms:
        if isinstance(atom, LeftRegular):
            row: dict[str, Any] = {"kind": "left_regular", "vertex": atom.vertex}
        elif isinstance(atom, CycleType):
            row = {
                "kind": "cycle",
                "cycle": path_to_json(atom.cycle),
                "phase": atom.phase.to_json(),
            }
        elif isinstance(atom, TailType):
            row = {"kind": "tail", "cycle": path_to_json(atom.cycle)}
        else:
            raise DomainError("unknown atom kind", got=type(atom).__name__)
        row["multiplicity"] = mult
        atoms.append(row)
    return {"atoms": atoms, "notes": list(dec.notes)}


def wold_to_json(w: WoldData) -> dict:
    return {
        "alpha": {v: m for v, m in sorted(w.alpha.items())},
        "remainder": [[v, i] for v, i in sorted(w.remainder_nodes)],
        "supported_on_g0": w.supported_on_g0,
        "notes": list(w.notes),
    }


def coloring_to_json(c: Coloring) -> dict:
    return c.to_json_dict()


def coloring_from_json(data: dict) -> Coloring:
    return Coloring.from_json_dict(data)


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DomainError("file not found", path=path)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}")
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
        raise DomainError(f"invalid JSON in {path}: {exc}")


_FLUSH = 8192  # chunks gathered before one call of ``write``
_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _FLOATS.get(text, text)


_EXACT = {str: _str, int: int.__repr__, float: _float}  # skip the chain of ``_scalar``
_ITERATORS = (map, GeneratorType, chain)  # rendered as lists; concrete types, no ABC check


def _scalar(o) -> str:
    """The text of a scalar, tested in the order ``json`` tests it."""
    if isinstance(o, str):
        return _str(o)
    if o is None or o is True or o is False:
        return {None: "null", True: "true", False: "false"}[o]
    if isinstance(o, (int, float)):
        return int.__repr__(o) if isinstance(o, int) else _float(o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key(k) -> str:
    if not isinstance(k, (str, int, float)) and k is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
    return _str(k if isinstance(k, str) else _scalar(k))


def _render(o, buf: list, write, nl: str) -> None:
    """Append the text of ``o``, nested at newline ``nl``, to ``buf``; the
    container loop passes ``buf`` to ``write`` once it holds _FLUSH chunks."""
    if isinstance(o, (list, tuple)):
        pairs, brackets = zip(repeat(None), o), "[]"
        kinds = set(map(type, o)) if len(o) <= _FLUSH else ()
    elif isinstance(o, dict):
        pairs, brackets, kinds = sorted(o.items()), "{}", ()
    elif isinstance(o, _ITERATORS):
        pairs, brackets, kinds = zip(repeat(None), o), "[]", ()
    else:
        buf.append(_scalar(o))
        return
    inner = nl + "  "
    sep = "," + inner
    if len(kinds) == 1 and (text := _EXACT.get(kinds.pop())):  # a list of one scalar type
        buf.append("[" + inner + sep.join(map(text, o)) + nl + "]")
        return
    keyed = brackets == "{}"
    head = first = brackets[0] + inner
    for k, v in pairs:
        if keyed:
            head += (_str(k) if k.__class__ is str else _key(k)) + ": "
        text = _EXACT.get(v.__class__)
        if text is None:
            buf.append(head)
            _render(v, buf, write, inner)
        else:
            buf.append(head + text(v))
        head = sep
        if len(buf) >= _FLUSH:
            write("".join(buf))
            buf.clear()
    buf.append(brackets if head is first else nl + brackets[1])  # nothing written: empty


def write_json(data, write) -> None:
    """Render ``data`` as ``json.dumps(data, indent=2, sort_keys=True)`` plus
    a newline would, passing the text to ``write`` in batches; an iterator
    (``map``, generator, ``chain``) renders as ``list`` of it.  A type that
    ``json`` refuses raises ``TypeError``; reference cycles are not checked."""
    buf: list[str] = []
    _render(data, buf, write, "\n")
    buf.append("\n")
    write("".join(buf))


def dump_json(data) -> str:
    buf: list[str] = []
    write_json(data, buf.append)
    return "".join(buf)
