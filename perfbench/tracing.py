"""Spans at the layer boundaries, recorded from the benchmark's own files.

``Tracer.install`` replaces every public function of each layer module by a
wrapper for the duration of a traced pass and ``uninstall`` puts the
originals back, so untraced passes run the library untouched.  A wrapper
records a span (query id, layer, function, start, end, parent span, raised)
when code outside the layer's module calls it: the benchmark's own calls,
and the command line's calls through module attributes (``io.load_json``).
Calls from inside the module pass straight through, and modules that import
a function by name keep the original, so that work counts as the caller's.
``phases``, ``validation`` and ``errors`` have no entry point of their own
and are counted inside their callers.  Spans stay in memory and are written
out at the end.

Work counts are taken by per-function hooks after a span closes, so their
cost falls outside every span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

from semigroupoid_kit.atomic import ExplicitAtomic
from semigroupoid_kit.graph import Graph
from semigroupoid_kit.series import FormalElement
from semigroupoid_kit.trunc import TruncatedRep

from spec import LAYERS

QID, LAYER, NAME, START, END, PARENT, RAISED = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.qid = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.sizes: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"semigroupoid_kit.{layer}")
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                self._saved.append((mod, name, fn))
                setattr(mod, name, self._wrap(layer, name, fn))

    def uninstall(self) -> None:
        for mod, name, fn in self._saved:
            setattr(mod, name, fn)
        self._saved = []

    def _wrap(self, layer: str, name: str, fn):
        hook = HOOKS.get(layer)
        spans, stack = self.spans, self.stack
        home = fn.__module__

        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == home:
                return fn(*args, **kwargs)
            span = [self.qid, layer, name, 0.0, 0.0, stack[-1] if stack else -1, True]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[RAISED] = False
            finally:
                span[END] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, name, args, result, span[END] - span[START])
            return result

        return wrapper

    # -- query spans -------------------------------------------------------

    def begin_query(self, qid: int) -> None:
        self.qid = qid
        self.stack.append(len(self.spans))
        self.spans.append([qid, "query", "", perf_counter(), 0.0, -1, False])

    def end_query(self, raised: bool) -> None:
        span = self.spans[self.stack.pop()]
        span[END] = perf_counter()
        span[RAISED] = raised

    # -- results -----------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer calls, self time, share and failures, per traced pass,
        plus the work counts and fitted scaling exponents."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        failed: dict[str, int] = defaultdict(int)
        latency = 0.0
        for k, span in enumerate(self.spans):
            duration = span[END] - span[START]
            if span[LAYER] == "query":
                latency += duration
                continue
            calls[span[LAYER]] += 1
            busy[span[LAYER]] += duration - child[k]
            failed[span[LAYER]] += span[RAISED]
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] / passes
            out[f"{layer}.busy_s"] = busy[layer] / passes
            out[f"{layer}.share"] = busy[layer] / latency if latency else 0.0
            out[f"{layer}.failed"] = failed[layer] / passes
        c = self.counts
        for name in (
            "graph.vertices_in", "graph.elim_layers", "atomic.h_nodes", "atomic.atoms",
            "roadcoloring.search_space", "series.terms_in", "series.terms_out",
            "series.compose_pairs", "trunc.dim", "trunc.nnz", "paths.enumerated",
            "serialize.bytes_in", "serialize.bytes_out", "cli.exit0", "cli.exit1",
        ):
            out[name] = c[name] / passes
        out["cli.crashed"] = out["cli.failed"]
        out["roadcoloring.found_ratio"] = _ratio(c["rc.found"], c["rc.searches"])
        out["roadcoloring.word_len"] = _ratio(c["rc.letters"], c["rc.words"])
        out["roadcoloring.word_len_ratio"] = _ratio(c["rc.bound_share"], c["rc.words"])
        out["series.out_per_pair"] = _ratio(c["series.mul_out"], c["series.compose_pairs"])
        out["trunc.exact_ratio"] = _ratio(c["trunc.exact"], c["trunc.relations"])
        for layer in ("graph", "atomic", "roadcoloring", "trunc"):
            out[f"{layer}.scaling_exp"] = scaling_exponent(self.sizes[layer])
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for qid, layer, name, start, end, parent, raised in self.spans:
                fh.write(json.dumps({
                    "query": qid, "span": f"{layer}.{name}" if name else layer,
                    "start": start, "end": end, "parent": parent, "raised": raised,
                }) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def scaling_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(call time) against log(input size)."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


# ---------------------------------------------------------------------------
# work-count hooks: hook(tracer, function name, args, result, seconds)


def _first(args, cls):
    return next((a for a in args if isinstance(a, cls)), None)


def _graph(t, name, args, result, dt):
    g = _first(args, Graph)
    if g is None:
        return
    t.counts["graph.vertices_in"] += len(g.vertices)
    t.sizes["graph"].append((len(g.vertices), dt))
    if name == "source_elimination":
        t.counts["graph.elim_layers"] += len(result[1])


def _atomic(t, name, args, result, dt):
    nodes = sum(a.dim() for a in args if isinstance(a, ExplicitAtomic))
    if not nodes:
        return
    t.counts["atomic.h_nodes"] += nodes
    t.sizes["atomic"].append((nodes, dt))
    if name == "classify":
        t.counts["atomic.atoms"] += len(result.atoms)


def _roadcoloring(t, name, args, result, dt):
    g = _first(args, Graph)
    if g is None:
        return
    n = len(g.vertices)
    t.sizes["roadcoloring"].append((n, dt))
    word = None
    if name == "search_synchronizing_coloring":
        d = len(g.in_edges(g.vertices[0]))
        t.counts["roadcoloring.search_space"] += math.factorial(d) ** (n - 1)
        t.counts["rc.searches"] += 1
        t.counts["rc.found"] += result is not None
        word = result[1] if result else None
    elif name == "find_synchronizing_word":
        word = result
    if word is not None and n > 1:
        t.counts["rc.words"] += 1
        t.counts["rc.letters"] += len(word)
        t.counts["rc.bound_share"] += len(word) / ((n**3 - n) / 6)


def _series(t, name, args, result, dt):
    elems = [a for a in args if isinstance(a, FormalElement)]
    t.counts["series.terms_in"] += sum(len(a.terms) for a in elems)
    if isinstance(result, FormalElement):
        t.counts["series.terms_out"] += len(result.terms)
    if name == "formal_mul":
        t.counts["series.compose_pairs"] += len(elems[0].terms) * len(elems[1].terms)
        t.counts["series.mul_out"] += len(result.terms)


def _trunc(t, name, args, result, dt):
    rep = result if isinstance(result, TruncatedRep) else _first(args, TruncatedRep)
    if rep is None:
        return
    t.sizes["trunc"].append((rep.dim, dt))
    if rep is result:
        t.counts["trunc.dim"] += rep.dim
        ops = list(rep.vertex_ops.values()) + list(rep.edge_ops.values())
        t.counts["trunc.nnz"] += sum(op.nnz for op in ops)
    elif name == "verify_tck":
        t.counts["trunc.relations"] += len(result)
        t.counts["trunc.exact"] += sum(r.exact_zero for r in result)


def _paths(t, name, args, result, dt):
    if name in ("enumerate_paths", "irreducible_cycles_at"):
        t.counts["paths.enumerated"] += len(result)


def _serialize(t, name, args, result, dt):
    if name == "load_json":
        t.counts["serialize.bytes_in"] += os.path.getsize(args[0])
    elif name == "dump_json":
        t.counts["serialize.bytes_out"] += len(result.encode())


def _cli(t, name, args, result, dt):
    if name == "main":
        t.counts[f"cli.exit{result}"] += 1


HOOKS = {
    "graph": _graph, "atomic": _atomic, "roadcoloring": _roadcoloring, "series": _series,
    "trunc": _trunc, "paths": _paths, "serialize": _serialize, "cli": _cli,
}
