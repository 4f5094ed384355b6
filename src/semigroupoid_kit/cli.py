"""Command line interface.

Subcommands are grouped by module: graph, paths, series, atomic, color,
trunc.  Each ``cmd_*`` handler returns its answer and prints nothing: a
``(data, lines)`` pair, the JSON object and the table lines, or DOT text
for --format dot (``graph check`` and explicit ``atomic validate``).  Only
``main`` renders the answer (deterministic JSON by default, the lines
under --format table) and chooses the exit code: 0 success, 1 domain
error (structured JSON on stderr), 2 usage error.  The parser is built
once per process, at the first ``main`` call, and ``main`` may be called
repeatedly: each call parses from fresh defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING

from . import atomic as at
from . import graph as gr
from . import paths as pa
from . import roadcoloring as rc
from . import series as se
from . import serialize as io
from .errors import DomainError

if TYPE_CHECKING:
    from . import trunc as tr

DEFAULT_MAX_LEN = 6
DEFAULT_DEPTH = 4

# What a handler returns: (JSON object, table lines), or DOT text.
Answer = tuple[dict, list[str]] | str


def _load_graph(path: str) -> gr.Graph:
    return gr.Graph.from_json_dict(io.load_json(path))


def _load_coloring(path: str) -> rc.Coloring:
    return rc.Coloring.from_json_dict(io.load_json(path))


def _load_family(path: str):
    return io.atomic_family_from_json(io.load_json(path))


def _report_table(report) -> list[str]:
    lines = []
    for f in report.findings:
        where = "" if f.where is None else f" [{f.where}]"
        lines.append(f"{f.severity:5s} {f.code}{where}: {f.message}")
    lines.append("valid" if report.valid else "INVALID")
    return lines


# ---------------------------------------------------------------------------
# graph


def cmd_graph_check(args) -> Answer:
    g = _load_graph(args.file)
    if args.format == "dot":
        return gr.graph_to_dot(g)
    report = gr.validate_graph(g)
    return report.to_json(), _report_table(report)


def cmd_graph_period(args) -> Answer:
    g = _load_graph(args.file)
    p = gr.period(g, args.vertex)
    return (
        {"vertex": args.vertex, "period": p},
        [f"period({args.vertex}) = {p if p is not None else 'none (no cycle)'}"],
    )


def cmd_graph_closure(args) -> Answer:
    g = _load_graph(args.file)
    subset = args.set.split(",")
    closure = sorted(gr.directed_closure(g, subset))
    return {"closure": closure}, [", ".join(closure)]


def cmd_graph_ses(args) -> Answer:
    g = _load_graph(args.file)
    g0, layers, ok = gr.source_elimination(g)
    data = {"has_ses": ok, "layers": layers, "g0": g0.to_json_dict()}
    lines = [f"has_ses: {ok}"]
    for i, layer in enumerate(layers, 1):
        lines.append(f"layer {i}: {', '.join(layer)}")
    core = g0.sorted_vertices()
    lines.append(f"core vertices: {', '.join(core) if core else '(none)'}")
    return data, lines


# ---------------------------------------------------------------------------
# paths


def cmd_paths_enum(args) -> Answer:
    g = _load_graph(args.file)
    sources = args.source.split(",")
    found = pa.enumerate_paths(g, sources, args.max_len)
    data = {"count": len(found), "paths": [io.path_to_json(p) for p in found]}
    lines = [f"{len(p)}: {p.base} {' '.join(p.edges) if p.edges else '(vertex)'}" for p in found]
    lines.append(f"count: {len(found)}")
    return data, lines


def cmd_paths_cycles(args) -> Answer:
    g = _load_graph(args.file)
    found = pa.irreducible_cycles_at(g, args.vertex, args.max_len)
    data = {"count": len(found), "cycles": [io.path_to_json(p) for p in found]}
    lines = [f"{len(p)}: {' '.join(p.edges)}" for p in found]
    lines.append(f"count: {len(found)}")
    return data, lines


def cmd_paths_class(args) -> Answer:
    g = _load_graph(args.file)
    cls = pa.vertex_cycle_class(g, args.vertex)
    return {"vertex": args.vertex, "class": cls.value}, [f"{args.vertex}: {cls.value}"]


# ---------------------------------------------------------------------------
# series


def _formal_lines(a: se.FormalElement) -> list[str]:
    if a.is_zero():
        return ["0"]
    out = []
    for p, c in a.sorted_terms():
        word = " ".join(p.edges) if p.edges else p.base
        out.append(f"({c.real:+.6g}{c.imag:+.6g}i) * [{word}]")
    return out


def cmd_series_mul(args) -> Answer:
    g = _load_graph(args.graph)
    a = io.formal_from_json(g, io.load_json(args.left))
    b = io.formal_from_json(g, io.load_json(args.right))
    prod = se.formal_mul(a, b)
    return io.formal_to_json(prod), _formal_lines(prod)


def cmd_series_fourier(args) -> Answer:
    g = _load_graph(args.graph)
    a = io.formal_from_json(g, io.load_json(args.file))
    part = se.fourier_coeff(a, args.m)
    return io.formal_to_json(part), _formal_lines(part)


def cmd_series_cesaro(args) -> Answer:
    g = _load_graph(args.graph)
    a = io.formal_from_json(g, io.load_json(args.file))
    out = se.cesaro(a, args.k)
    return io.formal_to_json(out), _formal_lines(out)


def cmd_series_ideal_degree(args) -> Answer:
    g = _load_graph(args.graph)
    a = io.formal_from_json(g, io.load_json(args.file))
    deg = se.graded_ideal_degree(a)
    value = "infinity" if deg is None else deg
    return {"degree": value}, [f"degree: {value}"]


def cmd_series_rownorm(args) -> Answer:
    g = _load_graph(args.graph)
    a = io.formal_from_json(g, io.load_json(args.file))
    value = se.l2_row_norm(a, args.m, args.vertex)
    return (
        {"m": args.m, "vertex": args.vertex, "value": value},
        [f"l2 row norm at grade {args.m}, vertex {args.vertex}: {value}"],
    )


# ---------------------------------------------------------------------------
# atomic


def cmd_atomic_validate(args) -> Answer:
    g, fam = _load_family(args.file)
    if not isinstance(fam, at.ExplicitAtomic):
        at.validate_canonical(g, fam)
        return {"valid": True, "findings": []}, ["valid (canonical data)"]
    if args.format == "dot":
        return at.build_H(fam).to_dot()
    report = at.validate_atomic(fam)
    return report.to_json(), _report_table(report)


def cmd_atomic_classify(args) -> Answer:
    g, fam = _load_family(args.file)
    dec = at.classify(g, fam)
    lines = [
        f"{at.describe_atom(atom)}  x{mult}" for atom, mult in dec.atoms
    ] + [f"note: {n}" for n in dec.notes]
    return io.decomposition_to_json(dec), lines or ["empty decomposition"]


def cmd_atomic_equiv(args) -> Answer:
    ga, fa = _load_family(args.left)
    gb, fb = _load_family(args.right)
    if ga.key != gb.key:
        raise DomainError("families live over different host graphs")
    verdict = at.are_unitarily_equivalent(ga, fa, fb, tol=args.tol)
    return (
        {"equivalent": verdict.equivalent, "witness": verdict.witness},
        [f"equivalent: {verdict.equivalent}", f"witness: {verdict.witness}"],
    )


def cmd_atomic_wold(args) -> Answer:
    g, fam = _load_family(args.file)
    data = at.wold_atomic(fam, g if not isinstance(fam, at.ExplicitAtomic) else None)
    lines = [f"alpha[{v}] = {m}" for v, m in sorted(data.alpha.items())]
    lines.append(f"remainder nodes: {len(data.remainder_nodes)}")
    lines.append(f"supported on elimination core: {data.supported_on_g0}")
    return io.wold_to_json(data), lines


def cmd_atomic_condm(args) -> Answer:
    g, fam = _load_family(args.file)
    try:
        mu_data = json.loads(args.mu)
    except (ValueError, RecursionError) as exc:
        raise DomainError(f"--mu is not valid JSON: {exc}")
    mu = io.path_from_json(g, mu_data)
    rep = at.orbit_condition_M(fam, mu, g)
    return {"class": rep.kind.value, "detail": rep.detail}, [f"{rep.kind.value}: {rep.detail}"]


# ---------------------------------------------------------------------------
# color


def cmd_color_validate(args) -> Answer:
    g = _load_graph(args.graph)
    c = _load_coloring(args.coloring)
    report = rc.validate_coloring(g, c)
    return report.to_json(), _report_table(report)


def cmd_color_sync_verify(args) -> Answer:
    g = _load_graph(args.graph)
    c = _load_coloring(args.coloring)
    target = rc.is_synchronizing_word(g, c, args.word)
    verdict = "not synchronizing" if target is None else f"synchronizes to {target}"
    return (
        {"word": args.word, "synchronizing": target is not None, "target": target},
        [f"word {args.word!r}: {verdict}"],
    )


def cmd_color_sync_find(args) -> Answer:
    g = _load_graph(args.graph)
    c = _load_coloring(args.coloring)
    word = rc.find_synchronizing_word(g, c)
    return (
        {"word": word},
        [f"shortest synchronizing word: {word!r}" if word is not None else "no synchronizing word"],
    )


def _coloring_answer(coloring: rc.Coloring, word: str) -> Answer:
    """The answer of ``color search`` and ``color obrien``: a colouring and its word."""
    color = coloring.to_json_dict()
    return {"coloring": color, "word": word}, [f"word: {word!r}", f"coloring: {color['color']}"]


def cmd_color_search(args) -> Answer:
    found = rc.search_synchronizing_coloring(_load_graph(args.graph))
    if found is None:
        return {"result": None}, ["no synchronizing coloring"]
    return _coloring_answer(*found)


def cmd_color_obrien(args) -> Answer:
    return _coloring_answer(*rc.obrien_coloring(_load_graph(args.graph), args.loop))


def cmd_color_syncdiag(args) -> Answer:
    g = _load_graph(args.graph)
    c = _load_coloring(args.coloring)
    diag = rc.syncdiag_paths(g, c, args.gamma, args.gamma2)
    data = {
        "vertex": diag.vertex,
        "mu_prime": io.path_to_json(diag.mu_prime),
        "mu": io.path_to_json(diag.mu),
        "lambda": io.path_to_json(diag.closed),
        "colors": diag.color_word(g, c),
    }
    lines = [f"vertex: {diag.vertex}"]
    for name, p in (("mu'", diag.mu_prime), ("mu ", diag.mu), ("lambda", diag.closed)):
        lines.append(f"{name} = {' '.join(p.edges) if p.edges else '(vertex)'}")
    lines.append(f"colors: {data['colors']}")
    return data, lines


# ---------------------------------------------------------------------------
# trunc: numpy and scipy are imported here, by the commands that use them


def _build_rep(args) -> tr.TruncatedRep:
    from . import trunc as tr
    g = _load_graph(args.graph)
    if args.coloring:
        return tr.build_colored_trunc(g, _load_coloring(args.coloring), args.depth)
    if args.sources is None:
        raise DomainError("need --sources or --coloring")
    return tr.build_left_regular_trunc(g, args.sources.split(","), args.depth)


def _label_str(rep: tr.TruncatedRep, label) -> str:
    if rep.kind == "left_regular":
        return f"{label.base}:{' '.join(label.edges) if label.edges else '()'}"
    v, w = label
    return f"{v}:{w or '()'}"


def cmd_trunc_build(args) -> Answer:
    from . import trunc as tr
    rep = _build_rep(args)
    data = {
        "kind": rep.kind,
        "depth": rep.depth,
        "dim": rep.dim,
        "basis": [_label_str(rep, lab) for lab in rep.labels],
        "ops": tr.operator_coordinates(rep),
    }
    lines = [f"kind: {rep.kind}", f"dim: {rep.dim}"]
    lines += [f"basis[{i}] = {_label_str(rep, lab)}" for i, lab in enumerate(rep.labels)]
    return data, lines


def cmd_trunc_verify(args) -> Answer:
    from . import trunc as tr
    rep = _build_rep(args)
    reports = tr.verify_tck(rep)
    data = {"dim": rep.dim, "relations": [r.to_json() for r in reports]}
    lines = []
    for r in reports:
        status = "exact" if r.exact_zero else f"residual {r.max_residual:.3e}"
        lines.append(
            f"{r.relation:3s} grades [{r.interior_lo},{r.interior_hi}]: {status}"
            + (f" (boundary {r.boundary_residual:.3e})" if r.boundary_residual else "")
        )
    return data, lines


def cmd_trunc_cycle_lemma(args) -> Answer:
    from . import trunc as tr
    report = tr.cycle_lemma_check(args.n, args.depth)
    return report.to_json(), [f"n={report.n} depth={report.depth} ok={report.ok}"] + report.blocks


def cmd_trunc_apply(args) -> Answer:
    from . import trunc as tr
    rep = _build_rep(args)
    elem = io.formal_from_json(rep.graph, io.load_json(args.element))
    mat = tr.apply_formal(rep, elem)
    entries = tr.matrix_to_coordinates(mat)
    data = {"dim": rep.dim, "entries": entries}
    lines = [f"({r},{c}) = {re:+.6g}{im:+.6g}i" for r, c, re, im in entries]
    lines.append(f"nnz: {len(entries)}")
    return data, lines


# ---------------------------------------------------------------------------
# parser


def _command(group, name: str, func, help: str, dot: bool = False) -> argparse.ArgumentParser:
    """Subcommand ``name`` of ``group`` that runs ``func``, with --format."""
    p = group.add_parser(name, help=help)
    p.set_defaults(func=func)
    choices = ["json", "table"] + (["dot"] if dot else [])
    p.add_argument("--format", choices=choices, default="json")
    return p


def _trunc_options(p: argparse.ArgumentParser) -> None:
    """The model options of ``trunc build``, ``verify`` and ``apply``."""
    p.add_argument("--sources", help="comma-separated vertices")
    p.add_argument("--coloring", help="coloring file for the colored model")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semigroupoid-kit",
        description="Graphs, path spaces, atomic families, road colorings, truncations",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    g_graph = sub.add_parser("graph", help="graph structure commands")
    gs = g_graph.add_subparsers(dest="cmd", required=True)
    p = _command(gs, "check", cmd_graph_check, "validate a graph file, or export DOT", dot=True)
    p.add_argument("file")
    p = _command(gs, "period", cmd_graph_period, "gcd of cycle lengths through a vertex")
    p.add_argument("file")
    p.add_argument("--vertex", required=True)
    p = _command(gs, "closure", cmd_graph_closure, "directed closure of a vertex set")
    p.add_argument("file")
    p.add_argument("--set", required=True, help="comma-separated vertices")
    p = _command(gs, "ses", cmd_graph_ses, "source elimination layers and core")
    p.add_argument("file")

    g_paths = sub.add_parser("paths", help="path space commands")
    ps = g_paths.add_subparsers(dest="cmd", required=True)
    p = _command(ps, "enum", cmd_paths_enum, "enumerate paths from sources")
    p.add_argument("file")
    p.add_argument("--source", required=True, help="comma-separated vertices")
    p.add_argument("--max-len", type=int, default=DEFAULT_MAX_LEN)
    p = _command(ps, "cycles", cmd_paths_cycles, "irreducible cycles at a vertex")
    p.add_argument("file")
    p.add_argument("--vertex", required=True)
    p.add_argument("--max-len", type=int, default=DEFAULT_MAX_LEN)
    p = _command(ps, "class", cmd_paths_class, "cycle trichotomy at a vertex")
    p.add_argument("file")
    p.add_argument("--vertex", required=True)

    g_series = sub.add_parser("series", help="formal series commands")
    ss = g_series.add_subparsers(dest="cmd", required=True)
    p = _command(ss, "mul", cmd_series_mul, "multiply two formal elements")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--graph", required=True)
    p = _command(ss, "fourier", cmd_series_fourier, "grade-m homogeneous part")
    p.add_argument("file")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--graph", required=True)
    p = _command(ss, "cesaro", cmd_series_cesaro, "Cesaro-weighted partial sum")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--graph", required=True)
    p = _command(ss, "ideal-degree", cmd_series_ideal_degree, "minimum grade of a nonzero term")
    p.add_argument("file")
    p.add_argument("--graph", required=True)
    p = _command(ss, "rownorm", cmd_series_rownorm, "l2 norm of grade-m coefficients at a vertex")
    p.add_argument("file")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--vertex", required=True)
    p.add_argument("--graph", required=True)

    g_atomic = sub.add_parser("atomic", help="atomic family commands")
    as_ = g_atomic.add_subparsers(dest="cmd", required=True)
    p = _command(
        as_, "validate", cmd_atomic_validate, "validate explicit data, or export H as DOT", dot=True
    )
    p.add_argument("file")
    p = _command(as_, "classify", cmd_atomic_classify, "decompose into irreducible atoms")
    p.add_argument("file")
    p = _command(as_, "equiv", cmd_atomic_equiv, "unitary equivalence of two families")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--tol", type=float, default=1e-9, help="phase comparison tolerance")
    p = _command(as_, "wold", cmd_atomic_wold, "wandering multiplicities and remainder")
    p.add_argument("file")
    p = _command(as_, "condM", cmd_atomic_condm, "orbit analysis of S_mu at its base vertex")
    p.add_argument("file")
    p.add_argument("--mu", required=True, help='path JSON, e.g. {"base":"v","edges":["e"]}')

    g_color = sub.add_parser("color", help="road coloring commands")
    cs = g_color.add_subparsers(dest="cmd", required=True)
    p = _command(cs, "validate", cmd_color_validate, "strong coloring report")
    p.add_argument("graph")
    p.add_argument("coloring")
    p = _command(cs, "sync-verify", cmd_color_sync_verify, "check a word synchronizes")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--word", required=True)
    p = _command(cs, "sync-find", cmd_color_sync_find, "synchronizing word (shortest when small)")
    p.add_argument("graph")
    p.add_argument("coloring")
    p = _command(
        cs, "search", cmd_color_search, "search all strong colorings for a synchronizing one"
    )
    p.add_argument("graph")
    p = _command(cs, "obrien", cmd_color_obrien, "loop plus spanning tree coloring")
    p.add_argument("graph")
    p.add_argument("--loop", required=True, help="id of a loop edge")
    p = _command(cs, "syncdiag", cmd_color_syncdiag, "closed path realizing gamma' gamma")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--gamma", required=True, help="synchronizing word")
    p.add_argument("--gamma2", required=True, help="prefix word")

    g_trunc = sub.add_parser("trunc", help="finite truncation commands")
    ts = g_trunc.add_subparsers(dest="cmd", required=True)
    p = _command(ts, "build", cmd_trunc_build, "basis and matrices of a truncation")
    p.add_argument("graph")
    _trunc_options(p)
    p = _command(ts, "verify", cmd_trunc_verify, "interior-exact axiom checks")
    p.add_argument("graph")
    _trunc_options(p)
    p = _command(ts, "cycle-lemma", cmd_trunc_cycle_lemma, "block identity of the cycle truncation")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p = _command(ts, "apply", cmd_trunc_apply, "matrix of a formal element")
    p.add_argument("graph")
    p.add_argument("element")
    _trunc_options(p)

    return parser


_parser = functools.cache(build_parser)


def _run(args) -> int:
    """Call the handler of parsed ``args``, render its answer and return the
    exit code: 0, or 1 with the error as JSON on stderr on a DomainError."""
    try:
        answer = args.func(args)
    except DomainError as exc:
        sys.stderr.write(io.dump_json(exc.to_json()))
        return 1
    if isinstance(answer, str):
        sys.stdout.write(answer)
    elif args.format == "table":
        print("\n".join(answer[1]))
    else:
        sys.stdout.write(io.dump_json(answer[0]))
    return 0


def main(argv=None) -> int:
    """Run one command on the parser built at the first call.  Handlers are
    bound then, so a later reassignment of a ``cmd_*`` function is not seen.
    A usage error exits 2 from argparse."""
    return _run(_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
