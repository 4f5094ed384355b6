"""Exact rendering of every subcommand in each format it accepts.

Each request's exit code, stdout and stderr are compared byte for byte
with ``tests/data/cli_render.json``.  The inputs are small and fixed: the
looped triangle (fig1) with its O'Brien colouring, the 2-cycle with an
explicit family on it, a canonical direct sum over fig1 and two formal
elements.  After a deliberate change of output, record the file again with
``PYTHONPATH=src python tests/test_cli_render.py``.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from semigroupoid_kit import (
    Coloring,
    FormalElement,
    Graph,
    Path,
    Phase,
    cycle_graph,
    looped_triangle,
    obrien_coloring,
    pure_cycle_family,
)
from semigroupoid_kit.cli import main
from semigroupoid_kit.serialize import dump_json, explicit_atomic_to_json, formal_to_json

DATA = pathlib.Path(__file__).parent / "data" / "cli_render.json"

JT = ("json", "table")
JTD = ("json", "table", "dot")
SUM_MU = '{"base": "t", "edges": ["loop_t"]}'
CYCLE_MU = '{"base": "v1", "edges": ["e2", "e1"]}'

# (argv with @input placeholders, formats the request is run in)
REQUESTS = [
    (["graph", "check", "@fig1"], JTD),
    (["graph", "check", "@cycle2"], JTD),
    (["graph", "period", "@fig1", "--vertex", "t"], JT),
    (["graph", "period", "@cycle2", "--vertex", "v1"], JT),
    (["graph", "closure", "@fig1", "--set", "l"], JT),
    (["graph", "ses", "@fig1"], JT),
    (["graph", "ses", "@cycle2"], JT),
    (["paths", "enum", "@fig1", "--source", "t", "--max-len", "2"], JT),
    (["paths", "cycles", "@fig1", "--vertex", "t", "--max-len", "3"], JT),
    (["paths", "class", "@fig1", "--vertex", "t"], JT),
    (["paths", "class", "@cycle2", "--vertex", "v1"], JT),
    (["series", "mul", "@a", "@b", "--graph", "@fig1"], JT),
    (["series", "fourier", "@a", "-m", "1", "--graph", "@fig1"], JT),
    (["series", "cesaro", "@a", "-k", "2", "--graph", "@fig1"], JT),
    (["series", "ideal-degree", "@a", "--graph", "@fig1"], JT),
    (["series", "rownorm", "@a", "-m", "1", "--vertex", "t", "--graph", "@fig1"], JT),
    (["atomic", "validate", "@family"], JTD),
    (["atomic", "validate", "@sum"], JTD),
    (["atomic", "classify", "@family"], JT),
    (["atomic", "classify", "@sum"], JT),
    (["atomic", "equiv", "@family", "@family"], JT),
    (["atomic", "equiv", "@sum", "@sum"], JT),
    (["atomic", "wold", "@family"], JT),
    (["atomic", "wold", "@sum"], JT),
    (["atomic", "condM", "@family", "--mu", CYCLE_MU], JT),
    (["atomic", "condM", "@sum", "--mu", SUM_MU], JT),
    (["color", "validate", "@fig1", "@coloring"], JT),
    (["color", "sync-verify", "@fig1", "@coloring", "--word", "1"], JT),
    (["color", "sync-verify", "@fig1", "@coloring", "--word", "2"], JT),
    (["color", "sync-find", "@fig1", "@coloring"], JT),
    (["color", "search", "@fig1"], JT),
    (["color", "search", "@cycle2"], JT),
    (["color", "obrien", "@fig1", "--loop", "loop_t"], JT),
    (["color", "syncdiag", "@fig1", "@coloring", "--gamma", "1", "--gamma2", "21"], JT),
    (["trunc", "build", "@fig1", "--sources", "t", "--depth", "2"], JT),
    (["trunc", "build", "@fig1", "--coloring", "@coloring", "--depth", "2"], JT),
    (["trunc", "verify", "@fig1", "--sources", "t", "--depth", "2"], JT),
    (["trunc", "verify", "@fig1", "--coloring", "@coloring", "--depth", "2"], JT),
    (["trunc", "cycle-lemma", "-n", "2", "--depth", "2"], JT),
    (["trunc", "apply", "@fig1", "@a", "--sources", "t", "--depth", "2"], JT),
    (["trunc", "apply", "@fig1", "@a", "--coloring", "@coloring", "--depth", "2"], JT),
    # domain errors: exit 1 with a JSON error on stderr
    (["graph", "period", "@fig1", "--vertex", "nope"], JT),
    (["trunc", "build", "@fig1", "--depth", "2"], JT),
    (["atomic", "equiv", "@family", "@sum"], JT),
]


def write_inputs(directory: pathlib.Path) -> dict[str, str]:
    fig1 = looped_triangle()
    coloring, _ = obrien_coloring(fig1, "loop_t")
    cycle2 = cycle_graph(2)
    phases = [Phase.from_turns(1, 4)] + [Phase.one()] * 3
    family = pure_cycle_family(cycle2, laps=2, phases=phases)
    direct_sum = {
        "tag": "direct_sum",
        "graph": fig1.to_json_dict(),
        "parts": [
            {"term": {"tag": "left_regular", "vertex": "l"}, "multiplicity": 2},
            {
                "term": {
                    "tag": "cycle",
                    "path": {"base": "t", "edges": ["loop_t"]},
                    "phase": {"angle": {"num": 1, "den": 3}},
                },
                "multiplicity": 1,
            },
            {"term": {"tag": "tail", "path": {"base": "t", "edges": ["rt", "tr"]}}},
        ],
    }
    a = FormalElement(fig1, {Path.vertex("t"): 1.0, Path.of(fig1, ["tl1"]): 2.0})
    b = FormalElement(fig1, {Path.vertex("t"): 1.0, Path.of(fig1, ["loop_t"]): -1.0})
    docs = {
        "fig1": fig1.to_json_dict(),
        "coloring": coloring.to_json_dict(),
        "cycle2": cycle2.to_json_dict(),
        "family": explicit_atomic_to_json(family),
        "sum": direct_sum,
        "a": formal_to_json(a),
        "b": formal_to_json(b),
    }
    files = {}
    for name, doc in docs.items():
        path = directory / f"{name}.json"
        path.write_text(dump_json(doc))
        files[name] = str(path)
    return files


def cases() -> list[list[str]]:
    """Every request in every format; json is the default, so it is not named."""
    return [
        argv + ([] if fmt == "json" else ["--format", fmt])
        for argv, formats in REQUESTS
        for fmt in formats
    ]


def render(argv: list[str], files: dict[str, str]) -> dict:
    """Exit code, stdout and stderr of one in-process ``main`` call."""
    argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _key(argv: list[str]) -> str:
    return " ".join(argv)


EXPECTED = json.loads(DATA.read_text()) if DATA.exists() else {}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("render"))


def test_recorded_requests_are_the_listed_ones():
    assert sorted(EXPECTED) == sorted(_key(argv) for argv in cases())


@pytest.mark.parametrize("argv", cases(), ids=_key)
def test_rendering_is_unchanged(argv, files):
    assert render(argv, files) == EXPECTED[_key(argv)]


# vertex "" and edge "": the tables name them as JSON does
EMPTY_ID_TABLES = {
    ("color", "sync-verify", "@g", "@c", "--word", "1"): "word '1': synchronizes to \n",
    ("graph", "ses", "@h"): "has_ses: False\nlayer 1: a\ncore vertices: \n",
    ("paths", "enum", "@g", "--source", "a", "--max-len", "1"):
        "0: a (vertex)\n1: a \n1: a d\ncount: 3\n",
    ("color", "syncdiag", "@g", "@c", "--gamma", "1", "--gamma2", "2"):
        "vertex: \nmu' = \nmu  = c\nlambda =  c\ncolors: 21\n",
    ("trunc", "build", "@g", "--sources", "a", "--depth", "1"):
        "kind: left_regular\ndim: 3\nbasis[0] = a:()\nbasis[1] = a:\nbasis[2] = a:d\n",
}


def test_tables_agree_with_json_on_empty_ids(tmp_path):
    g = Graph.build(["", "a"], [("l", "", ""), ("", "a", ""), ("c", "", "a"), ("d", "a", "a")])
    docs = {
        "g": g.to_json_dict(),
        "c": Coloring(2, {"l": 1, "": 2, "c": 1, "d": 2}).to_json_dict(),
        "h": Graph.build(["", "a"], [("l", "", ""), ("x", "a", "")]).to_json_dict(),
    }
    files = {}
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(dump_json(doc))
        files[name] = str(tmp_path / f"{name}.json")
    answers = {}
    for argv, table in EMPTY_ID_TABLES.items():
        assert render([*argv, "--format", "table"], files) == {
            "code": 0, "stdout": table, "stderr": ""
        }
        out = render(list(argv), files)
        assert out["code"] == 0 and out["stderr"] == ""
        answers[argv[1]] = json.loads(out["stdout"])
    assert answers["sync-verify"] == {"word": "1", "synchronizing": True, "target": ""}
    assert answers["ses"]["g0"]["vertices"] == [""]
    assert answers["enum"]["paths"][1] == {"base": "a", "edges": [""]}
    assert answers["syncdiag"]["vertex"] == ""
    assert answers["syncdiag"]["mu_prime"] == {"base": "a", "edges": [""]}
    assert answers["build"]["basis"] == ["a:()", "a:", "a:d"]


def test_a_finding_at_the_edge_with_the_empty_id_keeps_its_location(tmp_path):
    g = Graph.build(["", "a"], [("l", "", ""), ("", "a", ""), ("c", "", "a"), ("d", "a", "a")])
    files = {}
    for name, doc in (("g", g.to_json_dict()), ("c", {"d": 2, "color": {"l": 1, "c": 1, "d": 2}})):
        (tmp_path / f"{name}.json").write_text(dump_json(doc))
        files[name] = str(tmp_path / f"{name}.json")
    argv = ["color", "validate", "@g", "@c"]
    out = render(argv, files)
    assert out["code"] == 0 and out["stderr"] == ""
    located = {f["code"]: f["where"] for f in json.loads(out["stdout"])["findings"]}
    assert located == {"uncolored-edge": "", "complete": None}
    assert render([*argv, "--format", "table"], files) == {"code": 0, "stderr": "", "stdout": (
        "error uncolored-edge []: edge  has no color\n"
        "info  complete: some vertex misses a color on its incoming edges\n"
        "INVALID\n"
    )}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        inputs = write_inputs(pathlib.Path(tmp))
        recorded = {_key(argv): render(argv, inputs) for argv in cases()}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"recorded {len(recorded)} requests in {DATA}\n")

