"""The command line contract under arbitrary JSON input and colour words.

Every subcommand's JSON inputs (its files, and the path given to
``atomic condM --mu``) are replaced by arbitrary JSON or by a valid document
with one subtree replaced; every leaf of each valid document is also
replaced in turn by a number out of range for ``int`` or ``float``.  Each
colour word argument is replaced by arbitrary text.  The run must exit 0,
or exit 1 with a JSON error object on stderr; an escaping exception fails
the test.  Files that are not JSON at all (bad UTF-8, nesting too deep, a
directory) must exit 1.
"""

import contextlib
import io
import json
import os
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from semigroupoid_kit import (
    Coloring,
    FormalElement,
    Path,
    cycle_graph,
    looped_triangle,
    pure_cycle_family,
)
from semigroupoid_kit.cli import main
from semigroupoid_kit.serialize import explicit_atomic_to_json, formal_to_json

FIG1 = looped_triangle()
VALID = {
    "graph": FIG1.to_json_dict(),
    "coloring": Coloring(
        2, {"loop_t": 1, "tl1": 1, "tr": 1, "tl2": 2, "lr": 2, "rt": 2}
    ).to_json_dict(),
    "element": formal_to_json(
        FormalElement(FIG1, {Path.vertex("t"): 1.0, Path("t", ("tl1",)): 2 - 1j})
    ),
    "family": explicit_atomic_to_json(pure_cycle_family(cycle_graph(2), laps=2)),
    "canonical": {
        "tag": "direct_sum",
        "graph": FIG1.to_json_dict(),
        "parts": [
            {"term": {"tag": "left_regular", "vertex": "l"}, "multiplicity": 2},
            {"term": {"tag": "cycle", "path": {"base": "t", "edges": ["loop_t"]},
                      "phase": {"angle": {"num": 1, "den": 3}}}, "multiplicity": "omega"},
        ],
    },
    "mu": {"base": "v1", "edges": ["e2", "e1"]},
}

# Each command with its JSON inputs written as {kind}; "family" inputs also
# draw from the canonical document.
COMMANDS = [
    "graph check {graph}",
    "graph check {graph} --format dot",
    "graph period {graph} --vertex t",
    "graph closure {graph} --set t,l",
    "graph ses {graph}",
    "paths enum {graph} --source t --max-len 3",
    "paths cycles {graph} --vertex t --max-len 3",
    "paths class {graph} --vertex t",
    "series mul {element} {element} --graph {graph}",
    "series fourier {element} -m 1 --graph {graph}",
    "series cesaro {element} -k 2 --graph {graph}",
    "series ideal-degree {element} --graph {graph}",
    "series rownorm {element} -m 1 --vertex t --graph {graph}",
    "atomic validate {family}",
    "atomic validate {family} --format dot",
    "atomic classify {family}",
    "atomic equiv {family} {family}",
    "atomic wold {family}",
    "atomic condM {family} --mu={mu}",
    "color validate {graph} {coloring}",
    "color sync-verify {graph} {coloring} --word 12",
    "color sync-find {graph} {coloring}",
    "color search {graph}",
    "color obrien {graph} --loop loop_t",
    "color syncdiag {graph} {coloring} --gamma 1 --gamma2 21",
    "trunc build {graph} --sources t --depth 2",
    "trunc verify {graph} --coloring {coloring} --depth 2",
    "trunc apply {graph} {element} --sources t --depth 2",
]

# every string of the valid documents, keys and values alike
WORDS = sorted({w for doc in VALID.values() for w in json.dumps(doc).split('"')[1::2]})
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(WORDS)
    | st.sampled_from([10**400, float("inf")])  # out of range for int() and float()
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=12,
)


@st.composite
def mutated(draw, doc):
    """``doc`` with one subtree, possibly the whole document, replaced."""
    if draw(st.integers(0, 3)) == 0 or not isinstance(doc, (dict, list)) or not doc:
        return draw(json_values)
    keys = sorted(doc) if isinstance(doc, dict) else range(len(doc))
    key = draw(st.sampled_from(list(keys)))
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[key] = draw(mutated(doc[key]))
    return out


def json_input(kind):
    sources = [VALID[kind]] + ([VALID["canonical"]] if kind == "family" else [])
    return st.sampled_from(sources).flatmap(
        lambda doc: st.one_of(st.just(doc), mutated(doc), json_values)
    )


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 1), argv
    if code == 1:
        error = json.loads(err)
        assert isinstance(error, dict) and error["error"] and not out, argv


def argv_for(command, doc_for, tmp):
    """``command`` with each {kind} replaced by ``doc_for(kind)``: inline for
    ``--mu``, as a JSON file in ``tmp`` otherwise."""
    argv = []
    for word in command.split():
        head, brace, kind = word.partition("{")
        if not brace:
            argv.append(word)
            continue
        doc = doc_for(kind.rstrip("}"))
        if head == "--mu=":
            argv.append(head + json.dumps(doc))
            continue
        name = os.path.join(tmp, f"{len(argv)}.json")
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv.append(head + name)
    return argv


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_any_json_input_exits_zero_or_one_with_json_error(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        check_contract(
            argv_for(command, lambda kind: data.draw(json_input(kind), label=kind), tmp)
        )


def test_unreadable_input_exits_one_with_json_error(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(VALID["graph"]))
    family = tmp_path / "family.json"
    family.write_text(json.dumps(VALID["family"]))
    bad_utf8 = tmp_path / "bad_utf8.json"
    bad_utf8.write_bytes(b"\xff\xfe{")
    too_deep = tmp_path / "deep.json"
    too_deep.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (
        ["graph", "check", str(bad_utf8)],
        ["graph", "check", str(too_deep)],
        ["graph", "check", str(tmp_path)],
        ["atomic", "condM", str(too_deep), "--mu", "{}"],
        ["atomic", "condM", str(family), "--mu", "[" * 100_000 + "]" * 100_000],
        ["series", "fourier", str(bad_utf8), "-m", "0", "--graph", str(graph)],
    ):
        code, out, err = run(argv)
        assert code == 1 and not out, argv
        assert json.loads(err)["error"] == "domain-error", argv


def leaf_paths(doc, at=()):
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from leaf_paths(doc[key], at + (key,))
    elif isinstance(doc, list):
        for k, item in enumerate(doc):
            yield from leaf_paths(item, at + (k,))
    else:
        yield at


def replaced(doc, at, value):
    if not at:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[at[0]] = replaced(doc[at[0]], at[1:], value)
    return out


# one command that decodes each kind of document
DECODES = {
    "graph": "graph check {graph}",
    "coloring": "color validate {graph} {coloring}",
    "element": "series fourier {element} -m 1 --graph {graph}",
    "family": "atomic classify {family}",
    "canonical": "atomic classify {canonical}",
    "mu": "atomic condM {family} --mu={mu}",
}


@pytest.mark.parametrize("kind", sorted(DECODES))
def test_out_of_range_numbers_exit_one_with_json_error(kind, tmp_path):
    for k, at in enumerate(leaf_paths(VALID[kind])):
        value = [10**400, float("inf")][k % 2]
        docs = dict(VALID, **{kind: replaced(VALID[kind], at, value)})
        check_contract(argv_for(DECODES[kind], docs.get, str(tmp_path)))


# each colour word argument of a command, given inline as --option=WORD
WORD_COMMANDS = [
    "color sync-verify {graph} {coloring} --word=WORD",
    "color syncdiag {graph} {coloring} --gamma=WORD --gamma2=21",
    "color syncdiag {graph} {coloring} --gamma=1 --gamma2=WORD",
]
# digits that str.isdigit accepts beyond ASCII: superscripts, Arabic-Indic,
# fullwidth and Devanagari
ODD_DIGITS = ["\u00b2", "\u0661", "\uff11", "\u0967", "\u2081"]
word_texts = st.text(
    alphabet=st.sampled_from("0123456789" + "".join(ODD_DIGITS) + "a -"), max_size=6
)


def word_argv(command, word, tmp):
    return [a.replace("WORD", word) for a in argv_for(command, VALID.get, tmp)]


@pytest.mark.parametrize("command", WORD_COMMANDS)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(word=word_texts | st.text(max_size=4))
def test_any_word_exits_zero_or_one_with_json_error(command, word):
    with tempfile.TemporaryDirectory() as tmp:
        argv = word_argv(command, word, tmp)
        code, out, err = run(argv)
        assert code in (0, 1), argv
        # the looped triangle is coloured with d = 2, so only 1 and 2 are letters
        if code == 1 or not set(word) <= set("12"):
            assert code == 1 and not out, argv
            assert json.loads(err)["error"] == "domain-error", argv


@pytest.mark.parametrize("command", WORD_COMMANDS)
def test_non_ascii_digits_are_refused(command, tmp_path):
    for odd in ODD_DIGITS:
        for word in ("1" + odd, odd + "1", odd):
            code, out, err = run(word_argv(command, word, str(tmp_path)))
            assert code == 1 and not out, word
            error = json.loads(err)
            assert error["message"] == "color words use digits 1..9", word
            assert error["details"] == {"word": word}, word


# a loop x on one vertex v, where "xx" read as characters is the path (x, x)
LOOP = {"vertices": ["v"], "edges": [{"id": "x", "src": "v", "dst": "v"}]}
ONE_LOOP_FAMILY = {"graph": LOOP, "lambda": {"v": ["0"]},
                   "pi": [{"edge": "x", "from": "0", "to": "0"}], "phase": []}
ONE_LOOP_SUM = {"tag": "direct_sum", "graph": LOOP,
                "parts": [{"term": {"tag": "left_regular", "vertex": "v"}, "multiplicity": 2}]}
# (command, documents, kind, path to an array, what list() would read instead)
ARRAY_FIELDS = [
    ("graph check {graph}", {"graph": LOOP}, "graph", ("vertices",), "v"),
    ("graph check {graph}", {"graph": LOOP}, "graph", ("vertices",), {"v": 1}),
    ("graph check {graph}", {"graph": {"vertices": [], "edges": []}}, "graph", ("edges",), {}),
    (
        "series fourier {element} -m 1 --graph {graph}",
        {"graph": LOOP, "element": {"terms": [{"path": {"base": "v", "edges": ["x", "x"]}}]}},
        "element", ("terms", 0, "path", "edges"), "xx",
    ),
    ("atomic classify {family}", {"family": ONE_LOOP_FAMILY}, "family", ("lambda", "v"), "0"),
    ("atomic classify {family}", {"family": ONE_LOOP_FAMILY}, "family", ("lambda", "v"), {"0": 1}),
    ("atomic classify {family}", {"family": ONE_LOOP_FAMILY}, "family", ("pi",),
     ONE_LOOP_FAMILY["pi"][0]),
    ("atomic classify {family}", {"family": ONE_LOOP_FAMILY}, "family", ("phase",), {}),
    ("atomic classify {canonical}", {"canonical": ONE_LOOP_SUM}, "canonical", ("parts",), {}),
]


@pytest.mark.parametrize("command, docs, kind, at, bad", ARRAY_FIELDS)
def test_a_string_or_object_where_an_array_belongs_exits_one(
    command, docs, kind, at, bad, tmp_path
):
    code, out, err = run(argv_for(command, docs.get, str(tmp_path)))
    assert code == 0 and not err
    docs = dict(docs, **{kind: replaced(docs[kind], at, bad)})
    code, out, err = run(argv_for(command, docs.get, str(tmp_path)))
    assert code == 1 and not out
    assert json.loads(err)["message"].endswith(f"expected an array, got {type(bad).__name__}")


@pytest.mark.parametrize("bad", [[["v", ["0"]]], "v0"])
def test_an_array_or_string_where_an_object_belongs_exits_one(bad, tmp_path):
    """``lambda`` maps vertices to label arrays; an array of pairs, which
    ``dict()`` would read as that map, is refused like any other non-object."""
    path = tmp_path / "family.json"
    path.write_text(json.dumps(dict(ONE_LOOP_FAMILY, **{"lambda": bad})))
    code, out, err = run(["atomic", "classify", str(path)])
    assert code == 1 and not out
    assert json.loads(err)["message"].endswith(f"expected an object, got {type(bad).__name__}")


def test_a_nan_phase_and_a_negative_or_nan_tolerance_exit_one(tmp_path):
    """A NaN phase modulus is not within 1e-6 of 1, and a tolerance below 0
    or NaN would call inequivalent families equivalent."""
    graph = {"vertices": ["a"], "edges": [{"id": "e", "src": "a", "dst": "a"}]}
    family = {"graph": graph, "lambda": {"a": ["a"]},
              "pi": [{"edge": "e", "from": "a", "to": "a"}], "phase": []}
    nan_phase = dict(family, phase=[{"edge": "e", "from": "a", "re": float("nan"), "im": 0}])
    paths = {}
    for name, doc in (("family", family), ("nan_phase", nan_phase)):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)  # NaN is written as the bare token Python reads back
    code, out, err = run(["atomic", "equiv", paths["family"], paths["family"], "--tol", "0"])
    assert code == 0 and json.loads(out)["equivalent"] is True
    for argv, message in (
        (["atomic", "classify", paths["nan_phase"]], "phase must be unimodular"),
        (["atomic", "equiv", paths["family"], paths["family"], "--tol", "-1"],
         "tolerance must be a nonnegative number"),
        (["atomic", "equiv", paths["family"], paths["family"], "--tol", "nan"],
         "tolerance must be a nonnegative number"),
    ):
        code, out, err = run(argv)
        assert code == 1 and not out, argv
        error = json.loads(err)
        assert (error["error"], error["message"]) == ("domain-error", message), argv
