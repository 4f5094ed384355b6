import pytest

import corpus
from semigroupoid_kit import (
    AtomDecomposition,
    CycleType,
    DirectSum,
    DomainError,
    FormalElement,
    LeftRegular,
    Path,
    Phase,
    TailType,
    classify,
    wold_atomic,
)
from semigroupoid_kit.serialize import (
    atomic_family_from_json,
    canonical_from_json,
    canonical_to_json,
    coloring_from_json,
    coloring_to_json,
    decomposition_to_json,
    dump_json,
    explicit_atomic_from_json,
    explicit_atomic_to_json,
    formal_from_json,
    formal_to_json,
    load_json,
    path_from_json,
    path_to_json,
    wold_to_json,
)


def test_path_round_trip(fig1):
    p = Path("t", ("rt", "lr", "tl1"))
    assert path_from_json(fig1, path_to_json(p)) == p


def test_path_from_json_infers_base(fig1):
    p = path_from_json(fig1, {"edges": ["rt", "lr", "tl1"]})
    assert p.base == "t"


def test_path_edges_are_an_array_only():
    """``"edges": "xx"`` read as the path (x, x), and an object as its keys."""
    from semigroupoid_kit import Graph

    g = Graph.build(["v"], [("x", "v", "v")])
    assert path_from_json(g, {"base": "v", "edges": ["x", "x"]}) == Path("v", ("x", "x"))
    for bad in ("xx", {"x": 1}):
        with pytest.raises(DomainError) as err:
            path_from_json(g, {"base": "v", "edges": bad})
        assert str(err.value) == (
            f"path object needs 'base' and 'edges': expected an array, got {type(bad).__name__}"
        )


def test_formal_round_trip(rng, fig1):
    from test_series import random_polynomial

    a = random_polynomial(rng, fig1)
    back = formal_from_json(fig1, formal_to_json(a))
    assert back.approx_eq(a)


def test_formal_zero_round_trip(fig1):
    z = FormalElement.zero(fig1)
    assert formal_from_json(fig1, formal_to_json(z)).is_zero()


def test_explicit_family_labels_are_an_array_only():
    """``"lambda": {"v1": "0"}`` read as the labels of "0", one per character,
    and an object as its keys."""
    assert explicit_atomic_from_json(LOOP_FAMILY).lam == {"v1": ("0",)}
    for bad in ("0", {"0": 1}):
        with pytest.raises(DomainError) as err:
            explicit_atomic_from_json(dict(LOOP_FAMILY, **{"lambda": {"v1": bad}}))
        assert str(err.value) == (
            f"explicit atomic object malformed: expected an array, got {type(bad).__name__}"
        )


def test_explicit_family_round_trip(rng):
    g = corpus.random_graph(rng, max_v=4, max_e=5, acyclic=True)
    fam, _ = corpus.random_root_family(rng, g)
    back = explicit_atomic_from_json(explicit_atomic_to_json(fam))
    assert back.graph.to_json_dict() == g.to_json_dict()
    assert back.lam == fam.lam
    for e in g.edges:
        # an absent edge key and an empty mapping present the same family
        assert back.pi.get(e.id, {}) == fam.pi.get(e.id, {})
    for key, ph in fam.phases.items():
        assert back.phase(*key).approx_eq(ph)


def test_canonical_round_trip(fig1):
    fam = DirectSum(
        (
            (LeftRegular("t"), 2),
            (TailType(Path("t", ("loop_t",))), "omega"),
        )
    )
    back = canonical_from_json(fig1, canonical_to_json(fam))
    assert isinstance(back, DirectSum)
    assert back == fam


def test_atomic_family_from_json_dispatches(rng, fig1):
    g = corpus.random_graph(rng, max_v=3, max_e=3, acyclic=True)
    fam, _ = corpus.random_root_family(rng, g)
    g2, back = atomic_family_from_json(explicit_atomic_to_json(fam))
    assert g2.to_json_dict() == g.to_json_dict()
    data = canonical_to_json(LeftRegular("t"))
    data["graph"] = fig1.to_json_dict()
    g3, can = atomic_family_from_json(data)
    assert can == LeftRegular("t")
    assert g3.to_json_dict() == fig1.to_json_dict()


def test_decomposition_and_wold_json(rng):
    g = corpus.random_graph(rng, max_v=4, max_e=5, acyclic=True)
    fam, fresh = corpus.random_root_family(rng, g)
    dec = decomposition_to_json(classify(g, fam))
    assert set(dec) == {"atoms", "notes"}
    for atom in dec["atoms"]:
        assert atom["kind"] == "left_regular"
    w = wold_to_json(wold_atomic(fam))
    assert {v: m for v, m in w["alpha"].items() if m} == fresh


def test_coloring_round_trip():
    from semigroupoid_kit import Coloring

    c = Coloring(2, {"e1": 1, "e2": 2})
    assert coloring_from_json(coloring_to_json(c)).to_json_dict() == c.to_json_dict()


def test_load_json_errors(tmp_path):
    with pytest.raises(DomainError):
        load_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(DomainError):
        load_json(str(bad))


def test_dump_json_is_deterministic():
    out = dump_json({"b": 1, "a": [2, 1]})
    assert out == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'


def test_phase_appears_as_exact_fraction_in_family_json():
    g = corpus.loop_sink_graph()
    fam, total, _ = corpus.random_loop_sink_family(
        __import__("random").Random(7), laps=2, sink_roots=0
    )
    data = explicit_atomic_to_json(fam)
    for row in data.get("phases", []):
        assert "angle" in row["phase"]
        assert set(row["phase"]["angle"]) == {"num", "den"}


# integer fields take JSON integers only: no float, bool or numeric string

NOT_INTEGERS = [0.5, 2.0, 2.7, True, "2"]
CANONICAL_SUM = {
    "tag": "direct_sum",
    "parts": [{"term": {"tag": "left_regular", "vertex": "t"}, "multiplicity": 2}],
}


def _with(doc, at, value):
    import copy

    doc = copy.deepcopy(doc)
    node = doc
    for key in at[:-1]:
        node = node[key]
    node[at[-1]] = value
    return doc


def _decoders(fig1):
    """(decode, document, path to one integer field, error code, message prefix)"""
    from semigroupoid_kit import Coloring

    angle = {"angle": {"num": 1, "den": 4}}
    coloring = {"d": 2, "color": {"loop_t": 1, "tl1": 2}}
    return [
        (Phase.from_json, angle, ("angle", "num"), "domain-error", "phase object malformed"),
        (Phase.from_json, angle, ("angle", "den"), "domain-error", "phase object malformed"),
        (Coloring.from_json_dict, coloring, ("d",), "invalid-coloring", "coloring object needs"),
        (
            Coloring.from_json_dict, coloring, ("color", "tl1"),
            "invalid-coloring", "coloring object needs",
        ),
        (
            lambda doc: canonical_from_json(fig1, doc), CANONICAL_SUM,
            ("parts", 0, "multiplicity"), "domain-error", "canonical atomic object malformed",
        ),
    ]


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
def test_integer_fields_refuse_non_integers(fig1, bad):
    for decode, doc, at, code, prefix in _decoders(fig1):
        decode(doc)  # the document as written decodes
        with pytest.raises(DomainError) as info:
            decode(_with(doc, at, bad))
        assert info.value.code == code and str(info.value).startswith(prefix), at


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
def test_integer_fields_refuse_non_integers_on_the_command_line(capsys, tmp_path, fig1, bad):
    import json

    from semigroupoid_kit import obrien_coloring
    from semigroupoid_kit.cli import main

    coloring = coloring_to_json(obrien_coloring(fig1, "loop_t")[0])
    family = _with(CANONICAL_SUM, ("graph",), fig1.to_json_dict())
    cycle = {
        "tag": "cycle", "graph": fig1.to_json_dict(),
        "path": {"base": "t", "edges": ["loop_t"]}, "phase": {"angle": {"num": 1, "den": 4}},
    }
    graph = tmp_path / "fig1.json"
    graph.write_text(dump_json(fig1.to_json_dict()))
    requests = [
        (["color", "validate", str(graph)], coloring, ("d",), "coloring object needs"),
        (["color", "validate", str(graph)], coloring, ("color", "rt"), "coloring object needs"),
        (["atomic", "classify"], family, ("parts", 0, "multiplicity"), "canonical atomic"),
        (["atomic", "classify"], cycle, ("phase", "angle", "num"), "phase object malformed"),
    ]
    for argv, doc, at, prefix in requests:
        for value, want in ((_with(doc, at, bad), 1), (doc, 0)):
            f = tmp_path / "input.json"
            f.write_text(dump_json(value))
            code = main(argv + [str(f)])
            out, err = capsys.readouterr()
            assert code == want, (at, out, err)
            if want:
                assert not out and json.loads(err)["message"].startswith(prefix), at


# float fields take JSON numbers only: an integer or a float, no bool or string

NOT_NUMBERS = [True, False, "1.5", None, [1.0]]
ONE_TERM = {"terms": [{"path": {"base": "t", "edges": ["loop_t"]}, "re": 1.5, "im": -2}]}
LOOP_FAMILY = {
    "graph": {"vertices": ["v1"], "edges": [{"id": "e1", "src": "v1", "dst": "v1"}]},
    "lambda": {"v1": ["0"]},
    "pi": [{"edge": "e1", "from": "0", "to": "0"}],
    "phase": [{"edge": "e1", "from": "0", "re": 0, "im": 1.0}],
}


@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=repr)
def test_float_fields_refuse_non_numbers(fig1, bad):
    formal = lambda doc: formal_from_json(fig1, doc)  # noqa: E731
    prefix = "formal element needs 'terms' of 'path' and numeric 're'/'im'"
    decoders = [
        (formal, ONE_TERM, ("terms", 0, "re"), prefix),
        (formal, ONE_TERM, ("terms", 0, "im"), prefix),
        (Phase.from_json, {"re": 0, "im": 1.0}, ("re",), "phase object malformed"),
        (Phase.from_json, {"re": 0, "im": 1.0}, ("im",), "phase object malformed"),
        (explicit_atomic_from_json, LOOP_FAMILY, ("phase", 0, "im"), "phase object malformed"),
    ]
    assert formal(ONE_TERM).terms == {Path("t", ("loop_t",)): 1.5 - 2j}
    assert Phase.from_json({"re": 0, "im": 1.0}).approx_eq(Phase.from_turns(1, 4))
    for decode, doc, at, want in decoders:
        decode(doc)  # the document as written decodes
        with pytest.raises(DomainError) as info:
            decode(_with(doc, at, bad))
        assert info.value.code == "domain-error" and str(info.value).startswith(want), at


@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=repr)
def test_float_fields_refuse_non_numbers_on_the_command_line(capsys, tmp_path, fig1, bad):
    import json

    from semigroupoid_kit.cli import main

    graph = tmp_path / "fig1.json"
    graph.write_text(dump_json(fig1.to_json_dict()))
    requests = [
        (["series", "fourier", "-m", "1", "--graph", str(graph)], ONE_TERM, ("terms", 0, "re"),
         "formal element needs"),
        (["atomic", "validate"], LOOP_FAMILY, ("phase", 0, "im"), "phase object malformed"),
    ]
    for argv, doc, at, prefix in requests:
        for value, want in ((_with(doc, at, bad), 1), (doc, 0)):
            f = tmp_path / "input.json"
            f.write_text(dump_json(value))
            code = main(argv + [str(f)])
            out, err = capsys.readouterr()
            assert code == want, (at, out, err)
            if want:
                assert not out and json.loads(err)["message"].startswith(prefix), at


def test_cycle_family_round_trips_and_unknown_kinds_raise(fig1):
    fam = CycleType(Path("t", ("rt", "lr", "tl1")), Phase.from_turns(1, 3))
    data = canonical_to_json(fam)
    assert data["tag"] == "cycle" and canonical_from_json(fig1, data) == fam
    dec = AtomDecomposition([])
    dec.atoms.append(("t", 1))
    for call, message in (
        (lambda: canonical_to_json("t"), "unknown canonical family"),
        (lambda: decomposition_to_json(dec), "unknown atom kind"),
    ):
        with pytest.raises(DomainError) as err:
            call()
        assert (type(err.value), str(err.value), err.value.details) == (
            DomainError, message, {"got": "str"}
        )
