"""The streaming renderer against ``json.dumps(indent=2, sort_keys=True)``."""

import enum
import json
from itertools import chain
from types import GeneratorType

import pytest

from semigroupoid_kit.serialize import _FLUSH, dump_json, write_json

SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e308]
STRINGS = ["", "v", "e1", "é", "雪", "\U0001f600", "\x00\x1f\x7f", "tab\tnew\nline", '"q\\', " "]


class Level(enum.IntEnum):
    LOW = 1


class Name(str):
    pass


def reference(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def random_str(rng) -> str:
    if rng.random() < 0.5:
        return rng.choice(STRINGS)
    ranges = [(0, 32), (32, 127), (0, 0x110000)]  # control, ASCII, any code point
    return "".join(chr(rng.randrange(*rng.choice(ranges))) for _ in range(rng.randrange(6)))


def random_scalar(rng):
    kind = rng.randrange(8)
    if kind == 0:
        return random_str(rng)
    if kind == 1:
        return rng.choice([0, -1, 7, 2**70, -(2**64), Level.LOW])
    if kind == 2:
        return rng.choice(SPECIAL_FLOATS + [rng.uniform(-1e6, 1e6), rng.random()])
    if kind == 3:
        return rng.choice([True, False])
    if kind == 4:
        return None
    if kind == 5:
        return Name(random_str(rng))
    return rng.randrange(-5, 5)


def random_key(rng, family: str):
    if family == "str":
        return random_str(rng)
    return rng.choice([rng.randrange(-3, 9), rng.choice(SPECIAL_FLOATS), rng.random(), True, False])


def random_data(rng, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return random_scalar(rng)
    n = rng.choice([0, 1, 2, 3, 5])
    kind = rng.randrange(5)
    if kind == 0:  # ints with bools among them
        return [rng.choice([1, 0, True, False, -2]) for _ in range(n)]
    if kind == 1:
        items = [random_data(rng, depth - 1) for _ in range(n)]
        return tuple(items) if rng.random() < 0.3 else items
    if kind == 2:  # one scalar type, rendered with a single join
        kind = rng.randrange(3)
        return [
            (random_str(rng), rng.randrange(-9, 9), rng.choice(SPECIAL_FLOATS))[kind] for _ in range(n)
        ]
    family = rng.choice(["str", "str", "num", "none"])
    if family == "none":
        return {None: random_data(rng, depth - 1)} if n else {}
    return {random_key(rng, family): random_data(rng, depth - 1) for _ in range(n)}


def test_the_renderer_matches_json_on_random_data(rng):
    for _ in range(3000):
        data = random_data(rng, 4)
        assert dump_json(data) == reference(data), data


def test_the_special_values_match_json():
    cases = [
        SPECIAL_FLOATS, {"nan": float("nan"), "neg": -0.0}, [], {}, (), [[], {}, ()],
        STRINGS, {s: s for s in STRINGS}, {1: "a", 2.5: "b", True: "c"}, {None: None},
        {-0.0: 1, float("inf"): 2, -float("inf"): 3}, [True, 1, False, 0, 1.0],
        (1, (2, ("3",))), Level.LOW, {Level.LOW: Level.LOW}, Name("x"), {Name("k"): Name("v")},
        "top", 0, -0.0, float("nan"), None, True,
    ]
    for data in cases:
        assert dump_json(data) == reference(data), data


def test_long_containers_are_written_in_batches(rng):
    flat = [random_str(rng) for _ in range(_FLUSH + 500)]
    rows = [
        {"path": {"base": "v", "edges": ["a"] * (k % 4)}, "re": k / 7, "im": -0.0} for k in range(3000)
    ]
    wide = {f"k{k}": [k, True] for k in range(_FLUSH + 10)}
    for data in (flat, rows, wide, {"terms": rows, "flat": tuple(flat)}):
        chunks = []
        write_json(data, chunks.append)
        assert len(chunks) > 1
        assert "".join(chunks) == dump_json(data) == reference(data)


def test_unsupported_types_raise_what_json_raises():
    bad_values = [object(), {1, 2}, 1j, b"x", [1, object()], {"a": {"b": bytes()}}]
    for data in bad_values + [{(1,): 2}, {"k": {1j: 0}}]:
        with pytest.raises(TypeError) as ours:
            dump_json(data)
        with pytest.raises(TypeError) as theirs:
            reference(data)
        assert str(ours.value) == str(theirs.value)


def listed(o):
    """``o`` with every iterator in it, at any depth, read into a list."""
    if isinstance(o, dict):
        return {k: listed(v) for k, v in o.items()}
    if isinstance(o, (list, tuple, map, chain, GeneratorType)):
        return [listed(v) for v in o]
    return o


def test_iterators_render_as_the_lists_of_their_items(rng):
    rows = [random_data(rng, 3) for _ in range(40)]
    flat = [random_str(rng) for _ in range(_FLUSH + 1)]
    cases = [
        lambda: map(str, range(7)),
        lambda: (row for row in rows),
        lambda: chain(rows[:5], (k / 3 for k in range(4)), map(bool, [0, 1])),
        lambda: map(str, []),
        lambda: (row for row in ()),
        lambda: chain(),
        lambda: [map(int, ""), {"k": chain()}, (x for x in [[], {}])],
        lambda: {"a": map(lambda k: (v for v in range(k)), range(4)), "b": chain([], map(str, "xy"))},
        lambda: (map(abs, range(-k, 1)) for k in range(3)),
        lambda: {"flat": (s for s in flat), "rows": map(lambda r: {"r": r}, rows)},
        lambda: (s for s in flat),
    ]
    for make in cases:
        chunks = []
        write_json(make(), chunks.append)
        assert "".join(chunks) == dump_json(make()) == reference(listed(make()))
    chunks = []
    write_json((s for s in flat), chunks.append)
    assert len(chunks) > 1
