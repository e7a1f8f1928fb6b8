"""The JSON reader: `from_json` checks each field against its annotation,
`read_json_object` reads one object from a file; `replace_file` never
leaves a torn file; and, differentially, the codec's encoders write what
`json.dumps` writes and `loads` reads what the decoder-first `loads` in
oracles.py read, and plans and transcript lines are accepted and
rejected as the hand-written checks in oracles.py accepted and rejected
them."""

import json
import math
import os
from dataclasses import dataclass, field
from functools import cache
from typing import Any
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hearth.agent.loop import DEFAULT_MAX_TOOL_CALLS
from hearth.agent.backends import ScriptedBackend
from hearth.agent.scripts import SCRIPTS
from hearth.agent.transcript import TranscriptFinal, TranscriptHeader, TranscriptMessage
from hearth.harness.runner import (
    ExperimentPlan,
    ScenarioTemplate,
    execute_task,
    seed_store,
    task_header,
)
from hearth.harness.tasks import TASKS
from hearth.jsonio import (
    FieldError,
    _sorted_encoder,
    canonical_json,
    dumps,
    from_json,
    loads,
    read_json_object,
    replace_file,
)
from hearth.memory.scratchpad import Scratchpad
from hearth.tools.dispatch import MemoryHandles
from hearth.world.state import WorldState

from .oracles import (
    decoder_first_loads,
    hand_checked_final,
    hand_checked_header,
    hand_checked_message,
    hand_checked_plan,
)


@dataclass
class Every:
    text: str
    count: int
    ratio: float
    flag: bool
    blob: dict[str, Any]
    headers: dict[str, str]
    items: list[dict[str, Any]]
    sizes: tuple[int, ...]
    note: str | None
    anything: Any
    limit: int = 3
    tags: list[str] = field(default_factory=list)


EVERY = {
    "text": "t", "count": 1, "ratio": 0.5, "flag": False, "blob": {"a": [1]},
    "headers": {"X": "y"}, "items": [{}], "sizes": [0, 1], "note": None,
    "anything": [None],
}


class TestFromJson:
    def test_builds_every_annotation(self):
        every = from_json(Every, {**EVERY, "ignored": 5})
        assert every == Every(
            "t", 1, 0.5, False, {"a": [1]}, {"X": "y"}, [{}], (0, 1), None, [None]
        )
        assert (every.limit, every.tags) == (3, [])

    def test_an_int_is_a_float_and_keeps_its_value(self):
        every = from_json(Every, {**EVERY, "ratio": 2})
        assert every.ratio == 2 and type(every.ratio) is int

    @pytest.mark.parametrize("name, value, kind", [
        ("text", 5, "a string"),
        ("count", True, "an integer"),
        ("count", 1.0, "an integer"),
        ("ratio", False, "a number"),
        ("ratio", "0.5", "a number"),
        ("flag", 0, "a boolean"),
        ("blob", [], "an object"),
        ("headers", {"X": 5}, "an object of strings"),
        ("items", [5], "a list of objects"),
        ("items", {}, "a list of objects"),
        ("sizes", [True], "a list of integers"),
        ("sizes", "01", "a list of integers"),
        ("note", 5, "a string or null"),
        ("limit", None, "an integer"),
        ("tags", [None], "a list of strings"),
    ])
    def test_a_value_of_the_wrong_type_names_its_field(self, name, value, kind):
        with pytest.raises(FieldError) as info:
            from_json(Every, {**EVERY, name: value})
        assert str(info.value) == f"{name} must be {kind}: {value!r}"
        assert (info.value.name, info.value.value) == (name, value)

    def test_a_missing_required_field_is_a_key_error(self):
        with pytest.raises(KeyError, match="count"):
            from_json(Every, {k: v for k, v in EVERY.items() if k != "count"})

    def test_an_annotation_without_a_reading_is_refused(self):
        @dataclass
        class Odd:
            pair: tuple[int, str]

        with pytest.raises(TypeError, match="no JSON reading"):
            from_json(Odd, {"pair": [1, "a"]})


def test_a_failed_replace_removes_its_temporary_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        replace_file(str(path), "new \ud800\n")  # a lone surrogate: no UTF-8 for it
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


class TestReadJsonObject:
    def test_reads_an_object(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text('{"a": 1}')
        assert read_json_object(str(path), "plan") == {"a": 1}

    def test_invalid_json_names_the_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{broken")
        with pytest.raises(ValueError, match=f"invalid JSON in plan '{path}': "):
            read_json_object(str(path), "plan")

    @pytest.mark.parametrize("text", ["5", "[1]", "null", '"x"'])
    def test_any_other_value_is_refused(self, tmp_path, text):
        path = tmp_path / "http.json"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_json_object(str(path), "backend config")
        assert str(info.value) == f"backend config must be a JSON object: '{path}'"


# ---- differential: the codec against json.dumps and the decoder ----

# Characters from every plane, and lone surrogates, which the encoder
# escapes one by one.
CHARACTERS = st.characters() | st.integers(0xD800, 0xDFFF).map(chr)
CODEC_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(1 << 200), 1 << 200)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308])
    | st.text(CHARACTERS, max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(CHARACTERS, max_size=4), inner, max_size=4),
    max_leaves=12,
)


def _refuse(*args):
    raise TypeError("not this interpreter's encoder")


# The encoders hearth falls back to: one shared JSONEncoder, where the
# interpreter has no C encoder (`make` None) or it cannot be built.
FALLBACKS = [
    (_sorted_encoder(", ", ": ", make), _sorted_encoder(",", ":", make))
    for make in (None, _refuse)
]


@given(value=CODEC_JSON)
@settings(max_examples=300, deadline=None)
def test_encoders_write_what_json_dumps_writes(value):
    want = (
        json.dumps(value, sort_keys=True),
        json.dumps(value, sort_keys=True, separators=(",", ":")),
    )
    assert (dumps(value), canonical_json(value)) == want
    for line, compact in FALLBACKS:
        assert (line(value), compact(value)) == want
    with mock.patch("json.encoder.c_make_encoder", None):  # pure Python
        for line, compact in FALLBACKS:
            assert (line(value), compact(value)) == want


def test_the_encoders_are_built_in_c_where_the_interpreter_has_it():
    """Not the fallback, a JSONEncoder's bound `encode`."""
    if json.encoder.c_make_encoder is None:
        pytest.skip("no C encoder in this interpreter")
    assert not hasattr(dumps, "__self__") and not hasattr(canonical_json, "__self__")


def outcome(read, text):
    """The value `read` gives for `text`, as its repr (so -0.0 is not
    0.0), or the type and text of its error."""
    try:
        return repr(read(text))
    except ValueError as exc:
        return type(exc), str(exc)


# Whitespace JSON skips, and characters Python calls space but JSON does not.
SPACE = st.text(st.sampled_from(" \t\n\r\x0c\xa0\u2028"), max_size=3)
DEEP = 100_000  # past the decoder's nesting limit on every interpreter


@given(
    value=CODEC_JSON,
    indent=st.sampled_from([None, 0, 2]),
    lead=SPACE,
    bom=st.booleans(),
    trail=SPACE | st.sampled_from(["1", " x", "]", "}", ",", "[", '"', " NaN"]),
    cut=st.integers(0, 8),
)
@example(value=[1], indent=None, lead="", bom=False, trail="", cut=0)
@settings(max_examples=500, deadline=None)
def test_loads_reads_what_the_decoder_read(value, indent, lead, bom, trail, cut):
    """The same value, or the same error type and text: over whole values,
    surrounding whitespace, a byte-order mark, NaN and infinities, extra
    data and cut tails."""
    text = "\ufeff" * bom + lead + json.dumps(value, indent=indent) + trail
    text = text[: len(text) - cut]
    assert outcome(loads, text) == outcome(decoder_first_loads, text)


@pytest.mark.parametrize("text", [
    "[" * DEEP,
    "[" * DEEP + "]" * DEEP,
    '{"a": ' * DEEP + "1" + "}" * DEEP,
    " " + "[" * DEEP,
    "[" * DEEP + "]" * DEEP + " x",
    "\ufeff" + "[" * DEEP,
    "", " ", "\ufeff", "\ufeff1", "NaN", "-Infinity", "[1, NaN]", "1 2", "[1,]",
], ids=lambda text: text[:12])
def test_loads_reads_these_as_the_decoder_read_them(text):
    assert outcome(loads, text) == outcome(decoder_first_loads, text)


# ---- differential: the reader against the hand-written checks ----

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 60)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

MISSING = object()

MEMORY = {"task_description": "put the mug away", "believed_status": "failed",
          "action_summary": "dropped it"}

# Besides any JSON value, each field draws its value in a valid line, no
# value at all, and these values near the edges of its checks, so that
# both readers also accept, and reject for reasons other than a type.
NEAR = {
    "name": ["", "t1"],
    "tasks": [["t1", "t2"], ["t2"], ["t2", "t1"], ["t9"], [], [5, "t1"]],
    "memory_sizes": [[0, 1, 2, 3], [0, 0], [4], [1.0], [False], None],
    "trials": [0, 1, 2, 2.0, True],
    "parallelism": [0, 1, 4],
    "max_tool_calls": [0, 1, 50],
    "seed": [None, 0, -1, True],
    "initial_memories": [[], [MEMORY], [{**MEMORY, "action_summary": 5}], [5], "", {}],
    "index": [0, 7, -1, 7.0, False],
    "tool_calls": [[], [{"id": "c", "name": "n", "arguments": {}}],
                   [{"id": "c", "name": "n"}], [5]],
    "tool_result": [None, {}, {"call_id": "c"}],
    "believed_status": [None, "succeeded"],
    "memory_enabled": [True, False, 0],
    "memory_count": [None, 0, 3, -1, 3.0, True],
    "memory_next_seq": [None, 1, 7, "7", False],
}


@cache
def transcript_lines() -> dict[str, list[dict]]:
    """The lines of a t1 run from a store that holds one memory, by type;
    the run never searches, so its header counts the memory but does not
    list it."""
    scenario = ScenarioTemplate.load()
    world = WorldState.from_dict(scenario.initial_world)
    handles = MemoryHandles(Scratchpad(), seed_store([MEMORY]), "m")
    header = task_header(scenario, TASKS["t1"], "m", 9, True, handles.store, world)
    backend = ScriptedBackend(SCRIPTS["optimal"]["t1"])
    _, transcript = execute_task(world, handles, backend, header, DEFAULT_MAX_TOOL_CALLS)
    messages = [message.to_dict() for message in transcript.messages]
    return {
        "header": [transcript.header.to_dict()],
        "message": [
            messages[0],
            next(m for m in messages if m.get("tool_calls")),
            next(m for m in messages if m.get("tool_result")),
        ],
        "final": [transcript.final.to_dict()],
    }


def outcome(read, data):
    try:
        return True, read(data)
    except (KeyError, TypeError, ValueError) as exc:
        return False, str(exc)


def edit(draw, cls, base):
    """`base` with one of its class's fields set to a drawn JSON value, or
    left out; returns the field's name, its value, and the edited dict."""
    name = draw(st.sampled_from(list(cls.__dataclass_fields__)))
    value = draw(
        st.just(base.get(name, MISSING))
        | st.sampled_from([MISSING, *NEAR.get(name, [])])
        | JSON
    )
    data = {key: item for key, item in base.items() if key != name}
    if value is not MISSING:
        data[name] = value
    return name, value, data


def reworded(name, value):
    """The text the reader now gives where the hand-written checks gave
    another, or None where both give the same text."""
    if value is MISSING:
        return None
    if name in ("role", "content") and not isinstance(value, str):
        return f"{name} must be a string: {value!r}"
    if name == "tool_result" and value is not None and not isinstance(value, dict):
        return f"tool_result must be an object or null: {value!r}"
    if name == "tasks" and isinstance(value, list) and not all(
        isinstance(task, str) for task in value
    ):
        return f"plan field 'tasks' has the wrong type: {value!r}"
    return None


def check_same(new, old, name, value, data):
    (new_ok, new_result), (old_ok, old_result) = outcome(new, data), outcome(old, data)
    assert new_ok == old_ok, (new_result, old_result)
    if new_ok:
        assert new_result == old_result
    else:
        assert new_result == (reworded(name, value) or old_result)


TRANSCRIPT_READERS = {
    "header": (TranscriptHeader, hand_checked_header),
    "message": (TranscriptMessage, hand_checked_message),
    "final": (TranscriptFinal, hand_checked_final),
}


@pytest.mark.parametrize("kind", TRANSCRIPT_READERS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_transcript_lines_read_as_the_hand_checks_read_them(kind, data):
    cls, old = TRANSCRIPT_READERS[kind]
    base = data.draw(st.sampled_from(transcript_lines()[kind]))
    name, value, line = edit(data.draw, cls, base)
    check_same(cls.from_dict, old, name, value, line)


PLAN = {"name": "p", "tasks": ["t1"], "backend": "scripted:optimal"}


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_plans_read_as_the_hand_checks_read_them(data):
    name, value, plan = edit(data.draw, ExperimentPlan, PLAN)
    check_same(ExperimentPlan.from_dict, hand_checked_plan, name, value, plan)


def test_every_transcript_line_shape_is_read_alike():
    for kind, (cls, old) in TRANSCRIPT_READERS.items():
        for line in transcript_lines()[kind]:
            assert cls.from_dict(json.loads(json.dumps(line))) == old(line)
