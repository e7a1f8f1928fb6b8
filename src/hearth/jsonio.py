"""JSON's one codec, and whole-file output: `loads` decodes JSON for
every reader, and `dumps` and `canonical_json` encode every line and
frame hearth writes, with sorted keys; `read_json_object` reads plan,
scenario, baseline and `http:` backend config files; `from_json` builds
plans, backend configs, transcript lines and a world's parts, checking
each value against its field's annotation; `read_field` checks one value
the same way, and `read_object` that a value is an object.
`replace_file` writes transcripts, baselines, `trials.jsonl` and the
metrics files.

Both encoders are built once, at import. `json.dumps` builds an encoder
on every call, and hearth writes a line or a frame for every message,
trial, store record and tool call.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import types
import typing
from functools import cache
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable

# A scalar annotation: the types of the JSON values it takes, and what it
# is called.
_SCALARS = {
    str: ((str,), "a string", "strings"),
    int: ((int,), "an integer", "integers"),
    float: ((int, float), "a number", "numbers"),
    bool: ((bool,), "a boolean", "booleans"),
}


class FieldError(ValueError):
    """A JSON value that its field's annotation does not take."""

    def __init__(self, name: str, kind: str, value: Any) -> None:
        super().__init__(f"{name} must be {kind}: {value!r}")
        self.name, self.value = name, value


def _refuse_constant(name: str) -> Any:
    raise ValueError(f"{name} is not a JSON value")


_decoder = json.JSONDecoder(parse_constant=_refuse_constant)
_scan_once = _decoder.scan_once


def loads(text: str) -> Any:
    """The JSON value that is all of `text`, as `json.loads` reads it, but
    a ValueError for what is not JSON: `NaN`, `Infinity` and `-Infinity`,
    and nesting too deep for the decoder. A syntax error is a
    json.JSONDecodeError (a ValueError), with `json.loads`'s text."""
    # The scanner alone reads a value that starts the text and is followed
    # by nothing but JSON whitespace, as the decoder would. Any other text
    # (leading whitespace, a byte-order mark, extra data, no value) goes
    # to the decoder, for its value or its error.
    try:
        value, end = _scan_once(text, 0)
    except StopIteration:
        pass
    except RecursionError:
        raise ValueError("nesting too deep") from None
    else:
        if end == len(text) or not text[end:].strip(" \t\n\r"):
            return value
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        return _decoder.decode(text)
    except RecursionError:
        raise ValueError("nesting too deep") from None


_json_default = json.JSONEncoder().default


def _sorted_encoder(
    item_separator: str, key_separator: str, make: Any = c_make_encoder
) -> Callable[[Any], str]:
    """A function that encodes a value as `json.dumps(value,
    sort_keys=True, separators=(item_separator, key_separator))` does. It
    calls the encoder `make`, the interpreter's C encoder factory, built
    once; where there is none, or it cannot be built, it is one shared
    JSONEncoder's `encode`. The C encoder keeps no circular-reference
    markers: no value hearth encodes refers to itself, so a call leaves
    no state behind, and threads may share the encoder."""
    if make is not None:
        try:
            encode = make(
                None, _json_default, encode_basestring_ascii, None,
                key_separator, item_separator, True, False, True,
            )
        except TypeError:
            pass  # another interpreter's signature: the shared encoder below
        else:
            return lambda value: "".join(encode(value, 0))
    encoder = json.JSONEncoder(sort_keys=True, separators=(item_separator, key_separator))
    return encoder.encode


# `json.dumps(value, sort_keys=True)`: transcript, store and
# `trials.jsonl` lines, and RPC frames.
dumps = _sorted_encoder(", ", ": ")

# `json.dumps(value, sort_keys=True, separators=(",", ":"))`: the world's
# bit-exact serialization, which baselines, snapshot comparisons and the
# scenario hash use.
canonical_json = _sorted_encoder(",", ":")


def read_json_object(path: str, what: str) -> dict[str, Any]:
    """The JSON object in the file at `path`; `what` names the file."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        data = loads(text)
    except ValueError as exc:
        raise ValueError(f"invalid JSON in {what} '{path}': {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object: '{path}'")
    return data


def replace_file(path: str, text: str) -> None:
    """Make `text` the whole of the file at `path`: it is written to a
    temporary file beside `path`, which then replaces it, so a reader
    finds the old file or the new one, never a torn one. On an error the
    temporary file is removed and the old file stays as it was."""
    # Unique among live writers: a thread writes one file at a time.
    temporary = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temporary, path)
    except BaseException:
        if os.path.exists(temporary):
            os.unlink(temporary)
        raise


def from_json(cls: type, data: dict[str, Any]) -> Any:
    """The dataclass `cls` built from the keys of `data` that name its
    fields. A field left out takes its default, or is a KeyError without
    one; a value its annotation does not take is a FieldError. A bool is
    not a number, and an int is a float."""
    values = {}
    for name, read, kind, required in _fields(cls):
        if name in data:
            try:
                values[name] = read(data[name])
            except TypeError:
                raise FieldError(name, kind, data[name]) from None
        elif required:
            raise KeyError(name)
    return cls(**values)


def read_object(value: Any, name: str) -> dict[str, Any]:
    """`value`, or a FieldError naming it when it is not an object."""
    if not isinstance(value, dict):
        raise FieldError(name, "an object", value)
    return value


def read_field(data: dict[str, Any], name: str, hint: Any) -> Any:
    """`data[name]`, read as `from_json` reads a field annotated `hint`:
    a KeyError when it is missing, a FieldError when `hint` does not
    take it."""
    value = data[name]
    if type(value) is hint:  # a scalar of exactly its type: the common case
        return value
    read, kind, _ = _reader(hint)
    try:
        return read(value)
    except TypeError:
        raise FieldError(name, kind, value) from None


@cache
def _fields(cls: type) -> list[tuple[str, Callable[[Any], Any], str, bool]]:
    hints = typing.get_type_hints(cls)
    return [
        (f.name, *_reader(hints[f.name])[:2],
         f.default is f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
    ]


@cache
def _reader(hint: Any) -> tuple[Callable[[Any], Any], str, str]:
    """(read, kind, kinds) for an annotation: `read` returns a value as
    its field holds it (a list made a tuple where the annotation says
    so) or raises TypeError; `kind` names what it takes, `kinds` is the
    plural, and both are empty for Any."""
    if hint is Any:
        return (lambda value: value), "", ""
    if hint in _SCALARS:
        json_types, kind, kinds = _SCALARS[hint]

        def read_scalar(value: Any) -> Any:
            if type(value) not in json_types:  # a bool is an int subclass
                raise TypeError
            return value

        return read_scalar, kind, kinds
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType) and args[1:] == (type(None),):
        inner, kind, kinds = _reader(args[0])
        read = lambda value: value if value is None else inner(value)  # noqa: E731
        return read, f"{kind} or null", f"{kinds} or nulls"
    if args[:1] == (str,) and origin is dict or origin is list or args[1:] == (...,):
        inner, _, kinds = _reader(args[-1] if origin is dict else args[0])
        of = f" of {kinds}" if kinds else ""

        def read_container(value: Any) -> Any:
            if not isinstance(value, dict if origin is dict else list):
                raise TypeError
            if origin is dict:
                return {key: inner(item) for key, item in value.items()} if kinds else value
            return origin(map(inner, value)) if kinds or origin is tuple else value

        if origin is dict:
            return read_container, f"an object{of}", f"objects{of}"
        return read_container, f"a list{of}", f"lists{of}"
    raise TypeError(f"no JSON reading for the annotation {hint!r}")
