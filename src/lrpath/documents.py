"""JSON documents: how the package reads and writes them.

Plans, manifests, run configs and reports are JSON documents.  Every
loader reads its document through the readers here, and every writer
encodes it with `to_json`: one line per top-level key and per element of
a top-level list, a trailing newline, and sorted keys for every document
but a plan, whose keys keep their build order.
"""

from __future__ import annotations

import json
import os
import reprlib
from contextlib import contextmanager
from enum import Enum
from pathlib import Path
from typing import Optional

from .errors import SchemaMismatch


@contextmanager
def atomic_open(path, mode: str):
    """Open a file that replaces `path` whole when the block exits cleanly.

    The data goes to a temp file beside `path`, which `os.replace` moves
    into place; a block that raises removes it.  A process killed midway
    leaves `path` as it was (whole or absent), at worst with a stray temp
    file beside it.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def to_json(doc, sort_keys: bool) -> str:
    """`doc` as JSON text with a trailing newline.

    An object's keys, whose names are strings, go one per line, and a
    non-empty list under one of them goes one element per line, so a
    plan phase, a manifest record or a report entry is one line.  Every
    line is encoded without `indent`, which lets json's C encoder do the
    work; with `indent` the pure-Python encoder runs.  NaN and infinities
    raise ValueError: they are not JSON.
    """
    encode = json.JSONEncoder(sort_keys=sort_keys, allow_nan=False).encode
    if type(doc) is not dict or not doc:
        return encode(doc) + "\n"
    lines = []
    for key in sorted(doc) if sort_keys else doc:
        value = doc[key]
        if type(value) is list and value:
            items = ",\n    ".join(map(encode, value))
            lines.append(f"  {encode(key)}: [\n    {items}\n  ]")
        else:
            lines.append(f"  {encode(key)}: {encode(value)}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def write_json(path, doc) -> None:
    """Write `doc` with sorted keys, replacing `path` whole."""
    with atomic_open(path, "w") as fh:
        fh.write(to_json(doc, sort_keys=True))


def read_json(path, name: str):
    """The JSON value in the file `path`, the document `name`; raises
    SchemaMismatch for a file that is not UTF-8 or not JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaMismatch(f"{name} is not UTF-8: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
        raise SchemaMismatch(f"{name} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# readers
#
# A reader gets a value and where it sits: `at`, the document's name and
# then the keys and list indices that lead to the object or list holding
# it, and the value's own `key` (None for the document itself).  It
# returns the value or raises SchemaMismatch naming the path, e.g.
# "phases[3].lr.config.eta_max"; the path is joined and formatted only
# then, so reading a valid document formats nothing.

def schema_error(at: tuple, key, problem: str) -> SchemaMismatch:
    keys = at[1:] if key is None else at[1:] + (key,)
    path = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in keys)[1:]
    return SchemaMismatch(f"malformed {at[0]}: {path + ': ' if path else ''}{problem}")


def wrong_value(at: tuple, key, expected: str, value) -> SchemaMismatch:
    return schema_error(at, key, f"expected {expected}, got {reprlib.repr(value)}")


def json_int(value, at: tuple, key=None, minimum: Optional[int] = None) -> int:
    """A count: an int or an integral float such as 5e4, not true or "5"."""
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int or (minimum is not None and value < minimum):
        expected = "an integer" if minimum is None else f"an integer >= {minimum}"
        raise wrong_value(at, key, expected, value)
    return value


def json_float(value, at: tuple, key=None) -> float:
    """A JSON number, not true or "1e-5"."""
    if type(value) is not float and type(value) is not int:
        raise wrong_value(at, key, "a number", value)
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise wrong_value(at, key, "a number in the float range", value) from None


def json_bool(value, at: tuple, key=None) -> bool:
    if type(value) is not bool:
        raise wrong_value(at, key, "true or false", value)
    return value


def json_str(value, at: tuple, key=None, nullable: bool = False) -> Optional[str]:
    """A string, or with `nullable` also null."""
    if type(value) is not str and not (nullable and value is None):
        raise wrong_value(at, key, "a string", value)
    return value


def json_enum(value, at: tuple, key, cls: type[Enum]):
    """The member of a str-valued Enum that the value names."""
    member = cls._value2member_map_.get(value) if type(value) is str else None
    if member is None:
        raise wrong_value(at, key, "one of " + ", ".join(repr(m.value) for m in cls), value)
    return member


def json_list(value, at: tuple, key, item, length: Optional[int] = None) -> list:
    """A list, with `length` elements if given, each read by `item`."""
    if type(value) is not list or (length is not None and len(value) != length):
        raise wrong_value(at, key, "a list" if length is None else f"a list of {length}", value)
    at, out = at + (key,), []
    for i, v in enumerate(value):  # a loop: a comprehension costs a call in Python 3.11
        out.append(item(v, at, i))
    return out


_REQUIRED = object()


class JsonObject:
    """A JSON object whose keys are all in `keys` (any key if `keys` is
    None), read field by field.

    Each field method reads the field with the reader of its type.  A field
    is required unless the method is given a `default`, which it returns
    when the field is absent.
    """

    __slots__ = ("fields", "at")

    def __init__(self, value, at: tuple, key=None, keys: Optional[frozenset] = None):
        if type(value) is not dict:
            if key is None:
                raise SchemaMismatch(f"a {at[0]} is a JSON object, not {type(value).__name__}")
            raise wrong_value(at, key, "an object", value)
        self.fields, self.at = value, at if key is None else at + (key,)
        if keys is not None and not keys.issuperset(value):
            self.only(keys)

    def only(self, keys: frozenset) -> None:
        """Reject any key not in `keys`."""
        if not keys.issuperset(self.fields):
            unknown = ", ".join(repr(k) for k in self.fields if k not in keys)
            raise schema_error(self.at, None, f"unknown key(s) {unknown}")

    def version(self, expected: int, name: str) -> None:
        """Reject a document whose `format_version` is not `expected`."""
        version = self.fields.get("format_version")
        if version != expected:
            raise SchemaMismatch(f"unsupported {name} format_version {version!r}")

    def _field(self, key: str, default, reader, *args):
        if key in self.fields:
            return reader(self.fields[key], self.at, key, *args)
        if default is _REQUIRED:
            raise schema_error(self.at, None, f"missing key {key!r}")
        return default

    def int(self, key: str, default=_REQUIRED, minimum: Optional[int] = None):
        return self._field(key, default, json_int, minimum)

    def float(self, key: str, default=_REQUIRED):
        return self._field(key, default, json_float)

    def bool(self, key: str, default=_REQUIRED):
        return self._field(key, default, json_bool)

    def str(self, key: str, default=_REQUIRED, nullable: bool = False):
        return self._field(key, default, json_str, nullable)

    def enum(self, key: str, cls: type[Enum], default=_REQUIRED):
        return self._field(key, default, json_enum, cls)

    def list(self, key: str, item, length: Optional[int] = None, default=_REQUIRED):
        return self._field(key, default, json_list, item, length)

    def object(self, key: str, loader, default=_REQUIRED):
        """The field read by `loader(value, at, key)`: an object's loader, or
        a reader of its own for a value of another type."""
        return self._field(key, default, loader)
