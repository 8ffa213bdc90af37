"""Low-level helpers shared by the file formats.

Binary values are little-endian; strings are u16 length + UTF-8.  Text
configs (CLI config files, the model sidecar) are flat ``key=value`` lines
whose keys and value types are the fields of a config dataclass; tables
are CSV.  Both write floats by ``repr`` so they read back exactly.
"""
from __future__ import annotations

import os
import struct
import typing
from dataclasses import MISSING, fields

import numpy as np

from .errors import FormatError


def atomic_write(path, *parts):
    """Write the parts in order to a sibling temp file, then rename over
    ``path`` so readers never observe a half-written file.  Each part is a
    bytes-like object; a C-contiguous numpy array is written from its own
    buffer, without a bytes copy."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            for part in parts:
                f.write(part)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_exact(f, n, what):
    data = f.read(n)
    if len(data) != n:
        raise FormatError("truncated", f"file ends inside {what}")
    return data


def read_into(f, out, what):
    """Fill the C-contiguous array ``out`` with the next bytes of ``f``,
    read straight into its buffer."""
    view = memoryview(out.reshape(-1).view(np.uint8))
    done = 0
    while done < len(view):
        n = f.readinto(view[done:])
        if not n:
            raise FormatError("truncated", f"file ends inside {what}")
        done += n


def pack_string(s):
    b = s.encode("utf-8")
    if len(b) > 0xFFFF:
        raise ValueError(f"string too long to encode: {s[:40]!r}...")
    return struct.pack("<H", len(b)) + b


def decode_utf8(raw, what):
    """``raw`` as UTF-8 text; ``FormatError("bad_value")`` when it is not."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError("bad_value", f"{what} is not UTF-8") from None


def read_string(f, what):
    n, = struct.unpack("<H", read_exact(f, 2, f"{what} length"))
    return decode_utf8(read_exact(f, n, what), what)


def read_text_lines(path):
    """``(line number, stripped text)`` of each non-blank line of a text
    file.  Raises ``OSError`` when the file cannot be read and
    ``ValueError`` naming ``path:line`` for a line that is not UTF-8."""
    with open(path, "rb") as f:
        lines = f.read().splitlines()
    for ln, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise ValueError(f"{path}:{ln}: not UTF-8 text") from None
        if line:
            yield ln, line


def read_key_values(path):
    """Flat ``key=value`` file -> dict in file order; blank lines and ``#``
    comments are skipped.  Raises what :func:`read_text_lines` raises, and
    ``ValueError`` naming ``path:line`` for a line that has no ``=`` or
    repeats a key."""
    items = {}
    for ln, line in read_text_lines(path):
        if line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{ln}: expected key=value, got {line!r}")
        key = key.strip()
        if key in items:
            raise ValueError(f"{path}:{ln}: duplicate key {key!r}")
        items[key] = value.strip()
    return items


def format_value(value):
    """Text of one value or CSV cell: empty for ``None``, ``repr`` of the
    Python float for floats (a numpy scalar never prints as
    ``np.float64(...)``), ``str`` otherwise."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def key_value_text(items):
    return "".join(f"{key}={format_value(value)}\n" for key, value in items.items())


def csv_text(header, rows):
    lines = [",".join(header)]
    lines += [",".join(format_value(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def config_items(config, prefix=""):
    """``{prefix + field name: text}`` for every field of a config
    dataclass, in field order.  A field whose metadata holds a ``format``
    function is written with it."""
    return {prefix + f.name: f.metadata.get("format", format_value)(getattr(config, f.name))
            for f in fields(config)}


def parse_config_items(cls, items, label, skip=()):
    """Typed values for ``{key: text}`` items naming fields of the config
    dataclass ``cls``; each field parses with its metadata ``parse``
    function or its annotated type.  ``skip`` names fields that are not
    keys.  Raises ``ValueError`` for unknown keys, a bad value, or a
    missing field that has no default."""
    known = {f.name: f for f in fields(cls) if f.name not in skip}
    unknown = sorted(set(items) - set(known))
    if unknown:
        raise ValueError(f"unknown {label} keys: {', '.join(unknown)}")
    types = typing.get_type_hints(cls)
    values = {}
    for key, raw in items.items():
        try:
            values[key] = known[key].metadata.get("parse", types[key])(raw)
        except ValueError:
            raise ValueError(f"{label} key {key}: bad value {raw!r}") from None
    for name, f in known.items():
        if name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{label} config is missing {name}")
    return values
