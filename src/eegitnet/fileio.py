"""Low-level helpers shared by the file formats.

Binary values are little-endian; strings are u16 length + UTF-8.  Text
configs (CLI config files, the model sidecar) are flat ``key=value`` lines.
"""
from __future__ import annotations

import os
import struct

from .errors import FormatError


def atomic_write(path, payload: bytes):
    """Write the whole payload to a sibling temp file, then rename over
    ``path`` so readers never observe a half-written file."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(payload)
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


def pack_string(s):
    b = s.encode("utf-8")
    if len(b) > 0xFFFF:
        raise ValueError(f"string too long to encode: {s[:40]!r}...")
    return struct.pack("<H", len(b)) + b


def read_string(f, what):
    n, = struct.unpack("<H", read_exact(f, 2, f"{what} length"))
    return read_exact(f, n, what).decode("utf-8")


def read_key_values(path):
    """Flat ``key=value`` file -> dict in file order; blank lines and ``#``
    comments are skipped.  Raises ``OSError`` when the file cannot be read
    and ``ValueError`` naming ``path:line`` for a line without ``=`` or a
    repeated key."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.readlines()
    items = {}
    for ln, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{ln}: expected key=value, got {line!r}")
        key = key.strip()
        if key in items:
            raise ValueError(f"{path}:{ln}: duplicate key {key!r}")
        items[key] = value.strip()
    return items
