"""Small file-handling helpers: atomic writes, exact float JSON, and a
strict JSON reader."""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

import numpy as np

from .errors import DataFormatError


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    Readers never observe a partially written file; on failure the
    original file, if any, is left untouched.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def dump_json(obj: Any, indent: int | None = 2) -> str:
    """Serialize to JSON with full float precision.

    Python's ``repr`` emits the shortest decimal string that round-trips
    to the same double, so floats survive save/load bit-exactly.
    """
    return json.dumps(obj, indent=indent, allow_nan=False)


def atomic_write_json(path: str, obj: Any, indent: int | None = 2) -> None:
    atomic_write_text(path, dump_json(obj, indent=indent) + "\n")


class _Constant(str):
    """A ``NaN``, ``Infinity`` or ``-Infinity`` token (Python's extension, not JSON), as parsed."""


def _first_constant(node, field: str) -> str | None:
    """``"<field> holds <token>"`` for the first :class:`_Constant` under ``node``."""
    if isinstance(node, _Constant):
        return f"{field or 'the document'} holds {node}"
    if isinstance(node, dict):
        children = ((f"{field}.{key}" if field else key, v) for key, v in node.items())
    elif isinstance(node, list):
        children = ((f"{field}[{i}]", v) for i, v in enumerate(node))
    else:
        return None
    for name, child in children:
        found = _first_constant(child, name)
        if found:
            return found
    return None


def read_json(path: str, what: str) -> Any:
    """Parse the JSON file at ``path`` (a ``what``, for messages).

    Every failure raises :class:`DataFormatError` naming ``path``. The
    parser marks ``NaN`` and ``Infinity`` tokens instead of turning them
    into floats, and any such token is rejected with the field that
    holds the first one. A number too large for a double, such as
    ``1e400``, still parses to ``inf``; the caller's value checks have
    to catch it.
    """
    constants: list[str] = []

    def mark(token: str) -> _Constant:
        constants.append(token)
        return _Constant(token)

    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f, parse_constant=mark)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataFormatError(f"cannot read {what} {path}: {e}") from None
    if constants:
        raise DataFormatError(f"{path}: {_first_constant(doc, '')}, which is not a finite number")
    return doc


def int_field(value, path: str, field: str) -> int:
    """``int(value)`` for the document field ``field`` of ``path``; bad values raise :class:`DataFormatError`."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise DataFormatError(f"{path}: {field} must be an integer, got {value!r}") from None


def array_field(value, path: str, field: str) -> np.ndarray:
    """``value`` as a float64 array for the document field ``field`` of ``path``.

    Values numpy cannot convert, such as a 400-digit integer, raise
    :class:`DataFormatError` naming the field.
    """
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as e:
        raise DataFormatError(f"{path}: {field} must be an array of numbers: {e}") from None
