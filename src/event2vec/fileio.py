"""Small file-handling helpers: atomic writes, JSON with exact floats, a
strict JSON reader, and the array encoding of model and train-state
documents.

An array inside such a document is one JSON object,
``{"dtype": "<f8", "shape": [...], "b64": "..."}``: the raw little-endian
float64 bytes in C order, base64-encoded. It is exact by construction
and about half the size of decimal text. Schema version 1 documents
hold nested lists of numbers instead; :func:`array_field` reads both.

:func:`write_array_document` writes such a document. Its bytes are
those of ``json.dumps(doc) + "\n"``, but it copies each base64 payload
into the output as is: the base64 alphabet holds no character that a
JSON string escapes, so the JSON encoder's scan of megabytes of payload
text finds nothing to do.

Every file is written by :func:`atomic_write_text`, which gives it the
mode a plain ``open`` would (``0o666`` less the umask).
"""

from __future__ import annotations

import base64
import json
import math
import os
from typing import Any

import numpy as np

from .errors import DataFormatError


def atomic_write_text(path: str, *parts: str) -> None:
    """Write the text ``parts`` to ``path`` in turn, atomically (temp file + rename).

    Parts are encoded one at a time, never joined. Readers never observe a
    partially written file; on failure the original file, if any, is left
    untouched. The temp file, and so the file at ``path``, is created with
    mode ``0o666`` less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    # 64 random bits name the temp file; O_EXCL makes a clash an error, never a shared file.
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.writelines(parts)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def dump_json(obj: Any) -> str:
    """Serialize to indented JSON with full float precision; ``NaN`` and ``Infinity`` raise.

    Python's ``repr`` emits the shortest decimal string that round-trips
    to the same double, so the floats left as JSON numbers (reports,
    graphs, document metadata) survive save/load bit-exactly. Model and
    Adam arrays are not numbers here: :func:`encode_array` stores them
    as raw bytes.
    """
    return json.dumps(obj, indent=2, allow_nan=False)


def atomic_write_json(path: str, obj: Any) -> None:
    atomic_write_text(path, dump_json(obj) + "\n")


class _EncodedArray(dict):
    """What :func:`encode_array` returns. Its ``"b64"`` payload is base64 text, which JSON writes without escapes."""


def _append_json(node, parts: list[str]) -> None:
    """Append the text of ``json.dumps(node)`` to ``parts``, in pieces.

    Dicts (string keys only, as in every document) are walked here, and
    the payload of an :class:`_EncodedArray` goes in between quotes
    unchanged; every other value is encoded by ``json.dumps``, which
    refuses ``NaN`` and ``Infinity``.
    """
    if isinstance(node, dict):
        encoded = type(node) is _EncodedArray
        sep = "{"
        for key, value in node.items():
            parts.append(f"{sep}{json.dumps(key)}: ")
            if encoded and key == "b64":
                parts += ('"', value, '"')
            else:
                _append_json(value, parts)
            sep = ", "
        parts.append("{}" if sep == "{" else "}")
    else:
        parts.append(json.dumps(node, allow_nan=False))


def write_array_document(path: str, doc: dict) -> None:
    """Write a checkpoint or train-state document ``doc`` to ``path`` atomically.

    The file holds exactly ``json.dumps(doc) + "\n"``; only the base64
    payloads skip the JSON string encoder (see the module docstring).
    """
    parts: list[str] = []
    _append_json(doc, parts)
    parts.append("\n")
    atomic_write_text(path, *parts)


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
    """``value``, the document field ``field`` of ``path``, if it is a JSON integer.

    Anything else raises :class:`DataFormatError`: ``3.0`` and ``true``
    equal integers in Python but are not integers in the document.
    """
    if type(value) is not int:
        raise DataFormatError(f"{path}: {field} must be an integer, got {value!r}")
    return value


SCHEMA_VERSION = 2
# Version 1 held each array as nested lists of numbers; it still loads.
READABLE_SCHEMA_VERSIONS = (1, 2)


def check_schema_version(doc, path: str, what: str) -> None:
    """Raise :class:`DataFormatError` unless ``doc`` is an object with a readable ``schema_version``.

    The version must be a JSON integer: ``true`` and ``1.0`` equal 1 in Python but are not versions.
    """
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if type(version) is not int or version not in READABLE_SCHEMA_VERSIONS:
        raise DataFormatError(f"{path}: unsupported {what} document (schema_version {version!r})")


ARRAY_DTYPE = "<f8"
_ARRAY_KEYS = {"dtype", "shape", "b64"}


def encode_array(arr: np.ndarray, field: str) -> dict:
    """The document form of ``arr`` (see the module docstring); it reads back bit-exactly.

    A non-finite value raises ``ValueError`` naming ``field``, so no
    file holding one is written. The result is an :class:`_EncodedArray`,
    whose payload :func:`write_array_document` copies into the file unescaped.
    """
    a = np.ascontiguousarray(arr, dtype=ARRAY_DTYPE)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"cannot write {field}: it holds non-finite values")
    # b64encode reads the array's buffer directly, without a tobytes() copy.
    return _EncodedArray(dtype=ARRAY_DTYPE, shape=list(a.shape), b64=base64.b64encode(a).decode("ascii"))


def _decode_array(value: dict) -> np.ndarray:
    if set(value) != _ARRAY_KEYS:
        raise ValueError(f"an encoded array holds exactly the keys dtype, shape and b64, got {sorted(value)}")
    if value["dtype"] != ARRAY_DTYPE:
        raise ValueError(f"dtype must be {ARRAY_DTYPE!r}, got {value['dtype']!r}")
    shape = value["shape"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise ValueError(f"shape must be a list of non-negative integers, got {shape!r}")
    raw = base64.b64decode(value["b64"], validate=True)
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{len(raw)} bytes do not hold a float64 array of shape {tuple(shape)}")
    # astype copies into a writable native-order array; training updates it in place.
    return np.frombuffer(raw, dtype=ARRAY_DTYPE).astype(np.float64).reshape(shape)


def array_field(value, path: str, field: str) -> np.ndarray:
    """``value`` as a float64 array for the document field ``field`` of ``path``.

    An object is decoded as :func:`encode_array` wrote it; anything else
    is the version 1 form, nested lists of numbers. A malformed
    encoding, or values numpy cannot convert (such as a 400-digit
    integer), raise :class:`DataFormatError` naming the field. The
    values themselves are the caller's to check.
    """
    try:
        if isinstance(value, dict):
            return _decode_array(value)
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as e:  # binascii.Error is a ValueError
        raise DataFormatError(f"{path}: {field} is not a valid float64 array: {e}") from None
