"""The typed JSON reader every JSON input of the package is checked
through: manifests, grid configurations, RSR sweeps and plane sidecars;
and the one writer of its JSON outputs.

A value of the wrong JSON kind is a :class:`ManifestError` that names the
file and the key, never a ``TypeError`` from deep inside a consumer.
"""

from __future__ import annotations

import json
import reprlib
from pathlib import Path

from .errors import ManifestError

_REQUIRED = object()

#: Python types accepted for each JSON kind, and the kind's name in messages.
_JSON_KINDS = {dict: (dict, "a JSON object"), list: (list, "a list"),
               str: (str, "a string"), int: ((int, float), "an integer"),
               float: ((int, float), "a number")}


def json_value(value, kind, where: str):
    """``value`` checked against a JSON ``kind``; ``where`` names it.

    ``kind`` is ``dict``, ``list``, ``str``, ``int`` or ``float``, or a
    one-element list such as ``[float]`` for a list of that kind.  A bool
    is neither an integer nor a number, and an integer must be integral
    (``2.0`` passes as 2, ``2.5`` fails).  Numbers come back as ``float``
    and integers as ``int``; anything else is a :class:`ManifestError`
    reading ``"<where> must be <kind>, got <value>"``.
    """
    if isinstance(kind, list):
        return [json_value(item, kind[0], f"{where}[{i}]")
                for i, item in enumerate(json_value(value, list, where))]
    accepted, name = _JSON_KINDS[kind]
    if isinstance(value, accepted) and not isinstance(value, bool) and (
            kind is not int or isinstance(value, int) or value.is_integer()):
        try:
            return kind(value) if kind in (int, float) else value
        except OverflowError:  # an integer literal beyond float range
            pass
    raise ManifestError(f"{where} must be {name}, got {reprlib.repr(value)}")


def json_field(mapping: dict, key: str, kind, context: str, default=_REQUIRED):
    """``mapping[key]`` checked by :func:`json_value` as ``context: 'key'``.

    With a ``default`` the key is optional: absent or null, it reads as the
    default.  Without one, a missing key is a :class:`ManifestError`.
    """
    value = mapping.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if key not in mapping:
        raise ManifestError(f"{context}: missing required key {key!r}")
    return json_value(value, kind, f"{context}: {key!r}")


def read_json(path) -> dict:
    """The JSON object in the file at ``path``.

    A file that cannot be read, is not UTF-8 JSON, or holds anything but
    an object at its root is a :class:`ManifestError` naming the file.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ManifestError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also bad UTF-8 and over-long integers
        raise ManifestError(f"{path}: not valid JSON: {exc}") from exc
    return json_value(raw, dict, str(path))


def write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` as UTF-8 JSON with sorted keys, an
    indent of 2 and a closing newline, so equal payloads are equal bytes."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
