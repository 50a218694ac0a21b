"""Checks shared by every loader of user-supplied files (SLAM splits, label
keys, country mappings, and the JSON of configs, models and manifests), so a
bad file ends in one DataError naming what is wrong.

This module also owns the one JSON layout every file the tool writes has
(model files, manifests, and the ``evaluate`` and ``audit`` reports): sorted
keys, two-space indent, ASCII escapes and a final newline, written by
``write_json``. And it owns the model-file envelope both learners share: one
JSON object holding ``kind``, ``format_version``, ``config`` and ``vocab``
next to the kind's own parameters, written by ``write_model_file`` and
checked by ``read_model_file``."""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, fields
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Iterator, TextIO

from .errors import DataError


@contextmanager
def open_text(path: str | Path, what: str) -> Iterator[TextIO]:
    """Open a UTF-8 text file for reading. Bytes that are not UTF-8, met
    anywhere while the ``with`` body reads, end in a DataError naming the
    file; ``what`` names its role ("SLAM file", "label key", ...)."""
    with Path(path).open("r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"cannot read {what} {path}: not UTF-8 text ({exc.reason})") from None


def read_json_text(path: str | Path, what: str) -> tuple[str, dict]:
    """The text of a JSON file that must hold an object, and that object;
    ``what`` names the file's role ("model file", "manifest file", ...) in
    error messages. JSON nested deeper than the parser's recursion limit is
    an error like any other unreadable file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        payload = json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{what} {path} must hold a JSON object")
    return text, payload


def read_json_object(path: str | Path, what: str) -> dict:
    """Parse a JSON file that must hold an object (see ``read_json_text``)."""
    return read_json_text(path, what)[1]


def require_keys(payload: dict, keys, source: str) -> None:
    """Raise a DataError naming every key of ``keys`` absent from ``payload``."""
    missing = [key for key in keys if key not in payload]
    if missing:
        raise DataError(f"{source} lacks {', '.join(missing)}")


def number(value, source: str) -> float:
    """``value`` as a float; raises a DataError naming ``source`` unless it
    is an int or float (not a bool) that a float can hold."""
    if type(value) not in (int, float):
        raise DataError(f"{source} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DataError(f"{source} is out of range") from None


def check_format_version(payload: dict, version: int, what: str) -> None:
    """Raise a DataError unless ``payload``'s ``format_version`` is the int
    ``version`` (not a bool, float or string equal to it); ``what`` names
    the format ("model", "vocabulary", "manifest")."""
    v = payload.get("format_version")
    if not (type(v) is int and v == version):
        raise DataError(f"unsupported {what} format version {v!r}")


def config_from(cls, payload, source: str):
    """Build a config dataclass from a JSON payload, naming any bad key.

    ``source`` says where the payload came from ("config file x.json",
    "the config in model file m.json"). Ints are accepted for float fields;
    bools are accepted for none.
    """
    if not isinstance(payload, dict):
        raise DataError(f"{source} must hold a JSON object")
    expected = {f.name: type(f.default) for f in fields(cls)}
    for key, value in payload.items():
        if key not in expected:
            raise DataError(
                f"unknown key {key!r} in {source}; "
                f"{cls.__name__} takes {', '.join(expected)}"
            )
        allowed = (int, float) if expected[key] is float else expected[key]
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise DataError(
                f"config key {key!r} in {source} must be {expected[key].__name__}, "
                f"got {value!r}"
            )
    return cls(**payload)


def json_text(value, indent: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, with each flat list
    of only floats or only ints (not bools), and each list of [x, y] float
    pairs, formatted in one join; dict keys must be str."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, float):
        text = float.__repr__(value)
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text)
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (f"{inner}{_json_str(k)}: {json_text(v, inner)}" for k, v in sorted(value.items()))
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        return "[]"
    kind = type(value[0])
    if (kind is float or kind is int) and all(type(v) is kind for v in value):
        text = f",\n{inner}".join(map(kind.__repr__, value))
        if kind is int or "n" not in text:  # else a NaN or infinity, spelled otherwise in JSON
            return f"[\n{inner}{text}\n{indent}]"
    if all(type(v) is list and len(v) == 2 and type(v[0]) is type(v[1]) is float for v in value):
        step = "\n" + inner + "  "
        text = ",\n".join(f"{inner}[{step}{x!r},{step}{y!r}\n{inner}]" for x, y in value)
        if "n" not in text:  # else a NaN or infinity, spelled otherwise in JSON
            return "[\n" + text + f"\n{indent}]"
    return "[\n" + ",\n".join(inner + json_text(v, inner) for v in value) + f"\n{indent}]"


def write_json(payload: dict, path: str | Path) -> str:
    """Write ``payload`` as the one JSON layout of every file the tool
    writes (``json_text`` and a final newline) and return that text."""
    text = json_text(payload) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    return text


def write_model_file(path: str | Path, kind: str, version: int, config, vocab,
                     params: dict) -> str:
    """Write a model file, ``{format_version, kind, config, vocab, **params}``
    (see ``write_json``), and return its text. ``config`` is a config
    dataclass and ``vocab`` a ``features.Vocabulary``."""
    payload = {"format_version": version, "kind": kind, "config": asdict(config),
               "vocab": vocab.to_dict(), **params}
    return write_json(payload, path)


def read_model_file(path: str | Path, payload: dict | None, kind: str, version: int,
                    keys, config_cls) -> tuple[dict, object]:
    """Check the envelope of a model file of ``kind``: its kind, its format
    version and every key of ``keys``, and parse its config as a
    ``config_cls``. Returns the file's JSON object and that config.
    ``payload``, when given, is the object as the caller already parsed it,
    and the file is not read again."""
    if payload is None:
        payload = read_json_object(path, "model file")
    if payload.get("kind") != kind:
        raise DataError(f"not a {kind} model file: {path}")
    check_format_version(payload, version, "model")
    where = f"model file {path}"
    require_keys(payload, keys, where)
    return payload, config_from(config_cls, payload["config"], f"the config in {where}")
