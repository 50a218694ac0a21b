"""Checks shared by every loader of user-supplied files (SLAM splits, label
keys, country mappings, and the JSON of configs, models and manifests), so a
bad file ends in one DataError naming what is wrong.

This module also owns the model-file envelope both learners share: one JSON
object holding ``kind``, ``format_version``, ``config`` and ``vocab`` next
to the kind's own parameters, written by ``write_model_file`` and checked by
``read_model_file``."""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, fields
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
    error messages."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        payload = json.loads(text)
    except (OSError, ValueError) as exc:
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


def write_model_file(path: str | Path, kind: str, version: int, config, vocab,
                     params: dict) -> str:
    """Write a model file, ``{format_version, kind, config, vocab, **params}``
    as sorted, indented JSON, and return its text. ``config`` is a config
    dataclass and ``vocab`` a ``features.Vocabulary``."""
    payload = {"format_version": version, "kind": kind, "config": asdict(config),
               "vocab": vocab.to_dict(), **params}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    return text


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
