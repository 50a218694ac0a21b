"""Checks shared by every loader of user-supplied JSON (configs, models,
manifests), so a bad file ends in one DataError naming what is wrong."""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from .errors import DataError


def read_json_object(path: str | Path, what: str) -> dict:
    """Parse a JSON file that must hold an object; ``what`` names the file's
    role ("model file", "manifest file", ...) in error messages."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{what} {path} must hold a JSON object")
    return payload


def require_keys(payload: dict, keys, source: str) -> None:
    """Raise a DataError naming every key of ``keys`` absent from ``payload``."""
    missing = [key for key in keys if key not in payload]
    if missing:
        raise DataError(f"{source} lacks {', '.join(missing)}")


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
