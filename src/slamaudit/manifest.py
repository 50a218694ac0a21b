"""Reproducibility envelope written next to every command's outputs.

A manifest records what went into a run: the track, the model kind, which
split was scored, content hashes of every config and dataset file, the tool
version, and a timestamp. Reports embed their manifest so a results file is
self-describing. A manifest file has the one JSON layout of every file the
tool writes (``validation.write_json``).

Timestamps honor the SOURCE_DATE_EPOCH convention: when that environment
variable is set, its value is used instead of the wall clock, which makes
report bytes fully reproducible.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .errors import DataError
from .validation import check_format_version, read_json_object, require_keys, write_json

MANIFEST_FORMAT_VERSION = 1
_MANIFEST_KEYS = (
    "track",
    "model_kind",
    "split",
    "config_hashes",
    "dataset_hashes",
    "timestamps",
    "tool_version",
)


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_config(config_dict: dict) -> str:
    """Hash of a config's canonical JSON form."""
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return sha256_text(canonical)


def run_timestamp() -> str:
    """ISO-8601 UTC timestamp, pinned by SOURCE_DATE_EPOCH when set."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        stamp = time.gmtime(int(epoch) if epoch else int(time.time()))
    except (ValueError, OverflowError):
        raise DataError(
            f"SOURCE_DATE_EPOCH must be an integer number of seconds, got {epoch!r}"
        ) from None
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", stamp)


@dataclass(frozen=True)
class RunManifest:
    track: str
    model_kind: str
    split: str
    config_hashes: dict[str, str]
    dataset_hashes: dict[str, str]
    timestamps: dict[str, str]
    tool_version: str

    def to_dict(self) -> dict:
        return {"format_version": MANIFEST_FORMAT_VERSION, **asdict(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        check_format_version(payload, MANIFEST_FORMAT_VERSION, "manifest")
        require_keys(payload, _MANIFEST_KEYS, "manifest")
        for key in ("config_hashes", "dataset_hashes", "timestamps"):
            if not isinstance(payload[key], dict):
                raise DataError(f"manifest {key} must be a JSON object")
        return cls(**{key: payload[key] for key in _MANIFEST_KEYS})


def build_manifest(
    *,
    track: str,
    model_kind: str,
    split: str,
    config_hashes: dict[str, str],
    dataset_paths: Sequence[str],
) -> RunManifest:
    """Assemble a manifest, hashing every dataset file under its path."""
    return RunManifest(
        track=track,
        model_kind=model_kind,
        split=split,
        config_hashes=dict(config_hashes),  # a copy: the caller's later edits stay out
        dataset_hashes={path: sha256_file(path) for path in dataset_paths},
        timestamps={"created": run_timestamp()},
        tool_version=__version__,
    )


def write_manifest(manifest: RunManifest, path: str | Path) -> None:
    write_json(manifest.to_dict(), path)


def read_manifest(path: str | Path) -> RunManifest:
    return RunManifest.from_dict(read_json_object(path, "manifest file"))
