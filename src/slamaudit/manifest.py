"""Reproducibility envelope written next to every command's outputs.

A manifest records what went into a run: the track, the model kind, which
split was scored, content hashes of every config and dataset file, the tool
version, and a timestamp. Reports embed their manifest so a results file is
self-describing.

Timestamps honor the SOURCE_DATE_EPOCH convention: when that environment
variable is set, its value is used instead of the wall clock, which makes
report bytes fully reproducible.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .errors import DataError
from .validation import check_format_version, read_json_object, require_keys

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
    config_hashes: tuple[tuple[str, str], ...]
    dataset_hashes: tuple[tuple[str, str], ...]
    timestamps: tuple[tuple[str, str], ...]
    tool_version: str

    def to_dict(self) -> dict:
        return {
            "format_version": MANIFEST_FORMAT_VERSION,
            "track": self.track,
            "model_kind": self.model_kind,
            "split": self.split,
            "config_hashes": dict(self.config_hashes),
            "dataset_hashes": dict(self.dataset_hashes),
            "timestamps": dict(self.timestamps),
            "tool_version": self.tool_version,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        check_format_version(payload, MANIFEST_FORMAT_VERSION, "manifest")
        require_keys(payload, _MANIFEST_KEYS, "manifest")
        for key in ("config_hashes", "dataset_hashes", "timestamps"):
            if not isinstance(payload[key], dict):
                raise DataError(f"manifest {key} must be a JSON object")
        return cls(
            track=payload["track"],
            model_kind=payload["model_kind"],
            split=payload["split"],
            config_hashes=tuple(sorted(payload["config_hashes"].items())),
            dataset_hashes=tuple(sorted(payload["dataset_hashes"].items())),
            timestamps=tuple(sorted(payload["timestamps"].items())),
            tool_version=payload["tool_version"],
        )


def build_manifest(
    *,
    track: str,
    model_kind: str,
    split: str,
    config_hashes: dict[str, str],
    dataset_paths: dict[str, str | Path],
) -> RunManifest:
    """Assemble a manifest, hashing every named dataset file."""
    dataset_hashes = {
        name: sha256_file(path) for name, path in sorted(dataset_paths.items())
    }
    return RunManifest(
        track=track,
        model_kind=model_kind,
        split=split,
        config_hashes=tuple(sorted(config_hashes.items())),
        dataset_hashes=tuple(sorted(dataset_hashes.items())),
        timestamps=(("created", run_timestamp()),),
        tool_version=__version__,
    )


def manifest_to_json(manifest: RunManifest) -> str:
    return json.dumps(manifest.to_dict(), sort_keys=True, indent=2) + "\n"


def write_manifest(manifest: RunManifest, path: str | Path) -> None:
    Path(path).write_text(manifest_to_json(manifest), encoding="utf-8")


def read_manifest(path: str | Path) -> RunManifest:
    return RunManifest.from_dict(read_json_object(path, "manifest file"))
