"""Demographic slicing of predictions: client platform and country status.

An audit reads each token's group as a code, worked out once per exercise
(``group_codes``); ``tag_instance`` gives it as one ``GroupTag`` per token.

The developed/developing assignment is driven entirely by an editable mapping
file (``CODE developed|developing`` per line); the bundled default follows the
IMF advanced-economies list. Reports record the mapping file's hash so results
stay attributable to the exact mapping used.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence, TypeVar

import numpy as np

from .errors import ParseError
from .slam_format import Client, Dataset, Track
from .validation import open_text

_CODE_RE = re.compile(r"^[A-Z]{2}$")

DEFAULT_MAPPING_RESOURCE = "country_mapping.txt"


class Development(str, Enum):
    DEVELOPED = "developed"
    DEVELOPING = "developing"
    UNKNOWN = "unknown"


class Dimension(str, Enum):
    CLIENT = "client"
    DEVELOPMENT = "development"


@dataclass(frozen=True)
class CountryClassification:
    """Country code -> developed/developing mapping with provenance."""

    mapping: dict[str, Development]
    source_name: str
    sha256: str

    def __post_init__(self):
        if not self.mapping:
            raise ParseError("country mapping is empty")
        for code in self.mapping:
            if not _CODE_RE.match(code):
                raise ParseError(f"bad country code {code!r} in mapping")


@dataclass(frozen=True)
class GroupTag:
    client: Client
    development: Development
    track: Track


def parse_country_mapping(text: str, source_name: str) -> CountryClassification:
    """Parse ``CODE developed|developing`` lines; ``#`` comments allowed."""
    mapping: dict[str, Development] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cols = line.split()
        if len(cols) != 2:
            raise ParseError("expected 'CODE developed|developing'", lineno)
        code, status = cols
        if status not in (Development.DEVELOPED.value, Development.DEVELOPING.value):
            raise ParseError(f"unknown development status {status!r}", lineno)
        if code in mapping:
            raise ParseError(f"duplicate country code {code!r}", lineno)
        mapping[code] = Development(status)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return CountryClassification(mapping=mapping, source_name=source_name, sha256=digest)


def load_country_mapping(path: str | Path | None = None) -> CountryClassification:
    """Load a mapping file, or the bundled default when no path is given."""
    if path is None:
        text = (
            resources.files("slamaudit.data")
            .joinpath(DEFAULT_MAPPING_RESOURCE)
            .read_text(encoding="utf-8")
        )
        return parse_country_mapping(text, f"builtin:{DEFAULT_MAPPING_RESOURCE}")
    path = Path(path)
    with open_text(path, "country mapping") as fh:
        text = fh.read()
    return parse_country_mapping(text, str(path))


def classify_country(
    countries: Sequence[str], classification: CountryClassification
) -> Development:
    """Development status of the first listed country; unknown when unmapped."""
    if not countries:
        raise ParseError("empty country list")
    return classification.mapping.get(countries[0], Development.UNKNOWN)


def tag_instance(instance, classification: CountryClassification) -> GroupTag:
    """Group tag for one token instance under a given country mapping."""
    return GroupTag(
        client=instance.meta.client,
        development=classify_country(instance.meta.countries, classification),
        track=instance.track,
    )


def group_value(tag: GroupTag, dimension: Dimension) -> str:
    """A tag's group name along one dimension."""
    return (tag.client if dimension is Dimension.CLIENT else tag.development).value


def code_groups(values: Sequence[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Row i's group as ``names[codes[i]]`` over the sorted group names, or
    code -1 for an unknown development status, which is in no group."""
    names = sorted(set(values) - {Development.UNKNOWN.value})
    index = {name: code for code, name in enumerate(names)}
    return np.array([index.get(v, -1) for v in values], dtype=np.int64), tuple(names)


def group_codes(
    dataset: Dataset, classification: CountryClassification, dimension: Dimension
) -> tuple[np.ndarray, tuple[str, ...]]:
    """``code_groups`` of each token's group along one dimension."""
    if dimension is Dimension.CLIENT:
        values = [meta.client.value for meta in dataset.metas]
    else:
        values = [classify_country(m.countries, classification).value for m in dataset.metas]
    codes, names = code_groups(values)
    return codes[np.asarray(dataset.exercise, dtype=np.intp)], names


_P = TypeVar("_P")


def slice_predictions(
    predictions: Iterable[_P], dimension: Dimension
) -> dict[str, list[_P]]:
    """Partition predictions by group value along one dimension.

    Items must carry a ``group`` GroupTag. The groups are ``code_groups``',
    so along the development dimension predictions with unknown status are
    excluded; slicing preserves input order within each slice.
    """
    predictions = list(predictions)
    codes, names = code_groups([group_value(p.group, dimension) for p in predictions])
    pairs = list(zip(predictions, codes.tolist()))
    return {name: [p for p, c in pairs if c == code] for code, name in enumerate(names)}
