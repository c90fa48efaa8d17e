"""The one wire format of every obs artifact.

Event logs, trace logs, SLO reports and incident documents are written
and read through this module, so all of them share one determinism
contract: two identical runs produce byte-identical files regardless
of ``PYTHONHASHSEED`` (the cross-process determinism suite asserts it,
``tests/obs/test_obs_wire_format.py`` pins the bytes).

Writing: a record's ``to_dict()`` is its *plain* form — the field
values as they are (tuples, ``NaN``, ``numpy`` floats), built with
:func:`record_dict` — and only the writer cleans it, once:

* :func:`clean_value` — JSON-safe copy (``NaN``/``inf`` become
  ``null``, tuples become lists, recursively);
* :func:`canonical_line` — one mapping as its canonical compact JSON
  line: sorted keys, no whitespace, ``allow_nan=False`` so a stray
  non-finite float is an error instead of silent invalid JSON;
* :func:`canonical_document` — the same contract, indented, for report
  files.

Reading: :func:`parse_jsonl` is the numbered line reader behind every
``parse_*`` loader, and :func:`record_from_dict` the exact-fields check
behind every ``from_dict`` (a mapping naming exactly the record's
fields, else a :class:`~repro.errors.ConfigurationError` listing the
unknown and missing ones).
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import fields

from repro.errors import ConfigurationError


def clean_value(value):
    """JSON-safe copy: NaN/inf -> None, tuples -> lists, recursively.

    Float subclasses (``numpy.float64`` quality means reach span
    attributes) collapse to plain ``float`` so equality, ``repr``, and
    the serialized bytes are identical to a loaded round-trip.
    """
    if isinstance(value, float):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: clean_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [clean_value(v) for v in value]
    return value


def canonical_line(mapping: dict) -> str:
    """One mapping as its canonical JSON line (no trailing newline)."""
    return json.dumps(
        clean_value(mapping), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    )


def canonical_document(value, indent: int = 2) -> str:
    """A whole document (report files) with the same determinism
    contract as :func:`canonical_line`, but indented for humans."""
    return json.dumps(
        clean_value(value), sort_keys=True, indent=indent, allow_nan=False,
    )


def record_dict(record) -> dict:
    """A dataclass record's fields as a plain dict, values uncleaned."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def record_from_dict(cls, data, label: str):
    """``cls`` built from a mapping naming exactly its fields."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{label}: expected a mapping, got {type(data).__name__}"
        )
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    missing = known - set(data)
    if unknown or missing:
        raise ConfigurationError(
            f"{label}: unknown fields {sorted(unknown)}, missing "
            f"fields {sorted(missing)}"
        )
    return cls(**dict(data))


def parse_jsonl(text_or_lines, load, label: str) -> list:
    """JSONL text (or an iterable of lines), each non-blank line parsed
    and passed to ``load``; a bad line is named by its number."""
    if isinstance(text_or_lines, str):
        text_or_lines = text_or_lines.splitlines()
    records = []
    for lineno, line in enumerate(text_or_lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as error:
            raise ConfigurationError(
                f"{label} line {lineno} is not valid JSON: {error}"
            ) from None
        records.append(load(data))
    return records
