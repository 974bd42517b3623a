"""Persistence helpers (JSON and CSV).

Every data object in :mod:`repro.data` exposes ``to_dict``/``from_dict``;
this module adds the small amount of glue needed to round-trip those
payloads through files, plus CSV import/export for rating triples (the
natural interchange format with external recommender datasets).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from pathlib import Path
from typing import Any

from ..exceptions import SerializationError
from .datasets import HealthDataset
from .ratings import RatingMatrix


def atomic_write(path: str | Path, data: bytes | str) -> None:
    """Write ``data`` to ``path`` through a per-process temp file + rename.

    Readers see either the previous complete file or the new one, never
    a torn write; the pid in the temp name keeps concurrent writers of
    the same path off each other's temp file.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def canonical_digest(payload: Any) -> str:
    """16-hex-digit sha256 of ``payload`` as canonical (sorted, compact) JSON."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def save_json(payload: Any, path: str | Path, indent: int = 2) -> Path:
    """Write ``payload`` as JSON to ``path`` and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with path.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=indent, sort_keys=False)
    except TypeError as exc:
        raise SerializationError(f"payload is not JSON serialisable: {exc}") from exc
    return path


def load_json(path: str | Path) -> Any:
    """Load JSON from ``path``; raise :class:`SerializationError` on failure."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise SerializationError(f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON in {path}: {exc}") from exc


def save_dataset(dataset: HealthDataset, path: str | Path) -> Path:
    """Persist a full :class:`HealthDataset` to one JSON file."""
    return save_json(dataset.to_dict(), path)


def load_dataset(path: str | Path) -> HealthDataset:
    """Load a :class:`HealthDataset` previously saved with :func:`save_dataset`."""
    payload = load_json(path)
    try:
        return HealthDataset.from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed dataset file {path}: {exc}") from exc


def save_ratings_csv(matrix: RatingMatrix, path: str | Path) -> Path:
    """Write rating triples as ``user_id,item_id,rating`` CSV rows."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["user_id", "item_id", "rating"])
        for user_id, item_id, value in matrix.triples():
            writer.writerow([user_id, item_id, value])
    return path


def load_ratings_csv(
    path: str | Path, scale: tuple[float, float] = (1.0, 5.0)
) -> RatingMatrix:
    """Read a rating-triple CSV produced by :func:`save_ratings_csv`.

    The header row is optional; malformed rows raise
    :class:`SerializationError` with the offending line number.
    """
    path = Path(path)
    matrix = RatingMatrix(scale=scale)
    try:
        with path.open("r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            for line_number, row in enumerate(reader, start=1):
                if not row:
                    continue
                if line_number == 1 and row[:3] == ["user_id", "item_id", "rating"]:
                    continue
                if len(row) < 3:
                    raise SerializationError(
                        f"{path}:{line_number}: expected 3 columns, got {len(row)}"
                    )
                user_id, item_id, value = row[0], row[1], row[2]
                try:
                    matrix.add(user_id, item_id, float(value))
                except ValueError as exc:
                    raise SerializationError(
                        f"{path}:{line_number}: invalid rating {value!r}: {exc}"
                    ) from exc
    except FileNotFoundError:
        raise SerializationError(f"file not found: {path}") from None
    return matrix
