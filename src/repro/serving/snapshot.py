"""Versioned persistence of warm neighbour-index state.

A warm :class:`~repro.serving.RecommendationService` has paid for every
user's thresholded peer row; a restart should not pay again.  This
module snapshots those rows and restores them, with two guards:

* a **format/version** header, so a future layout change fails loudly
  instead of deserialising garbage;
* a **fingerprint** combining the config's recommendation semantics
  (:meth:`~repro.config.RecommenderConfig.fingerprint`) with the
  dataset's shape — a snapshot built under a different threshold,
  similarity measure or dataset is *stale* and is rejected with
  :class:`~repro.exceptions.SnapshotError` rather than silently served.

A snapshot is a **directory** (:func:`save_sharded_snapshot` /
:func:`load_sharded_snapshot`): a ``manifest.json`` plus one
``shard-NNNN.json`` per index shard — a flat index is one shard, and
either index kind loads any shard count.  Saves are *incremental*: a
shard whose rows did not change since the last save is not
re-serialised or rewritten.  Every shard file carries the fingerprint
and the manifest records each shard's content checksum, so a torn save
(crash between shard writes and the manifest write), a truncated file,
or a missing shard is detected at load time instead of being silently
served.  Shard files are written atomically
(:func:`~repro.data.serialization.atomic_write`); the manifest is
written **last**, so a crash mid-save leaves the previous manifest
either fully consistent or detectably out of step with the shard files.
A snapshot path that is a regular file (such as a snapshot from the
retired single-file layout) is rejected with :class:`SnapshotError`.

Scores round-trip bit-identically: ``json`` serialises floats with
``repr``, Python's shortest round-trippable representation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..config import RecommenderConfig
from ..data.datasets import HealthDataset
from ..data.serialization import atomic_write, canonical_digest, load_json
from ..exceptions import SerializationError, SnapshotError
from ..similarity.peers import Peer

#: Layout version of the snapshot files; bump on incompatible changes.
SNAPSHOT_VERSION = 1

#: Layout markers of the snapshot directory.
MANIFEST_FORMAT = "repro.neighbor-index-manifest"
SHARD_FORMAT = "repro.neighbor-index-shard"
MANIFEST_NAME = "manifest.json"


def snapshot_fingerprint(
    config: RecommenderConfig, dataset: HealthDataset
) -> str:
    """Fingerprint binding a snapshot to its config semantics and data.

    The dataset contributes its shape (user/item/rating counts): a
    changed rating alters peer rows, and while counts cannot see every
    in-place edit, they catch the common staleness case (snapshot from
    a different or grown dataset) cheaply.  Targeted invalidation
    handles in-place edits at runtime; operators re-snapshot after
    ingest.
    """
    payload = {
        "config": config.fingerprint(),
        "users": dataset.num_users,
        "items": dataset.num_items,
        "ratings": dataset.num_ratings,
    }
    return canonical_digest(payload)


def _encode_rows(rows: Mapping[str, Any]) -> dict[str, list[list[Any]]]:
    """Peer rows → the plain-list JSON layout of a shard file."""
    return {
        user_id: [[peer.user_id, peer.similarity] for peer in row]
        for user_id, row in rows.items()
    }


def _decode_rows(
    encoded: Mapping[str, Any], path: str | Path
) -> dict[str, list[Peer]]:
    """The inverse of :func:`_encode_rows`, with a readable failure."""
    try:
        return {
            user_id: [
                Peer(user_id=peer_id, similarity=float(score))
                for peer_id, score in row
            ]
            for user_id, row in encoded.items()
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed snapshot {path}: {exc}") from exc


def rows_checksum(encoded_rows: Mapping[str, Any]) -> str:
    """Content hash of an encoded row mapping (order-independent).

    The manifest records this per shard; a shard file whose recomputed
    checksum disagrees was torn, truncated after the manifest was
    written, or belongs to a different save generation.
    """
    return canonical_digest(encoded_rows)


def shard_file_name(index: int) -> str:
    """The conventional file name of shard ``index`` inside a snapshot dir."""
    return f"shard-{index:04d}.json"


def _snapshot_dir(path: str | Path) -> Path:
    """``path`` as a snapshot directory; a regular file there is an error."""
    directory = Path(path)
    if directory.exists() and not directory.is_dir():
        raise SnapshotError(
            f"snapshot path {directory} is a regular file, not a snapshot "
            f"directory (the single-file snapshot layout is no longer "
            f"read) — remove it or choose another path, then re-save the "
            f"snapshot from a warm service"
        )
    return directory


def save_sharded_snapshot(
    rows_by_shard: "Sequence[Mapping[str, list[Peer]] | Callable[[], Mapping[str, list[Peer]]]]",
    directory: str | Path,
    fingerprint: str,
    config_fingerprint: str,
    dirty: Sequence[bool] | None = None,
) -> Path:
    """Write one file per shard plus a manifest into ``directory``.

    Each ``rows_by_shard`` entry may be the row mapping itself or a
    zero-argument callable producing it — callables are only invoked
    for shards that actually get written, so an incremental save never
    pays to copy/serialise the clean shards' rows.

    The manifest carries the full ``fingerprint`` (config semantics +
    dataset shape); the shard files embed only ``config_fingerprint``
    (the semantics half).  The dataset shape changes on every ingest,
    and stamping it into each shard would force a full rewrite per
    re-save — keeping it manifest-only is what makes incremental saves
    possible while the per-shard check still rejects a shard file built
    under different recommendation semantics.

    ``dirty`` (optional, one flag per shard) enables *incremental*
    saves: a shard marked clean is not re-serialised — its manifest
    entry is carried over from the existing manifest.  The flag is
    trusted (callers derive it from the index's mutation counters), but
    only honoured when the existing manifest matches this fingerprint
    and shard count and the shard file is still on disk; anything else
    rewrites the shard regardless.  The manifest is written last, via
    an atomic rename, so a crash mid-save is detectable at load time.
    """
    directory = _snapshot_dir(directory)
    directory.mkdir(parents=True, exist_ok=True)
    num_shards = len(rows_by_shard)
    previous = _reusable_manifest(directory, config_fingerprint, num_shards)
    entries: list[dict[str, Any]] = []
    for index, rows in enumerate(rows_by_shard):
        name = shard_file_name(index)
        shard_path = directory / name
        reuse = (
            dirty is not None
            and index < len(dirty)
            and not dirty[index]
            and previous is not None
            and shard_path.exists()
        )
        if reuse:
            entries.append(previous[index])
            continue
        encoded = _encode_rows(rows() if callable(rows) else rows)
        checksum = rows_checksum(encoded)
        atomic_write(
            shard_path,
            json.dumps(
                {
                    "format": SHARD_FORMAT,
                    "version": SNAPSHOT_VERSION,
                    "fingerprint": config_fingerprint,
                    "shard": index,
                    "num_shards": num_shards,
                    "rows": encoded,
                }
            ),
        )
        entries.append({"file": name, "rows": len(encoded), "checksum": checksum})
    atomic_write(
        directory / MANIFEST_NAME,
        json.dumps(
            {
                "format": MANIFEST_FORMAT,
                "version": SNAPSHOT_VERSION,
                "fingerprint": fingerprint,
                "config_fingerprint": config_fingerprint,
                "num_shards": num_shards,
                "shards": entries,
            }
        ),
    )
    return directory


def _reusable_manifest(
    directory: Path, config_fingerprint: str, num_shards: int
) -> list[dict[str, Any]] | None:
    """The existing manifest's shard entries, if they can be carried over.

    Keyed on the *config* fingerprint: the dataset-shape half changes
    with every ingest and is refreshed in the new manifest anyway, but
    a semantics change invalidates the shard files themselves.
    """
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        return None
    try:
        payload = load_json(manifest_path)
    except SerializationError:
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("format") != MANIFEST_FORMAT
        or payload.get("version") != SNAPSHOT_VERSION
        or payload.get("config_fingerprint") != config_fingerprint
        or payload.get("num_shards") != num_shards
    ):
        return None
    entries = payload.get("shards")
    if not isinstance(entries, list) or len(entries) != num_shards:
        return None
    if not all(
        isinstance(entry, dict) and entry.get("file") == shard_file_name(index)
        for index, entry in enumerate(entries)
    ):
        return None
    return entries


def load_sharded_snapshot(
    directory: str | Path, fingerprint: str, config_fingerprint: str
) -> dict[str, list[Peer]]:
    """Load and validate a snapshot directory.

    The manifest must be an object whose every shard entry is an
    object naming its conventional :func:`shard_file_name`.  Every
    shard is checked independently: the file must exist, parse, carry
    the shard format, layout version and expected fingerprint, and hash
    to the checksum the manifest recorded for it.  Any violation raises
    :class:`SnapshotError` naming the offending file and the repair
    (re-save from a warm service) — partial state is never returned.
    """
    directory = _snapshot_dir(directory)
    manifest_path = directory / MANIFEST_NAME
    try:
        manifest = load_json(manifest_path)
    except SerializationError as exc:
        raise SnapshotError(
            f"cannot read snapshot manifest {manifest_path}: {exc} — "
            f"re-save the snapshot from a warm service"
        ) from exc
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise SnapshotError(
            f"{manifest_path} is not a neighbor-index snapshot manifest "
            f"(expected format {MANIFEST_FORMAT!r})"
        )
    if manifest.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot manifest {manifest_path} has version "
            f"{manifest.get('version')!r}; this build reads version "
            f"{SNAPSHOT_VERSION}"
        )
    found = manifest.get("fingerprint")
    if found != fingerprint:
        raise SnapshotError(
            f"snapshot {directory} is stale: fingerprint {found!r} does "
            f"not match the current config/dataset {fingerprint!r} — "
            f"rebuild the index and re-save"
        )
    entries = manifest.get("shards")
    num_shards = manifest.get("num_shards")
    if not isinstance(entries, list) or len(entries) != num_shards:
        raise SnapshotError(
            f"snapshot manifest {manifest_path} is malformed: expected "
            f"{num_shards!r} shard entries — re-save the snapshot"
        )
    rows: dict[str, list[Peer]] = {}
    for index, entry in enumerate(entries):
        name = shard_file_name(index)
        if not isinstance(entry, dict) or entry.get("file") != name:
            raise SnapshotError(
                f"snapshot manifest {manifest_path} is malformed: shard "
                f"entry {index} is {entry!r}, expected an object naming "
                f"{name!r} — re-save the snapshot"
            )
        shard_path = directory / name
        if not shard_path.exists():
            raise SnapshotError(
                f"snapshot shard file {shard_path} is missing — the "
                f"snapshot directory is incomplete; re-save the snapshot "
                f"from a warm service"
            )
        try:
            shard = load_json(shard_path)
        except SerializationError as exc:
            raise SnapshotError(
                f"cannot read snapshot shard {shard_path}: {exc} — the "
                f"file is truncated or corrupt; re-save the snapshot from "
                f"a warm service"
            ) from exc
        if not isinstance(shard, dict) or shard.get("format") != SHARD_FORMAT:
            raise SnapshotError(
                f"{shard_path} is not a neighbor-index shard file "
                f"(expected format {SHARD_FORMAT!r})"
            )
        if shard.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot shard {shard_path} has version "
                f"{shard.get('version')!r}; this build reads version "
                f"{SNAPSHOT_VERSION}"
            )
        if shard.get("fingerprint") != config_fingerprint:
            raise SnapshotError(
                f"snapshot shard {shard_path} is stale: fingerprint "
                f"{shard.get('fingerprint')!r} does not match the current "
                f"config semantics {config_fingerprint!r} — rebuild the "
                f"index and re-save"
            )
        if shard.get("shard") != index:
            raise SnapshotError(
                f"snapshot shard {shard_path} claims shard index "
                f"{shard.get('shard')!r} but the manifest lists it as "
                f"shard {index} — the directory was rearranged; re-save "
                f"the snapshot"
            )
        encoded = shard.get("rows")
        if not isinstance(encoded, Mapping):
            raise SnapshotError(
                f"malformed snapshot shard {shard_path}: no row mapping"
            )
        checksum = rows_checksum(encoded)
        if checksum != entry.get("checksum"):
            raise SnapshotError(
                f"snapshot shard {shard_path} does not match its manifest "
                f"entry (checksum {checksum} != {entry.get('checksum')!r}) "
                f"— the save was interrupted before the manifest was "
                f"updated, or the file was modified; re-save the snapshot "
                f"from a warm service"
            )
        rows.update(_decode_rows(encoded, shard_path))
    return rows
