"""On-disk spill of the packed CSR layout, opened read-only via ``mmap``.

:meth:`~repro.kernels.packed.PackedRatings.save` flattens the per-user /
per-item CSR rows into a handful of binary array files plus a
fingerprinted ``manifest.json``;
:meth:`~repro.kernels.packed.PackedRatings.open_mmap` maps those files
back as zero-copy ``memoryview`` slices.  The point is worker
bootstrap: a pool worker that opens the spill shares one page-cache
copy of the arrays with every sibling and never receives the packed
state over a pipe — ``pool_stats()``'s ``bootstrap_bytes`` shows the
difference against a full state ship.

Layout of a spill directory::

    manifest.json     format/version, counts, fingerprint, file sizes
    users.json        interned user ids, insertion order
    items.json        interned item ids, insertion order
    row_offsets.bin   int64 CSR offsets, len num_users + 1
    row_items.bin     item ints, all user rows concatenated
    row_values.bin    raw ratings, parallel to row_items
    row_devs.bin      centred deviations, parallel to row_items
    means.bin         per-user means
    inv_offsets.bin   int64 CSR offsets, len num_items + 1
    inv_users.bin     rater ints, all item columns concatenated
    inv_values.bin    raw ratings, parallel to inv_users

Writes share the neighbour-index snapshot discipline: every file goes
through :func:`~repro.data.serialization.atomic_write` (temp file +
atomic rename), and the manifest is written **last**, so a crash
mid-save leaves either the previous generation or a detectable
mismatch — never a silently torn spill.  Opening validates
the manifest, the file sizes, the interning tables against the live
matrix (full id-list compare) and a deterministic sample of rows
against the matrix values; any disagreement raises :class:`SpillError`
so the caller can fall back to the in-memory rebuild recipe.

A spill-backed view is read-only: the first mutation the owner tells it
about (``mark_dirty`` + ``ensure_current``) *downgrades* it by copying
every structure into ordinary writable arrays, after which the normal
incremental repack proceeds.  See ``PackedRatings._materialize``.
"""

from __future__ import annotations

import hashlib
import json
import mmap
from array import array
from pathlib import Path
from typing import Any, Iterator

from ..data.serialization import atomic_write, canonical_digest
from ..exceptions import SerializationError

#: Identifies the spill layout; bump on incompatible changes.
SPILL_FORMAT = "repro.packed-spill"
SPILL_VERSION = 1

#: Manifest file name inside a spill directory.
SPILL_MANIFEST_NAME = "manifest.json"

#: Binary array files and their :mod:`array` typecodes.
_ARRAY_FILES: tuple[tuple[str, str], ...] = (
    ("row_offsets.bin", "q"),
    ("row_items.bin", "l"),
    ("row_values.bin", "d"),
    ("row_devs.bin", "d"),
    ("means.bin", "d"),
    ("inv_offsets.bin", "q"),
    ("inv_users.bin", "l"),
    ("inv_values.bin", "d"),
)

#: Stride of the row-sample validation in :func:`open_spill`: one in
#: every ``_SAMPLE_STRIDE`` user rows is value-compared against the
#: live matrix, catching a same-shape / different-values stale spill
#: without an O(ratings) full scan.
_SAMPLE_STRIDE = 64


class SpillError(SerializationError):
    """Raised when a packed spill cannot be opened or trusted.

    Covers missing or torn files, manifests from another layout
    version or platform, and spills whose interning tables or sampled
    values disagree with the live matrix.  Callers treat this as "no
    usable spill" and rebuild from the matrix instead.
    """


def _ids_digest(ids: list[str]) -> str:
    """Order-sensitive digest of an interning table."""
    joined = "\x1f".join(ids)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def _values_digest(rows: Any) -> str:
    """Digest of every row's raw rating bytes, in row order.

    Catches the one staleness mode shape checks cannot: an in-place
    value overwrite that leaves counts and interning tables untouched.
    C-speed (``tobytes`` + sha256), so cheap relative to a save.
    """
    digest = hashlib.sha256()
    for row in rows:
        digest.update(row.tobytes())
    return digest.hexdigest()[:16]


def spill_fingerprint_of(
    num_users: int, num_items: int, num_ratings: int,
    user_ids: list[str], item_ids: list[str], values_digest: str,
) -> str:
    """Fingerprint binding a spill to one matrix state's shape, ids and values."""
    payload = {
        "users": num_users,
        "items": num_items,
        "ratings": num_ratings,
        "users_digest": _ids_digest(user_ids),
        "items_digest": _ids_digest(item_ids),
        "values_digest": values_digest,
    }
    return canonical_digest(payload)


def peek_fingerprint(directory: str | Path) -> str | None:
    """The fingerprint of the spill at ``directory``, or ``None``.

    A cheap manifest peek used to skip a re-save when the on-disk spill
    already matches the matrix state about to be written.
    """
    manifest_path = Path(directory) / SPILL_MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text("utf-8"))
    except (OSError, ValueError):
        return None
    if (
        not isinstance(manifest, dict)
        or manifest.get("format") != SPILL_FORMAT
        or manifest.get("version") != SPILL_VERSION
        or not isinstance(manifest.get("files"), dict)
    ):
        return None
    fingerprint = manifest.get("fingerprint")
    return fingerprint if isinstance(fingerprint, str) else None


def _flatten(rows: Any, typecode: str) -> tuple[array, array]:
    """Concatenate per-int CSR rows into ``(offsets, flat)`` arrays."""
    offsets = array("q", [0])
    flat = array(typecode)
    total = 0
    for row in rows:
        flat.extend(row)
        total += len(row)
        offsets.append(total)
    return offsets, flat


def write_spill(packed: Any, directory: str | Path) -> str:
    """Serialise ``packed`` (a current ``PackedRatings``) to ``directory``.

    Returns the spill fingerprint.  The caller (``PackedRatings.save``)
    is responsible for holding the repack lock and for having run
    ``ensure_current()`` first.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    fingerprint = spill_fingerprint_of(
        packed.num_users,
        packed.num_items,
        packed._num_ratings,
        packed.user_ids,
        packed.item_ids,
        _values_digest(packed.row_values),
    )
    if peek_fingerprint(target) == fingerprint:
        return fingerprint
    row_offsets, flat_items = _flatten(packed.row_items, "l")
    _, flat_values = _flatten(packed.row_values, "d")
    _, flat_devs = _flatten(packed.row_devs, "d")
    means = array("d", packed.means)
    inv_offsets, flat_inv_users = _flatten(packed.inv_users, "l")
    _, flat_inv_values = _flatten(packed.inv_values, "d")
    blobs: dict[str, bytes] = {
        "row_offsets.bin": row_offsets.tobytes(),
        "row_items.bin": flat_items.tobytes(),
        "row_values.bin": flat_values.tobytes(),
        "row_devs.bin": flat_devs.tobytes(),
        "means.bin": means.tobytes(),
        "inv_offsets.bin": inv_offsets.tobytes(),
        "inv_users.bin": flat_inv_users.tobytes(),
        "inv_values.bin": flat_inv_values.tobytes(),
    }
    for name, blob in blobs.items():
        atomic_write(target / name, blob)
    atomic_write(target / "users.json", json.dumps(packed.user_ids))
    atomic_write(target / "items.json", json.dumps(packed.item_ids))
    manifest = {
        "format": SPILL_FORMAT,
        "version": SPILL_VERSION,
        "fingerprint": fingerprint,
        "num_users": packed.num_users,
        "num_items": packed.num_items,
        "num_ratings": packed._num_ratings,
        "long_size": array("l").itemsize,
        "files": {name: len(blob) for name, blob in blobs.items()},
    }
    atomic_write(target / SPILL_MANIFEST_NAME, json.dumps(manifest))
    return fingerprint


class _SpillRows:
    """Lazy list-like CSR rows over one flat mmap'd array.

    ``rows[i]`` is a zero-copy ``memoryview`` slice; iterating it
    yields plain ints/floats exactly like the in-memory ``array`` rows,
    so the kernels run unchanged over either representation.
    """

    __slots__ = ("_offsets", "_flat")

    def __init__(self, offsets: Any, flat: Any) -> None:
        self._offsets = offsets
        self._flat = flat

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index: int) -> Any:
        if index < 0:
            raise IndexError(index)
        return self._flat[self._offsets[index] : self._offsets[index + 1]]

    def __iter__(self) -> Iterator[Any]:
        for index in range(len(self)):
            yield self[index]


class _SpillRowMaps:
    """Lazy per-user ``{item_int: value}`` dicts over spill rows.

    Built on first access and memoised: of the kernels only
    :func:`pearson_pair` reads row maps, one pair of users at a time,
    so at most the users it has scored ever materialise a dict.
    """

    __slots__ = ("_items", "_values", "_cache")

    def __init__(self, items: _SpillRows, values: _SpillRows) -> None:
        self._items = items
        self._values = values
        self._cache: dict[int, dict[int, float]] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> dict[int, float]:
        got = self._cache.get(index)
        if got is None:
            got = dict(zip(self._items[index], self._values[index]))
            self._cache[index] = got
        return got

    def __iter__(self) -> Iterator[dict[int, float]]:
        for index in range(len(self)):
            yield self[index]


def _map_file(path: Path, typecode: str, expected_bytes: int) -> Any:
    """``mmap`` one array file read-only and cast it to ``typecode``."""
    try:
        size = path.stat().st_size
    except OSError as exc:
        raise SpillError(f"missing spill file {path}: {exc}") from exc
    if size != expected_bytes:
        raise SpillError(
            f"spill file {path} is {size} bytes, manifest says "
            f"{expected_bytes}; the spill is torn or from another save"
        )
    if size == 0:
        return memoryview(b"").cast(typecode)
    with open(path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    return memoryview(mapped).cast(typecode)


def open_spill(directory: str | Path, matrix: Any) -> dict[str, Any]:
    """Open and validate the spill at ``directory`` against ``matrix``.

    Returns the packed structures as a name → object dict for
    ``PackedRatings.open_mmap`` to adopt.  Raises :class:`SpillError`
    when anything — manifest, sizes, interning tables, or the sampled
    row values — disagrees with the live matrix.
    """
    target = Path(directory)
    manifest_path = target / SPILL_MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text("utf-8"))
    except OSError as exc:
        raise SpillError(f"no spill manifest at {manifest_path}: {exc}") from exc
    except ValueError as exc:
        raise SpillError(f"malformed spill manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise SpillError(
            f"malformed spill manifest {manifest_path}: expected a JSON "
            f"object, got {type(manifest).__name__}"
        )
    if manifest.get("format") != SPILL_FORMAT:
        raise SpillError(
            f"{manifest_path} is not a packed spill manifest "
            f"(format={manifest.get('format')!r})"
        )
    if manifest.get("version") != SPILL_VERSION:
        raise SpillError(
            f"spill layout version {manifest.get('version')!r} unsupported "
            f"(expected {SPILL_VERSION})"
        )
    if manifest.get("long_size") != array("l").itemsize:
        raise SpillError(
            "spill was written on a platform with a different C long size"
        )
    try:
        user_ids = json.loads((target / "users.json").read_text("utf-8"))
        item_ids = json.loads((target / "items.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        raise SpillError(f"unreadable spill id tables in {target}: {exc}") from exc
    if user_ids != matrix.user_ids() or item_ids != matrix.item_ids():
        raise SpillError(
            f"spill {target} interning tables disagree with the matrix "
            "(different dataset, or ids in a different insertion order)"
        )
    if (
        manifest.get("num_users") != len(user_ids)
        or manifest.get("num_items") != len(item_ids)
        or manifest.get("num_ratings") != matrix.num_ratings
    ):
        raise SpillError(
            f"spill {target} counts disagree with the matrix "
            f"(manifest {manifest.get('num_users')}u/"
            f"{manifest.get('num_items')}i/{manifest.get('num_ratings')}r, "
            f"matrix {len(user_ids)}u/{len(item_ids)}i/"
            f"{matrix.num_ratings}r)"
        )
    sizes = manifest.get("files")
    if not isinstance(sizes, dict):
        raise SpillError(
            f"malformed spill manifest {manifest_path}: 'files' is not an "
            f"object of file sizes"
        )
    views: dict[str, Any] = {}
    for name, typecode in _ARRAY_FILES:
        declared = sizes.get(name)
        if not isinstance(declared, int):
            raise SpillError(f"spill manifest {manifest_path} misses file {name}")
        views[name] = _map_file(target / name, typecode, declared)
    num_users = len(user_ids)
    num_items = len(item_ids)
    num_ratings = matrix.num_ratings
    if (
        len(views["row_offsets.bin"]) != num_users + 1
        or len(views["inv_offsets.bin"]) != num_items + 1
        or len(views["row_items.bin"]) != num_ratings
        or len(views["means.bin"]) != num_users
        or len(views["inv_users.bin"]) != num_ratings
    ):
        raise SpillError(
            f"spill {target} array lengths disagree with its manifest counts"
        )
    row_items = _SpillRows(views["row_offsets.bin"], views["row_items.bin"])
    row_values = _SpillRows(views["row_offsets.bin"], views["row_values.bin"])
    row_devs = _SpillRows(views["row_offsets.bin"], views["row_devs.bin"])
    inv_users = _SpillRows(views["inv_offsets.bin"], views["inv_users.bin"])
    inv_values = _SpillRows(views["inv_offsets.bin"], views["inv_values.bin"])
    item_index = {item_id: index for index, item_id in enumerate(item_ids)}
    for user_int in range(0, num_users, _SAMPLE_STRIDE):
        row = matrix.items_of(user_ids[user_int])
        expected = {item_index[item_id]: value for item_id, value in row.items()}
        actual = dict(zip(row_items[user_int], row_values[user_int]))
        if expected != actual:
            raise SpillError(
                f"spill {target} row for user {user_ids[user_int]!r} "
                "disagrees with the matrix; the spill is stale"
            )
    return {
        "user_ids": user_ids,
        "user_index": {uid: index for index, uid in enumerate(user_ids)},
        "item_ids": item_ids,
        "item_index": item_index,
        "row_items": row_items,
        "row_values": row_values,
        "row_devs": row_devs,
        "row_maps": _SpillRowMaps(row_items, row_values),
        "means": views["means.bin"],
        "inv_users": inv_users,
        "inv_values": inv_values,
        "num_ratings": num_ratings,
    }
