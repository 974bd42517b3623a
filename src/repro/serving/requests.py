"""Request model of the serving layer.

The CLI ``serve`` command replays a stream of requests against a
:class:`~repro.serving.service.RecommendationService`.  Requests live in
a JSONL file, one object per line:

* ``{"type": "group", "members": ["u0001", "u0007"], "z": 5}``
* ``{"type": "user", "user_id": "u0001", "k": 10}``
* ``{"type": "rate", "user_id": "u0001", "item_id": "d0004", "value": 4}``

``z`` / ``k`` are optional and default to the service configuration.
:func:`synthetic_workload` generates a repeated/overlapping group
workload (the shape the cache layer is built for) for demos and the
throughput benchmark.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from ..data.groups import Group

#: Request kinds understood by the serve loop.
REQUEST_KINDS: tuple[str, ...] = ("group", "user", "rate")


@dataclass(frozen=True)
class ServeRequest:
    """One parsed request of the serve loop."""

    kind: str
    user_id: str = ""
    members: tuple[str, ...] = ()
    item_id: str = ""
    value: float = 0.0
    z: int | None = None
    k: int | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    def group(self) -> Group:
        """The caregiver group of a ``group`` request."""
        return Group(member_ids=list(self.members), caregiver_id="serve")

    def to_dict(self) -> dict[str, Any]:
        """Serialise back to the JSONL wire shape."""
        if self.kind == "group":
            payload: dict[str, Any] = {
                "type": "group",
                "members": list(self.members),
            }
            if self.z is not None:
                payload["z"] = self.z
        elif self.kind == "user":
            payload = {"type": "user", "user_id": self.user_id}
            if self.k is not None:
                payload["k"] = self.k
        else:
            payload = {
                "type": "rate",
                "user_id": self.user_id,
                "item_id": self.item_id,
                "value": self.value,
            }
        return payload


def _optional_positive(payload: Mapping[str, Any], name: str) -> int | None:
    """Read an optional positive-int field (``z``/``k``) or fail the line.

    The serve loop resolves ``None`` to the config default; a present
    but non-positive value would otherwise only explode deep inside the
    service, killing the whole replay mid-stream.  A JSON number with
    an integral value is accepted; a bool, a string, a fractional or a
    non-finite number is not.
    """
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ValueError(f"{name!r} must be a positive integer, got {value!r}")
    return value


def _required_id(payload: Mapping[str, Any], name: str, kind: str) -> str:
    """Read a required id field (``user_id``/``item_id``) or fail the line.

    Only a non-empty JSON string is an id: anything else would be
    stringified into an id no client asked for.
    """
    value = payload.get(name)
    if not isinstance(value, str) or not value:
        raise ValueError(f"{kind} request needs a non-empty string {name!r}")
    return value


def parse_request(payload: Mapping[str, Any]) -> ServeRequest:
    """Build a :class:`ServeRequest` from one decoded JSONL object.

    Raises :class:`ValueError` for anything else: a JSON line that is
    not an object, an unknown ``type``, or a field of the wrong shape.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(
            f"a request must be a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("type")
    if kind not in REQUEST_KINDS:
        raise ValueError(
            f"unknown request type {kind!r}; expected one of {REQUEST_KINDS}"
        )
    if kind == "group":
        members = payload.get("members")
        if (
            not isinstance(members, list)
            or not members
            or not all(isinstance(member, str) for member in members)
        ):
            raise ValueError(
                "group request needs a non-empty 'members' list of strings"
            )
        return ServeRequest(
            kind="group",
            members=tuple(members),
            z=_optional_positive(payload, "z"),
        )
    if kind == "user":
        return ServeRequest(
            kind="user",
            user_id=_required_id(payload, "user_id", kind),
            k=_optional_positive(payload, "k"),
        )
    user_id = _required_id(payload, "user_id", kind)
    item_id = _required_id(payload, "item_id", kind)
    value = payload.get("value")
    if value is None:
        raise ValueError("rate request needs a 'value'")
    return ServeRequest(
        kind="rate", user_id=user_id, item_id=item_id, value=float(value)
    )


def load_requests(path: str | Path) -> list[ServeRequest]:
    """Parse every non-empty line of a JSONL request file."""
    return list(iter_requests(path))


def iter_requests(path: str | Path) -> Iterator[ServeRequest]:
    """Stream requests from a JSONL file, skipping blank lines."""
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                payload = json.loads(stripped)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: invalid JSON: {error}"
                ) from None
            yield parse_request(payload)


def save_requests(requests: Sequence[ServeRequest], path: str | Path) -> Path:
    """Write requests as JSONL; returns the path."""
    target = Path(path)
    with open(target, "w", encoding="utf-8") as handle:
        for request in requests:
            handle.write(json.dumps(request.to_dict()) + "\n")
    return target


def synthetic_workload(
    user_ids: Sequence[str],
    num_requests: int = 100,
    group_size: int = 5,
    distinct_groups: int = 10,
    user_fraction: float = 0.0,
    seed: int = 7,
) -> list[ServeRequest]:
    """A repeated/overlapping group workload over ``user_ids``.

    ``distinct_groups`` caregiver groups are drawn from a shared member
    pool (so they overlap), then ``num_requests`` requests sample those
    groups with replacement — the traffic shape of a deployment where
    caregivers refresh their dashboards.  ``user_fraction`` mixes in
    single-user requests.
    """
    if group_size > len(user_ids):
        raise ValueError("group_size exceeds the number of users")
    if distinct_groups <= 0 or num_requests <= 0:
        raise ValueError("distinct_groups and num_requests must be positive")
    rng = random.Random(seed)
    # A pool ~2 groups wide keeps the drawn groups heavily overlapping.
    pool_size = min(len(user_ids), max(group_size * 2, group_size + 2))
    pool = rng.sample(list(user_ids), pool_size)
    groups = [
        tuple(rng.sample(pool, group_size)) for _ in range(distinct_groups)
    ]
    requests: list[ServeRequest] = []
    for _ in range(num_requests):
        if user_fraction > 0.0 and rng.random() < user_fraction:
            requests.append(
                ServeRequest(kind="user", user_id=rng.choice(list(user_ids)))
            )
        else:
            requests.append(
                ServeRequest(kind="group", members=rng.choice(groups))
            )
    return requests
