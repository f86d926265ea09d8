"""Dataclass serialization and stable fingerprints.

The sweep engine treats one simulation run as a *job*: a serializable
description (configuration + workload + request count + seed) that can be
shipped to a worker process and used as an on-disk cache key.  This module
is the leaf-level machinery behind that: flat frozen config dataclasses
gain ``to_dict`` / ``from_dict`` / ``fingerprint`` via the
:func:`serializable` decorator, and composite types (``SystemConfig``,
``SimulationResult``) implement the same trio by hand on top of
:func:`dataclass_to_dict` / :func:`dataclass_from_dict`.

Fingerprints are hex SHA-256 digests of the canonical JSON rendering
(sorted keys, no whitespace) tagged with the class name, so two configs
fingerprint equal iff they serialize identically.  Fingerprints are
*stable across processes and sessions* — unlike ``hash()`` they are safe
to use as cache keys.

``SCHEMA_VERSION`` versions the serialized layout of results and jobs;
the on-disk result cache folds it into every key so stale entries from an
older layout can never be deserialized into a newer one.

:func:`atomic_write` is how the package publishes a file: checkpoints,
result-cache entries, the bench history and flight-recorder dumps are
all written through it, so none of them is ever seen torn.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import fields, is_dataclass
from hashlib import sha256
from pathlib import Path
from typing import Any, Iterator, TextIO, TypeVar

# Version of the serialized job/result layout.  Bump whenever the dict
# rendering of SystemConfig or SimulationResult changes shape; the result
# cache keys on it, so a bump invalidates every cached entry at once.
# v2: OramConfig gained integrity/recovery/scrub_interval fields.
SCHEMA_VERSION = 2

T = TypeVar("T")


class PayloadEncodeError(TypeError):
    """Raised for payload values with no canonical JSON rendering."""


def payload_to_jsonable(value: Any, strict: bool = True) -> Any:
    """Canonical JSON-compatible encoding of a block payload.

    Block payloads are opaque to the protocol code but two subsystems need
    a *stable byte rendering* of them: the Merkle integrity layer (digests
    must not depend on ``repr()`` quirks) and the checkpoint writer
    (payloads must round-trip).  Scalars pass through; containers are
    tagged so ``tuple``/``list``/``dict``/``bytes`` stay distinguishable.

    With ``strict=False`` unsupported types degrade to a tagged ``repr``
    rendering — still deterministic within a process, good enough for
    hashing ad-hoc test payloads, but not round-trippable.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"__payload__": "float", "v": value.hex()}
    if isinstance(value, bytes):
        return {"__payload__": "bytes", "v": value.hex()}
    if isinstance(value, tuple):
        return {
            "__payload__": "tuple",
            "v": [payload_to_jsonable(item, strict) for item in value],
        }
    if isinstance(value, list):
        return {
            "__payload__": "list",
            "v": [payload_to_jsonable(item, strict) for item in value],
        }
    if isinstance(value, dict):
        return {
            "__payload__": "dict",
            "v": [
                [payload_to_jsonable(k, strict), payload_to_jsonable(v, strict)]
                for k, v in value.items()
            ],
        }
    if strict:
        raise PayloadEncodeError(
            f"payload of type {type(value).__name__} has no canonical "
            f"serialization: {value!r}"
        )
    return {"__payload__": "repr", "v": repr(value)}


def payload_from_jsonable(data: Any) -> Any:
    """Inverse of :func:`payload_to_jsonable` (strict encodings only)."""
    if not isinstance(data, dict):
        return data
    kind = data.get("__payload__")
    items = data.get("v")
    if kind == "float":
        return float.fromhex(items)
    if kind == "bytes":
        return bytes.fromhex(items)
    if kind == "tuple":
        return tuple(payload_from_jsonable(item) for item in items)
    if kind == "list":
        return [payload_from_jsonable(item) for item in items]
    if kind == "dict":
        return {
            payload_from_jsonable(k): payload_from_jsonable(v) for k, v in items
        }
    raise PayloadEncodeError(f"not a payload encoding: {data!r}")


def payload_bytes(value: Any, strict: bool = False) -> bytes:
    """Canonical byte rendering of a payload, for hashing.

    This is what the integrity layer digests — shared with the checkpoint
    codec so the two subsystems can never disagree about what a payload
    "is".  Defaults to non-strict: exotic payloads hash via their tagged
    ``repr`` instead of failing the whole verification pass.
    """
    return canonical_json(payload_to_jsonable(value, strict=strict)).encode()


def dataclass_to_dict(obj: Any) -> dict[str, Any]:
    """Flatten a *flat* dataclass into ``{field: value}``.

    Values are taken verbatim; nested dataclasses are the caller's
    responsibility (see ``SystemConfig.to_dict`` for the composite case).
    """
    if not is_dataclass(obj) or isinstance(obj, type):
        raise TypeError(f"expected a dataclass instance, got {obj!r}")
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def dataclass_from_dict(cls: type[T], data: dict[str, Any]) -> T:
    """Rebuild ``cls`` from a dict produced by :func:`dataclass_to_dict`.

    Unknown keys are ignored (forward compatibility); missing keys fall
    back to the dataclass defaults, so adding a defaulted field does not
    invalidate previously serialized payloads.
    """
    known = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in data.items() if k in known})


def canonical_json(payload: Any) -> str:
    """Deterministic JSON rendering: sorted keys, compact separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def stable_hash(payload: Any) -> str:
    """Hex SHA-256 of the canonical JSON rendering of ``payload``."""
    return sha256(canonical_json(payload).encode()).hexdigest()


def fingerprint_payload(type_name: str, payload: dict[str, Any]) -> str:
    """Hash a serialized object, tagged with its type name."""
    return stable_hash({"__type__": type_name, **payload})


def serializable(cls: type[T]) -> type[T]:
    """Class decorator adding ``to_dict``/``from_dict``/``fingerprint``.

    Intended for flat frozen config dataclasses::

        @serializable
        @dataclass(frozen=True, slots=True)
        class OramConfig: ...

    Methods already defined on the class are left untouched, so composite
    classes can hand-roll any subset.
    """

    def to_dict(self: Any) -> dict[str, Any]:
        """Serialize to a JSON-compatible ``{field: value}`` dict."""
        return dataclass_to_dict(self)

    def from_dict(klass: type[T], data: dict[str, Any]) -> T:
        """Rebuild from :meth:`to_dict` output (unknown keys ignored)."""
        return dataclass_from_dict(klass, data)

    def fingerprint(self: Any) -> str:
        """Stable content hash, usable as a cross-process cache key."""
        return fingerprint_payload(type(self).__name__, self.to_dict())

    if "to_dict" not in cls.__dict__:
        cls.to_dict = to_dict  # type: ignore[attr-defined]
    if "from_dict" not in cls.__dict__:
        cls.from_dict = classmethod(from_dict)  # type: ignore[attr-defined]
    if "fingerprint" not in cls.__dict__:
        cls.fingerprint = fingerprint  # type: ignore[attr-defined]
    return cls


@contextlib.contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """A text stream whose contents replace ``path`` in one step.

    Writes go to a hidden ``mkstemp`` file beside ``path``; a clean exit
    publishes it with :func:`os.replace` (atomic on POSIX), so a reader
    sees the old file or the new one, never a torn one.  On any exception
    the temp file is unlinked and the exception propagates: each caller
    keeps its own error policy.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as stream:
            yield stream
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
