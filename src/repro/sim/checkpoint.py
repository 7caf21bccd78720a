"""Fingerprints and atomic JSON artifacts.

Anubis's thesis is that *selective persistence of just-enough state*
makes crashes survivable; this module applies the same idea to the
harness itself.  Two layers:

**Fingerprints** (:func:`fingerprint`, :func:`full_fingerprint`)
deterministically identify a unit of work — a (config, trace, seed)
cell or a whole campaign — so the result store
(:mod:`repro.sim.result_cache`) can never hand back the *wrong* work.

**Atomic artifacts** (:func:`atomic_write_text`,
:func:`atomic_write_json`).  Every JSON artifact — ``--json`` output,
``results.json``, ``campaign.json``, each result-store entry — is
written to a temp file in the destination directory, fsync'd, then
:func:`os.replace`'d into place, so a crash mid-write can never leave a
truncated file under the final name.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
from typing import Any


# ----------------------------------------------------------------------
# Canonical serialization and fingerprints
# ----------------------------------------------------------------------

def plain(value: Any) -> Any:
    """Reduce a value to plain JSON types, deterministically.

    Dataclasses become ``{"__type__": name, **fields}`` dicts, enums
    their ``.value``, bytes a hex string, tuples lists.  The mapping is
    stable across processes and Python versions — the foundation every
    fingerprint rests on.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        record = {"__type__": type(value).__name__}
        for field in dataclasses.fields(value):
            record[field.name] = plain(getattr(value, field.name))
        return record
    if isinstance(value, enum.Enum):
        return plain(value.value)
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": bytes(value).hex()}
    if isinstance(value, dict):
        return {str(key): plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for fingerprinting"
    )


def canonical_json(value: Any) -> str:
    """The canonical one-line JSON encoding used for checksums."""
    return json.dumps(
        plain(value), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def full_fingerprint(*parts: Any) -> str:
    """The full 64-hex-digit sha256 fingerprint of the given values.

    Long-lived content addresses (the result cache) use this: at 16 hex
    digits a store that accumulates millions of entries would have a
    non-negligible birthday-collision risk, and a collision silently
    returns the wrong cell's result.
    """
    text = canonical_json(list(parts))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(*parts: Any) -> str:
    """A 16-hex-digit deterministic fingerprint of the given values.

    The short display form (run manifests) — collision-safe within one
    run's worth of keys.  Content addresses use :func:`full_fingerprint`.
    """
    return full_fingerprint(*parts)[:16]


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------

def _fsync_directory(directory: str) -> None:
    """Best-effort fsync of a directory (persists the rename itself)."""
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + fsync + replace)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as stream:
            stream.write(text)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    _fsync_directory(directory)


def atomic_write_json(path: str, payload: Any, indent: int = 2) -> None:
    """Atomically write ``payload`` as sorted, indented JSON."""
    text = json.dumps(payload, indent=indent, sort_keys=True)
    atomic_write_text(path, text + "\n")
