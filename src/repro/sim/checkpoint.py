"""Fingerprints and atomic, checksummed artifacts.

Anubis's thesis is that *selective persistence of just-enough state*
makes crashes survivable; this module applies the same idea to the
harness itself.  Two layers:

**Fingerprints** (:func:`fingerprint`, :func:`full_fingerprint`,
:func:`trace_digest`) deterministically identify a unit of work — a
(config, trace, seed) cell or a whole campaign — so the result store
(:mod:`repro.sim.result_cache`) can never hand back the *wrong* work.

**Atomic artifacts** (:func:`atomic_write_text`,
:func:`atomic_write_json`, :func:`write_artifact`,
:func:`load_artifact`).  Every JSON artifact is written to a temp file
in the destination directory, fsync'd, then :func:`os.replace`'d into
place — a crash mid-write can never leave a truncated file under the
final name.  :func:`write_artifact` additionally wraps the payload in a
versioned envelope with an embedded checksum; :func:`load_artifact`
validates it and raises :class:`~repro.errors.ArtifactCorruptError` on
any mismatch.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
from typing import Any, Optional

from repro.errors import ArtifactCorruptError

#: Envelope version for :func:`write_artifact` artifacts.
ARTIFACT_VERSION = 1


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


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def full_fingerprint(*parts: Any) -> str:
    """The full 64-hex-digit sha256 fingerprint of the given values.

    Long-lived content addresses (the result cache) use this: at 16 hex
    digits a store that accumulates millions of entries would have a
    non-negligible birthday-collision risk, and a collision silently
    returns the wrong cell's result.
    """
    return _digest(canonical_json(list(parts)))


def fingerprint(*parts: Any) -> str:
    """A 16-hex-digit deterministic fingerprint of the given values.

    The short display form (run manifests) — collision-safe within one
    run's worth of keys.  Content addresses use :func:`full_fingerprint`.
    """
    return full_fingerprint(*parts)[:16]


def trace_digest(trace) -> str:
    """Full 64-hex-digit content digest of a trace, memoized.

    :meth:`~repro.traces.trace.Trace.content_digest` caches the digest
    per instance (invalidated on mutation).  The result-cache key for a
    cell is built from this full digest — see the fingerprint-truncation
    note on :func:`full_fingerprint`.
    """
    return trace.content_digest()


# ----------------------------------------------------------------------
# Atomic writes and versioned artifacts
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


def write_artifact(path: str, payload: Any, kind: str) -> None:
    """Atomically write a versioned, checksummed result artifact.

    The envelope records the artifact ``kind`` (e.g. "fault-campaign"),
    the schema version, and a checksum of the canonical payload
    encoding; :func:`load_artifact` refuses anything that does not
    validate.  Output bytes are deterministic for a given payload, so
    two runs producing the same results produce ``cmp``-identical
    artifact files.
    """
    payload = plain(payload)
    envelope = {
        "artifact": kind,
        "version": ARTIFACT_VERSION,
        "checksum": _digest(canonical_json(payload)),
        "payload": payload,
    }
    atomic_write_json(path, envelope)


def load_artifact(path: str, kind: Optional[str] = None) -> Any:
    """Load and validate an artifact written by :func:`write_artifact`.

    Raises :class:`ArtifactCorruptError` on unparseable JSON, a missing
    or mismatched checksum, an unsupported version, or (when ``kind``
    is given) the wrong artifact kind.
    """
    try:
        with open(path, "r", encoding="utf-8") as stream:
            envelope = json.load(stream)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactCorruptError(
            f"artifact {path!r} is not valid JSON (truncated write or "
            f"external corruption): {exc}"
        ) from None
    if not isinstance(envelope, dict) or "payload" not in envelope:
        raise ArtifactCorruptError(
            f"artifact {path!r} has no payload envelope — not written by "
            "this harness"
        )
    version = envelope.get("version")
    if version != ARTIFACT_VERSION:
        raise ArtifactCorruptError(
            f"artifact {path!r} has unsupported version {version!r} "
            f"(expected {ARTIFACT_VERSION})"
        )
    if kind is not None and envelope.get("artifact") != kind:
        raise ArtifactCorruptError(
            f"artifact {path!r} is a {envelope.get('artifact')!r}, "
            f"expected {kind!r}"
        )
    payload = envelope["payload"]
    expected = envelope.get("checksum")
    actual = _digest(canonical_json(payload))
    if expected != actual:
        raise ArtifactCorruptError(
            f"artifact {path!r} failed its checksum "
            f"({expected!r} != {actual!r}) — contents were altered after "
            "writing"
        )
    return payload
