"""Exception hierarchy for the Anubis reproduction library.

All exceptions raised by :mod:`repro` derive from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the interesting classes (integrity
violations, unrecoverable crashes, configuration mistakes).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """A configuration value is inconsistent or out of range."""


class LayoutError(ReproError):
    """A physical address falls outside the region it was mapped to."""


class AlignmentError(LayoutError):
    """An address is not aligned to the required block granularity."""


class IntegrityError(ReproError):
    """An integrity check (hash, MAC, or tree root comparison) failed.

    Raised when the secure memory controller detects tampering or
    corruption: a Merkle-tree node whose hash does not match its parent's
    record of it, an SGX-style node whose MAC does not verify, or a
    reconstructed root that differs from the on-chip root.
    """


class RootMismatchError(IntegrityError):
    """The reconstructed Merkle-tree root does not match the on-chip root."""


class MacMismatchError(IntegrityError):
    """A node MAC does not verify against its contents (SGX-style tree)."""


class EccError(ReproError):
    """Decoded data failed its ECC sanity check (wrong counter or corrupt)."""


class RecoveryError(ReproError):
    """Crash recovery could not restore a consistent, verified state."""


class UnrecoverableError(RecoveryError):
    """Recovery failed terminally (e.g. tampered shadow table, lost
    intermediate SGX node without ASIT protection)."""


class SilentCorruptionError(ReproError):
    """A post-crash read returned wrong plaintext *without* raising —
    the one outcome a secure memory controller must never produce.

    Raised by the fault-injection campaign (:mod:`repro.faults`) when a
    trial is classified ``SILENT_CORRUPTION`` and the caller asked for
    that classification to be fatal."""


class SecurityClaimError(ReproError):
    """The security-claims oracle itself is mis-declared: a missing
    (attack, scheme, window) entry, or a ``KNOWN_VULNERABLE`` claim
    without a paper citation.

    Raised at oracle construction or lookup time — a campaign must not
    run against an oracle that cannot classify every trial it will
    produce."""


class SecurityClaimViolationError(ReproError):
    """Observed behavior contradicts a declared security claim.

    Raised by the attack-campaign layer (:mod:`repro.attacks`) when a
    trial lands outside its claim's accepted outcomes — most seriously,
    when a scheme not declared ``KNOWN_VULNERABLE`` silently accepts
    tampered state."""


class CrashError(ReproError):
    """Misuse of the crash-injection machinery (e.g. recovering a system
    that never crashed)."""


class WpqError(ReproError):
    """Write-pending-queue protocol violation (overflow without drain,
    commit without staged registers, ...)."""


class TraceError(ReproError):
    """A trace record is malformed or incompatible with the system size."""

