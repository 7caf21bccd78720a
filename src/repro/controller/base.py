"""Abstract secure memory controller.

The base class owns the substrate every scheme shares — the NVM device,
the timing channel, the WPQ + persistent registers, the counter-mode
engine, the ECC codec — and the data-path helpers (sideband packing,
block reads with WPQ forwarding, persistent data writes).  Subclasses
implement the metadata machinery for their tree family.

Traffic accounting policy (see DESIGN.md): demand reads stall the core;
all persistent writes flow through the WPQ and are charged to the
channel when they drain; on-chip hash checks on a miss's verification
path are charged as hash latency.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Tuple

from repro.config import CounterRecoveryKind, SystemConfig, TreeKind
from repro.controller.access import MemoryRequest, Op
from repro.crypto.ctr import CounterModeEngine
from repro.crypto.hashes import mac56_keyed
from repro.crypto.keys import ProcessorKeys
from repro.errors import ConfigError, IntegrityError
from repro.mem.ecc import ECC_BYTES, SecdedCodec
from repro.mem.layout import MemoryLayout
from repro.mem.nvm import NvmDevice
from repro.mem.timing import MemoryChannel
from repro.mem.wpq import PersistentRegisters, WritePendingQueue
from repro.telemetry.runtime import live_tracer
from repro.util.stats import StatGroup

#: Bytes of the per-line sideband blob: SECDED code then truncated MAC.
SIDEBAND_BYTES = ECC_BYTES + 8


class SecureMemoryController(abc.ABC):
    """Common machinery for every persistence scheme."""

    #: The controller's own event counts, each a plain ``int``
    #: attribute reported as ``ctrl.<name>`` (next to the channel's).
    COUNTERS: Tuple[str, ...] = (
        "data_reads",
        "data_writes",
        "meta_fetches",
        "meta_writebacks",
        "persist_writes",
        "shadow_writes",
        "page_reencryptions",
        "integrity_checks",
        "ecc_corrections",
    )

    def __init__(
        self,
        config: SystemConfig,
        layout: MemoryLayout,
        keys: Optional[ProcessorKeys] = None,
        nvm: Optional[NvmDevice] = None,
    ) -> None:
        self.config = config
        self.layout = layout
        self.keys = keys if keys is not None else ProcessorKeys()
        for name in self.COUNTERS:
            setattr(self, name, 0)
        #: The live-session facade: follows telemetry sessions installed
        #: at any point in the controller's lifetime, and with none
        #: active every emission site reduces to one ``enabled`` check.
        self.tracer = live_tracer()
        self.channel = MemoryChannel(config.timing)
        self.nvm = nvm if nvm is not None else NvmDevice(layout.total_size)
        self.wpq = WritePendingQueue(self.nvm, self.channel, config.wpq_entries)
        self.pregs = PersistentRegisters(self.wpq)
        self.ctr_engine = CounterModeEngine(
            self.keys,
            pad_memo_entries=config.encryption.pad_memo_entries,
        )
        self.ecc_codec = SecdedCodec()
        self._data_mac = mac56_keyed(self.keys.mac_key)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def access(self, request: MemoryRequest) -> Optional[bytes]:
        """Run one request through the controller; returns read data."""
        self.channel.advance(request.gap_ns)
        tracer = self.tracer
        if tracer.enabled:
            # Event timestamps use the *simulated* clock, so traces are
            # identical across worker counts and reruns.  Write straight
            # to the session tracer — this runs once per access.
            tracer.target.now = self.channel.elapsed_ns
        self.wpq.drain_opportunistic()
        if tracer.enabled:
            tracer.emit(
                "mem.access",
                op=request.op.value,
                address=request.address,
            )
        if request.op == Op.READ:
            return self.read(request.address)
        self.write(request.address, request.data)
        return None

    @abc.abstractmethod
    def read(self, address: int) -> bytes:
        """Read and decrypt one 64B data line, verifying integrity."""

    @abc.abstractmethod
    def write(self, address: int, data: bytes) -> None:
        """Encrypt and persist one 64B data line, updating metadata."""

    @abc.abstractmethod
    def drop_volatile(self) -> None:
        """Crash model: lose every volatile structure (caches, mirrors).

        On-chip *persistent* registers — tree roots — survive; the WPQ is
        ADR-flushed by the crash injector before this is called.
        """

    @abc.abstractmethod
    def writeback_all(self) -> None:
        """Cleanly persist all dirty metadata (orderly shutdown)."""

    def finalize(self) -> float:
        """Drain outstanding writes and return total elapsed nanoseconds."""
        self.wpq.drain_all()
        return self.channel.elapsed_ns

    def _adopt_default_provider(self, provider) -> None:
        """Make never-written blocks read as this tree engine's defaults.

        A device that already has a provider (a reboot onto a crashed
        system's NVM) keeps it, but it must give the same bytes as
        ``provider`` on every stored level: metadata fills trust a
        never-written block to be exactly the engine's default.
        """
        nvm = self.nvm
        if nvm.default_provider is None:
            nvm.default_provider = provider
            return
        layout = self.layout
        for level in range(layout.root_level):
            address = layout.node_address(level, 0)
            if nvm.default_provider(address) != provider(address):
                raise ConfigError(
                    "NVM default content disagrees with this controller's "
                    f"tree defaults at level {level}"
                )

    # ------------------------------------------------------------------
    # data-path helpers shared by both tree families
    # ------------------------------------------------------------------

    def read_block(self, address: int, charge: bool = True) -> Tuple[bytes, bool]:
        """Fetch a 64B block with WPQ forwarding.

        Returns ``(bytes, fresh)`` where ``fresh`` is False for a block
        that has never been written (its content is architectural zeros
        and carries no ECC/MAC to check).
        """
        forwarded = self.wpq.lookup(address)
        if forwarded is not None:
            return forwarded, True
        if charge:
            self.channel.read()
        return self.nvm.read_written(address)

    def read_data_line(self, address: int) -> Tuple[bytes, bytes, bool]:
        """Fetch a data line and its sideband with WPQ forwarding.

        Returns ``(ciphertext, sideband, fresh)``; ``fresh`` is False for
        a never-written line (architectural zeros, nothing to verify).
        """
        entry = self.wpq.lookup_entry(address)
        if entry is not None:
            data, sideband = entry
            return data, sideband if sideband is not None else bytes(
                SIDEBAND_BYTES
            ), True
        self.channel.read()
        data, written = self.nvm.read_written(address)
        return data, self.nvm.read_ecc(address), written

    def pack_sideband(self, ecc: bytes, mac: int) -> bytes:
        """Pack ECC bits and data MAC into the per-line sideband blob."""
        return ecc + mac.to_bytes(8, "little")

    def unpack_sideband(self, blob: bytes) -> Tuple[bytes, int]:
        """Inverse of :meth:`pack_sideband`."""
        return blob[:ECC_BYTES], int.from_bytes(blob[ECC_BYTES:], "little")

    def data_mac(self, address: int, major: int, minor: int, plaintext: bytes) -> int:
        """Bonsai-style data MAC over (address, counter, plaintext)."""
        payload = (
            address.to_bytes(8, "little")
            + major.to_bytes(8, "little")
            + minor.to_bytes(8, "little")
            + plaintext
        )
        return self._data_mac.value(payload)

    def _line_counter(self, major: int, minor: int) -> int:
        """The per-line counter value: the minor for split-counter
        systems, the 56-bit counter (passed as ``major``) for SGX."""
        return minor if self.config.tree == TreeKind.BONSAI else major

    def seal_data(
        self, address: int, plaintext: bytes, major: int, minor: int
    ) -> Tuple[bytes, bytes]:
        """Encrypt a line and its sideband; returns (ciphertext, sideband).

        Under phase-based counter recovery (§2.4) the sideband gains one
        trailing *cleartext* byte holding the counter's low
        ``phase_bits`` bits — counters need integrity (which the tree
        provides), not confidentiality, so the leak is benign and
        recovery can read the exact counter instead of trialing.
        """
        ecc = self.ecc_codec.encode_line(plaintext)
        mac = self.data_mac(address, major, minor, plaintext)
        cipher, sideband = self.ctr_engine.encrypt_with_ecc(
            plaintext, self.pack_sideband(ecc, mac), address, major, minor
        )
        encryption = self.config.encryption
        if encryption.counter_recovery == CounterRecoveryKind.PHASE:
            phase_mask = (1 << encryption.phase_bits) - 1
            phase = self._line_counter(major, minor) & phase_mask
            sideband += bytes([phase])
        return cipher, sideband

    def open_data(
        self,
        address: int,
        ciphertext: bytes,
        sideband_cipher: bytes,
        major: int,
        minor: int,
    ) -> bytes:
        """Decrypt a line, checking ECC sanity and the data MAC."""
        plaintext, sideband = self.ctr_engine.decrypt_with_ecc(
            ciphertext, sideband_cipher[:SIDEBAND_BYTES], address, major, minor
        )
        ecc, mac = self.unpack_sideband(sideband)
        self.integrity_checks += 1
        if not self.ecc_codec.is_sane(plaintext, ecc):
            # CTR mode turns an NVM cell flip into a single flipped
            # plaintext bit, so the SECDED code can repair genuine soft
            # errors; a wrong counter scrambles the whole line and
            # fails correction too.
            corrected, plaintext = self.ecc_codec.correct_line(plaintext, ecc)
            if not corrected:
                raise IntegrityError(
                    f"ECC check failed for data line {address:#x} "
                    f"(wrong counter or corrupted line)"
                )
            self.ecc_corrections += 1
        if mac != self.data_mac(address, major, minor, plaintext):
            raise IntegrityError(f"data MAC mismatch at {address:#x}")
        return plaintext

    def persist_data(
        self, address: int, ciphertext: bytes, sideband: bytes
    ) -> None:
        """Push one sealed data line into the persistent domain."""
        self.persist_writes += 1
        self.wpq.insert(address, ciphertext, sideband)

    def persist_metadata(self, address: int, block: bytes) -> None:
        """Push one metadata block into the persistent domain."""
        self.persist_writes += 1
        self.wpq.insert(address, block)

    def shadow_write(
        self, address: int, block: bytes, table: str = "shadow"
    ) -> None:
        """Push one Anubis shadow-table block into the persistent domain.

        ``table`` names which structure is updated ("sct"/"smt"/"st") —
        purely for the event stream and write-amplification breakdowns.
        """
        self.shadow_writes += 1
        if self.tracer.enabled:
            self.tracer.emit("shadow.update", table=table, address=address)
        self.wpq.insert(address, block)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    @property
    def stats(self) -> StatGroup:
        """Read-only ``ctrl.*`` view: the controller's counts plus the
        channel's reads, writes and read-stall histogram."""
        counters = {name: getattr(self, name) for name in self.COUNTERS}
        counters["channel_reads"] = self.channel.reads
        counters["channel_writes"] = self.channel.writes
        return StatGroup(
            "ctrl", counters, {"read_stall_ns": self.channel.read_stall}
        )

    def collect_stats(self) -> Dict[str, float]:
        """Flatten the controller's, the WPQ's and the device's stats."""
        flat: Dict[str, float] = {}
        self.stats.merge_into(flat)
        self.wpq.stats.merge_into(flat)
        self.nvm.stats.merge_into(flat)
        return flat

    @property
    def elapsed_ns(self) -> float:
        """Core time elapsed so far, including channel backlog."""
        return self.channel.elapsed_ns
