"""Counter-mode encryption engine (§2.2).

Each 64B line is encrypted by XOR with a one-time pad derived from an
initialization vector (IV).  The IV binds the line address (spatial
uniqueness) and the line's counter (temporal uniqueness); the pad is a
keyed BLAKE2b stream in place of AES-CTR.  Reusing an (address, counter)
pair reproduces the same pad — exactly the property Osiris exploits to
*recover* counters and attackers exploit when counters are replayed,
both of which the test suite exercises.

Hot-path notes: the engine sits under every simulated memory access, so
the XOR is a single whole-line integer operation rather than a per-byte
loop and pads come from BLAKE2b states keyed once per engine
(:class:`~repro.crypto.hashes.KeyedHash`).  The controllers' seal and
open path, :meth:`CounterModeEngine.encrypt_with_ecc`, packs the IV once
and hashes both pads from it: a data line is resealed only under a
bumped counter, so a pad memo there almost never hits.  The bare
:meth:`~CounterModeEngine.encrypt`/:meth:`~CounterModeEngine.decrypt`
keep a bounded LRU memo of recently seen ``(address, major, minor)``
pads — pads are pure functions of the key and those three values, so a
memo hit is exact.
``benchmarks/bench_hot_paths.py`` tracks the resulting speedups.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.config import BLOCK_SIZE
from repro.crypto.hashes import KeyedHash
from repro.crypto.keys import ProcessorKeys

#: Default size of the per-engine one-time-pad memo (LRU entries).  A
#: pad depends only on the engine key and the (address, major, minor)
#: IV tuple, so caching is exact; 0 disables the memo entirely.
DEFAULT_PAD_MEMO_ENTRIES = 4096


def make_iv(address: int, major: int, minor: int) -> bytes:
    """Build the 24-byte IV for a line: address ‖ major ‖ minor.

    For the split-counter scheme ``major``/``minor`` are the page major
    counter and the line's 7-bit minor counter (Fig. 1).  For SGX-style
    encryption the 56-bit per-line counter is passed as ``major`` with
    ``minor=0``.
    """
    return (
        address.to_bytes(8, "little")
        + major.to_bytes(8, "little")
        + minor.to_bytes(8, "little")
    )


def xor_bytes(data: bytes, pad: bytes) -> bytes:
    """Whole-buffer XOR via one big-integer operation.

    Orders of magnitude faster than a per-byte Python loop for 64B
    lines; byte order is irrelevant as long as both sides agree.
    """
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(pad, "little")
    ).to_bytes(len(data), "little")


class CounterModeEngine:
    """Stateless encrypt/decrypt engine bound to a processor key.

    ``pad_memo_entries`` bounds the LRU memo of line pads that
    :meth:`encrypt`/:meth:`decrypt` consult; pass 0 to disable it, e.g.
    when sweeping enormous address spaces where reuse is impossible.
    """

    def __init__(
        self,
        keys: ProcessorKeys,
        pad_memo_entries: int = DEFAULT_PAD_MEMO_ENTRIES,
    ) -> None:
        self._key = keys.encryption_key
        #: Pre-keyed pad generators: the 64-byte line pad, and one ECC
        #: pad per sideband length (built on first use).
        self.line_pad = KeyedHash(self._key, BLOCK_SIZE)
        self._ecc_pads: Dict[int, KeyedHash] = {}
        self.pad_memo_entries = pad_memo_entries
        self._pad_memo: Optional[OrderedDict] = (
            OrderedDict() if pad_memo_entries > 0 else None
        )

    def one_time_pad(self, iv: bytes) -> bytes:
        """Generate the pad for one line from its IV: one BLAKE2b call
        yields 64 bytes, exactly one cache line."""
        return self.line_pad.digest(iv)

    def _line_pad_int(self, address: int, major: int, minor: int) -> int:
        """The line's one-time pad as a little-endian integer.

        Pads are memoized *as integers*: the XOR happens in integer
        space anyway, so a memo hit skips both the BLAKE2b call and the
        ``int.from_bytes`` conversion.
        """
        memo = self._pad_memo
        if memo is None:
            return int.from_bytes(
                self.one_time_pad(make_iv(address, major, minor)), "little"
            )
        key = (address, major, minor)
        pad = memo.get(key)
        if pad is None:
            pad = int.from_bytes(
                self.one_time_pad(make_iv(address, major, minor)), "little"
            )
            memo[key] = pad
            if len(memo) > self.pad_memo_entries:
                memo.popitem(last=False)
        else:
            memo.move_to_end(key)
        return pad

    def _ecc_pad_hash(self, length: int) -> KeyedHash:
        """The pre-keyed generator of ``length``-byte ECC pads; its
        ``.value(b"ecc" + iv)`` is the pad as an integer."""
        pad = self._ecc_pads.get(length)
        if pad is None:
            pad = self._ecc_pads[length] = KeyedHash(self._key, length)
        return pad

    def encrypt(self, plaintext: bytes, address: int, major: int, minor: int) -> bytes:
        """Encrypt one line under (address, major, minor)."""
        size = BLOCK_SIZE
        if len(plaintext) != size:
            self._check_len(plaintext)
        return (
            int.from_bytes(plaintext, "little")
            ^ self._line_pad_int(address, major, minor)
        ).to_bytes(size, "little")

    def decrypt(self, ciphertext: bytes, address: int, major: int, minor: int) -> bytes:
        """Decrypt one line; XOR with the same pad inverts :meth:`encrypt`."""
        size = BLOCK_SIZE
        if len(ciphertext) != size:
            self._check_len(ciphertext)
        return (
            int.from_bytes(ciphertext, "little")
            ^ self._line_pad_int(address, major, minor)
        ).to_bytes(size, "little")

    def encrypt_with_ecc(
        self,
        plaintext: bytes,
        ecc: bytes,
        address: int,
        major: int,
        minor: int,
    ) -> Tuple[bytes, bytes]:
        """Encrypt a line and its co-located ECC bits under one IV.

        Osiris (§2.4) relies on the ECC bits being encrypted together
        with the data: decrypting with a wrong counter scrambles both,
        so the ECC check fails with overwhelming probability.
        """
        size = BLOCK_SIZE
        if len(plaintext) != size:
            self._check_len(plaintext)
        ecc_len = len(ecc)
        iv = make_iv(address, major, minor)
        cipher = (
            int.from_bytes(plaintext, "little")
            ^ int.from_bytes(self.one_time_pad(iv), "little")
        ).to_bytes(size, "little")
        ecc_cipher = (
            int.from_bytes(ecc, "little")
            ^ self._ecc_pad_hash(ecc_len).value(b"ecc" + iv)
        ).to_bytes(ecc_len, "little")
        return cipher, ecc_cipher

    def decrypt_with_ecc(
        self,
        ciphertext: bytes,
        ecc_cipher: bytes,
        address: int,
        major: int,
        minor: int,
    ) -> Tuple[bytes, bytes]:
        """Inverse of :meth:`encrypt_with_ecc`."""
        return self.encrypt_with_ecc(ciphertext, ecc_cipher, address, major, minor)

    def _check_len(self, data: bytes) -> None:
        if len(data) != BLOCK_SIZE:
            raise ValueError(
                f"line must be {BLOCK_SIZE} bytes, got {len(data)}"
            )
