"""Hash and MAC primitives for integrity trees.

Field widths follow the paper: general (Bonsai) trees store eight 8-byte
hashes per 64B node, so child hashes are 64-bit; SGX-style nodes carry a
56-bit MAC computed over the node's eight nonces and one nonce from the
parent node (§2.3.2, Fig. 3).

Hot owners (the tree engines, the data MAC, the CTR pads, the Shadow
Table) each hold a :class:`KeyedHash` built once from their key; the
plain functions below build a fresh keyed state per call.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.util.bitops import mask

#: Width of a Bonsai child hash in bytes (8 hashes fill a 64B node).
HASH64_BYTES = 8

#: Width of an SGX node MAC in bits (Fig. 9b / §4.3).
MAC_BITS = 56
_MAC_MASK = mask(MAC_BITS)


class KeyedHash:
    """Keyed BLAKE2b built once per key, copied per digest.

    Constructing a keyed BLAKE2b sets up its parameter block and absorbs
    the padded key block on every call.  This object does that once and
    hands each digest a ``.copy()`` of the keyed state, so
    :meth:`digest` returns exactly
    ``hashlib.blake2b(payload, key=key, digest_size=digest_size).digest()``.
    :meth:`value` is that digest as a little-endian integer, cut to its
    low ``bits`` bits (all of them by default).
    """

    __slots__ = ("_state", "_mask")

    def __init__(
        self, key: bytes, digest_size: int, bits: Optional[int] = None
    ) -> None:
        self._state = hashlib.blake2b(key=key, digest_size=digest_size)
        self._mask = mask(8 * digest_size if bits is None else bits)

    def digest(self, payload: bytes) -> bytes:
        """Keyed digest of ``payload``."""
        state = self._state.copy()
        state.update(payload)
        return state.digest()

    def value(self, payload: bytes) -> int:
        """Keyed digest of ``payload`` as a (masked) integer."""
        state = self._state.copy()
        state.update(payload)
        return int.from_bytes(state.digest(), "little") & self._mask


def hash64_keyed(key: bytes) -> KeyedHash:
    """Pre-keyed :func:`hash64`: ``.value(p) == hash64(key, p)``."""
    return KeyedHash(key, HASH64_BYTES)


def mac56_keyed(key: bytes) -> KeyedHash:
    """Pre-keyed :func:`mac56`: ``.value(p) == mac56(key, p)``."""
    return KeyedHash(key, 8, MAC_BITS)


def truncated_digest(key: bytes, payload: bytes, digest_size: int) -> bytes:
    """Keyed BLAKE2b digest truncated to ``digest_size`` bytes."""
    return hashlib.blake2b(payload, key=key, digest_size=digest_size).digest()


def hash64(key: bytes, payload: bytes) -> int:
    """64-bit keyed hash used for Bonsai tree nodes.

    Returns an integer so callers can pack eight of them into a node.
    """
    digest = truncated_digest(key, payload, HASH64_BYTES)
    return int.from_bytes(digest, "little")


def mac56(key: bytes, payload: bytes) -> int:
    """56-bit keyed MAC, one keyed state per call.

    The simulator's MAC owners (the data MAC, SGX tree nodes) hold a
    :func:`mac56_keyed` instead; this is the reference it must match.
    """
    digest = truncated_digest(key, payload, 8)
    return int.from_bytes(digest, "little") & _MAC_MASK

