"""SECDED ECC codec used as Osiris's counter sanity check (§2.4).

Real NVDIMMs store Hamming SECDED codes alongside each 64-bit word —
8 ECC bits per word, 8 bytes per 64B line.  Osiris encrypts the ECC bits
together with the data, so decrypting a line with the *wrong* counter
scrambles both data and code and the SECDED check fails with probability
1 - 2^-64 across the eight words of a line.  That failure probability is
the entire contract Osiris needs, and this codec provides it with a real
Hamming(72,64) code, not a keyed digest: single-bit flips are genuinely
correctable, double-bit flips genuinely detected, which the tests verify.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.config import BLOCK_SIZE

#: ECC bytes per 64B line (one 8-bit SECDED code per 64-bit word).
ECC_BYTES = 8

_WORD_BITS = 64
_PARITY_BITS = 7  # covers codeword positions 1..127 (71 used)
_CODE_POSITIONS = _WORD_BITS + _PARITY_BITS  # 71 positions, 1-based


def _data_positions() -> List[int]:
    """Codeword positions (1-based) holding data bits: the non-powers-of-two."""
    positions = []
    pos = 1
    while len(positions) < _WORD_BITS:
        if pos & (pos - 1):  # not a power of two
            positions.append(pos)
        pos += 1
    return positions


_DATA_POSITIONS = _data_positions()

# For each parity bit i (covering positions with bit i set), precompute a
# mask over the 64 data-bit indices it covers.
_PARITY_MASKS: List[int] = []
for _i in range(_PARITY_BITS):
    _mask = 0
    for _bit_index, _pos in enumerate(_DATA_POSITIONS):
        if _pos & (1 << _i):
            _mask |= 1 << _bit_index
    _PARITY_MASKS.append(_mask)


def _parity64(value: int) -> int:
    """Parity (popcount mod 2) of a <=128-bit integer."""
    return value.bit_count() & 1


def _encode_word_bitwise(word: int) -> int:
    """The SECDED code of a 64-bit word, straight from the definition.

    Bits 0..6 are the Hamming parity bits; bit 7 is the overall parity
    over data and Hamming bits.
    """
    code = 0
    for i in range(_PARITY_BITS):
        code |= _parity64(word & _PARITY_MASKS[i]) << i
    overall = _parity64(word) ^ _parity64(code & 0x7F)
    return code | (overall << 7)


# Every code bit is a parity over data bits, so the code is linear over
# GF(2): a word's code is the XOR of the codes of its eight bytes, each
# in place.  _BYTE_TABLES[k][b] is the code of byte value b at byte k;
# each row is also a bytes.translate table.
_BYTE_TABLES: List[bytes] = [
    bytes(_encode_word_bitwise(value << (8 * k)) for value in range(256))
    for k in range(8)
]


def line_code(line: bytes) -> int:
    """The SECDED code of a 64B line as a little-endian integer: byte
    ``k`` is word ``k``'s code (the integer form of
    :meth:`SecdedCodec.encode_line`, for callers that pack it)."""
    # line[k::8] is byte k of every word; translating it through byte
    # k's table gives that byte's share of all eight codes.
    codes = 0
    for k, table in enumerate(_BYTE_TABLES):
        codes ^= int.from_bytes(line[k::8].translate(table), "little")
    return codes


class SecdedCodec:
    """Hamming(72,64) SECDED over each 64-bit word of a 64B line."""

    def check_word(self, word: int, code: int) -> Tuple[bool, int]:
        """Check one word; returns ``(clean_or_corrected, corrected_word)``.

        * syndrome 0, parity ok   -> clean.
        * syndrome != 0, parity bad -> single-bit error, corrected.
        * anything else            -> uncorrectable (returns ``False``).
        """
        expected = 0
        for i in range(_PARITY_BITS):
            expected |= _parity64(word & _PARITY_MASKS[i]) << i
        syndrome = (code & 0x7F) ^ expected
        parity_ok = (
            _parity64(word) ^ _parity64(code & 0x7F) == (code >> 7) & 1
        )
        if syndrome == 0 and parity_ok:
            return True, word
        if syndrome != 0 and not parity_ok:
            # syndrome names the flipped codeword position; only data
            # positions are repairable here (a flipped parity bit leaves
            # the data intact).
            if syndrome in _DATA_POSITIONS:
                bit_index = _DATA_POSITIONS.index(syndrome)
                return True, word ^ (1 << bit_index)
            if syndrome <= _CODE_POSITIONS:
                return True, word  # parity-bit flip; data is fine
        return False, word

    # ------------------------------------------------------------------
    # line-level API used by the controllers
    # ------------------------------------------------------------------

    def encode_line(self, line: bytes) -> bytes:
        """ECC bytes (8) for a 64B line, one code per 64-bit word."""
        if len(line) != BLOCK_SIZE:
            raise ValueError(f"line must be {BLOCK_SIZE} bytes")
        return line_code(line).to_bytes(ECC_BYTES, "little")

    def is_sane(self, line: bytes, ecc: bytes) -> bool:
        """Osiris sanity check: True iff every word is clean (no errors).

        Osiris treats *any* syndrome as a failed counter trial — a wrong
        counter turns the decrypted line into uniform noise, which
        passes all eight word checks with probability 2^-64.
        """
        if len(line) != BLOCK_SIZE or len(ecc) != ECC_BYTES:
            return False
        # Clean means every word's stored code is its recomputed code.
        return self.encode_line(line) == ecc

    def correct_line(self, line: bytes, ecc: bytes) -> Tuple[bool, bytes]:
        """Correct up to one bit flip per word; ``(ok, corrected_line)``."""
        if len(line) != BLOCK_SIZE or len(ecc) != ECC_BYTES:
            return False, line
        repaired = bytearray(line)
        for word_index in range(ECC_BYTES):
            word = int.from_bytes(
                line[word_index * 8 : word_index * 8 + 8], "little"
            )
            ok, fixed = self.check_word(word, ecc[word_index])
            if not ok:
                return False, bytes(line)
            repaired[word_index * 8 : word_index * 8 + 8] = fixed.to_bytes(
                8, "little"
            )
        return True, bytes(repaired)
