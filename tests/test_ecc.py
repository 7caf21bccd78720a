"""Unit and property tests for the SECDED ECC codec."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mem.ecc import _BYTE_TABLES, ECC_BYTES, SecdedCodec

LINE = bytes(range(64))


@pytest.fixture
def codec():
    return SecdedCodec()


def reference_code(word: int) -> int:
    """Hamming(72,64) SECDED code of ``word``, one bit at a time.

    Data bit *i* sits at the *i*-th non-power-of-two codeword position
    (1-based); parity bit *j* covers every position with bit *j* set;
    bit 7 is the parity of all data and Hamming bits.
    """
    positions = [pos for pos in range(1, 72) if pos & (pos - 1)][:64]
    code = 0
    for j in range(7):
        parity = 0
        for bit_index, pos in enumerate(positions):
            if pos >> j & 1:
                parity ^= word >> bit_index & 1
        code |= parity << j
    overall = 0
    for bit in range(64):
        overall ^= word >> bit & 1
    for j in range(7):
        overall ^= code >> j & 1
    return code | overall << 7


def encode_word(word: int) -> int:
    """The 8-bit SECDED code of a 64-bit word, from the byte tables
    ``SecdedCodec.encode_line`` looks codes up in: the XOR of each
    byte's code in its place."""
    code = 0
    for k, table in enumerate(_BYTE_TABLES):
        code ^= table[word >> 8 * k & 0xFF]
    return code


class TestEncodeWord:
    def test_code_is_8_bits(self):
        for word in (0, 1, (1 << 64) - 1, 0xDEADBEEF):
            assert 0 <= encode_word(word) <= 0xFF

    def test_clean_word_checks(self, codec):
        word = 0x0123456789ABCDEF
        code = encode_word(word)
        ok, fixed = codec.check_word(word, code)
        assert ok
        assert fixed == word

    def test_single_bit_flip_corrected(self, codec):
        word = 0x0123456789ABCDEF
        code = encode_word(word)
        for bit in (0, 17, 63):
            flipped = word ^ (1 << bit)
            ok, fixed = codec.check_word(flipped, code)
            assert ok
            assert fixed == word

    def test_double_bit_flip_detected(self, codec):
        word = 0x0123456789ABCDEF
        code = encode_word(word)
        flipped = word ^ 0b11
        ok, _fixed = codec.check_word(flipped, code)
        assert not ok

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_encode_word_matches_bitwise_reference(self, word):
        assert encode_word(word) == reference_code(word)

    def test_encode_word_matches_reference_on_single_bits(self):
        for bit in range(64):
            assert encode_word(1 << bit) == reference_code(1 << bit)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_clean_property(self, word):
        codec = SecdedCodec()
        ok, fixed = codec.check_word(word, encode_word(word))
        assert ok and fixed == word

    @given(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=0, max_value=63),
    )
    def test_single_flip_corrected_property(self, word, bit):
        codec = SecdedCodec()
        code = encode_word(word)
        ok, fixed = codec.check_word(word ^ (1 << bit), code)
        assert ok and fixed == word

    @given(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    )
    def test_double_flip_detected_property(self, word, bit_a, bit_b):
        if bit_a == bit_b:
            return
        codec = SecdedCodec()
        code = encode_word(word)
        ok, _fixed = codec.check_word(
            word ^ (1 << bit_a) ^ (1 << bit_b), code
        )
        assert not ok


class TestLineApi:
    def test_encode_line_size(self, codec):
        assert len(codec.encode_line(LINE)) == ECC_BYTES

    def test_encode_line_rejects_bad_size(self, codec):
        with pytest.raises(ValueError):
            codec.encode_line(b"short")

    def test_clean_line_is_sane(self, codec):
        assert codec.is_sane(LINE, codec.encode_line(LINE))

    def test_corrupted_line_is_insane(self, codec):
        ecc = codec.encode_line(LINE)
        corrupted = bytes([LINE[0] ^ 1]) + LINE[1:]
        assert not codec.is_sane(corrupted, ecc)

    def test_is_sane_rejects_bad_lengths(self, codec):
        assert not codec.is_sane(b"x", b"y")

    def test_is_sane_agrees_with_per_word_check(self, codec):
        def per_word(line, ecc):
            if len(line) != 64 or len(ecc) != ECC_BYTES:
                return False
            return all(
                encode_word(int.from_bytes(line[i : i + 8], "little"))
                == ecc[i // 8]
                for i in range(0, 64, 8)
            )

        rng = random.Random(7)
        cases = [(b"x", b"y"), (LINE, b""), (LINE[:63], bytes(8)),
                 (LINE + b"\0", codec.encode_line(LINE)),
                 (LINE, codec.encode_line(LINE) + b"\0")]
        for _ in range(8):
            line = rng.randbytes(64)
            ecc = codec.encode_line(line)
            cases.append((line, ecc))
            cases.append((line, rng.randbytes(ECC_BYTES)))
            for bit in range(64 * 8):
                flipped = bytearray(line)
                flipped[bit // 8] ^= 1 << bit % 8
                cases.append((bytes(flipped), ecc))
            for bit in range(ECC_BYTES * 8):
                flipped = bytearray(ecc)
                flipped[bit // 8] ^= 1 << bit % 8
                cases.append((line, bytes(flipped)))
        verdicts = [codec.is_sane(line, ecc) for line, ecc in cases]
        assert verdicts == [per_word(line, ecc) for line, ecc in cases]
        assert any(verdicts) and not all(verdicts)

    def test_correct_line_fixes_one_flip_per_word(self, codec):
        ecc = codec.encode_line(LINE)
        corrupted = bytearray(LINE)
        corrupted[3] ^= 0x10   # word 0
        corrupted[40] ^= 0x02  # word 5
        ok, repaired = codec.correct_line(bytes(corrupted), ecc)
        assert ok
        assert repaired == LINE

    def test_correct_line_reports_double_flip(self, codec):
        ecc = codec.encode_line(LINE)
        corrupted = bytearray(LINE)
        corrupted[0] ^= 0x03  # two bits in the same word
        ok, _repaired = codec.correct_line(bytes(corrupted), ecc)
        assert not ok

    def test_random_garbage_virtually_never_sane(self, codec):
        # The Osiris contract: a wrong-counter decrypt (uniform noise)
        # passes with probability 2^-64.  100 random lines must all fail.
        rng = random.Random(42)
        failures = 0
        for _ in range(100):
            noise = bytes(rng.randrange(256) for _ in range(64))
            ecc = bytes(rng.randrange(256) for _ in range(ECC_BYTES))
            if not codec.is_sane(noise, ecc):
                failures += 1
        assert failures == 100

    @given(st.binary(min_size=64, max_size=64))
    def test_encode_line_is_eight_word_codes(self, line):
        codec = SecdedCodec()
        expected = bytes(
            encode_word(int.from_bytes(line[i : i + 8], "little"))
            for i in range(0, 64, 8)
        )
        assert codec.encode_line(line) == expected

    @given(st.binary(min_size=64, max_size=64))
    def test_line_roundtrip_property(self, line):
        codec = SecdedCodec()
        assert codec.is_sane(line, codec.encode_line(line))
