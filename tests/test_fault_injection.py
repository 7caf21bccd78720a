"""Soft-error (bit-flip) injection tests: the SECDED repair path.

Counter-mode encryption turns one flipped NVM cell into one flipped
plaintext bit, so the Hamming(72,64) sideband can repair genuine soft
errors transparently — while a *tampered* line (many changed bits) or a
wrong counter still fails hard.  These tests separate the three cases.
"""

import pytest

from repro.config import SchemeKind, TreeKind
from repro.errors import IntegrityError, LayoutError

from tests.helpers import line, make_controller, payload


class TestSingleBitRepair:
    def test_data_flip_corrected_on_read(self):
        controller = make_controller()
        controller.write(line(0), payload(1))
        controller.wpq.drain_all()
        controller.nvm.inject_bit_flip(0, bit=100)
        assert controller.read(line(0)) == payload(1)
        assert controller.ecc_corrections == 1

    def test_flip_in_each_word_position(self):
        controller = make_controller()
        controller.write(line(0), payload(9))
        controller.wpq.drain_all()
        pristine = controller.nvm.peek(0)
        for bit in (0, 63, 64, 300, 511):
            previous = controller.nvm.inject_bit_flip(0, bit=bit)
            assert previous in (0, 1)
            assert controller.read(line(0)) == payload(9)
            # restore the device image for the next round
            controller.nvm.poke(0, pristine)

    def test_flip_reports_previous_bit_value(self):
        controller = make_controller()
        controller.write(line(0), payload(3))
        controller.wpq.drain_all()
        before = controller.nvm.inject_bit_flip(0, bit=42)
        after = controller.nvm.inject_bit_flip(0, bit=42)
        assert {before, after} == {0, 1}  # second flip undoes the first

    def test_batch_flips_one_per_word_corrected(self):
        controller = make_controller()
        controller.write(line(0), payload(4))
        controller.wpq.drain_all()
        previous = controller.nvm.inject_bit_flips(0, [5, 70, 200])
        assert len(previous) == 3
        assert all(bit in (0, 1) for bit in previous)
        assert controller.read(line(0)) == payload(4)

    def test_sgx_data_flip_corrected(self):
        controller = make_controller(tree=TreeKind.SGX)
        controller.write(line(0), payload(2))
        controller.wpq.drain_all()
        controller.nvm.inject_bit_flip(0, bit=7)
        assert controller.read(line(0)) == payload(2)

    def test_correction_counted_once_per_event(self):
        controller = make_controller()
        controller.write(line(0), payload(1))
        controller.write(line(64), payload(2))
        controller.wpq.drain_all()
        controller.nvm.inject_bit_flip(0, bit=3)
        controller.read(line(0))
        controller.read(line(64))  # clean line: no correction
        assert controller.ecc_corrections == 1


class TestUncorrectableFaults:
    def test_double_flip_same_word_detected(self):
        controller = make_controller()
        controller.write(line(0), payload(1))
        controller.wpq.drain_all()
        controller.nvm.inject_bit_flip(0, bit=10)
        controller.nvm.inject_bit_flip(0, bit=11)
        with pytest.raises(IntegrityError):
            controller.read(line(0))

    def test_flips_in_two_words_both_corrected(self):
        # SECDED is per 64-bit word: one flip per word is repairable.
        controller = make_controller()
        controller.write(line(0), payload(1))
        controller.wpq.drain_all()
        controller.nvm.inject_bit_flip(0, bit=10)    # word 0
        controller.nvm.inject_bit_flip(0, bit=100)   # word 1
        assert controller.read(line(0)) == payload(1)

    def test_bad_bit_index_rejected(self):
        controller = make_controller()
        with pytest.raises(LayoutError):
            controller.nvm.inject_bit_flip(0, bit=512)


class TestRepairDoesNotMaskAttacks:
    def test_wholesale_tamper_still_detected(self):
        controller = make_controller()
        controller.write(line(0), payload(1))
        controller.wpq.drain_all()
        controller.nvm.poke(0, b"\x5a" * 64)
        with pytest.raises(IntegrityError):
            controller.read(line(0))

    def test_stale_counter_still_detected(self):
        # A single-bit-repair path must not quietly accept a replayed
        # line: the wrong pad scrambles every word, far beyond SECDED.
        controller = make_controller(SchemeKind.WRITE_BACK)
        controller.write(line(0), payload(1))
        controller.write(line(0), payload(2))
        controller.wpq.drain_all()
        # drop the counter cache: stale (zero) counters come from NVM
        controller.counter_cache.drop_all_volatile()
        controller.merkle_cache.drop_all_volatile()
        with pytest.raises(IntegrityError):
            controller.read(line(0))

    def test_flip_repaired_line_still_macs(self):
        # After repair the MAC is computed over the *repaired* plaintext
        # and must match — repair restores exactly the written data.
        controller = make_controller()
        controller.write(line(0), payload(1))
        controller.wpq.drain_all()
        controller.nvm.inject_bit_flip(0, bit=77)
        assert controller.read(line(0)) == payload(1)  # MAC verified inside
