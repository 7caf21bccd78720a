"""Unit and property tests for the crypto substrate."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.ctr import CounterModeEngine, make_iv
from repro.crypto.hashes import hash64, mac56
from repro.crypto.keys import ProcessorKeys

LINE = bytes(range(64))


@pytest.fixture(scope="module")
def sgx_engine():
    """The SGX tree's MAC engine, keyed by ``ProcessorKeys(3)``."""
    from repro.config import TreeKind
    from repro.integrity.sgx_tree import SgxTreeEngine

    from tests.helpers import make_controller

    layout = make_controller(tree=TreeKind.SGX, seed=3).layout
    return SgxTreeEngine(ProcessorKeys(3), layout)


class TestProcessorKeys:
    def test_deterministic(self):
        assert ProcessorKeys(5) == ProcessorKeys(5)
        assert ProcessorKeys(5).encryption_key == ProcessorKeys(5).encryption_key

    def test_different_seeds_differ(self):
        assert ProcessorKeys(1).encryption_key != ProcessorKeys(2).encryption_key

    def test_domain_separation(self):
        keys = ProcessorKeys(0)
        derived = {
            keys.encryption_key,
            keys.tree_key,
            keys.mac_key,
            keys.shadow_key,
        }
        assert len(derived) == 4

    def test_hashable(self):
        assert hash(ProcessorKeys(3)) == hash(ProcessorKeys(3))


class TestHashes:
    def test_hash64_fits_64_bits(self):
        keys = ProcessorKeys(0)
        value = hash64(keys.tree_key, LINE)
        assert 0 <= value < (1 << 64)

    def test_hash64_deterministic(self):
        keys = ProcessorKeys(0)
        assert hash64(keys.tree_key, LINE) == hash64(keys.tree_key, LINE)

    def test_hash64_keyed(self):
        assert hash64(ProcessorKeys(0).tree_key, LINE) != hash64(
            ProcessorKeys(9).tree_key, LINE
        )

    def test_mac56_fits_56_bits(self):
        value = mac56(ProcessorKeys(0).mac_key, LINE)
        assert 0 <= value < (1 << 56)

    def test_sgx_mac_binds_parent_nonce(self, sgx_engine):
        from repro.counters.sgx import SgxCounterBlock

        node = SgxCounterBlock(list(range(8)), 0)
        assert sgx_engine.compute_mac(node, 1) != sgx_engine.compute_mac(
            node, 2
        )

    def test_sgx_mac_binds_counters(self, sgx_engine):
        from repro.counters.sgx import SgxCounterBlock

        assert sgx_engine.compute_mac(
            SgxCounterBlock([0] * 8, 0), 0
        ) != sgx_engine.compute_mac(SgxCounterBlock([1] + [0] * 7, 0), 0)


#: An ECC sideband that rides each line's IV.
ECC = b"\xaa" * 16


def seal(engine, plaintext, address, major, minor):
    """Ciphertext of one line, sealed with its ECC under one IV."""
    return engine.encrypt_with_ecc(plaintext, ECC, address, major, minor)[0]


def unseal(engine, ciphertext, address, major, minor):
    """Plaintext of one line opened under ``(address, major, minor)``."""
    return engine.decrypt_with_ecc(ciphertext, ECC, address, major, minor)[0]


class TestCounterMode:
    @pytest.fixture
    def engine(self):
        return CounterModeEngine(ProcessorKeys(0))

    def test_roundtrip(self, engine):
        cipher = seal(engine, LINE, 0x40, 3, 7)
        assert unseal(engine, cipher, 0x40, 3, 7) == LINE

    def test_ciphertext_differs_from_plaintext(self, engine):
        assert seal(engine, LINE, 0x40, 3, 7) != LINE

    def test_wrong_minor_garbles(self, engine):
        cipher = seal(engine, LINE, 0x40, 3, 7)
        assert unseal(engine, cipher, 0x40, 3, 8) != LINE

    def test_wrong_major_garbles(self, engine):
        cipher = seal(engine, LINE, 0x40, 3, 7)
        assert unseal(engine, cipher, 0x40, 4, 7) != LINE

    def test_wrong_address_garbles(self, engine):
        cipher = seal(engine, LINE, 0x40, 3, 7)
        assert unseal(engine, cipher, 0x80, 3, 7) != LINE

    def test_spatial_uniqueness(self, engine):
        # Same data + counter at two addresses: different ciphertext.
        assert seal(engine, LINE, 0x40, 0, 0) != seal(engine, LINE, 0x80, 0, 0)

    def test_temporal_uniqueness(self, engine):
        assert seal(engine, LINE, 0x40, 0, 0) != seal(engine, LINE, 0x40, 0, 1)

    def test_pad_reuse_is_xor_leak(self, engine):
        # The classic CTR property the whole counter-integrity story
        # protects against: same IV twice leaks plaintext XOR.
        other = bytes(64)
        cipher_a = seal(engine, LINE, 0x40, 0, 0)
        cipher_b = seal(engine, other, 0x40, 0, 0)
        xored = bytes(a ^ b for a, b in zip(cipher_a, cipher_b))
        assert xored == bytes(a ^ b for a, b in zip(LINE, other))

    def test_rejects_wrong_length(self, engine):
        with pytest.raises(ValueError):
            seal(engine, b"short", 0, 0, 0)

    def test_ecc_rides_same_iv(self, engine):
        cipher, ecc_cipher = engine.encrypt_with_ecc(LINE, ECC, 0, 1, 2)
        plain, ecc = engine.decrypt_with_ecc(cipher, ecc_cipher, 0, 1, 2)
        assert plain == LINE
        assert ecc == ECC

    def test_ecc_garbled_by_wrong_counter(self, engine):
        _cipher, ecc_cipher = engine.encrypt_with_ecc(LINE, ECC, 0, 1, 2)
        _plain, ecc = engine.decrypt_with_ecc(LINE, ecc_cipher, 0, 1, 3)
        assert ecc != ECC

    @given(
        st.binary(min_size=64, max_size=64),
        st.integers(min_value=0, max_value=(1 << 40)),
        st.integers(min_value=0, max_value=(1 << 56) - 1),
        st.integers(min_value=0, max_value=127),
    )
    def test_roundtrip_property(self, data, address, major, minor):
        engine = CounterModeEngine(ProcessorKeys(0))
        address &= ~63
        cipher = seal(engine, data, address, major, minor)
        assert unseal(engine, cipher, address, major, minor) == data


class TestIv:
    def test_iv_layout(self):
        iv = make_iv(0x40, 1, 2)
        assert len(iv) == 24
        assert iv[:8] == (0x40).to_bytes(8, "little")

    def test_iv_uniqueness(self):
        assert make_iv(0, 0, 1) != make_iv(0, 1, 0)


def _fresh(key: bytes, payload: bytes, digest_size: int) -> bytes:
    """Reference: a keyed BLAKE2b built from scratch for one digest."""
    import hashlib

    return hashlib.blake2b(payload, key=key, digest_size=digest_size).digest()


def _fresh_int(key: bytes, payload: bytes, digest_size: int, bits=None) -> int:
    value = int.from_bytes(_fresh(key, payload, digest_size), "little")
    return value if bits is None else value & ((1 << bits) - 1)


class TestPreKeyedDigests:
    """Every owner of a pre-keyed BLAKE2b state gives the digests of a
    fresh keyed construction, digest after digest from one state."""

    KEYS = ProcessorKeys(3)

    @pytest.fixture(scope="class")
    def owners(self, sgx_engine):
        from repro.core.shadow_table import ShadowRegionTree

        from tests.helpers import make_controller

        keys = self.KEYS
        return {
            "bonsai": make_controller(seed=3),
            "sgx_engine": sgx_engine,
            "ctr": CounterModeEngine(keys, pad_memo_entries=0),
            "shadow": ShadowRegionTree(keys.shadow_key, 9),
        }

    @given(
        st.binary(min_size=0, max_size=64),
        st.integers(min_value=1, max_value=64),
        st.lists(st.binary(max_size=200), min_size=2, max_size=3),
    )
    def test_keyed_hash_matches_fresh(self, key, digest_size, payloads):
        from repro.crypto.hashes import KeyedHash

        keyed = KeyedHash(key, digest_size)
        masked = KeyedHash(key, digest_size, bits=5)
        for data in payloads:
            assert keyed.digest(data) == _fresh(key, data, digest_size)
            assert keyed.value(data) == _fresh_int(key, data, digest_size)
            assert masked.value(data) == _fresh_int(key, data, digest_size, 5)

    @given(
        st.lists(
            st.tuples(
                st.binary(min_size=64, max_size=64),
                st.integers(min_value=0, max_value=(1 << 40)).map(
                    lambda n: n * 64
                ),
                st.integers(min_value=0, max_value=(1 << 56) - 1),
                st.integers(min_value=0, max_value=127),
            ),
            min_size=2,
            max_size=3,
        )
    )
    def test_owners_match_fresh(self, owners, cases):
        import struct

        from repro.counters.sgx import SgxCounterBlock

        keys = self.KEYS
        bonsai = owners["bonsai"]
        sgx_engine = owners["sgx_engine"]
        ctr = owners["ctr"]
        shadow = owners["shadow"]
        for block, address, major, minor in cases:
            iv = make_iv(address, major, minor)
            # data MAC (controller/base.py)
            assert bonsai.data_mac(address, major, minor, block) == _fresh_int(
                keys.mac_key, iv + block, 8, 56
            )
            # Bonsai block hash (hash64 over the tree key)
            assert bonsai.engine.block_hash(block) == hash64(
                keys.tree_key, block
            ) == _fresh_int(keys.tree_key, block, 8)
            # SGX node MAC over eight nonces and the parent nonce
            node = SgxCounterBlock([major] * 8, 0)
            payload = struct.pack("<9Q", *node.counters, minor)
            assert sgx_engine.compute_mac(node, minor) == _fresh_int(
                keys.tree_key, payload, 8, 56
            )
            # CTR line pad, and the line and ECC pads of the seal path:
            # sealing zeros yields the pads themselves.
            line_pad = _fresh(keys.encryption_key, iv, 64)
            assert ctr.one_time_pad(iv) == line_pad
            for length in (8, 16):
                assert ctr.encrypt_with_ecc(
                    bytes(64), bytes(length), address, major, minor
                ) == (
                    line_pad,
                    _fresh(keys.encryption_key, b"ecc" + iv, length),
                )
            # Shadow-region tree leaf and node hashes
            assert shadow._leaf_hash(block) == _fresh_int(
                keys.shadow_key, block, 8
            )
            children = [major, minor, address, 0, 1, 2, 3, 4]
            assert shadow._group_hash(children) == _fresh_int(
                keys.shadow_key, struct.pack("<8Q", *children), 8
            )
