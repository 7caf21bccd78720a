"""Cryptographic substrate: keys, hashes/MACs, and counter-mode encryption.

Real secure processors use AES-CTR and SHA-class hash engines.  For the
simulator we substitute keyed BLAKE2b throughout (see DESIGN.md §2): what
the evaluation needs is that (a) decrypting with the wrong counter yields
garbage, (b) any tamper is detected by a hash/MAC mismatch, and (c) the
whole pipeline is deterministic given the processor key.  BLAKE2b gives
all three at Python speed.
"""

from repro.crypto.keys import ProcessorKeys
from repro.crypto.hashes import hash64, mac56, truncated_digest
from repro.crypto.ctr import CounterModeEngine, make_iv

__all__ = [
    "ProcessorKeys",
    "hash64",
    "mac56",
    "truncated_digest",
    "CounterModeEngine",
    "make_iv",
]
