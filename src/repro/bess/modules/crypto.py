"""Payload-crypto NFs: Encrypt/Decrypt (AES-CBC class) and FastEncrypt
(ChaCha class).

Real AES is unnecessary for the reproduction (and its Python cost would be
wildly unrepresentative); what the evaluation needs is an *invertible,
key-dependent payload transformation* whose cycle cost comes from the
profile database. We use a SHA-256-based counter-mode keystream: correct
round-tripping (Encrypt→Decrypt == identity) is testable, payload bytes
genuinely change, and packet length is preserved.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

from repro.bess.module import Module
from repro.net.packet import Packet


_BLOCK = hashlib.sha256().digest_size


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Deterministic counter-mode keystream from SHA-256: the digests of
    ``key + nonce + counter`` for counters 0, 1, ... cut to ``length``."""
    prefix = key + nonce
    blocks = -(-length // _BLOCK)
    return b"".join(
        hashlib.sha256(prefix + counter.to_bytes(8, "big")).digest()
        for counter in range(blocks)
    )[:length]


def _packet_nonce(packet: Packet) -> bytes:
    """Per-flow nonce derived from the 5-tuple (stable across enc/dec)."""
    key = packet.flow_key_bytes()
    return key if key is not None else b"non-ip"


#: ``(key, nonce, payload)`` -> the crypted payload. The XOR is a pure
#: function of the three and replayed flows repeat their payloads, so each
#: distinct input is crypted once; shared by every instance (and so by a
#: server's rebuilt modules), capped and reset when full. The cap holds
#: 4 096 flows through each of four crypto NFs: a working set over it is
#: crypted again on every pass.
_XCRYPT_MEMO_MAX = 16384
_xcrypt_memo: Dict[Tuple[bytes, bytes, bytes], bytes] = {}


def _xcrypted(key: bytes, nonce: bytes, payload: bytes) -> bytes:
    """``payload`` XOR the keystream of ``key`` and ``nonce``, memoized."""
    memo_key = (key, nonce, payload)
    out = _xcrypt_memo.get(memo_key)
    if out is None:
        if len(_xcrypt_memo) >= _XCRYPT_MEMO_MAX:
            _xcrypt_memo.clear()
        length = len(payload)
        stream = _keystream(key, nonce, length)
        out = _xcrypt_memo[memo_key] = (
            int.from_bytes(payload, "big") ^ int.from_bytes(stream, "big")
        ).to_bytes(length, "big")
    return out


class _XCryptBase(Module):
    """Shared XOR-keystream machinery."""

    # The payload rewrite is a pure function of (key, nonce, payload); the
    # memo keys on the distinct inputs seen, never on the call count.
    vector_safe = True
    default_key = b"lemur-aes-cbc-128"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        key = self.params.get("key", self.default_key)
        self.key = key.encode() if isinstance(key, str) else bytes(key)

    def _xcrypt(self, packet: Packet) -> None:
        payload = packet.payload
        if payload:
            packet.payload = _xcrypted(self.key, _packet_nonce(packet),
                                       payload)


class EncryptModule(_XCryptBase):
    """128-bit AES-CBC stand-in (Table 3)."""

    nf_class = "Encrypt"

    def process(self, packet: Packet):
        self._xcrypt(packet)
        packet.metadata.processed_by.append(self.name)
        return [(0, packet)]


class DecryptModule(_XCryptBase):
    """Inverse of :class:`EncryptModule` (same keystream XOR)."""

    nf_class = "Decrypt"

    def process(self, packet: Packet):
        self._xcrypt(packet)
        packet.metadata.processed_by.append(self.name)
        return [(0, packet)]


class FastEncryptModule(_XCryptBase):
    """128-bit ChaCha stand-in (Table 3 "Fast Enc.").

    Functionally identical keystream XOR under a different default key; its
    profile (and the SmartNIC offload, §5.3) is what distinguishes it.
    """

    nf_class = "FastEncrypt"
    default_key = b"lemur-chacha-20!"

    def process(self, packet: Packet):
        self._xcrypt(packet)
        packet.metadata.processed_by.append(self.name)
        return [(0, packet)]
