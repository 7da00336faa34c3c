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


#: Per-flow keystreams repeat across packets; cap the memo per module so a
#: many-flow run cannot grow without bound.
_STREAM_CACHE_MAX = 4096


class _XCryptBase(Module):
    """Shared XOR-keystream machinery."""

    # The payload rewrite is a pure function of (nonce, payload); the memo
    # keys on the distinct inputs seen, never on the call count.
    vector_safe = True
    default_key = b"lemur-aes-cbc-128"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        key = self.params.get("key", self.default_key)
        self.key = key.encode() if isinstance(key, str) else bytes(key)
        self._streams: dict = {}
        #: (nonce, payload) -> crypted payload memo — see :meth:`_xcrypt`.
        self._outputs: dict = {}

    def _xcrypt(self, packet: Packet) -> None:
        payload = packet.payload
        if not payload:
            return
        # Memoize the whole transformation: the XOR is a pure function of
        # (nonce, payload bytes), and flows replay identical payloads.
        out_key = (_packet_nonce(packet), payload)
        out = self._outputs.get(out_key)
        if out is None:
            length = len(payload)
            cache_key = (out_key[0], length)
            stream_int = self._streams.get(cache_key)
            if stream_int is None:
                if len(self._streams) >= _STREAM_CACHE_MAX:
                    self._streams.clear()
                stream = _keystream(self.key, cache_key[0], length)
                stream_int = int.from_bytes(stream, "big")
                self._streams[cache_key] = stream_int
            out = (int.from_bytes(payload, "big") ^ stream_int).to_bytes(
                length, "big"
            )
            if len(self._outputs) >= _STREAM_CACHE_MAX:
                self._outputs.clear()
            self._outputs[out_key] = out
        packet.payload = out


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
