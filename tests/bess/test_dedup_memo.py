"""Dedup takes each payload's chunk fingerprints from a memo.

``repro.bess.modules.state._chunk_digests`` hashes a distinct payload once
and hands back its ``(chunk, digest)`` pairs; the store, its hit/miss
counts, token allocation and the hit ratio ``account`` scales by must
stay exactly what the per-chunk loop below (the module's previous
``process``, kept verbatim as the oracle) makes of the same packets.
"""

import hashlib
import types

import pytest

from repro.bess.modules import make_nf_module
from repro.bess.modules import state
from repro.net.packet import Packet
from repro.profiles.defaults import default_profiles


def _process(self, packet: Packet):
    payload = packet.payload
    self.bytes_in += len(payload)
    if len(payload) >= self.CHUNK:
        out = bytearray()
        for offset in range(0, len(payload) - self.CHUNK + 1, self.CHUNK):
            chunk = bytes(payload[offset:offset + self.CHUNK])
            digest = hashlib.blake2b(chunk, digest_size=8).digest()
            token = self._store.get(digest)
            if token is not None:
                self.hits += 1
                out += self.TOKEN_MAGIC + token.to_bytes(4, "big")
            else:
                self.misses += 1
                if len(self._store) < self.max_entries:
                    self._store[digest] = self._next_token
                    self._next_token += 1
                out += chunk
        tail_start = (len(payload) // self.CHUNK) * self.CHUNK
        out += payload[tail_start:]
        packet.payload = bytes(out)
    self.bytes_out += len(packet.payload)
    packet.metadata.processed_by.append(self.name)
    return [(0, packet)]


def _pair(entries=None):
    params = {} if entries is None else {"entries": entries}
    profiles = default_profiles()
    live = make_nf_module("Dedup", params, name="dedup", database=profiles)
    oracle = make_nf_module("Dedup", params, name="dedup",
                            database=profiles)
    oracle.process = types.MethodType(_process, oracle)
    return live, oracle


def _state(module):
    return (module.hits, module.misses, module._next_token,
            list(module._store.items()), module.bytes_in, module.bytes_out,
            module.rx_packets, module.tx_packets, module.cycles_charged,
            module._rng.getstate())


SHORT = b"x" * 40                                  # under one chunk
TAILED = bytes(range(64)) * 2 + b"tail-bytes"      # two chunks and a tail
EXACT = bytes(range(64, 128)) * 3                  # three chunks, no tail
MIXED = bytes(range(64)) + bytes(range(64, 128)) + bytes(range(128, 192))


@pytest.mark.parametrize("entries", [None, 2])
def test_memo_matches_the_per_chunk_loop(entries):
    """Same outputs, store and counters, and the same charge per packet
    (``account`` reads the hit ratio the previous packet left), with the
    store unbounded and at ``max_entries`` = 2 after the first payload."""
    live, oracle = _pair(entries)
    state._digest_memo.clear()
    sequence = [SHORT, TAILED, TAILED, EXACT, MIXED, SHORT, EXACT, TAILED,
                MIXED, MIXED]
    for payload in sequence:
        got = live.receive_batch([Packet.build(payload=payload)])
        want = oracle.receive_batch([Packet.build(payload=payload)])
        assert [(g, p.data, p.metadata.cycles_consumed) for g, p in got] \
            == [(g, p.data, p.metadata.cycles_consumed) for g, p in want]
        assert _state(live) == _state(oracle)
    if entries is not None:
        assert len(live._store) == entries
        assert live.misses > entries


def test_each_distinct_payload_is_hashed_once(monkeypatch):
    calls = []
    real = hashlib.blake2b

    def counting(data, **kwargs):
        calls.append(len(data))
        return real(data, **kwargs)

    monkeypatch.setattr(state.hashlib, "blake2b", counting)
    state._digest_memo.clear()
    dedup, _ = _pair()
    for payload in (TAILED, EXACT, TAILED, EXACT, SHORT, TAILED):
        dedup.receive_batch([Packet.build(payload=payload)])
    # two chunks of TAILED, three of EXACT; SHORT has none
    assert calls == [64] * 5


def test_the_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(state, "_DIGEST_MEMO_MAX", 4)
    state._digest_memo.clear()
    for i in range(10):
        state._chunk_digests(bytes([i]) * 64, 64)
        assert len(state._digest_memo) <= 4
