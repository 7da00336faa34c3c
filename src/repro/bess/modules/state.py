"""Stateful accounting NFs: Monitor, Limiter, Dedup."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.bess.module import Module
from repro.net.packet import Packet


@dataclass
class FlowStats:
    packets: int = 0
    bytes: int = 0
    first_seen_us: float = 0.0
    last_seen_us: float = 0.0


class MonitorModule(Module):
    """Per-flow statistics (Table 3): packet/byte counters per 5-tuple."""

    nf_class = "Monitor"
    # NOT vector_safe (inherits False): per-packet state evolution.

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.flows: Dict[tuple, FlowStats] = {}

    def process(self, packet: Packet):
        five = packet.five_tuple()
        if five is not None:
            stats = self.flows.get(five)
            now = packet.metadata.timestamp_us
            if stats is None:
                stats = FlowStats(first_seen_us=now)
                self.flows[five] = stats
            stats.packets += 1
            stats.bytes += len(packet)
            stats.last_seen_us = now
        packet.metadata.processed_by.append(self.name)
        return [(0, packet)]

    def top_flows(self, n: int = 10):
        """Heaviest flows by bytes (operator-facing stats API)."""
        ranked = sorted(
            self.flows.items(), key=lambda kv: -kv[1].bytes
        )
        return ranked[:n]


class LimiterModule(Module):
    """Token-bucket rate limiter (Table 3) — stateful, non-replicable.

    ``rate_mbps`` refills the bucket; ``burst_bytes`` bounds it. Packet
    timestamps (metadata.timestamp_us) drive refill, so the limiter is
    deterministic under simulated time. Lemur also uses rate limiting to
    enforce t_max at chain entry (§4.2 / §7).
    """

    nf_class = "Limiter"
    # NOT vector_safe (inherits False): per-packet state evolution.

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rate_mbps = float(self.params.get("rate_mbps", 10_000.0))
        self.burst_bytes = int(self.params.get("burst_bytes", 512 * 1024))
        self._tokens = float(self.burst_bytes)
        self._last_us = 0.0
        self.conforming = 0
        self.exceeded = 0

    def process(self, packet: Packet):
        now = packet.metadata.timestamp_us
        if now > self._last_us:
            refill = (now - self._last_us) * self.rate_mbps / 8.0
            self._tokens = min(self.burst_bytes, self._tokens + refill)
            self._last_us = now
        size = len(packet)
        if self._tokens >= size:
            self._tokens -= size
            self.conforming += 1
            packet.metadata.processed_by.append(self.name)
            return [(0, packet)]
        self.exceeded += 1
        packet.metadata.drop_flag = True
        return []


#: Payload bytes -> its ``(chunk, digest)`` pairs. Fingerprinting is a pure
#: function of the payload, and replayed flows repeat their payloads, so
#: each distinct payload is hashed once; shared by every Dedup instance,
#: capped and reset when full.
_DIGEST_MEMO_MAX = 1024
_digest_memo: Dict[Tuple[bytes, int], Tuple[Tuple[bytes, bytes], ...]] = {}


def _chunk_digests(payload: bytes, size: int
                   ) -> Tuple[Tuple[bytes, bytes], ...]:
    """Each whole ``size``-byte chunk of ``payload`` with its 8-byte
    BLAKE2b fingerprint, in order (a shorter tail is not a chunk)."""
    key = (payload, size)
    pairs = _digest_memo.get(key)
    if pairs is None:
        if len(_digest_memo) >= _DIGEST_MEMO_MAX:
            _digest_memo.clear()
        pairs = _digest_memo[key] = tuple(
            (chunk, hashlib.blake2b(chunk, digest_size=8).digest())
            for chunk in (payload[offset:offset + size]
                          for offset in range(0, len(payload) - size + 1,
                                              size))
        )
    return pairs


class DedupModule(Module):
    """Network redundancy elimination (EndRE-style, Table 3).

    Payloads are split into fixed-size chunks; chunk fingerprints are
    cached, and previously-seen chunks are replaced by a short token, so
    the NF's egress byte-rate is below its ingress rate on redundant
    traffic (§5.2 "data-dependent NFs"). The fingerprint store is the
    per-flow state that makes Dedup stateful.
    """

    nf_class = "Dedup"
    # NOT vector_safe (inherits False): per-packet state evolution.

    CHUNK = 64
    TOKEN_MAGIC = b"\xde\xd0"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.max_entries = int(self.params.get("entries", 65536))
        self._store: Dict[bytes, int] = {}
        self._next_token = 0
        self.hits = 0
        self.misses = 0
        self.bytes_in = 0
        self.bytes_out = 0

    def process(self, packet: Packet):
        payload = packet.payload
        self.bytes_in += len(payload)
        if len(payload) >= self.CHUNK:
            out = bytearray()
            for chunk, digest in _chunk_digests(payload, self.CHUNK):
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
            payload = bytes(out)
            packet.payload = payload
        self.bytes_out += len(payload)
        packet.metadata.processed_by.append(self.name)
        return [(0, packet)]

    @property
    def compression_ratio(self) -> float:
        """bytes_out / bytes_in (1.0 = no redundancy eliminated)."""
        if self.bytes_in == 0:
            return 1.0
        return self.bytes_out / self.bytes_in

    def account(self, packet: Packet, scale: float = 1.0) -> None:
        """Dedup's cycle cost is content-dependent (§5.2): cache hits are
        cheaper than misses (no store insertion). We scale the profiled
        cost down slightly for mostly-duplicate packets."""
        total = self.hits + self.misses
        hit_ratio = self.hits / total if total else 0.0
        super().account(packet, scale=scale * (1.0 - 0.25 * hit_ratio))
