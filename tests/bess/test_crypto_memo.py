"""Encrypt, Decrypt and FastEncrypt share one process-wide output memo.

``repro.bess.modules.crypto._xcrypted`` crypts a distinct ``(key, nonce,
payload)`` once for every instance, so a module built again after a
redeploy starts warm. Outputs must stay what the uncached keystream XOR
makes, the memo must stay within its cap, and a key must not alias another.
"""

import pytest

from repro.bess.modules import crypto, make_nf_module
from repro.net.packet import Packet


#: the keystream itself, uncounted
_KEYSTREAM = crypto._keystream


def _uncached(key: bytes, packet: Packet) -> bytes:
    payload = packet.payload
    stream = _KEYSTREAM(key, crypto._packet_nonce(packet),
                       len(payload))
    return bytes(a ^ b for a, b in zip(payload, stream))


@pytest.fixture()
def keystreams(monkeypatch):
    """A cold memo, and a count of keystreams computed from here on."""
    monkeypatch.setattr(crypto, "_xcrypt_memo", {})
    calls = []

    def counted(*args):
        calls.append(args)
        return _KEYSTREAM(*args)

    monkeypatch.setattr(crypto, "_keystream", counted)
    return calls


@pytest.mark.parametrize("nf", ["Encrypt", "Decrypt", "FastEncrypt"])
def test_a_rebuilt_module_hits_the_memo(keystreams, nf):
    packets = [Packet.build(src_port=1000 + i, payload=b"x" * (40 + i))
               for i in range(3)]
    first = make_nf_module(nf, {}, name="m")
    want = [_uncached(first.key, p) for p in packets]
    assert [first.receive(p.copy())[0][1].payload for p in packets] == want
    assert len(keystreams) == 3
    rebuilt = make_nf_module(nf, {}, name="m")
    assert [rebuilt.receive(p.copy())[0][1].payload
            for p in packets] == want
    assert len(keystreams) == 3  # every input was crypted before


def test_keys_do_not_alias(keystreams):
    packet = Packet.build(payload=b"same payload")
    outs = [make_nf_module(nf, {}, name="m").receive(packet.copy())[0][1]
            .payload for nf in ("Encrypt", "FastEncrypt")]
    assert outs[0] != outs[1]
    assert outs == [_uncached(b"lemur-aes-cbc-128", packet),
                    _uncached(b"lemur-chacha-20!", packet)]
    assert len(keystreams) == 2


def test_the_memo_is_bounded(keystreams, monkeypatch):
    monkeypatch.setattr(crypto, "_XCRYPT_MEMO_MAX", 4)
    module = make_nf_module("Encrypt", {}, name="m")
    for i in range(11):
        packet = Packet.build(src_port=2000 + i, payload=b"p" * 32)
        out = module.receive(packet.copy())[0][1]
        assert out.payload == _uncached(module.key, packet)
        assert len(crypto._xcrypt_memo) <= 4
    assert len(keystreams) == 11
