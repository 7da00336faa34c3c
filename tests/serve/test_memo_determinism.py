"""Memos are performance state: a storm decides the same with them cold.

The compile memo (process-wide), the meta-compiler's previous-call units
and the traffic engine's flow templates make a command cost its delta.
Clearing all three before every command must change no report byte, no
per-command digest and no recovery digest — and none of them may ride
along in a pickled core (a serve checkpoint).
"""

import asyncio
import json
import pickle
import random

from repro.p4c.compiler import clear_compile_memo
from repro.serve import Arrive, Depart, InjectFault, Scale, ServeDaemon

MENU = (
    "Monitor -> IPv4Fwd",
    "ACL -> IPv4Fwd",
    "ACL -> Monitor -> IPv4Fwd",
    "BPF -> NAT -> IPv4Fwd",
    "ACL -> Encrypt -> IPv4Fwd",
)


def storm(seed: int = 11, length: int = 36):
    """A seeded arrive/scale/depart mix over a handful of names, so names
    are reused with different bodies, scales move only rates, and some
    requests (oversize floors, duplicates) are rejected."""
    rng = random.Random(seed)
    alive = []
    commands = []
    for index in range(length):
        draw = rng.random()
        if index == length // 2:
            commands.append(InjectFault(
                action="degrade_link", target="server0", severity=0.3))
        elif draw < 0.45 or not alive:
            name = f"dyn{rng.randrange(5)}"
            oversize = rng.random() < 0.15
            t_min = rng.uniform(150000.0, 200000.0) if oversize \
                else rng.uniform(300.0, 2500.0)
            commands.append(Arrive(
                chain=name, spec=f"chain {name}: {rng.choice(MENU)}",
                t_min_mbps=round(t_min, 1),
                t_max_mbps=round(t_min * rng.uniform(2.0, 6.0), 1),
            ))
            if name not in alive and not oversize:
                alive.append(name)
        elif draw < 0.75:
            commands.append(Scale(
                chain=rng.choice(alive + ["enterprise"]),
                t_min_mbps=round(rng.uniform(300.0, 2500.0), 1),
            ))
        else:
            name = rng.choice(alive)
            alive.remove(name)
            commands.append(Depart(chain=name))
    return commands


def clear_memos(daemon: ServeDaemon) -> None:
    clear_compile_memo()
    for rack in daemon.core.cores.values():
        rack.metacompiler._units.clear()
        rack.traffic._flows.clear()


def run(config, state_dir, commands, *, cold: bool, crash_after=None):
    """Drive ``commands``; with ``crash_after`` abandon the daemon there
    (no drain, no final checkpoint) and finish on a restarted one.
    Returns ``(report json, per-command digests, recovery digest)``."""

    async def _drive(batch, crash):
        daemon = ServeDaemon(config, state_dir)
        await daemon.start()
        recovered_digest = daemon._digest()
        digests = []
        for command in batch:
            if cold:
                clear_memos(daemon)
            digests.append((await daemon.submit(command)).digest)
        if crash:
            daemon._worker.cancel()
        else:
            await daemon.stop()
        return daemon, digests, recovered_digest

    if crash_after is None:
        daemon, digests, _ = asyncio.run(_drive(commands, crash=False))
        return daemon.report().to_json(), digests, None
    _, head, _ = asyncio.run(_drive(commands[:crash_after], crash=True))
    if cold:
        clear_compile_memo()
    daemon, tail, recovered = asyncio.run(
        _drive(commands[crash_after:], crash=False)
    )
    assert daemon.recovered
    return daemon.report().to_json(), head + tail, recovered


def test_storm_is_byte_identical_with_memos_cleared_every_command(
        make_config, tmp_path):
    config = make_config(checkpoint_every=4)
    commands = storm()
    clear_compile_memo()
    warm = run(config, tmp_path / "warm", commands, cold=False)
    cold = run(config, tmp_path / "cold", commands, cold=True)
    assert cold[0] == warm[0]
    assert cold[1] == warm[1]
    # the storm exercised what the memos key on
    accepted = [d["accepted"] for d in json.loads(warm[0])["decisions"]]
    assert True in accepted and False in accepted

    # kill mid-storm, two commands past a checkpoint: recovery (checkpoint
    # load + journal suffix replay, memos cold in the new process' sense)
    # lands on the same digest either way and finishes the same report
    for label, is_cold in (("warm-crash", False), ("cold-crash", True)):
        crashed = run(config, tmp_path / label, commands, cold=is_cold,
                      crash_after=22)
        assert crashed[0] == warm[0]
        assert crashed[1] == warm[1]
        assert crashed[2] == warm[1][21]


def test_pickled_core_carries_no_memo_entries(make_config, drive, tmp_path):
    clear_compile_memo()
    daemon, outcomes = drive(
        make_config(checkpoint_every=0), tmp_path / "state", storm()[:8]
    )
    core = daemon.core
    (rack,) = core.cores.values()
    # the memos are populated ...
    assert rack.metacompiler._units and rack.traffic._flows
    assert any(packet._parsed is not None
               for _chain, flows, _fell_back in rack.traffic._flows.values()
               for packet in flows)
    blob = pickle.dumps(core)
    # ... and none of it is in the pickle
    assert b"ChainFragment" not in blob and b"_CompileMemo" not in blob
    restored = pickle.loads(blob)
    (restored_rack,) = restored.cores.values()
    assert restored_rack.metacompiler._units == {}
    assert restored_rack.traffic._flows == {}
    assert restored.state_digest() == core.state_digest()
    # the live core keeps its memos: pickling is not clearing
    assert rack.metacompiler._units and rack.traffic._flows
