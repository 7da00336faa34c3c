"""Shared fixtures for the control-plane daemon tests."""

import asyncio

import pytest

from repro.serve import ServeConfig, ServeDaemon

SPEC = (
    "chain enterprise: ACL -> Encrypt -> IPv4Fwd\n"
    "chain residential: BPF -> NAT -> IPv4Fwd\n"
)


def _make_config(**overrides) -> ServeConfig:
    defaults = dict(
        spec_text=SPEC,
        slos=((1000.0, 20000.0), (1000.0, 20000.0)),
        packets_per_phase=16,
        flows_per_chain=8,
        batch_size=8,
        checkpoint_every=2,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _drive(config, state_dir, commands, *, crash=False):
    """Start a daemon, submit ``commands``, stop (or crash) it.

    ``crash=True`` abandons the worker without draining or writing a
    final checkpoint — the closest in-process analogue to SIGKILL; the
    journal is still durable because appends fsync before the ack.
    Returns ``(daemon, outcomes)``.
    """

    async def _run():
        daemon = ServeDaemon(config, state_dir)
        await daemon.start()
        outcomes = [await daemon.submit(c) for c in commands]
        if crash:
            daemon._worker.cancel()
        else:
            await daemon.stop()
        return daemon, outcomes

    return asyncio.run(_run())


@pytest.fixture(scope="session")
def make_config():
    return _make_config


@pytest.fixture(scope="session")
def drive():
    return _drive


@pytest.fixture()
def config():
    return _make_config()
