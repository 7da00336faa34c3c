"""``repro.serve`` — the always-on control-plane daemon (``repro serve``).

The batch engines answer "what would this timeline have done?"; this
package answers the operator's question: a long-running service that
owns a live rack, admits arrive/scale/depart requests from concurrent
tenants through the shared :class:`~repro.sim.admission.AdmissionCore`,
applies day-2 fault probes, streams observability snapshots, and
survives a ``SIGKILL`` by replaying its journal — the only source of
truth; a checkpoint is a code-stamped cache of that replay, discarded
and rebuilt whenever it is damaged or other code wrote it.

Layering::

    commands.py   typed Arrive/Scale/Depart/InjectFault/Snapshot +
                  CommandOutcome, strict JSON (de)serialization, schemas
    journal.py    fsync'd JSONL journal + atomic, code-stamped pickle
                  checkpoints (code_stamp)
    daemon.py     ServeConfig / ServeDaemon (the rack-owner worker) /
                  ServeReport
    http.py       stdlib ThreadingHTTPServer front-end (/v1/...)

See ``docs/control_plane.md`` for the wire schema, the journal and
checkpoint formats, and the recovery semantics.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
from pathlib import Path
from typing import Callable, Optional, Union

from repro.serve.commands import (
    Arrive,
    Command,
    CommandOutcome,
    Depart,
    InjectFault,
    Scale,
    Snapshot,
    command_schemas,
    parse_command,
)
from repro.serve.daemon import ServeConfig, ServeDaemon, ServeReport
from repro.serve.http import ControlPlaneServer
from repro.serve.journal import CheckpointStore, Journal


def run_server(
    config: ServeConfig,
    state_dir: Union[str, Path],
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    ready: Optional[Callable[[str], None]] = None,
) -> ServeReport:
    """Run the daemon in the foreground until shutdown; return its report.

    Starts (or crash-recovers) the daemon, brings up the HTTP front-end,
    calls ``ready(url)`` once accepting — the CLI prints the ready line
    from it — and blocks until ``POST /v1/shutdown`` or
    SIGTERM/SIGINT. Shutdown drains pending commands, checkpoints, and
    returns the final deterministic :class:`ServeReport`.
    """

    async def _main() -> ServeReport:
        loop = asyncio.get_running_loop()
        daemon = ServeDaemon(config, state_dir)
        await daemon.start()
        server = ControlPlaneServer(daemon, loop, host=host, port=port)
        server.start()
        for signum in (signal.SIGTERM, signal.SIGINT):
            # not available on every platform, and only allowed from the
            # main thread (tests host run_server in a worker thread)
            with contextlib.suppress(
                NotImplementedError, RuntimeError, ValueError
            ):
                loop.add_signal_handler(signum, daemon.request_shutdown)
        try:
            if ready is not None:
                ready(server.url)
            await daemon.shutdown_requested.wait()
        finally:
            server.stop()
            await daemon.stop()
        return daemon.report()

    return asyncio.run(_main())


__all__ = [
    "Arrive",
    "Command",
    "CommandOutcome",
    "ControlPlaneServer",
    "CheckpointStore",
    "Depart",
    "InjectFault",
    "Journal",
    "Scale",
    "ServeConfig",
    "ServeDaemon",
    "ServeReport",
    "Snapshot",
    "command_schemas",
    "parse_command",
    "run_server",
]
