"""Thin stdlib HTTP front-end for the control-plane daemon.

``http.server.ThreadingHTTPServer`` accepts concurrent tenant
connections; each handler thread bridges into the daemon's asyncio loop
with ``asyncio.run_coroutine_threadsafe``, so every mutation still flows
through the single rack-owner worker task. The HTTP layer holds no state
of its own — it parses, submits, and maps
:class:`~repro.serve.commands.CommandOutcome` statuses onto HTTP codes
(200 applied, 409 rejected, 400 invalid, 500 internal).

Routes::

    GET  /v1/health    liveness + journal head + state digest
    GET  /v1/state     consistent snapshot (serialized with mutations)
    GET  /v1/schema    JSON schemas for every command kind + the outcome
    GET  /v1/metrics   repro.obs registry snapshot (JSON)
    GET  /v1/report    the full deterministic run report
    POST /v1/commands  one wire-form command -> typed outcome
    POST /v1/shutdown  graceful stop (drain, checkpoint, exit)
"""

from __future__ import annotations

import asyncio
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.exceptions import CommandError
from repro.obs import render_json
from repro.serve.commands import (
    CommandOutcome,
    Snapshot,
    command_schemas,
    parse_command,
)
from repro.serve.daemon import ServeDaemon

#: ceiling on one command's end-to-end handling (solve + redeploy +
#: traffic phase); generous because admission solves an LP.
_SUBMIT_TIMEOUT_S = 300.0

_MAX_BODY_BYTES = 1 << 20


class ControlPlaneHandler(BaseHTTPRequestHandler):
    """One request, parsed and bridged into the daemon's loop."""

    # set by make_handler()
    daemon: ServeDaemon
    loop: asyncio.AbstractEventLoop

    protocol_version = "HTTP/1.1"
    #: headers and body are two writes: with Nagle on, the body waits for
    #: the ACK of the headers, which a keep-alive client delays ≈ 40 ms
    disable_nagle_algorithm = True

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the daemon's stdout is the ready line + report, not an access log

    def _send_json(self, code: int, payload: dict, *,
                   close: bool = False) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True).encode()
        self.send_response(code)
        if close:
            self.send_header("Connection", "close")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _submit(self, command) -> CommandOutcome:
        future = asyncio.run_coroutine_threadsafe(
            self.daemon.submit(command), self.loop
        )
        return future.result(timeout=_SUBMIT_TIMEOUT_S)

    def _render_metrics(self) -> str:
        """The registry as JSON, rendered on the daemon's loop: the
        rack-owner worker runs a whole command there without yielding,
        so the render lands between two commands and never reads a
        histogram the worker is folding."""
        async def render() -> str:
            return render_json(self.daemon.registry)

        future = asyncio.run_coroutine_threadsafe(render(), self.loop)
        return future.result(timeout=_SUBMIT_TIMEOUT_S)

    def _read_body(self) -> object:
        """The request's JSON body; :class:`CommandError` if there is
        none to be had."""
        declared = self.headers.get("Content-Length") or "0"
        try:
            length = int(declared)
        except ValueError:
            raise CommandError(
                f"Content-Length {declared!r} is not an integer"
            ) from None
        if length <= 0:
            raise CommandError("a JSON body is required")
        if length > _MAX_BODY_BYTES:
            raise CommandError("request body too large")
        try:
            return json.loads(self.rfile.read(length))
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError and UnicodeDecodeError are ValueErrors; a
            # body of 100 000 "[" overflows the decoder's stack
            raise CommandError(
                f"body is not valid JSON: {type(exc).__name__}: {exc}"
            ) from exc

    # -- routes -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        if self.path == "/v1/health":
            self._send_json(200, {
                "status": "ok",
                "seq": self.daemon.seq,
                "digest": self.daemon._digest(),
                "recovered": self.daemon.recovered,
            })
        elif self.path == "/v1/state":
            outcome = self._submit(Snapshot())
            self._send_json(
                CommandOutcome.http_status(outcome.status),
                outcome.as_dict(),
            )
        elif self.path == "/v1/schema":
            self._send_json(200, command_schemas())
        elif self.path == "/v1/metrics":
            body = self._render_metrics().encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path == "/v1/report":
            self._send_json(200, self.daemon.report().as_dict())
        else:
            self._send_json(404, {"error": f"no route {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        if self.path == "/v1/commands":
            try:
                command = parse_command(self._read_body())
            except CommandError as exc:
                # a refused body may sit unread on the socket, so the
                # connection cannot carry another request
                self._send_json(400, {"error": str(exc)}, close=True)
                return
            outcome = self._submit(command)
            self._send_json(
                CommandOutcome.http_status(outcome.status),
                outcome.as_dict(),
            )
        elif self.path == "/v1/shutdown":
            self._send_json(200, {
                "status": "shutting down",
                "seq": self.daemon.seq,
            })
            self.loop.call_soon_threadsafe(self.daemon.request_shutdown)
        else:
            self._send_json(404, {"error": f"no route {self.path}"})


def make_handler(daemon: ServeDaemon,
                 loop: asyncio.AbstractEventLoop) -> type:
    return type(
        "BoundControlPlaneHandler",
        (ControlPlaneHandler,),
        {"daemon": daemon, "loop": loop},
    )


class ControlPlaneServer:
    """The HTTP listener, running its accept loop in a daemon thread."""

    def __init__(
        self,
        daemon: ServeDaemon,
        loop: asyncio.AbstractEventLoop,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.httpd = ThreadingHTTPServer(
            (host, port), make_handler(daemon, loop)
        )
        self.host, self.port = self.httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="control-plane-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None


__all__ = ["ControlPlaneHandler", "ControlPlaneServer", "make_handler"]
