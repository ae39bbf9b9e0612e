"""Run an experiment server on a background thread (tests, examples).

The server is an asyncio application; scripts and the blocking client
live in synchronous code.  :class:`ServerThread` bridges the two: it
spins up an event loop on a daemon thread, starts an
:class:`~repro.serve.server.ExperimentServer` on an ephemeral port,
and exposes the bound port plus a thread-safe :meth:`stop` that drains
the server exactly like SIGTERM would.

Usage::

    with ServerThread(ServeConfig(port=0)) as handle:
        client = ServeClient(port=handle.port)
        print(client.healthz())
"""

from __future__ import annotations

import asyncio
import threading

from repro.errors import ServeError
from repro.serve.config import ServeConfig
from repro.serve.pipeline import RunnerFactory
from repro.serve.server import ExperimentServer

#: Seconds :meth:`ServerThread.start` waits for the server to bind.
STARTUP_TIMEOUT = 10.0


class ServerThread:
    """An :class:`ExperimentServer` running on its own loop thread."""

    def __init__(self, config: ServeConfig | None = None,
                 runner_factory: RunnerFactory | None = None) -> None:
        self.config = config or ServeConfig(port=0)
        self._runner_factory = runner_factory
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self.server: ExperimentServer | None = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._main,
                                        name="repro-serve-thread",
                                        daemon=True)

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(STARTUP_TIMEOUT):
            raise ServeError("server thread did not start in time")
        if self._error is not None:
            raise ServeError(f"server failed to start: {self._error}")
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Drain the server (thread-safe) and join the loop thread."""
        loop, server = self._loop, self.server
        if loop is not None and server is not None and loop.is_running():
            asyncio.run_coroutine_threadsafe(server.drain(), loop)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def port(self) -> int:
        if self.server is None:
            raise ServeError("server is not running")
        return self.server.port

    # -- loop thread --------------------------------------------------

    def _main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # surfaced by start()
            self._error = exc
            self._ready.set()

    async def _serve(self) -> None:
        self.server = ExperimentServer(
            self.config, runner_factory=self._runner_factory)
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self._ready.set()
        await self.server.serve_forever()
