"""The shared background event loop behind the asyncio runtime.

Sync call sites (the :class:`~repro.net.transport.Network` contract, the
blocking :class:`~repro.aio.channel.AioChannel` facade) need an event
loop that outlives any single call.  :class:`EventLoopThread` runs one
`asyncio` loop on a daemon thread and bridges coroutines into it from
any other thread.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading


class EventLoopThread:
    """An asyncio event loop running on its own daemon thread."""

    def __init__(self, name: str = "repro-aio"):
        self._loop = asyncio.new_event_loop()
        self._stopped = False
        self._lock = threading.Lock()
        started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(started,), name=name, daemon=True
        )
        self._thread.start()
        started.wait()

    def _run(self, started: threading.Event) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.call_soon(started.set)
        try:
            self._loop.run_forever()
        finally:
            # Give in-flight tasks one chance to unwind, then close.
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self._loop.close()

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    @property
    def alive(self) -> bool:
        return not self._stopped and self._thread.is_alive()

    def submit(self, coro) -> concurrent.futures.Future:
        """Schedule *coro* on the loop; returns a concurrent future."""
        if self._stopped:
            coro.close()
            raise RuntimeError("event loop thread is stopped")
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def run(self, coro, timeout: float = None):
        """Run *coro* on the loop and block for its result.

        Must not be called from the loop thread itself (it would
        deadlock); the asyncio-native API is the way in from there.
        """
        if threading.get_ident() == self._thread.ident:
            raise RuntimeError(
                "EventLoopThread.run() called from the loop thread; "
                "await the coroutine instead"
            )
        return self.submit(coro).result(timeout)

    def stop(self) -> None:
        """Stop and join the loop thread, idempotently."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
