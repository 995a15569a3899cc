"""Multi-client load harness for the server runtimes.

Drives a server — threaded or asyncio, in-process or in another process —
with ``clients`` connections × ``streams`` concurrent batch streams per
connection, for a fixed measurement window, and reports sustained batch
throughput.  The client code is *identical* for every transport (it is
the ordinary ``RMIClient`` + ``create_batch`` stack); which network
factory you pass decides whether a connection's streams pipeline
(:class:`~repro.aio.AioNetwork`) or serialize on the channel
(:class:`~repro.net.tcp.TcpNetwork`) — which is exactly the axis the
throughput benchmark measures.

The workload is a :class:`LoadTarget` batch whose single ``work(delay)``
call sleeps server-side, modelling a backend touch (a disk read, an
upstream RPC).  With service time dominating, throughput is bounded by
*requests in flight*, not client count — the thread-per-connection
runtime caps that at one per connection, the asyncio runtime at
``streams`` per connection.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.core import create_batch
from repro.rmi import RemoteInterface, RemoteObject, RMIClient, remote_method
from repro.rmi.exceptions import ServerBusyError

#: Registry name the harness expects the workload bound under.
SERVICE_NAME = "load"


class LoadTarget(RemoteInterface):
    """The benchmark workload surface.

    Both methods are ``parallel_safe``: the impl counts under a lock, so
    a fan-out batch of ``work`` calls is exactly the delay-bound workload
    the DAG scheduler's ``exec_parallel`` bench lane measures.
    """

    @remote_method(parallel_safe=True)
    def work(self, delay: float) -> int:
        """Simulate one backend touch taking *delay* seconds."""
        ...

    @remote_method(parallel_safe=True)
    def total(self) -> int:
        """How many work calls this target has executed."""
        ...


class LoadTargetImpl(RemoteObject, LoadTarget):
    """Sleeps to model backend latency; counts executions race-free."""

    def __init__(self):
        self._lock = threading.Lock()
        self._total = 0

    def work(self, delay: float) -> int:
        if delay > 0:
            time.sleep(delay)
        with self._lock:
            self._total += 1
            return self._total

    def total(self) -> int:
        with self._lock:
            return self._total


@dataclass(frozen=True)
class LoadReport:
    """Result of one load run."""

    batches: int          #: batches completed inside the window
    seconds: float        #: measured wall-clock window
    clients: int
    streams: int
    delay: float
    shed_retries: int     #: ServerBusyError retries absorbed by clients
    errors: tuple = ()    #: stream-killing failures (repr strings)
    procs: int = 1        #: server worker processes behind the address

    @property
    def throughput(self) -> float:
        """Sustained batches per second."""
        return self.batches / self.seconds if self.seconds > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "batches": self.batches,
            "seconds": round(self.seconds, 4),
            "throughput": round(self.throughput, 2),
            "clients": self.clients,
            "streams": self.streams,
            "delay_s": self.delay,
            "shed_retries": self.shed_retries,
            "errors": list(self.errors),
            "procs": self.procs,
        }


def run_load(network, address: str, *, clients: int, streams: int,
             duration: float, delay: float, warmup: float = 0.5,
             registry=None) -> LoadReport:
    """Sustain load against *address* and measure batch throughput.

    Opens *clients* connections on *network*; each runs *streams*
    threads flushing one-call ``work(delay)`` batches back to back.
    After *warmup* seconds a measurement window of *duration* seconds
    opens; only batches completing inside it count.  Requests the server
    sheds (:class:`ServerBusyError`) are retried and tallied, never
    counted as completions.

    *registry*, if given, is a :class:`~repro.obs.metrics.MetricsRegistry`
    every load client publishes its traffic into (under one ``client``
    prefix — collector semantics sum across connections).
    """
    stop = threading.Event()
    window = {"start": None, "end": None}
    counted = [0] * (clients * streams)
    retries = [0] * (clients * streams)
    errors = []
    barrier = threading.Barrier(clients * streams + 1)

    def stream(worker_index: int, client: RMIClient) -> None:
        # The barrier comes first, unconditionally: a stream that dies
        # during setup must not leave the other parties (and the main
        # thread) parked in wait() forever.
        barrier.wait()
        stub = None
        try:
            while not stop.is_set():
                try:
                    if stub is None:  # the lookup can be shed too
                        stub = client.lookup(SERVICE_NAME)
                    batch = create_batch(stub)
                    future = batch.work(delay)
                    batch.flush()
                    future.get()
                except ServerBusyError:
                    retries[worker_index] += 1
                    time.sleep(delay / 4 if delay > 0 else 0.001)
                    continue
                done = time.monotonic()
                start, end = window["start"], window["end"]
                if start is not None and start <= done < end:
                    counted[worker_index] += 1
        except Exception as exc:  # noqa: BLE001 - report, never hang the run
            errors.append(f"stream {worker_index}: {exc!r}")

    rmi_clients = []
    try:
        for _ in range(clients):
            rmi_clients.append(RMIClient(network, address))
        if registry is not None:
            from repro.obs.bridge import bind_client

            for rmi_client in rmi_clients:
                bind_client(registry, rmi_client)

        threads = []
        for c, client in enumerate(rmi_clients):
            for s in range(streams):
                thread = threading.Thread(
                    target=stream, args=(c * streams + s, client),
                    name=f"load-c{c}s{s}", daemon=True,
                )
                thread.start()
                threads.append(thread)

        barrier.wait()
        time.sleep(warmup)
        opened = time.monotonic()
        # End before start: readers check start.
        window["end"] = opened + duration
        window["start"] = opened
        time.sleep(duration)
        measured = time.monotonic() - window["start"]
        stop.set()
        for thread in threads:
            thread.join(timeout=max(5.0, 10 * delay))
    finally:
        for client in rmi_clients:
            client.close()
    return LoadReport(
        batches=sum(counted),
        seconds=min(measured, duration),
        clients=clients,
        streams=streams,
        delay=delay,
        shed_retries=sum(retries),
        errors=tuple(errors),
    )
