"""Benchmark harness: deterministic virtual-time measurement.

Each experiment builds a fresh simulated testbed (server + apps + client)
under the requested :class:`~repro.net.conditions.NetworkConditions`,
runs the RMI and BRMI client workloads, and reads elapsed *virtual*
milliseconds off the network's clock — the deterministic substitute for
the paper's wall-clock averaging over 5000-10000 repetitions (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from repro.apps import (
    CreditManagerImpl,
    NoOpImpl,
    SimulationImpl,
    TranslatorImpl,
    build_list,
    make_directory,
)
from repro.net.clock import Stopwatch
from repro.net.conditions import DEFAULT_HOSTS, HostCosts, NetworkConditions
from repro.net.sim import SimNetwork
from repro.rmi.client import RMIClient
from repro.rmi.server import RMIServer

#: Address every benchmark server listens at.
SERVER_ADDRESS = "sim://server:1099"

#: Macro-benchmark directory parameters (§5.4): 10 files, 100 KB total.
MACRO_NUM_FILES = 10
MACRO_TOTAL_BYTES = 100_000

#: Linked list long enough for every traversal depth swept.
LIST_LENGTH = 64


@dataclass
class Series:
    """One labelled curve: (x, milliseconds) points."""

    name: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, ms: float) -> None:
        self.points.append((x, ms))

    def xs(self) -> List[float]:
        return [x for x, _ in self.points]

    def values(self) -> List[float]:
        return [ms for _, ms in self.points]

    def at(self, x: float) -> float:
        for px, ms in self.points:
            if px == x:
                return ms
        raise KeyError(f"no point at x={x} in series {self.name!r}")


@dataclass
class Experiment:
    """One reproduced figure: metadata plus its series."""

    exp_id: str
    title: str
    xlabel: str
    conditions_name: str
    series: List[Series] = field(default_factory=list)
    ylabel: str = "milliseconds (virtual)"
    notes: str = ""

    def series_named(self, name: str) -> Series:
        for series in self.series:
            if series.name == name:
                return series
        raise KeyError(f"no series named {name!r} in {self.exp_id}")

    def ratio(self, numerator: str, denominator: str, x: float) -> float:
        """Speedup of one series over another at a given x."""
        return self.series_named(numerator).at(x) / self.series_named(
            denominator
        ).at(x)


class BenchEnv:
    """A fresh simulated testbed with every case-study app bound."""

    def __init__(self, conditions: NetworkConditions,
                 hosts: HostCosts = DEFAULT_HOSTS):
        self.conditions = conditions
        self.network = SimNetwork(conditions=conditions, hosts=hosts)
        self.server = RMIServer(self.network, SERVER_ADDRESS).start()
        self.client = RMIClient(self.network, SERVER_ADDRESS)
        self._bind_apps()

    def _bind_apps(self):
        server = self.server
        server.bind("noop", NoOpImpl())
        server.bind("list", build_list(range(LIST_LENGTH)))
        server.bind("fileserver", make_directory(MACRO_NUM_FILES, MACRO_TOTAL_BYTES))
        server.bind("translator", TranslatorImpl())
        bank = CreditManagerImpl()
        server.bind("bank", bank)
        bank.create_credit_account("alice")

    def fresh_simulation(self, name: str = "simulation"):
        """Bind a brand-new simulation (each run needs clean step state)."""
        self.server.bind(name, SimulationImpl())
        return self.client.lookup(name)

    def lookup(self, name: str):
        return self.client.lookup(name)

    def measure_ms(self, workload: Callable, *args) -> float:
        """Run *workload* and return elapsed virtual milliseconds."""
        watch = Stopwatch(self.network.clock)
        workload(*args)
        return watch.elapsed_ms()

    def close(self) -> None:
        self.client.close()
        self.server.close()
        self.network.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


def sweep(env_factory: Callable[[], BenchEnv], xs, *named_workloads) -> List[Series]:
    """Run labelled workloads across a parameter sweep.

    *named_workloads* are ``(label, fn)`` pairs where ``fn(env, x)`` runs
    one measurement.  Every measurement gets a fresh environment so state
    (clock, caches, server tables) never leaks between points — the
    virtual clock makes this free.
    """
    series = [Series(label) for label, _fn in named_workloads]
    for x in xs:
        for out, (label, fn) in zip(series, named_workloads):
            with env_factory() as env:
                out.add(x, fn(env, x))
    return series
