"""Corpus orchestration: worlds, the execution matrix, and reports.

One :func:`run_corpus` call drives the whole differential experiment:

    for each program:
      for each policy:
        oracle   = naive RMI on a localhost sim world   (fresh app state)
        for each transport (sim LAN, sim WIRELESS, real TCP):
          batch  = one-shot batch                        (fresh app state)
          plan   = reuse_plans batch, run three times    (fresh app state
                   per run, same client+server) so the same shape goes
                   inline, then installs, then hits the plan cache
          compare every run against the oracle

Worlds are persistent (one server — or one cluster of shard servers —
per transport for the whole corpus); state freshness comes from binding
a new application instance under a new name for every run, and a new
client (with a fresh plan memo) for every mode.  Divergences are shrunk
to a minimal repro with :func:`repro.fuzz.shrink.shrink_program` before
being reported.

The single-server matrix is the one-root, one-server row of the same
loop: ``FuzzConfig.shards`` only decides how many roots a program has
(:func:`roots_for`) and which layout every :class:`World` is built in.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

from repro.apps.bank import CreditManagerImpl
from repro.apps.fileserver import make_directory
from repro.apps.linkedlist import build_list
from repro.apps.noop import NoOpImpl
from repro.cluster import ClusterClient, ShardMap, shard_label
from repro.net import FaultSchedule, FaultyNetwork, SimNetwork, TcpNetwork, preset
from repro.rmi import RETRYABLE_ERRORS, RMIClient, RMIServer, RetryPolicy

from repro.fuzz.execute import (
    FuzzHarnessError,
    compare_runs,
    drop_call_injection,
    run_batched,
    run_oracle,
    swap_policy_injection,
)
from repro.fuzz.generate import (
    BANK_CUSTOMERS,
    BANK_LIMIT,
    FS_FILES,
    FS_RESTRICTED,
    FS_TOTAL_BYTES,
    LIST_VALUES,
    POLICY_NAMES,
    generate_program,
    policies_for,
)
from repro.fuzz.program import root_reg
from repro.fuzz.shrink import shrink_program

TRANSPORTS = ("lan", "wireless", "tcp")
MODES = ("batch", "plan")
INJECTIONS = {
    "drop-call": drop_call_injection,
    "swap-policy": swap_policy_injection,
}


#: Retry policy for chaos clients: persistent enough to outlast a dense
#: fault schedule, with backoffs short enough to keep corpora fast.
#: Deterministic schedule (no jitter): chaos corpora must replay
#: byte-for-byte from a seed, and delays this short need no herding fix.
CHAOS_RETRY = RetryPolicy(max_attempts=10, backoff_s=0.0005,
                          backoff_cap_s=0.004, jitter=False)

#: Flush failures a chaos run may legitimately end with — the typed
#: errors the batch contract promises when the network truly gives out.
#: Anything else (or a silently wrong result) is a divergence.
CLEAN_FAULT_ERRORS = frozenset({
    "repro.rmi.exceptions.CommunicationError",
    "repro.rmi.exceptions.ServerBusyError",
    "repro.net.transport.TransportError",
    "repro.net.transport.ConnectionClosedError",
    "repro.net.transport.ConnectError",
})

#: What a cluster world adds to that contract: a scatter-gather flush
#: reports the shards that gave out under one typed wrapper.
CLUSTER_FAULT_ERRORS = frozenset({
    "repro.cluster.errors.ShardFailedError",
})


def roots_for(shards: int) -> int:
    """How many roots the programs of a *shards*-server corpus have.

    One server runs the paper's single-root programs; a cluster gets one
    root more than it has shards, capped at 4 — so up to three shards
    two chains share a shard while the others spread.
    """
    return 1 if shards == 1 else max(2, min(shards + 1, 4))


@dataclass(frozen=True)
class FuzzConfig:
    """One reproducible differential experiment.

    With *faults* enabled, every batch/plan run executes through a
    seeded fault-injecting transport (the oracle stays on a clean link)
    behind a retrying, exactly-once client.  The conformance rule
    becomes: a run must either match the oracle observable-for-
    observable, or fail its flush with one of the typed errors in
    :data:`CLEAN_FAULT_ERRORS` — never diverge silently.  The traffic
    bound is not enforced under faults (retries legitimately resend).
    """

    seed: int = 0
    programs: int = 20
    max_steps: int = 14
    transports: tuple = TRANSPORTS
    policies: tuple = POLICY_NAMES
    modes: tuple = MODES
    plan_runs: int = 3
    inject: str = ""
    shrink: bool = True
    check_traffic: bool = True
    max_divergences: int = 3
    faults: bool = False
    fault_rate: float = 0.12
    #: Shard count: > 1 runs multi-root programs (:func:`roots_for`)
    #: through scatter-gather batches on an N-shard cluster world,
    #: against the per-chain oracle.  The traffic bound is enforced only
    #: at one root: split points and per-chain close flushes
    #: legitimately cost extra round trips (correctness first — the
    #: conformance claim is observational).
    shards: int = 1
    #: Differential scheduler check: run every clean batch/plan cell a
    #: second time against a twin server pinned to width 1
    #: (``exec_workers=0``) and require the two responses to agree
    #: observable-for-observable.  The width-1 response is the oracle
    #: for the fanned-out one; divergences are reported unshrunk.
    parallel: bool = False


@dataclass
class Divergence:
    """One confirmed difference between a mode run and the oracle."""

    program: object
    transport: str
    policy: str
    mode: str
    run_index: int
    diffs: list
    shrunk: object = None
    shrunk_diffs: list = field(default_factory=list)
    shrink_attempts: int = 0

    def describe(self) -> str:
        lines = [
            f"DIVERGENCE seed={self.program.seed} program=#{self.program.index} "
            f"transport={self.transport} policy={self.policy} "
            f"mode={self.mode} run={self.run_index}",
            self.program.describe(),
        ]
        lines += ["  diff: " + diff for diff in self.diffs]
        if self.shrunk is not None:
            lines.append(
                f"shrunk repro ({len(self.shrunk.steps)} steps, "
                f"{self.shrink_attempts} attempts):"
            )
            lines.append(self.shrunk.describe())
            lines += ["  diff: " + diff for diff in self.shrunk_diffs]
        return "\n".join(lines)

    def to_json(self) -> dict:
        shrunk = self.shrunk if self.shrunk is not None else self.program
        diffs = self.diffs
        if self.shrunk is not None and self.shrunk_diffs:
            diffs = self.shrunk_diffs  # match the diffs to the listed repro
        return {
            "seed": self.program.seed,
            "program": self.program.index,
            "transport": self.transport,
            "policy": self.policy,
            "mode": self.mode,
            "run": self.run_index,
            "diffs": diffs,
            "repro": shrunk.describe().splitlines(),
        }


@dataclass
class FuzzReport:
    """The corpus verdict plus enough accounting to trust the coverage."""

    config: FuzzConfig
    programs: int = 0
    runs: int = 0
    divergences: list = field(default_factory=list)
    coverage: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        cov = self.coverage
        lines = [
            f"fuzz: seed={self.config.seed} programs={self.programs} "
            f"runs={self.runs} divergences={len(self.divergences)}",
            f"  transports: {', '.join(sorted(cov.get('transports', ())))}",
            f"  policies:   {', '.join(sorted(cov.get('policies', ())))}",
            f"  domains:    {', '.join(sorted(cov.get('domains', ())))}",
            "  plan paths: inline=%d installs=%d invocations=%d "
            "cache_hits=%d" % (
                cov.get("plan_inline", 0),
                cov.get("plan_installs", 0),
                cov.get("plan_invocations", 0),
                cov.get("plan_cache_hits", 0),
            ),
        ]
        if self.config.shards > 1:
            lines.append(
                "  cluster:    shards=%d roots=%d cross_chain_steps=%d" % (
                    self.config.shards,
                    roots_for(self.config.shards),
                    cov.get("cross_chain_steps", 0),
                )
            )
        if self.config.parallel:
            lines.append(
                "  scheduler:  parallel_batches=%d elements=%d "
                "serial_fallbacks=%d" % (
                    cov.get("parallel_batches", 0),
                    cov.get("parallel_elements", 0),
                    cov.get("parallel_fallbacks", 0),
                )
            )
        if self.config.faults:
            lines.append(
                "  chaos:      fault_events=%d clean_failures=%d "
                "dedup_replays=%d" % (
                    cov.get("fault_events", 0),
                    cov.get("clean_failures", 0),
                    cov.get("dedup_replays", 0),
                )
            )
        return "\n".join(lines)


class World:
    """One transport universe: a network and the server(s) that live for
    the whole corpus, handing out fresh bindings and clients per run.

    The layout is a constructor value.  By default the world is one
    plain server reached through an :class:`RMIClient`; with *shards*
    it is that many shard-labelled servers behind a
    :class:`ClusterClient` (``shards=1`` is a real one-shard cluster —
    the conformance suite compares it with the plain layout round trip
    for round trip).

    *exec_workers* configures every server's DAG scheduler exactly like
    :class:`~repro.rmi.server.RMIServer` — ``0`` builds the width-1 twin
    worlds the ``parallel`` differential mode compares against.
    """

    def __init__(self, transport: str, exec_workers: int = None,
                 shards: int = None):
        self.transport = transport
        self.clustered = shards is not None
        self.shard_map = ShardMap(shards or 1)
        #: Flush failures a chaos run on this world may cleanly end with.
        self.clean_errors = CLEAN_FAULT_ERRORS
        if self.clustered:
            self.clean_errors |= CLUSTER_FAULT_ERRORS
        if transport == "tcp":
            self.network = TcpNetwork()
        else:
            self.network = SimNetwork(conditions=preset(transport))
        self.servers = []
        for index in range(self.shard_map.shards):
            address = (
                "tcp://127.0.0.1:0" if transport == "tcp"
                else f"sim://{transport}-server{index}:1099"
            )
            labels = {}
            if self.clustered:
                labels = dict(shard=shard_label(index, shards),
                              shard_home=self.shard_map.home_of)
            self.servers.append(RMIServer(
                self.network, address, exec_workers=exec_workers, **labels
            ).start())
        self.addresses = tuple(server.address for server in self.servers)
        self._names = itertools.count()

    def fresh_client(self, schedule: FaultSchedule = None):
        """A clean client, or (given a schedule) a chaos client whose
        transport injects that schedule's faults behind retries."""
        network, retry = self.network, None
        if schedule is not None:
            network, retry = FaultyNetwork(self.network, schedule), CHAOS_RETRY
        if not self.clustered:
            return RMIClient(network, self.addresses[0], retry=retry)
        # Scatter-gather flushes stay single-threaded off TCP: the sim
        # networks advance one virtual clock that is not thread-safe.
        return ClusterClient(
            network, self.addresses, retry=retry,
            concurrent_flush=(self.transport == "tcp"),
        )

    def rmi_clients(self, client):
        """The per-server clients behind one :meth:`fresh_client`."""
        if not self.clustered:
            return [client]
        return [client.client_for(index) for index in range(client.shards)]

    def bind_roots(self, program):
        """Bind a brand-new application instance for every root.

        Returns ``({root register: name}, post-state reader)``.  Root
        *chain* is homed on server ``chain % servers``: the name is
        salted until the :class:`ShardMap` places it there, so a
        program's chains always spread across a cluster (and the
        registry's own home guard agrees with the placement).
        """
        names = {}
        readers = []
        for chain, domain in enumerate(program.domains):
            shard = chain % len(self.servers)
            impl, reader = _build_domain(domain)
            name = self.shard_map.homed_name(
                f"{domain}-{next(self._names)}", shard
            )
            self.servers[shard].bind(name, impl)
            names[root_reg(chain)] = name
            readers.append(reader)
        return names, lambda: tuple(reader() for reader in readers)

    def close(self) -> None:
        for server in self.servers:
            server.close()
        self.network.close()


def _build_domain(domain: str):
    """Fresh deterministic app state plus a post-state reader."""
    if domain == "noop":
        impl = NoOpImpl()
        return impl, lambda: impl.calls
    if domain == "bank":
        impl = CreditManagerImpl(default_limit=BANK_LIMIT)
        for customer in BANK_CUSTOMERS:
            impl.create_credit_account(customer)

        def read_bank():
            return {
                name: (card._balance, card._limit)
                for name, card in sorted(impl._accounts.items())
            }

        return impl, read_bank
    if domain == "linkedlist":
        return build_list(LIST_VALUES), lambda: None
    if domain == "fileserver":
        impl = make_directory(
            FS_FILES, FS_TOTAL_BYTES, restricted_names=FS_RESTRICTED
        )
        root = impl._node

        def read_fs():
            return sorted(
                (name, len(node.contents), node.restricted)
                for name, node in root.children.items()
            )

        return impl, read_fs
    raise FuzzHarnessError(f"unknown domain {domain!r}")


def run_corpus(config: FuzzConfig, log=None) -> FuzzReport:
    """Run the full differential matrix for one corpus."""
    unknown = sorted(set(config.transports) - set(TRANSPORTS))
    if unknown:
        raise FuzzHarnessError(
            f"unknown transport(s) {', '.join(unknown)}; "
            f"choose from {', '.join(TRANSPORTS)}"
        )
    unknown = sorted(set(config.modes) - set(MODES))
    if unknown:
        raise FuzzHarnessError(
            f"unknown mode(s) {', '.join(unknown)}; "
            f"choose from {', '.join(MODES)}"
        )
    if config.shards < 1:
        raise FuzzHarnessError(
            f"a corpus needs at least one shard, got {config.shards}"
        )
    inject = _injection_for(config)
    if inject is not None and config.shards > 1:
        raise FuzzHarnessError(
            "--inject-bug targets the single-server recorder; "
            "run it without --shards"
        )
    layout = config.shards if config.shards > 1 else None
    roots = roots_for(config.shards)
    report = FuzzReport(config=config)
    coverage = report.coverage
    coverage.update(
        transports=set(), policies=set(), modes=set(), domains=set(),
        plan_inline=0, plan_installs=0, plan_invocations=0,
        plan_cache_hits=0, fault_events=0, clean_failures=0,
        dedup_replays=0, parallel_batches=0, parallel_elements=0,
        parallel_fallbacks=0, cross_chain_steps=0,
    )
    worlds = {}
    serial_worlds = {}
    oracle_world = None
    oracle_client = None
    try:
        for name in config.transports:
            worlds[name] = World(name, shards=layout)
            if config.parallel:
                serial_worlds[name] = World(name, exec_workers=0,
                                            shards=layout)
        oracle_world = World("localhost", shards=layout)
        oracle_client = oracle_world.fresh_client()
        for index in range(config.programs):
            program = generate_program(
                config.seed, index, config.max_steps, roots
            )
            report.programs += 1
            coverage["domains"].update(program.domains)
            coverage["cross_chain_steps"] += len(program.cross_chain_steps())
            if log is not None and index % 10 == 0:
                log(f"program #{index} ({program.domain}, "
                    f"{len(program.steps)} steps)")
            for policy_name, policy in policies_for(
                program, config.policies
            ).items():
                coverage["policies"].add(policy_name)
                oracle = _run(oracle_world, oracle_client, program, policy,
                              "oracle")
                report.runs += 1
                for transport in config.transports:
                    coverage["transports"].add(transport)
                    divergence = _check_program(
                        worlds[transport], program, policy_name, policy,
                        oracle, config, inject, report, coverage,
                        serial_world=serial_worlds.get(transport),
                    )
                    if divergence is not None:
                        _shrink_divergence(
                            divergence, worlds[transport], oracle_world,
                            oracle_client, policy, config, inject,
                        )
                        report.divergences.append(divergence)
                        if log is not None:
                            log(divergence.describe())
                        if len(report.divergences) >= config.max_divergences:
                            return report
    finally:
        # Accumulated here so early returns (max_divergences) still
        # report honest plan-path coverage in the failure summary.
        for world in worlds.values():
            for server in world.servers:
                coverage["dedup_replays"] += server.dedup.hits
                # Read only the layers a server built: an idle server
                # has nothing to count.
                runtime = server.layers.get("plan")
                if runtime is not None:
                    stats = runtime.cache.stats.snapshot()
                    coverage["plan_cache_hits"] += stats.hits
                executor = server.layers.get("executor")
                if executor is not None:
                    snap = executor.scheduler.snapshot()
                    coverage["parallel_batches"] += snap["parallel_batches"]
                    coverage["parallel_elements"] += snap["elements"]
                    coverage["parallel_fallbacks"] += snap["serial_batches"]
        if oracle_client is not None:
            oracle_client.close()
        for world in (oracle_world, *worlds.values(),
                      *serial_worlds.values()):
            if world is not None:
                world.close()
    return report


def _injection_for(config: FuzzConfig):
    if not config.inject:
        return None
    try:
        return INJECTIONS[config.inject]
    except KeyError:
        raise FuzzHarnessError(
            f"unknown injection {config.inject!r}; "
            f"choose from {sorted(INJECTIONS)}"
        ) from None


def _run(world, client, program, policy, mode, inject=None):
    """One execution of *program* on fresh app state.

    *mode* is ``"oracle"`` (naive RMI) or one of :data:`MODES`.
    """
    names, read_state = world.bind_roots(program)
    stubs = {reg: client.lookup(name) for reg, name in names.items()}
    if mode == "oracle":
        result = run_oracle(program, stubs, policy)
    else:
        result = run_batched(
            program, stubs, policy, reuse_plans=(mode == "plan"),
            inject=inject, cluster=client if world.clustered else None,
        )
    result.post_state = read_state()
    return result


def _chaos_schedule(config, *parts) -> FaultSchedule:
    """A deterministic fault schedule for one cell of the matrix.

    The seed is derived from the corpus seed plus the cell coordinates,
    so every (program, policy, transport, mode) cell sees its own —
    reproducible — fault pattern, stable across reruns and shrinking.
    """
    if not config.faults:
        return None
    key = ":".join(str(part) for part in (config.seed,) + parts)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return FaultSchedule(
        seed=int.from_bytes(digest[:8], "big"),
        rate=config.fault_rate,
        delay_s=0.0005,
    )


def _judge(world, client, schedule, oracle, program, policy, mode, config,
           inject):
    """Run one mode run and compare it with *oracle*.

    Returns ``(result, diffs)``; *result* is None when the run ended in
    a clean typed failure, which has nothing to compare.
    """
    try:
        result = _run(world, client, program, policy, mode, inject)
    except RETRYABLE_ERRORS:
        if schedule is None:
            raise
        # Retries exhausted before the run could even start (e.g. the
        # lookup kept failing): a clean, typed failure — nothing
        # executed, nothing to compare.
        return None, []
    if schedule is not None and result.flush_error in world.clean_errors:
        # The batch contract under failure: flush raised a typed
        # transport error.  Partial segments may have applied (each
        # flushed segment is exactly-once), so there is no full-program
        # oracle to compare to.
        return None, []
    return result, compare_runs(
        oracle, result, check_traffic=_checks_traffic(config, program,
                                                      schedule),
    )


def _checks_traffic(config, program, schedule) -> bool:
    # Retries legitimately resend, and so do the split points and
    # per-chain close flushes of a multi-root program.
    return config.check_traffic and schedule is None and program.roots == 1


def _check_program(world, program, policy_name, policy, oracle, config,
                   inject, report, coverage, serial_world=None):
    """Run all modes of one (program, policy, transport) cell.

    Returns the first :class:`Divergence`, or None when everything
    matched the oracle (or, under faults, failed cleanly with a typed
    transport error).  With *serial_world* given (the ``parallel``
    differential), every clean run also executes on the width-1 twin
    and the twin's response becomes the oracle for the parallel one.
    """
    for mode in config.modes:
        coverage["modes"].add(mode)
        schedule = _chaos_schedule(
            config, program.index, policy_name, world.transport, mode
        )
        client = world.fresh_client(schedule)
        # The twin gets its own client so plan mode walks the same
        # inline -> install -> invoke progression on both servers.
        serial_client = None
        if serial_world is not None and schedule is None:
            serial_client = serial_world.fresh_client()
        try:
            runs = config.plan_runs if mode == "plan" else 1
            for run_index in range(runs):
                result, diffs = _judge(world, client, schedule, oracle,
                                       program, policy, mode, config, inject)
                report.runs += 1
                if result is None:
                    coverage["clean_failures"] += 1
                    continue
                judged = mode
                if not diffs and serial_client is not None:
                    serial_result = _run(serial_world, serial_client,
                                         program, policy, mode, inject)
                    report.runs += 1
                    judged = f"{mode}+parallel"
                    diffs = compare_runs(
                        serial_result, result,
                        check_traffic=_checks_traffic(config, program, None),
                    )
                if diffs:
                    return Divergence(
                        program=program,
                        transport=world.transport,
                        policy=policy_name,
                        mode=judged,
                        run_index=run_index,
                        diffs=diffs,
                    )
        finally:
            if mode == "plan":
                for rmi_client in world.rmi_clients(client):
                    memo = rmi_client.plan_memo
                    coverage["plan_inline"] += memo.inline_flushes
                    coverage["plan_installs"] += memo.plan_installs
                    coverage["plan_invocations"] += memo.plan_invocations
            if schedule is not None:
                coverage["fault_events"] += schedule.injected
            client.close()
            if serial_client is not None:
                serial_client.close()
    return None


def _shrink_divergence(divergence, world, oracle_world, oracle_client,
                       policy, config, inject):
    """Reduce a diverging program while it still diverges."""
    if not config.shrink:
        return
    if divergence.mode.endswith("+parallel"):
        # Scheduler divergences compare two batch runs, not a run
        # against the RMI oracle; the shrink loop below would re-judge
        # candidates against the wrong oracle.  Report them unshrunk.
        return
    mode = divergence.mode
    runs = config.plan_runs if mode == "plan" else 1
    # Memoized on the rendered program so the post-shrink diff read-back
    # reuses the accepted candidate's comparison instead of re-running it.
    seen = {}

    def diverges(candidate):
        key = candidate.describe()
        if key in seen:
            return seen[key]
        oracle = _run(oracle_world, oracle_client, candidate, policy,
                      "oracle")
        # A fresh schedule per candidate replays the cell's exact fault
        # stream, so chaos-born divergences stay reproducible while
        # shrinking.
        schedule = _chaos_schedule(
            config, divergence.program.index, divergence.policy,
            world.transport, mode,
        )
        client = world.fresh_client(schedule)
        diffs = []
        try:
            for _ in range(runs):
                # A clean typed failure is not a divergence.
                _, diffs = _judge(world, client, schedule, oracle,
                                  candidate, policy, mode, config, inject)
                if diffs:
                    break
        finally:
            client.close()
        seen[key] = diffs
        return diffs

    shrunk, attempts = shrink_program(divergence.program, diverges)
    divergence.shrunk = shrunk
    divergence.shrink_attempts = attempts
    divergence.shrunk_diffs = diverges(shrunk) or list(divergence.diffs)
