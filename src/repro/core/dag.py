"""Dependency-DAG analysis for the parallel batch scheduler.

A recorded batch is a DAG the client already serialized: every op names
its inputs as :class:`~repro.core.recording.ArgRef` edges (target +
arguments).  :func:`split_units` partitions the ops into *units* (one
top-level op, a cursor together with its contiguous sub-batch, or an
orphan sub-op) — the granularity the executor replays at, whatever its
width.  :func:`analyze_batch` groups units into *chains* — connected
components of the ArgRef graph, with the batch root (seq 0) excluded as
a shared source.  Chains never exchange data, so a CONTINUE-kind policy
makes their relative replay order unobservable and the executor may run
them concurrently.

Eligibility is conservative; an ineligible batch replays its units one
at a time in seq order (width 1):

- the policy must be CONTINUE-kind (:func:`~repro.core.policies.is_continue_kind`)
  — BREAK/REPEAT/RESTART all make replay order observable;
- every method must be declared ``parallel_safe`` via
  :func:`~repro.rmi.remote.remote_method` (the batch-internal export
  pseudo-op is safe by construction: it only reads the object table);
- every ArgRef must resolve inside the batch — a ref into a chained
  session's object table is invisible to this analysis;
- there must be parallelism to exploit: at least two chains, or a cursor
  whose elements can fan out.

The analysis is pure shape: it never looks at argument *values*, so a
plan's DAG computed at install time is valid for every bound invocation
(plan binding substitutes parameter slots, never ArgRefs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.policies import is_continue_kind
from repro.core.recording import EXPORT_OP, ROOT_SEQ
from repro.net.stats import CounterSet
from repro.rmi.remote import method_parallel_safe

#: Width-1 fallback taxonomy.  One reason per batch, first failing check
#: wins; surfaced in scheduler metrics and the ``server.parallel`` span.
REASON_POLICY = "policy"            # policy is not CONTINUE-kind
REASON_UNSAFE = "unsafe_method"     # a method lacks parallel_safe=True
REASON_SINGLE_CHAIN = "single_chain"  # ArgRefs collapse to one chain
REASON_SESSION = "session"          # refs leave the batch / chained session
REASON_SHAPE = "shape"              # orphan sub-op outside its cursor group
REASON_DISABLED = "disabled"        # executor configured with 0 workers

FALLBACK_REASONS = (
    REASON_POLICY,
    REASON_UNSAFE,
    REASON_SINGLE_CHAIN,
    REASON_SESSION,
    REASON_SHAPE,
    REASON_DISABLED,
)
#: The :class:`SchedulerStats` counter each reason is booked under.
_FALLBACK_NAMES = {reason: f"fallback.{reason}" for reason in FALLBACK_REASONS}


@dataclass(frozen=True)
class BatchDag:
    """Result of analyzing one batch shape.

    ``units`` are the :func:`split_units` ranges, in seq order;
    ``chains`` are tuples of unit indices (ascending within each chain);
    ``cursor_units`` marks units whose elements may fan out.  When
    ``eligible`` is False only ``reason`` and ``units`` are meaningful.
    """

    eligible: bool
    reason: str
    units: tuple
    chains: tuple
    cursor_units: frozenset


def split_units(invocations) -> tuple:
    """Partition a batch into replay units: ``(start, end)`` index ranges.

    A unit is a top-level op, a cursor op together with the sub-ops
    recorded contiguously under it, or an *orphan* — an ``in_cursor`` op
    with no cursor unit to belong to, which never executes (told apart
    by the unit's first op: ``in_cursor`` is checked before
    ``returns_kind``).  This is the only cursor-group scan: the
    executor, the scheduler analysis and installed plans all read it.
    """
    units = []
    index = 0
    ops = len(invocations)
    while index < ops:
        inv = invocations[index]
        end = index + 1
        if inv.returns_kind == "cursor" and not inv.in_cursor:
            while end < ops and invocations[end].cursor_seq == inv.seq:
                end += 1
        units.append((index, end))
        index = end
    return tuple(units)


def analyze_batch(invocations, policy) -> BatchDag:
    """Classify a validated batch for parallel execution.

    Pure function of the batch *shape* (ops + policy); argument values
    are never inspected, so the result may be cached alongside a plan.
    """
    invocations = tuple(invocations)
    units = split_units(invocations)

    def ineligible(reason):
        return BatchDag(False, reason, units, (), frozenset())

    if not is_continue_kind(policy):
        return ineligible(REASON_POLICY)
    for inv in invocations:
        # The export pseudo-op only reads the batch-local object table,
        # so a cluster split point never forces a shard's sub-batch
        # serial: intra-shard chains still parallelize.
        if inv.method != EXPORT_OP and not method_parallel_safe(inv.method):
            return ineligible(REASON_UNSAFE)
    if any(invocations[start].in_cursor for start, _end in units):
        # A sub-op not contiguous with its cursor: no recorder emits
        # one, so the shape stays at width 1 rather than being reasoned
        # about here.
        return ineligible(REASON_SHAPE)
    cursor_units = frozenset(
        u for u, (start, _end) in enumerate(units)
        if invocations[start].returns_kind == "cursor"
    )

    unit_of_seq = {}
    for u, (start, end) in enumerate(units):
        for i in range(start, end):
            unit_of_seq[invocations[i].seq] = u

    parent = list(range(len(units)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, (start, end) in enumerate(units):
        for i in range(start, end):
            for seq in invocations[i].referenced_seqs():
                if seq == ROOT_SEQ:
                    continue
                owner = unit_of_seq.get(seq)
                if owner is None:
                    # Ref into a chained session's object table (or a
                    # dangling seq that replay will fault on).
                    return ineligible(REASON_SESSION)
                if owner != u:
                    ra, rb = find(owner), find(u)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)

    chain_map = {}
    for u in range(len(units)):
        chain_map.setdefault(find(u), []).append(u)
    chains = tuple(tuple(members) for members in chain_map.values())

    if len(chains) < 2 and not cursor_units:
        return ineligible(REASON_SINGLE_CHAIN)
    return BatchDag(True, "", units, chains, cursor_units)


class SchedulerStats(CounterSet):
    """Counters for the DAG scheduler (one per executor): batches by
    width, chains, fanned-out elements, ``helpers`` (pool tasks that
    took at least one key — ``parallel_batches`` says a batch was
    scheduled wide, this says something ran beside the caller) and
    ``fallback.<reason>`` per width-1 reason."""

    def __init__(self):
        super().__init__("parallel_batches", "serial_batches", "chains",
                         "elements", "helpers", *_FALLBACK_NAMES.values())

    def record_parallel(self, chains: int) -> None:
        with self._lock:
            self._values["parallel_batches"] += 1
            self._values["chains"] += chains

    def record_serial(self, reason: str) -> None:
        with self._lock:
            self._values["serial_batches"] += 1
            name = _FALLBACK_NAMES.get(reason)
            if name is not None:
                self._values[name] += 1

    snapshot = CounterSet.as_dict
