"""Wire-level data model of a recorded batch (paper §4.1–§4.3).

- :class:`ArgRef` — a reference to the result of an earlier invocation in
  the same batch chain (the paper transmits bare sequence numbers; the
  ``cursor_index`` field additionally addresses one element of a flushed
  cursor, which the paper's chained-batch design requires the server to
  number);
- :class:`InvocationData` — one recorded method call (the class of the
  same name in the paper's Figure 3);
- :class:`BatchResponse` — everything the server sends back from
  ``invokeBatch``: plain results, exceptions, cursor geometry and result
  matrices, what never executed, and the chained-session id;
- :func:`validate_batch` — the wire-shape check every batch passes once
  before replay (per flush inline, once at install for a plan).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.core.policies import POLICY_TYPES
from repro.rmi.exceptions import MarshalError
from repro.wire.registry import serializable

#: Sequence number of the batch root (the wrapped remote object).
ROOT_SEQ = 0

#: Marker for "no cursor" / "no session" / "no break" in wire fields.
NONE_ID = -1

RETURN_KINDS = ("value", "remote", "cursor")

#: Batch-internal pseudo-method: "export the resolved target as a value
#: result".  The cluster client records it at cross-shard split points —
#: the target marshals to its :class:`~repro.wire.refs.RemoteRef`, so the
#: client-side future yields a live stub that a sub-batch on another
#: shard can take as an ordinary argument.  Only reachable through a
#: batch (ordinary dispatch checks interface specs and rejects it).
EXPORT_OP = "__export__"


@serializable
@dataclass(frozen=True)
class ArgRef:
    """Reference to a prior result within a batch chain.

    ``seq == 0`` is the root object.  ``cursor_index >= 0`` addresses one
    element of the cursor (or cursor-derived object) ``seq`` — used by
    chained batches operating on the cursor's current element.
    """

    seq: int
    cursor_index: int = NONE_ID

    def __post_init__(self):
        if self.seq < 0:
            raise ValueError(f"seq must be >= 0: {self.seq}")
        if self.cursor_index < NONE_ID:
            raise ValueError(f"bad cursor_index: {self.cursor_index}")

    @property
    def is_element(self) -> bool:
        """Whether this addresses a single cursor element."""
        return self.cursor_index != NONE_ID


@serializable
@dataclass(frozen=True)
class InvocationData:
    """One recorded remote method call.

    ``args``/``kwargs`` hold wire-safe values; batch-local references
    appear as :class:`ArgRef` (possibly nested inside containers).
    ``cursor_seq`` marks membership in a cursor's sub-batch.
    """

    seq: int
    target: ArgRef
    method: str
    args: Tuple = ()
    kwargs: Dict = field(default_factory=dict)
    returns_kind: str = "value"
    cursor_seq: int = NONE_ID

    def __post_init__(self):
        if self.seq <= ROOT_SEQ:
            raise ValueError(f"invocation seq must be positive: {self.seq}")
        if not isinstance(self.target, ArgRef):
            raise TypeError(f"target must be an ArgRef: {self.target!r}")
        if not self.method or not isinstance(self.method, str):
            raise ValueError(f"bad method name: {self.method!r}")
        if self.returns_kind not in RETURN_KINDS:
            raise ValueError(f"bad returns_kind: {self.returns_kind!r}")
        if self.cursor_seq != NONE_ID and self.cursor_seq <= ROOT_SEQ:
            raise ValueError(f"bad cursor_seq: {self.cursor_seq}")
        object.__setattr__(self, "args", tuple(self.args))

    def with_arguments(self, args: tuple, kwargs: dict) -> "InvocationData":
        """This op with other arguments, without re-running ``__post_init__``.

        The plan binder's constructor: every other field was checked when
        this op was built, so a plan hit does not pay to check them
        again.  *args* must already be a tuple.
        """
        copy = object.__new__(InvocationData)
        fields = copy.__dict__
        fields.update(self.__dict__)
        fields["args"] = args
        fields["kwargs"] = kwargs
        return copy

    @property
    def in_cursor(self) -> bool:
        """Whether this op belongs to a cursor's sub-batch."""
        return self.cursor_seq != NONE_ID

    def referenced_seqs(self) -> "tuple[int, ...]":
        """Seqs this op depends on, in recording order, duplicates kept.

        The target ref comes first, then every :class:`ArgRef` found in
        ``args``/``kwargs`` (depth-first through containers).  This is
        the edge list both the DAG scheduler and the executor's
        element-failure attribution walk.
        """
        seqs = [self.target.seq]
        _collect_ref_seqs(self.args, seqs)
        _collect_ref_seqs(self.kwargs, seqs)
        return tuple(seqs)


def _collect_ref_seqs(value, seqs: list) -> None:
    if isinstance(value, ArgRef):
        seqs.append(value.seq)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _collect_ref_seqs(item, seqs)
    elif isinstance(value, dict):
        for item in value.values():
            _collect_ref_seqs(item, seqs)


def validate_batch(invocations, policy) -> "tuple[InvocationData, ...]":
    """Check a batch as it came off the wire; returns the ops as a tuple.

    The codec guarantees each field's type but not that the arguments
    of ``__invoke_batch__`` are a policy and a strictly increasing run
    of invocations.
    """
    if not isinstance(policy, POLICY_TYPES):
        raise MarshalError(
            f"batch policy has unexpected type {type(policy).__name__}"
        )
    invocations = tuple(invocations)
    previous = ROOT_SEQ
    for inv in invocations:
        if not isinstance(inv, InvocationData):
            raise MarshalError(
                f"batch entry has unexpected type {type(inv).__name__}"
            )
        if inv.seq <= previous:
            raise MarshalError(
                f"batch sequence numbers must increase: {inv.seq} after "
                f"{previous}"
            )
        previous = inv.seq
    return invocations


@serializable
@dataclass(frozen=True)
class BatchResponse:
    """Everything ``invokeBatch`` returns to the client.

    - ``results``: seq → marshalled value, for value-kind top-level ops
      that ran successfully.  Remote-kind results never cross the wire
      (§4.4) — their success is implied by absence from ``exceptions``;
    - ``exceptions``: seq → exception raised by that op (top level);
    - ``cursor_lengths``: cursor seq → number of array elements;
    - ``cursor_results``: sub-op seq → per-element values, aligned by
      element index (``None`` placeholder where that element raised);
    - ``cursor_exceptions``: sub-op seq → {element index → exception};
    - ``not_executed``: seqs recorded but never run (after a BREAK);
    - ``break_seq``: the op whose exception broke the batch, if any;
    - ``session_id``: server session for chained batches, if kept;
    - ``restarts``: how many RESTART policy actions were taken.
    """

    results: Dict = field(default_factory=dict)
    exceptions: Dict = field(default_factory=dict)
    cursor_lengths: Dict = field(default_factory=dict)
    cursor_results: Dict = field(default_factory=dict)
    cursor_exceptions: Dict = field(default_factory=dict)
    not_executed: Tuple = ()
    break_seq: int = NONE_ID
    session_id: int = NONE_ID
    restarts: int = 0

    def __post_init__(self):
        object.__setattr__(self, "not_executed", tuple(self.not_executed))

    def break_exception(self):
        """The exception that broke the batch, or None."""
        if self.break_seq == NONE_ID:
            return None
        exc = self.exceptions.get(self.break_seq)
        if exc is not None:
            return exc
        # The break happened inside a cursor sub-batch; the executor also
        # mirrors it into ``exceptions``, but be defensive.
        per_element = self.cursor_exceptions.get(self.break_seq, {})
        for _index, element_exc in sorted(per_element.items()):
            return element_exc
        return None
