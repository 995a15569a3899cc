"""The plan data model: compile, hash, key and bind recorded batches.

``compile_plan`` splits a recorded invocation list into an immutable
:class:`BatchPlan` (the shape) and a flat parameter tuple (the values):
every argument leaf that is not batch structure — i.e. not an
:class:`~repro.core.recording.ArgRef` — is replaced by a
:class:`~repro.wire.plans.ParamSlot` numbered in recording order.
Containers keep their geometry, so two batches share a plan exactly when
they perform the same calls on the same shape of arguments.

``plan_hash`` derives the plan's identity from its canonical wire
encoding (the encoder sorts sets and preserves dict insertion order, so
the same recording always produces the same bytes).  Content addressing
gives three properties for free: the cache key needs no coordination,
an installed plan can be shared by every client that produces the same
shape, and the server can verify an upload by re-hashing it.

``shape_key`` is the client's cheap stand-in for both: one walk over the
recording that elides the leaves and gathers them as parameters, without
building a plan or encoding one (only a dict key of an unusual type is
encoded).  Every recording has a key.  Equal keys mean equal plan hashes
— the key may be finer than the plan, never coarser — so a client that
has learnt a key's digest once can invoke the plan from the key alone.

``BatchPlan.bind`` is the inverse of compilation: substitute a parameter
tuple back into the slots, yielding plain ``InvocationData`` records the
ordinary executor replays.  Binding never touches live objects — a
:class:`~repro.wire.refs.RemoteRef` parameter stays a ref until the
executor's substitution step unmarshals it, so refs re-resolve on every
invocation (stale ones fail exactly as they would inline).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

from repro.core.recording import InvocationData, ArgRef
from repro.rmi.exceptions import PlanError
from repro.wire import canonical_set_order, encode
from repro.wire.plans import ParamSlot
from repro.wire.registry import serializable

#: What compilation keeps as batch structure.  Every other value is a
#: leaf and becomes a parameter slot — the one definition that both
#: ``_lift`` and the shape-key walk read, so the two cannot drift apart.
_STRUCTURE = (ArgRef, list, tuple, dict, set, frozenset)

#: Dict-key types the shape key carries literally, tagged with the type:
#: for these, equal ``(type, key)`` pairs always encode to equal bytes.
#: Any other key (a float: ``0.0 == -0.0``; a tuple: ``(1,) == (True,)``)
#: goes in as its wire encoding, tagged ``_ENCODED``.
_LITERAL_KEY_TYPES = frozenset({str, int, bool, bytes, type(None)})

#: The tag of a key token that is a value's encoding: unequal to every
#: type in ``_LITERAL_KEY_TYPES``, so no literal key can collide with it.
_ENCODED = "encoded"


@serializable
@dataclass(frozen=True)
class BatchPlan:
    """An immutable, parameterized batch shape.

    ``ops`` are ordinary :class:`InvocationData` records whose argument
    leaves are :class:`ParamSlot` markers; ``policy`` is the exception
    policy the batch was recorded under (part of the shape — the same
    calls under a different policy are a different plan); ``param_count``
    is the arity every invocation's parameter tuple must match.
    """

    ops: Tuple[InvocationData, ...]
    policy: object
    param_count: int

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if not isinstance(self.param_count, int) or self.param_count < 0:
            raise ValueError(f"bad param_count: {self.param_count!r}")
        # Not a field: neither encoded nor compared.  Built by the first
        # bind (the server's install), read by every later one.
        object.__setattr__(self, "_template", None)

    def bind(self, params) -> Tuple[InvocationData, ...]:
        """Substitute *params* into the slots; returns runnable invocations.

        The first bind flattens every op into a template once: where each
        top-level argument comes from, a slot's parameter or a constant
        shared by every bind.  A later bind writes only the slot leaves.
        Ops the template cannot flatten are rebuilt by ``_fill``.
        """
        params = tuple(params)
        if len(params) != self.param_count:
            raise PlanError(
                f"plan expects {self.param_count} parameters, got {len(params)}"
            )
        if self._template is None:
            object.__setattr__(self, "_template", self._flatten())
        steps, constants = self._template
        get = (params + constants).__getitem__
        bound = []
        for op, arg_sources, kwarg_names, kwarg_sources in steps:
            if arg_sources:
                args = tuple(map(get, arg_sources))
            elif arg_sources is None:
                args = _fill(op.args, params)
            else:
                args = op.args
            if kwarg_sources:
                kwargs = dict(zip(kwarg_names, map(get, kwarg_sources)))
            elif kwarg_sources is None:
                kwargs = _fill(op.kwargs, params)
            else:
                kwargs = op.kwargs
            bound.append(op.with_arguments(args, kwargs))
        return tuple(bound)

    def _flatten(self):
        """The bind template: per op, the sources of its top-level args
        and kwarg values as indices into ``params + constants``."""
        constants = []
        steps = tuple(
            (op,
             _sources(op.args, self.param_count, constants),
             tuple(op.kwargs),
             _sources(op.kwargs.values(), self.param_count, constants))
            for op in self.ops
        )
        return steps, tuple(constants)

    def validate_slots(self) -> None:
        """Check every slot index is in range (server-side install guard)."""
        for op in self.ops:
            for slot in _slots_in((op.args, tuple(op.kwargs.values()))):
                if slot.index >= self.param_count:
                    raise PlanError(
                        f"plan op #{op.seq} references slot {slot.index} but "
                        f"the plan declares only {self.param_count} parameters"
                    )

    def __len__(self):
        return len(self.ops)

    def __repr__(self):
        return (
            f"<BatchPlan {len(self.ops)} ops, {self.param_count} params, "
            f"{type(self.policy).__name__}>"
        )


def compile_plan(invocations, policy):
    """Split recorded *invocations* into ``(BatchPlan, params)``.

    The invocations must already be wire-safe (they are, coming out of
    the batch recorder).  Slot numbering follows recording order, so the
    same client code produces the same plan every time.
    """
    params = []
    ops = tuple(
        inv.with_arguments(_lift(inv.args, params), _lift(inv.kwargs, params))
        for inv in invocations
    )
    plan = BatchPlan(ops=ops, policy=policy, param_count=len(params))
    return plan, tuple(params)


def plan_hash(plan: BatchPlan) -> str:
    """Content hash of the plan's canonical wire encoding (hex sha256)."""
    return hashlib.sha256(encode(plan)).hexdigest()


def shape_key(invocations, policy):
    """``(key, params)`` for a recording.

    *params* equals what ``compile_plan`` returns.  The key is a flat
    token tuple: the policy's encoding, then per op its fields and its
    argument geometry in prefix form — a container's kind and length
    before its items, ``ParamSlot`` where compilation puts a slot, an
    ``ArgRef``'s fields, a dict key's type before the key.  Equal keys
    therefore compile to plans with equal ``plan_hash``.  The policy goes
    in as bytes because a ``CustomPolicy`` is mutable and unhashable.

    The walk is total.  A container subclass walks as the plain kind
    ``_lift`` turns it into; a dict key outside ``_LITERAL_KEY_TYPES``,
    and an ``ArgRef`` subclass (which ``_lift`` keeps as it is), go in
    as their wire encoding.
    """
    tokens = [encode(policy)]
    params = []
    for inv in invocations:
        tokens += (inv.seq, inv.method, inv.returns_kind, inv.cursor_seq)
        _walk((inv.target, inv.args, inv.kwargs), tokens, params)
    return tuple(tokens), tuple(params)


def _walk(values, tokens, params):
    """Append the shape of each of *values* to *tokens* and its leaves
    to *params*, in ``_lift``'s order.  A dict writes its tagged keys
    before its values.

    One frame however deep the arguments nest: a container pushes an
    iterator over its items and the walk goes on from there, popping it
    once it is spent.
    """
    stack = [iter(values)]
    while stack:
        for value in stack[-1]:
            if not isinstance(value, _STRUCTURE):
                tokens.append(ParamSlot)
                params.append(value)
                continue
            kind = type(value)
            if kind is ArgRef:
                tokens += (ArgRef, value.seq, value.cursor_index)
                continue
            if kind is tuple or kind is list:
                tokens += (kind, len(value))
                items = value
            elif kind is dict:
                tokens += (dict, len(value))
                for key in value:
                    key_type = type(key)
                    if key_type in _LITERAL_KEY_TYPES:
                        tokens += (key_type, key)
                    else:
                        tokens += (_ENCODED, encode(key))
                items = value.values()
            elif kind is set or kind is frozenset:
                tokens += (kind, len(value))
                items = canonical_set_order(value)
            elif isinstance(value, ArgRef):
                tokens += (_ENCODED, encode(value))
                continue
            else:
                items = (_plain(value),)
            stack.append(iter(items))
            break
        else:
            stack.pop()


def _plain(container):
    """The exact-type copy ``_lift`` makes of a container subclass."""
    for kind in (list, tuple, dict, frozenset):
        if isinstance(container, kind):
            return dict(container.items()) if kind is dict else kind(container)
    return set(container)


def _lift(value, params):
    """Copy *value* with every non-structural leaf replaced by a slot.

    ArgRefs are batch structure and stay literal; container geometry and
    dict keys stay literal (dict keys are not substituted by the executor
    either, so lifting them would change semantics); everything else —
    primitives, registered serializable objects, RemoteRefs — is lifted.
    """
    if not isinstance(value, _STRUCTURE):
        slot = ParamSlot(len(params))
        params.append(value)
        return slot
    if isinstance(value, ArgRef):
        return value
    if isinstance(value, list):
        return [_lift(item, params) for item in value]
    if isinstance(value, tuple):
        return tuple(_lift(item, params) for item in value)
    if isinstance(value, dict):
        return {key: _lift(item, params) for key, item in value.items()}
    # A set or frozenset.  Iterate in the encoder's canonical order, not
    # hash order: slot numbering must be identical across processes for
    # the same recording, or content addressing splinters per client.
    lifted = {_lift(item, params) for item in canonical_set_order(value)}
    return frozenset(lifted) if isinstance(value, frozenset) else lifted


def _fill(value, params):
    """Substitute slots back with their parameter values."""
    if isinstance(value, ParamSlot):
        return params[value.index]
    if isinstance(value, list):
        return [_fill(item, params) for item in value]
    if isinstance(value, tuple):
        return tuple(_fill(item, params) for item in value)
    if isinstance(value, dict):
        return {key: _fill(item, params) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        filled = {_fill(item, params) for item in value}
        return frozenset(filled) if isinstance(value, frozenset) else filled
    return value


def _sources(items, param_count, constants):
    """Where each top-level argument of a bound op comes from.

    A slot reads its parameter; a value with no slot and no mutable set
    inside is a constant, appended to *constants* once and shared by
    every bind (the executor rebuilds lists, tuples and dicts when it
    substitutes, and unpacks the top-level containers into the call,
    but passes a set through to the method).  Returns the indices into
    ``params + constants``; ``()`` when there is no slot at all, so bind
    shares the op's own container; ``None`` for anything else — a slot
    below the top level, an out-of-range slot — which ``_fill`` rebuilds
    on every bind.
    """
    sources = []
    shared = []
    for item in items:
        if type(item) is ParamSlot and item.index < param_count:
            sources.append(item.index)
        elif _is_constant(item):
            sources.append(param_count + len(constants) + len(shared))
            shared.append(item)
        else:
            return None
    if len(shared) == len(sources):
        return ()
    constants += shared
    return tuple(sources)


def _nodes(value):
    """*value* and everything inside it, depth first: the items of
    lists, tuples, sets and frozensets, and a dict's values (never its
    keys, which compilation keeps literal)."""
    stack = [value]
    while stack:
        item = stack.pop()
        yield item
        if isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())


def _is_constant(value) -> bool:
    """Whether *value* holds neither a slot nor a mutable set."""
    return not any(isinstance(item, (ParamSlot, set))
                   for item in _nodes(value))


def _slots_in(value):
    """All ParamSlot markers reachable in an argument structure."""
    return [item for item in _nodes(value) if isinstance(item, ParamSlot)]


def params_carry_refs(params) -> bool:
    """Whether a parameter tuple smuggles :class:`ArgRef` values.

    The recorder lifts only non-ArgRef leaves into slots, so well-formed
    clients never produce such parameters — but the wire cannot stop a
    hand-crafted request from injecting dependency edges the plan's
    cached DAG has never seen.  The runtime re-analyzes (or serializes)
    such invocations instead of trusting the cached schedule.
    """
    return any(isinstance(item, ArgRef) for item in _nodes(params))
