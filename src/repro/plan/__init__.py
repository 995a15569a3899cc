"""Compiled batch plans: content-addressed re-execution of hot batches.

The paper ships a batch as a little script — the full ``InvocationData``
list — on every flush.  When a client replays the same *call shape*
thousands of times (the hot-loop workload of a large deployment), almost
all of those bytes are redundant: only the argument values change.  This
package factors a recorded batch into the two halves:

- the **shape** — targets, methods, sequence numbers, return kinds,
  cursor structure and the exception policy — compiled once into an
  immutable :class:`~repro.plan.model.BatchPlan` whose identity is a
  content hash of its canonical wire encoding;
- the **parameters** — every concrete argument value, lifted into
  numbered :class:`~repro.wire.plans.ParamSlot` positions and shipped as
  a flat tuple on each invocation.

The server keeps a bounded LRU :class:`~repro.plan.cache.PlanCache`;
``__invoke_plan__(plan_hash, params)`` re-executes a cached plan through
the ordinary BRMI executor without re-decoding (or re-validating) the
script.  A miss raises the typed
:class:`~repro.rmi.exceptions.PlanNotFoundError`, and the client answers
by uploading the plan inline through ``__install_plan__`` — install and
execute in one round trip.  Plans never capture live objects: the root
object and every :class:`~repro.wire.refs.RemoteRef` parameter are
re-resolved per invocation, and a root that was unexported raises the
typed :class:`~repro.rmi.exceptions.PlanInvalidatedError`.

Client adoption is transparent: ``create_batch(stub, reuse_plans=True)``
returns an ordinary batch proxy whose recorder, a
:class:`~repro.plan.client.PlanningBatchRecorder`, memoizes flushed
shapes and automatically switches a repeated batch to plan invocation,
with results, exception-policy behavior and cursor geometry identical to
the inline path.
"""

from repro.plan.cache import PlanCache
from repro.plan.client import PlanMemo, PlanningBatchRecorder
from repro.plan.model import BatchPlan, compile_plan, plan_hash
from repro.plan.runtime import PlanRuntime

__all__ = [
    "BatchPlan",
    "compile_plan",
    "plan_hash",
    "PlanCache",
    "PlanMemo",
    "PlanningBatchRecorder",
    "PlanRuntime",
]
