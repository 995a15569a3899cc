"""Server-side plan execution: the ``__invoke_plan__`` / ``__install_plan__``
pseudo-methods, registered with the RMI dispatcher when this module is
imported; :func:`plan_runtime_of` is a core's runtime.

The runtime sits between the RMI dispatcher and the ordinary
:class:`~repro.core.executor.BatchExecutor`.  A hit binds the cached
shape to the request's parameter tuple and replays it through the same
executor as an inline batch — identical results, policy behavior and
cursor geometry, with validation skipped because the shape was validated
once at install time.  The install's bind also builds the plan's bind
template, so a hit writes only the slot leaves.  A miss raises the typed
:class:`~repro.rmi.exceptions.PlanNotFoundError` so the client can fall
back to uploading the plan inline.

Plans are pure scripts: the root object arrives with every request (the
pseudo-methods dispatch on an object id, exactly like ``invokeBatch``),
and :class:`~repro.wire.refs.RemoteRef` parameters are unmarshalled by
the executor's substitution step on every run — nothing live is ever
captured at install time.
"""

from __future__ import annotations

from repro.core.dag import analyze_batch
from repro.core.executor import executor_of
from repro.core.recording import validate_batch
from repro.obs.tracer import current_tracer
from repro.plan.cache import DEFAULT_PLAN_CAPACITY, PlanCache
from repro.plan.model import BatchPlan, params_carry_refs, plan_hash
from repro.rmi.dispatch import register_pseudo_method
from repro.rmi.exceptions import MarshalError, NoSuchObjectError
from repro.rmi.exceptions import PlanInvalidatedError, PlanNotFoundError
from repro.rmi.protocol import INSTALL_PLAN, INVOKE_PLAN
from repro.wire import encode


class PlanRuntime:
    """Executes cached plans against one server's batch executor."""

    def __init__(self, executor, cache):
        self._executor = executor
        self._cache = cache

    @property
    def cache(self):
        return self._cache

    def invoke(self, root_obj, digest, params):
        """Run the cached plan *digest* with *params*; raise on a miss."""
        if not isinstance(digest, str):
            raise MarshalError(
                f"plan hash has unexpected type {type(digest).__name__}"
            )
        entry = self._cache.get(digest)
        if entry is None:
            self._mark_plan(digest, "miss")
            raise PlanNotFoundError(digest)
        self._mark_plan(digest, "hit")
        return self._execute(
            root_obj, entry.plan, entry.plan.bind(params), params, entry.dag
        )

    def install(self, root_obj, plan, params):
        """Verify, cache, and execute an uploaded plan in one round trip."""
        if not isinstance(plan, BatchPlan):
            raise MarshalError(
                f"plan upload has unexpected type {type(plan).__name__}"
            )
        digest = plan_hash(plan)
        plan.validate_slots()
        # Validate the shape once; every later invocation skips this.
        validate_batch(plan.ops, plan.policy)
        # Amortize the scheduler analysis: the DAG depends only on the
        # plan shape (ArgRefs stay literal through slot lifting), so one
        # analysis at install time covers every future invocation —
        # eligible or not, since the executor replays ``dag.units`` at
        # either width.
        dag = analyze_batch(plan.ops, plan.policy)
        bound = plan.bind(params)
        # Byte-accounting baseline: what the inline path would ship for
        # this batch versus what a plan invocation ships instead.
        inline_cost = len(encode(bound))
        invoke_cost = len(encode((digest, tuple(params))))
        self._cache.install(digest, plan, inline_cost, invoke_cost, dag=dag)
        self._mark_plan(digest, "install")
        return self._execute(root_obj, plan, bound, params, dag)

    def _execute(self, root_obj, plan, bound, params, dag):
        """Replay *bound* under the plan's install-time analysis.

        The cached DAG is a pure function of the plan shape, and
        binding substitutes slots without creating ArgRef edges — so
        plan hits pay zero scheduler analysis.  A hand-crafted request
        could smuggle ArgRefs in as parameters; re-analyze those.
        """
        if dag is not None and dag.eligible and params_carry_refs(params):
            dag = None
        return self._executor.invoke_batch(
            root_obj, bound, plan.policy, validated=True, dag=dag
        )

    @staticmethod
    def _mark_plan(digest: str, outcome: str) -> None:
        """Zero-duration trace marker: how this request met the cache."""
        current_tracer().event("server.plan", digest=digest, outcome=outcome)


def plan_runtime_of(core) -> PlanRuntime:
    """*core*'s plan runtime, built on first use over its batch executor
    and a cache of the core's ``plan_capacity``."""
    runtime = core.layers.get("plan")
    if runtime is None:
        capacity = core.plan_capacity
        cache = PlanCache(
            DEFAULT_PLAN_CAPACITY if capacity is None else capacity)
        runtime = core.layers.setdefault(
            "plan", PlanRuntime(executor_of(core), cache))
    return runtime


def _serve_invoke(core, request):
    """``__invoke_plan__``: run a cached plan on its root object.

    A missing root becomes the typed :class:`PlanInvalidatedError`
    rather than a bare ``NoSuchObjectError``: the client's cached plan
    (and memo entry) point at an object that no longer exists, and the
    typed error is what lets it tell "re-record against a fresh root"
    from transient middleware failures.  Only this method converts: an
    install (and the inline path) carries the full script, so nothing
    cached went stale and ``NoSuchObjectError`` keeps its meaning.
    """
    runtime = plan_runtime_of(core)
    digest, params = request.args
    try:
        target = core.objects.lookup(request.object_id)
    except NoSuchObjectError:
        raise PlanInvalidatedError(
            digest if isinstance(digest, str) else "?") from None
    return runtime.invoke(target, digest, params)


def _serve_install(core, request):
    """``__install_plan__``: cache an uploaded plan and run it."""
    return plan_runtime_of(core).install(
        core.objects.lookup(request.object_id), *request.args)


register_pseudo_method(INVOKE_PLAN, 2, _serve_invoke)
register_pseudo_method(INSTALL_PLAN, 2, _serve_install)
