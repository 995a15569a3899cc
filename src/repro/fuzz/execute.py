"""Executing one fuzz program three ways, and comparing the outcomes.

The *oracle* (:func:`run_oracle`) interprets a program as the paper's
baseline: one plain RMI round trip per executed call.  Because the
equivalence claim covers exception policies, the oracle is also a
reference interpreter of the batch semantics of §3.3–§3.5 — it decides,
from the policy and the failure history, which calls a batch would have
executed at all, and what every future/proxy/cursor would observably
report.  The rules mirror the client recorder and server executor
exactly:

- a step whose target/argument register failed in an *earlier* segment
  never records (the proxy raises its stored verdict at record time, in
  target-then-arguments order);
- a recorded step whose same-segment dependency failed reports the
  first failed dependency in sequence order (``_failure_of``);
- after a BREAK, the rest of the segment is aborted
  (:class:`~repro.core.errors.BatchAbortedError`);
- cursor sub-batches run element-major, stop at a BREAK, and pad the
  remaining element slots as aborted.

REPEAT/RESTART policies are out of scope by design: re-running side
effects is exactly what a sequence of individual calls cannot replay,
so the generator never produces them and the oracle refuses them.

A multi-root program is interpreted by the same rules with one
generalisation: the BREAK state is tracked **per chain**, because every
chain is its own batch — a policy break on one shard's batch never
aborts another shard's rows.  Cross-chain arguments need no extra
modelling thanks to the invariant :func:`~repro.fuzz.program.
validate_program` enforces.

The *batch driver* (:func:`run_batched`) records the same program
through real proxies — plain (``reuse_plans=False``) or plan-reusing,
rooted in one ``create_batch(stub)`` or in a cluster's scatter-gather
batch — flushes segment by segment, and reads every observable back.  Both
produce the same :class:`RunResult` shape, which
:func:`compare_runs` diffs field by field: per-step status/value/
exception, cursor geometry and per-element matrices, server post-state,
and the traffic sanity bound (a batch never uses more round trips than
naive RMI, modulo the empty close-session flush).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cursor import cursor_length
from repro.core.errors import BatchAbortedError
from repro.core.policies import ExceptionAction
from repro.core.proxy import create_batch
from repro.rmi.exceptions import RemoteApplicationError

from repro.fuzz.program import ROOT_REG, Program, Reg


class FuzzHarnessError(Exception):
    """The harness itself (not the system under test) went wrong."""


# -- observable outcomes -----------------------------------------------------


@dataclass(frozen=True)
class StepOutcome:
    """What one step observably did: a value, an exception, or an abort."""

    status: str  # "ok" | "raise" | "aborted"
    value: object = None
    error: str = ""

    def render(self) -> str:
        if self.status == "ok":
            return f"ok({self.value!r})" if self.value is not None else "ok"
        if self.status == "raise":
            return f"raise({self.error})"
        return "aborted"


@dataclass
class CursorOutcome:
    """A cursor step's observable: its own fate, geometry, and matrix."""

    outcome: StepOutcome
    length: int = -1
    elements: dict = field(default_factory=dict)  # sub seq -> [StepOutcome]


@dataclass
class RunResult:
    """Everything observable about one execution of one program."""

    mode: str
    outcomes: dict = field(default_factory=dict)  # seq -> StepOutcome
    cursors: dict = field(default_factory=dict)  # seq -> CursorOutcome
    post_state: object = None
    requests: int = 0
    flush_error: str = ""


def exc_key(exc: BaseException) -> str:
    """Stable wire-level identity of an exception for comparison.

    Unregistered server exceptions decode as
    :class:`~repro.rmi.exceptions.RemoteApplicationError` on *both*
    paths; keeping the carried original class name in the key means two
    different unregistered exceptions still compare unequal.
    """
    cls = type(exc)
    key = f"{cls.__module__}.{cls.__qualname__}"
    if isinstance(exc, RemoteApplicationError):
        key += f"[{exc.original_class}]"
    return key


def outcome_from_exc(exc: BaseException) -> StepOutcome:
    if isinstance(exc, BatchAbortedError):
        return StepOutcome("aborted")
    return StepOutcome("raise", error=exc_key(exc))


_OK = StepOutcome("ok")


def _ok_value(value) -> StepOutcome:
    return StepOutcome("ok", value=value)


# -- the naive-RMI oracle ----------------------------------------------------


def run_oracle(program: Program, stubs: dict, policy) -> RunResult:
    """Execute *program* call-by-call over plain RMI.

    *stubs* maps root registers (0, -1, ...) to live stubs.  Each
    executed call is one real round trip against the live server(s);
    the batch semantics (what would not have executed, and what its
    observable verdict would be) are interpreted client-side.
    """
    result = RunResult(mode="oracle")
    chains = program.chain_of()
    regs = dict(stubs)
    deps = {reg: frozenset() for reg in program.root_regs}
    failures = {}  # seq -> exception instance (executed steps only)
    dead = set()  # outcome decided at record time (never recorded)
    step_segment = {reg: -1 for reg in program.root_regs}
    before = _requests(stubs)

    def decide(exc, method, index):
        action = policy.decide(exc, method, index)
        if action not in (ExceptionAction.BREAK, ExceptionAction.CONTINUE):
            raise FuzzHarnessError(
                f"fuzz policies must only BREAK/CONTINUE, got {action!r}"
            )
        return action

    for steps in _group_segments(program):
        broke = dict.fromkeys(range(program.roots), False)  # per chain
        index = 0
        while index < len(steps):
            step = steps[index]
            chain = chains[step.target]
            if step.kind == "cursor":
                sub_end = index + 1
                while (
                    sub_end < len(steps)
                    and steps[sub_end].cursor == step.seq
                ):
                    sub_end += 1
                subs = steps[index + 1 : sub_end]
                broke[chain] = _oracle_cursor(
                    program, step, subs, step.segment, regs, deps,
                    failures, dead, step_segment, broke[chain], decide,
                    result,
                )
                index = sub_end
                continue
            broke[chain] = _oracle_step(
                step, step.segment, regs, deps, failures, dead,
                step_segment, broke[chain], decide, result,
            )
            index += 1

    result.requests = _requests(stubs) - before
    return result


def _requests(stubs: dict) -> int:
    """Round trips so far on the client(s) the root stubs belong to."""
    clients = {stub.owner_client for stub in stubs.values()}
    return sum(client.stats.requests for client in clients)


def _oracle_step(step, segment_index, regs, deps, failures, dead,
                 step_segment, broke, decide, result):
    outcome, step_deps = _pre_execution(
        step, segment_index, deps, failures, dead, step_segment, broke,
        result,
    )
    step_segment[step.seq] = segment_index
    if outcome is not None:
        result.outcomes[step.seq] = outcome
        return broke
    deps[step.seq] = step_deps
    target = regs[step.target]
    args = _materialize(step.args, regs)
    try:
        value = getattr(target, step.method)(*args)
    except Exception as exc:  # noqa: BLE001 - the policy sees everything
        failures[step.seq] = exc
        result.outcomes[step.seq] = outcome_from_exc(exc)
        return broke or decide(exc, step.method, step.seq) == (
            ExceptionAction.BREAK
        )
    if step.kind == "remote":
        regs[step.seq] = value
        result.outcomes[step.seq] = _OK
    else:
        result.outcomes[step.seq] = _ok_value(value)
    return broke


def _oracle_cursor(program, step, subs, segment_index, regs, deps, failures,
                   dead, step_segment, broke, decide, result):
    outcome, step_deps = _pre_execution(
        step, segment_index, deps, failures, dead, step_segment, broke,
        result,
    )
    step_segment[step.seq] = segment_index
    for sub in subs:
        step_segment[sub.seq] = segment_index
    if outcome is not None:
        result.cursors[step.seq] = CursorOutcome(outcome)
        return broke
    deps[step.seq] = step_deps
    target = regs[step.target]
    try:
        items = list(getattr(target, step.method)(*_materialize(step.args, regs)))
    except Exception as exc:  # noqa: BLE001
        failures[step.seq] = exc
        result.cursors[step.seq] = CursorOutcome(outcome_from_exc(exc))
        return broke or decide(exc, step.method, step.seq) == (
            ExceptionAction.BREAK
        )

    cursor = CursorOutcome(_OK, length=len(items))
    cursor.elements = {sub.seq: [] for sub in subs}
    result.cursors[step.seq] = cursor
    for index in range(len(items)):
        for sub in subs:
            if broke:
                break
            try:
                value = getattr(items[index], sub.method)(
                    *_materialize(sub.args, regs)
                )
            except Exception as exc:  # noqa: BLE001
                cursor.elements[sub.seq].append(outcome_from_exc(exc))
                if decide(exc, sub.method, index) == ExceptionAction.BREAK:
                    broke = True
            else:
                cursor.elements[sub.seq].append(_ok_value(value))
        if broke:
            break
    # Elements the batch never reached surface as aborted on iteration.
    for sub in subs:
        slots = cursor.elements[sub.seq]
        while len(slots) < len(items):
            slots.append(StepOutcome("aborted"))
    return broke


def _pre_execution(step, segment_index, deps, failures, dead, step_segment,
                   broke, result):
    """The recorder/executor checks that run before a call executes.

    Returns ``(outcome, None)`` when the step never executes, or
    ``(None, deps)`` when it should be attempted for real.
    """
    # Record-time check: registers resolved before this segment (or dead)
    # raise their stored verdict, target first, then arguments in
    # conversion order.
    for reg in (step.target,) + tuple(r.seq for r in step.arg_regs()):
        if reg <= ROOT_REG:
            continue  # root registers (0, -1, ...) never fail
        resolved = reg in dead or step_segment.get(reg, 10**9) < segment_index
        if not resolved:
            continue
        verdict = _register_verdict(reg, result)
        if verdict.status != "ok":
            dead.add(step.seq)
            return StepOutcome(verdict.status, error=verdict.error), None

    # Flush-time verdict: first failed dependency in sequence order.
    step_deps = set(deps.get(step.target, frozenset()))
    if step.target > ROOT_REG:
        step_deps.add(step.target)
    for reg in step.arg_regs():
        step_deps.update(deps.get(reg.seq, frozenset()))
        if reg.seq > ROOT_REG:
            step_deps.add(reg.seq)
    for dep in sorted(step_deps):
        if dep in failures:
            return outcome_from_exc(failures[dep]), None
    if broke:
        return StepOutcome("aborted"), None
    return None, frozenset(step_deps)


def _register_verdict(seq, result: RunResult) -> StepOutcome:
    if seq in result.outcomes:
        return result.outcomes[seq]
    if seq in result.cursors:
        return result.cursors[seq].outcome
    raise FuzzHarnessError(f"register r{seq} has no recorded verdict")


def _materialize(value, regs):
    if isinstance(value, Reg):
        return regs[value.seq]
    if isinstance(value, list):
        return [_materialize(item, regs) for item in value]
    if isinstance(value, tuple):
        return tuple(_materialize(item, regs) for item in value)
    if isinstance(value, dict):
        return {key: _materialize(item, regs) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        resolved = {_materialize(item, regs) for item in value}
        return frozenset(resolved) if isinstance(value, frozenset) else resolved
    return value


def _group_segments(program: Program):
    segments = [[] for _ in range(program.segments)]
    for step in program.steps:
        segments[step.segment].append(step)
    return segments


# -- the batch/plan driver ---------------------------------------------------


def run_batched(program: Program, stubs: dict, policy, *,
                reuse_plans: bool = False, inject=None,
                cluster=None) -> RunResult:
    """Record *program* through real batch proxies and read it back.

    *stubs* maps root registers to live stubs.  How the batch is opened
    is the one thing the layouts do not share: a plain
    ``create_batch`` on the (only) root stub, or — given the *cluster*
    client the stubs came from — one scatter-gather batch with every
    root attached through ``batch.on``.

    *inject* is an optional ``callable(recorder)`` applied before any
    recording — the hook the CLI's ``--inject-bug`` uses to plant a
    deliberate wire-level defect that the differential check must catch.
    It targets the single-server recorder.
    """
    result = RunResult(mode="plan" if reuse_plans else "batch")
    if cluster is None:
        batch = create_batch(
            stubs[ROOT_REG], policy=policy, reuse_plans=reuse_plans
        )
        regs = {ROOT_REG: batch}
    else:
        batch = cluster.create_batch(policy=policy, reuse_plans=reuse_plans)
        regs = {reg: batch.on(stub) for reg, stub in stubs.items()}
    if inject is not None:
        inject(batch._recorder)
    dead = {}  # seq -> StepOutcome decided at record time
    futures = {}
    proxies = {}
    cursors = {}  # seq -> (CursorProxy, {sub seq -> future})
    before = _requests(stubs)

    segments = _group_segments(program)
    last = len(segments) - 1
    for segment_index, steps in enumerate(segments):
        for step in steps:
            blocked = _record_blocker(step, dead, regs)
            if blocked is not None:
                dead[step.seq] = blocked
                continue
            target = cursors[step.cursor][0] if step.cursor else regs[step.target]
            try:
                produced = getattr(target, step.method)(
                    *_materialize(step.args, regs)
                )
            except Exception as exc:  # noqa: BLE001 - recording verdicts
                dead[step.seq] = outcome_from_exc(exc)
                continue
            if step.cursor:
                cursors[step.cursor][1][step.seq] = produced
            elif step.kind == "value":
                futures[step.seq] = produced
            elif step.kind == "remote":
                proxies[step.seq] = produced
                regs[step.seq] = produced
            else:
                cursors[step.seq] = (produced, {})
        try:
            if segment_index == last:
                batch.flush()
            else:
                batch.flush_and_continue()
        except Exception as exc:  # noqa: BLE001 - a flush must never blow up
            result.flush_error = exc_key(exc)
            break

    _collect_batch_outcomes(program, dead, futures, proxies, cursors, result)
    result.requests = _requests(stubs) - before
    return result


def _record_blocker(step, dead, regs):
    """Mirror of the recorder's pre-checks for steps we cannot record.

    Scans target-then-arguments, exactly like ``record`` does: a dead
    register propagates its stored outcome, and a live register whose
    proxy already failed propagates that verdict (the real ``record``
    call would raise it, but a dead register elsewhere in the argument
    list could stop us from even attempting the call, so the order is
    simulated here for all registers uniformly).
    """
    order = (step.cursor if step.cursor else step.target,) + tuple(
        r.seq for r in step.arg_regs()
    )
    for reg in order:
        if reg in dead:
            blocked = dead[reg]
            return StepOutcome(blocked.status, error=blocked.error)
        proxy = regs.get(reg)
        failure = getattr(proxy, "_failure", None)
        if failure is not None:
            return outcome_from_exc(failure)
    return None


def _collect_batch_outcomes(program, dead, futures, proxies, cursors, result):
    for step in program.steps:
        if step.cursor:
            continue  # observed through its cursor's element matrix
        if step.kind == "cursor":
            result.cursors[step.seq] = _collect_cursor(
                step, program, dead, cursors
            )
            continue
        if step.seq in dead:
            result.outcomes[step.seq] = dead[step.seq]
        elif step.kind == "value":
            future = futures.get(step.seq)
            if future is None:
                result.outcomes[step.seq] = StepOutcome(
                    "raise", error="fuzz.missing-future"
                )
                continue
            try:
                result.outcomes[step.seq] = _ok_value(future.get())
            except Exception as exc:  # noqa: BLE001
                result.outcomes[step.seq] = outcome_from_exc(exc)
        else:
            proxy = proxies.get(step.seq)
            if proxy is None:
                result.outcomes[step.seq] = StepOutcome(
                    "raise", error="fuzz.missing-proxy"
                )
                continue
            try:
                proxy.ok()
                result.outcomes[step.seq] = _OK
            except Exception as exc:  # noqa: BLE001
                result.outcomes[step.seq] = outcome_from_exc(exc)


def _collect_cursor(step, program, dead, cursors):
    if step.seq in dead:
        return CursorOutcome(dead[step.seq])
    proxy, sub_futures = cursors[step.seq]
    try:
        proxy.ok()
    except Exception as exc:  # noqa: BLE001
        return CursorOutcome(outcome_from_exc(exc))
    outcome = CursorOutcome(_OK, length=cursor_length(proxy))
    outcome.elements = {seq: [] for seq in sub_futures}
    while proxy.next():
        for seq, future in sub_futures.items():
            try:
                outcome.elements[seq].append(_ok_value(future.get()))
            except Exception as exc:  # noqa: BLE001
                outcome.elements[seq].append(outcome_from_exc(exc))
    return outcome


def drop_call_injection(recorder) -> None:
    """Plant the acceptance-criteria bug: silently drop one batched call.

    Wraps the recorder's ``_ship`` so every shipped segment of two or
    more invocations loses its second one — the kind of off-by-one a
    broken wire path could introduce.  The differential harness must
    catch it and shrink the repro.
    """
    original = recorder._ship

    def shipping(invocations, keep_session):
        if len(invocations) >= 2:
            invocations = invocations[:1] + invocations[2:]
        return original(invocations, keep_session)

    recorder._ship = shipping


def swap_policy_injection(recorder) -> None:
    """A subtler planted bug: ship every batch under ContinuePolicy.

    Structurally the batch is untouched — same calls, same wire shape —
    but a batch recorded under ABORT semantics keeps executing past its
    first failure.  Only the differential check against the oracle's
    policy interpretation (extra side effects in the post-state, futures
    resolving instead of aborting) can notice.
    """
    from repro.core.policies import ContinuePolicy

    recorder._policy = ContinuePolicy()


# -- comparison --------------------------------------------------------------

#: Extra round trips a batch may legitimately spend beyond naive RMI:
#: one empty flush to close a chained session, plus (plan mode only) one
#: re-install after a plan-cache miss.
TRAFFIC_SLACK = {"batch": 1, "plan": 2}


def compare_runs(oracle: RunResult, observed: RunResult,
                 check_traffic: bool = True):
    """All observable differences between an oracle and a mode run."""
    diffs = []
    if observed.flush_error:
        diffs.append(f"flush raised {observed.flush_error}")
    for seq in sorted(set(oracle.outcomes) | set(observed.outcomes)):
        expected = oracle.outcomes.get(seq)
        got = observed.outcomes.get(seq)
        if expected != got:
            diffs.append(
                f"step r{seq}: oracle {_render(expected)} != "
                f"{observed.mode} {_render(got)}"
            )
    for seq in sorted(set(oracle.cursors) | set(observed.cursors)):
        diffs.extend(_compare_cursor(
            seq, oracle.cursors.get(seq), observed.cursors.get(seq),
            observed.mode,
        ))
    if oracle.post_state != observed.post_state:
        diffs.append(
            f"post-state: oracle {oracle.post_state!r} != "
            f"{observed.mode} {observed.post_state!r}"
        )
    slack = TRAFFIC_SLACK.get(observed.mode, 0)
    if check_traffic and observed.requests > oracle.requests + slack:
        diffs.append(
            f"traffic: {observed.mode} used {observed.requests} requests, "
            f"naive RMI used {oracle.requests}"
        )
    return diffs


def _compare_cursor(seq, expected, got, mode):
    if expected is None or got is None:
        return [f"cursor r{seq}: present only in one run"]
    diffs = []
    if expected.outcome != got.outcome:
        diffs.append(
            f"cursor r{seq}: oracle {expected.outcome.render()} != "
            f"{mode} {got.outcome.render()}"
        )
        return diffs
    if expected.outcome.status != "ok":
        return diffs
    if expected.length != got.length:
        diffs.append(
            f"cursor r{seq} length: oracle {expected.length} != "
            f"{mode} {got.length}"
        )
    for sub_seq in sorted(set(expected.elements) | set(got.elements)):
        left = expected.elements.get(sub_seq, [])
        right = got.elements.get(sub_seq, [])
        if left != right:
            diffs.append(
                f"cursor r{seq} sub r{sub_seq}: oracle "
                f"[{', '.join(o.render() for o in left)}] != {mode} "
                f"[{', '.join(o.render() for o in right)}]"
            )
    return diffs


def _render(outcome):
    return outcome.render() if outcome is not None else "<missing>"
