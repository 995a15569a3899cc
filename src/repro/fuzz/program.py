"""The fuzzer's program model: randomized but well-typed batch programs.

A :class:`Program` is a straight-line script over *registers*.  Register
0 is the root stub of the program's application domain; every step's
result occupies the register named by its ``seq``.  Steps reference
earlier remote registers as targets and — via :class:`Reg` markers
nested anywhere inside their literal arguments — as arguments, which is
exactly the shape the batch recorder accepts (chained calls,
remote-identity passing, nested data values).

Programs are split into *segments*: the batch driver issues
``flush_and_continue`` between segments and ``flush`` after the last,
so a multi-segment program exercises chained batches and server-side
sessions.  A step whose ``cursor`` field names an earlier cursor step is
part of that cursor's sub-batch and must sit contiguously behind it
(the recorder's §4.1 contiguity rule) — the generator and the shrinker
both maintain that invariant, and :func:`validate_program` checks it.

The model is deliberately independent of any transport or execution
mode: the same program is interpreted by the naive-RMI oracle and
recorded through the batch/plan proxies, and the outcomes are compared.

**Multi-root programs.**  With ``roots > 1``, registers 0, -1, ... each
hold the root stub of an independent application instance (its own
batch *chain*), which a cluster world homes on different shards.  The
one operation that crosses chains is passing a register minted on one
chain as an argument to another (a card to another bank's
``credit_line_of``) — the scatter-gather batch must turn that into a
split point.  The oracle interprets such a program sequentially with
the policy BREAK state tracked per chain, which is sound only under the
*cross-chain invariant* that :func:`validate_program` enforces:

- a cross-chain argument register always comes from an *earlier*
  segment, so at record time it is already resolved — a failed register
  kills the consuming step at record time on both paths, and a live one
  marshals to a plain stub with no flush-time dependency edge;
- the producer chain records **no calls at all** in the consumer's
  segment: the split's early ``flush_and_continue`` then ships *only*
  export pseudo-ops (it cannot break), and — crucially — no
  producer-side effect can race the consumer's nested read.  Shard
  sub-batches of one segment flush in unspecified relative order
  (concurrently over TCP), so a producer mutation recorded anywhere in
  the consumer's segment may execute before *or* after the cross-shard
  read; a stepless producer segment is what makes program order the
  only observable order.

Violating either clause would not make the cluster wrong — splits are
always safe, and chains are as independent as separate clients — but it
would make the oracle's sequential per-chain interpretation unsound, so
the generator never does and the shrinker skips candidates that do.
With one root there is no other chain to cross into and the invariant
is vacuous.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

#: Register id of the program's (first) root stub.  Multi-root cluster
#: programs use 0, -1, ... -(roots-1): root registers never collide with
#: step registers, which are positive seqs.
ROOT_REG = 0


def root_reg(chain: int) -> int:
    """Register id of root *chain* (0-based) of a multi-root program."""
    return ROOT_REG - chain


@dataclass(frozen=True)
class Reg:
    """A reference to the remote result of an earlier step."""

    seq: int

    def __repr__(self):
        return f"r{self.seq}"


@dataclass(frozen=True)
class Step:
    """One remote invocation of the program.

    ``kind`` mirrors the interface metadata: ``value`` steps produce
    futures, ``remote`` steps produce new registers, ``cursor`` steps
    produce iterable cursors whose sub-steps carry this step's seq in
    their own ``cursor`` field.
    """

    seq: int
    target: int
    method: str
    args: Tuple = ()
    kind: str = "value"
    result_iface: str = ""
    cursor: int = 0
    segment: int = 0

    def arg_regs(self):
        """Registers referenced anywhere in this step's arguments."""
        return tuple(_regs_in(self.args))

    def describe(self) -> str:
        rendered = ", ".join(_render(arg) for arg in self.args)
        prefix = f"seg{self.segment} " if self.segment else ""
        sub = f" [in cursor r{self.cursor}]" if self.cursor else ""
        return (
            f"{prefix}r{self.seq} = r{self.target}.{self.method}({rendered})"
            f" -> {self.kind}{sub}"
        )


@dataclass(frozen=True)
class Program:
    """A complete fuzz case: domain, steps, and provenance for replay."""

    domain: str
    steps: Tuple[Step, ...]
    seed: int = 0
    index: int = 0
    notes: Tuple[str, ...] = field(default_factory=tuple)
    #: Root count: roots > 1 makes this a cluster program whose root
    #: registers are 0, -1, ... -(roots-1), one batch chain each.
    roots: int = 1

    @property
    def segments(self) -> int:
        return (max((s.segment for s in self.steps), default=0)) + 1

    @property
    def domains(self) -> Tuple[str, ...]:
        """Per-root domains (joined with '+' in ``domain``)."""
        return tuple(self.domain.split("+"))

    @property
    def root_regs(self) -> Tuple[int, ...]:
        return tuple(root_reg(chain) for chain in range(self.roots))

    def chain_of(self) -> dict:
        """Map every register (roots and steps) to its chain index.

        A step's chain is its target's chain — results never leave their
        root's chain; only arguments cross (the cluster split rule).
        """
        chains = {root_reg(chain): chain for chain in range(self.roots)}
        for step in self.steps:
            chains[step.seq] = chains[step.target]
        return chains

    def cross_chain_steps(self) -> Tuple[Step, ...]:
        """The steps consuming a register across chains (split points)."""
        chains = self.chain_of()
        return tuple(
            step for step in self.steps
            if any(reg.seq > ROOT_REG and chains[reg.seq] != chains[step.target]
                   for reg in step.arg_regs())
        )

    def step(self, seq: int) -> Step:
        for candidate in self.steps:
            if candidate.seq == seq:
                return candidate
        raise KeyError(seq)

    def describe(self) -> str:
        rooting = f", {self.roots} roots" if self.roots > 1 else ""
        header = (
            f"program #{self.index} (domain={self.domain}, seed={self.seed}, "
            f"{len(self.steps)} steps, {self.segments} segment(s){rooting})"
        )
        lines = [header] + ["  " + step.describe() for step in self.steps]
        return "\n".join(lines)

    def without_steps(self, doomed) -> "Program":
        """Drop *doomed* seqs plus everything depending on them.

        Dependency closure covers targets, argument registers, and cursor
        membership, so the result is always a valid program again.
        """
        doomed = set(doomed)
        changed = True
        while changed:
            changed = False
            for step in self.steps:
                if step.seq in doomed:
                    continue
                needs = {step.target} | {r.seq for r in step.arg_regs()}
                if step.cursor:
                    needs.add(step.cursor)
                # Root registers (0, -1, ...) are never doomed.
                needs = {need for need in needs if need > ROOT_REG}
                if needs & doomed:
                    doomed.add(step.seq)
                    changed = True
        kept = tuple(s for s in self.steps if s.seq not in doomed)
        return replace(self, steps=kept)

    def merged_segments(self) -> "Program":
        """The same steps as one unchained batch."""
        return replace(
            self, steps=tuple(replace(s, segment=0) for s in self.steps)
        )


def _regs_in(value):
    if isinstance(value, Reg):
        yield value
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _regs_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _regs_in(item)


def _render(value):
    if isinstance(value, Reg):
        return repr(value)
    if isinstance(value, (list, tuple)):
        inner = ", ".join(_render(v) for v in value)
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"
    return repr(value)


class CrossChainError(ValueError):
    """A well-formed program the sequential oracle cannot soundly judge."""


def validate_program(program: Program) -> None:
    """Raise ``ValueError`` when a program violates the model invariants.

    The generator only ever produces valid programs; this is the
    executable statement of what "valid" means (and a unit-test oracle
    for it).  Structural violations raise plain ``ValueError`` — the
    shrinker's candidates are structurally valid by construction — while
    a breach of the cross-chain invariant (module docstring) raises
    :class:`CrossChainError`, which merging segments or dropping steps
    of a multi-root program can legitimately cause.
    """
    if program.roots < 1:
        raise ValueError(f"a program needs at least one root: {program.roots}")
    if len(program.domains) != program.roots:
        raise ValueError(
            f"program has {program.roots} roots but domains "
            f"{program.domains!r}"
        )
    seen = {reg: "remote" for reg in program.root_regs}
    segment = 0
    previous_seq = 0
    open_cursor = 0
    for step in program.steps:
        if step.seq <= previous_seq:
            raise ValueError(f"step seqs must increase: {step.describe()}")
        previous_seq = step.seq
        if step.segment < segment:
            raise ValueError(f"segments must be ordered: {step.describe()}")
        if step.segment > segment:
            segment = step.segment
        wanted = "cursor" if step.cursor else "remote"
        if seen.get(step.target) != wanted:
            raise ValueError(f"undefined target register: {step.describe()}")
        for reg in step.arg_regs():
            if reg.seq not in seen or seen[reg.seq] != "remote":
                raise ValueError(
                    f"argument r{reg.seq} is not a remote register: "
                    f"{step.describe()}"
                )
        if step.cursor:
            owner = program.step(step.cursor)
            if owner.kind != "cursor" or owner.segment != step.segment:
                raise ValueError(f"bad cursor membership: {step.describe()}")
            if open_cursor != step.cursor:
                raise ValueError(
                    f"cursor sub-steps must be contiguous: {step.describe()}"
                )
            if step.kind != "value":
                raise ValueError(
                    f"cursor sub-steps must return values: {step.describe()}"
                )
            if step.target != step.cursor:
                raise ValueError(
                    f"cursor sub-steps must target their cursor: "
                    f"{step.describe()}"
                )
        else:
            open_cursor = step.seq if step.kind == "cursor" else 0
        if step.kind not in ("value", "remote", "cursor"):
            raise ValueError(f"unknown step kind: {step.describe()}")
        seen[step.seq] = "remote" if step.kind == "remote" else step.kind
    _check_cross_chain(program)


def _check_cross_chain(program: Program) -> None:
    """Every argument register consumed across chains must (a) come from
    an earlier segment than the consuming step and (b) belong to a chain
    that records **no step at all** in the consuming step's segment —
    not before the consumer (its effects would precede the read on both
    paths anyway, but its flush could break), and not after it either,
    because shard sub-batches of one segment execute in unspecified
    relative order: a later producer mutation may run before the
    consumer's nested read on the cluster while the sequential oracle
    always runs it after.
    """
    chains = program.chain_of()
    stepped = {}  # segment -> chains recording in it
    for step in program.steps:
        stepped.setdefault(step.segment, set()).add(chains[step.target])
    for step in program.steps:
        for reg in step.arg_regs():
            if reg.seq <= ROOT_REG or chains[reg.seq] == chains[step.target]:
                continue
            if program.step(reg.seq).segment >= step.segment:
                raise CrossChainError(
                    f"cross-chain argument r{reg.seq} must come from "
                    f"an earlier segment: {step.describe()}"
                )
            if chains[reg.seq] in stepped[step.segment]:
                raise CrossChainError(
                    f"cross-chain producer chain of r{reg.seq} also "
                    f"records in this segment: {step.describe()}"
                )
