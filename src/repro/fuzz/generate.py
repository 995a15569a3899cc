"""Seeded generation of random, well-typed batch programs.

Each root of a program (one by default; a cluster program has several,
one batch chain each, two of them always banks) picks an application
domain and the program grows a straight-line script over typed
registers:

- **bank** — account creation/lookup (raising and non-raising), card
  operations including over-limit purchases, a nested-list bulk
  purchase, and remote-identity passing (``credit_line_of(card)``);
- **linkedlist** — chained ``next_node`` traversals that sometimes walk
  off the end (``IndexError``) with dependent reads behind them;
- **fileserver** — navigation, metadata and content reads (restricted
  files raise), deletions, and ``list_files`` cursors with random
  sub-batches producing per-element results and exceptions;
- **noop** — pure call-count programs (the side-effect baseline).

Multi-root programs add the one operation that crosses chains —
``credit_line_of`` on one bank with a card minted on another — placed so
the cross-chain invariant of :mod:`repro.fuzz.program` holds.

Everything is driven by one ``random.Random(seed)`` stream, so a
``(seed, index)`` pair names a program forever — that is what the CLI's
``--seed`` replay and the shrinker's repro reports rely on.

Policies are generated alongside: the two paper defaults plus two
:class:`~repro.core.policies.CustomPolicy` variants whose rules draw
from the domain's exception pool.  Rules are restricted to
exception/method matching (no position-specific rules): positions are
*recording* sequence numbers, which a naive-RMI client does not have, so
position rules are outside the paper's equivalence claim.  REPEAT and
RESTART are likewise excluded — re-running side effects is precisely
what a sequence of individual calls cannot do.
"""

from __future__ import annotations

import random

from repro.core.policies import (
    AbortPolicy,
    ContinuePolicy,
    CustomPolicy,
    ExceptionAction,
)

from repro.fuzz.program import Program, Reg, Step, root_reg, validate_program

#: Customers that exist in every bank world; "mallory" never does.
BANK_CUSTOMERS = ("alice", "bob", "carol")
BANK_UNKNOWN = ("mallory", "nobody")
BANK_LIMIT = 1000.0

#: Linked-list payloads (list length bounds the legal traversal depth).
LIST_VALUES = (11, 22, 33, 44, 55)

#: Flat directory for fileserver worlds; the restricted file raises
#: AccessDeniedError on length/read_contents.
FS_FILES = 5
FS_TOTAL_BYTES = 600
FS_RESTRICTED = ("file02.dat",)
FS_KNOWN = tuple(f"file{i:02d}.dat" for i in range(FS_FILES))
FS_UNKNOWN = ("ghost.dat", "missing.txt")

DOMAINS = ("bank", "linkedlist", "fileserver", "noop")

#: The policy axis (single source of truth — the CLI default and
#: FuzzConfig default derive from this).
POLICY_NAMES = ("abort", "continue", "custom-break", "custom-continue")

_EXCEPTION_POOLS = {
    "bank": (
        "repro.apps.bank.AccountNotFoundException",
        "repro.apps.bank.DuplicateAccountException",
        "repro.apps.bank.InsufficientCreditError",
        "builtins.ValueError",
    ),
    "linkedlist": ("builtins.IndexError",),
    "fileserver": (
        "repro.apps.fileserver.AccessDeniedError",
        "builtins.FileNotFoundError",
        "builtins.PermissionError",
    ),
    "noop": ("builtins.ValueError",),
}

#: Cursor sub-batch methods on RemoteFile (all value-returning).
_FS_SUB_METHODS = (
    "get_name", "is_directory", "last_modified", "length",
    "read_contents", "delete",
)


def generate_program(seed: int, index: int, max_steps: int = 14,
                     roots: int = 1) -> Program:
    """Deterministically generate program *index* of corpus *seed*.

    *roots* is the number of independent root stubs (batch chains); the
    single-server matrix is the ``roots=1`` row.  Each root count has its
    own rng stream, so a ``(seed, index, roots)`` triple names a program
    forever.
    """
    # String seeds hash deterministically across processes (tuple seeds
    # would go through PYTHONHASHSEED-salted hash()).
    if roots == 1:
        rng = random.Random(f"{seed}:{index}:brmi-fuzz")
        domains = [rng.choice(DOMAINS)]
        noop = domains[0] == "noop"
        total = rng.randint(2 if noop else 3, max_steps)
        break_probability = 0.12 if noop else 0.18
    else:
        rng = random.Random(f"{seed}:{index}:{roots}:brmi-cluster-fuzz")
        # Two bank chains always exist: they are the only chains that can
        # exchange registers (credit_line_of takes a card), and without
        # them a corpus would never exercise split points.
        domains = ["bank", "bank"] + [
            rng.choice(DOMAINS) for _ in range(roots - 2)
        ]
        rng.shuffle(domains)
        total = rng.randint(roots + 2, max(max_steps, roots + 4))
        break_probability = 0.18
    states = [_ChainState(chain, domain)
              for chain, domain in enumerate(domains)]
    banks = [s for s in states if s.domain == "bank"]
    b = _Builder()
    touched = set()  # chains with any step in the current segment
    exporters = set()  # chains serving as cross-chain producers this segment
    while b.seq < total:
        if b.steps and rng.random() < break_probability:
            b.segment += 1
            touched = set()
            exporters = set()
            # Cross-chain consumers live right at the fresh boundary,
            # while every producer chain is still clean this segment.
            while roots > 1 and rng.random() < 0.55:
                if not _emit_cross_chain(b, banks, touched, exporters, rng):
                    break
        # Producer chains stay stepless for the rest of their segment:
        # a same-segment producer step could flush before or after the
        # consumer's nested read, which program order cannot model.
        # (One root draws nothing here: that stream predates chains.)
        state = states[0] if roots == 1 else rng.choice(
            [s for s in states if s.chain not in exporters]
        )
        _EMITTERS[state.domain](b, state, rng, total)
        touched.add(state.chain)
    program = Program(
        domain="+".join(domains), steps=tuple(b.steps), seed=seed,
        index=index, roots=roots,
    )
    validate_program(program)
    return program


def generate_corpus(seed: int, programs: int, max_steps: int = 14,
                    roots: int = 1):
    """The first *programs* programs of corpus *seed*."""
    return [
        generate_program(seed, index, max_steps, roots)
        for index in range(programs)
    ]


def policies_for(program: Program, names=None):
    """The policy axis for one program: name -> policy instance.

    The custom policies draw their rules from the program's domain
    exception pool with the program's own rng stream, so replaying a
    ``(seed, index)`` pair reproduces the exact policies too.
    """
    rng = random.Random(f"{program.seed}:{program.index}:brmi-fuzz-policy")
    # Multi-root cluster programs join their per-root domains with "+";
    # their custom policies draw from the union of the pools involved.
    pool = tuple(dict.fromkeys(
        exc
        for domain in program.domains
        for exc in _EXCEPTION_POOLS[domain]
    ))
    custom_break = CustomPolicy(default_action=ExceptionAction.CONTINUE)
    custom_break.set_action(rng.choice(pool), ExceptionAction.BREAK)
    custom_continue = CustomPolicy(default_action=ExceptionAction.BREAK)
    custom_continue.set_action(rng.choice(pool), ExceptionAction.CONTINUE)
    axis = {
        "abort": AbortPolicy(),
        "continue": ContinuePolicy(),
        "custom-break": custom_break,
        "custom-continue": custom_continue,
    }
    assert tuple(axis) == POLICY_NAMES
    if names is not None:
        unknown = sorted(set(names) - set(axis))
        if unknown:
            from repro.fuzz.execute import FuzzHarnessError

            raise FuzzHarnessError(
                f"unknown policy name(s) {', '.join(unknown)}; "
                f"choose from {', '.join(sorted(axis))}"
            )
        axis = {name: axis[name] for name in names}
    return axis


# -- domain emitters ---------------------------------------------------------


class _Builder:
    """Shared bookkeeping while growing one program's step list."""

    def __init__(self):
        self.steps = []
        self.seq = 0
        self.segment = 0

    def emit(self, target, method, args=(), kind="value", iface="",
             cursor=0):
        self.seq += 1
        step = Step(
            seq=self.seq,
            target=target,
            method=method,
            args=tuple(args),
            kind=kind,
            result_iface=iface,
            cursor=cursor,
            segment=self.segment,
        )
        self.steps.append(step)
        return self.seq


class _ChainState:
    """Typed registers one chain has produced so far."""

    def __init__(self, chain: int, domain: str):
        self.chain = chain
        self.domain = domain
        self.root = root_reg(chain)
        self.cards = {}  # seq -> segment it was created in (bank)
        self.nodes = [self.root]  # linkedlist registers
        self.files = []  # fileserver registers


def _emit_cross_chain(b, banks, touched, exporters, rng) -> bool:
    """One consumer-chain ``credit_line_of(card from another chain)``."""
    pairs = []
    for consumer in banks:
        if consumer.chain in exporters:
            continue  # an exporting chain must stay stepless
        for producer in banks:
            if producer.chain == consumer.chain:
                continue
            if producer.chain in touched:
                continue  # producer already recorded in this segment
            eligible = [seq for seq, segment in producer.cards.items()
                        if segment < b.segment]
            if eligible:
                pairs.append((consumer, producer, eligible))
    if not pairs:
        return False
    consumer, producer, eligible = rng.choice(pairs)
    b.emit(consumer.root, "credit_line_of", (Reg(rng.choice(eligible)),))
    touched.add(consumer.chain)
    exporters.add(producer.chain)
    return True


def _emit_bank(b, state, rng, total):
    cards = sorted(state.cards)
    roll = rng.random()
    if roll < 0.30 or not cards:
        known = rng.random() < 0.75
        name = rng.choice(BANK_CUSTOMERS if known else BANK_UNKNOWN)
        method = rng.choice(("find_credit_account", "create_credit_account"))
        seq = b.emit(state.root, method, (name,), kind="remote", iface="card")
        state.cards[seq] = b.segment
    elif roll < 0.45:
        b.emit(state.root, "credit_line_of", (Reg(rng.choice(cards)),))
    elif roll < 0.60:
        b.emit(rng.choice(cards), "get_credit_line")
    elif roll < 0.75:
        b.emit(rng.choice(cards), "make_purchase", (_amount(rng),))
    elif roll < 0.88:
        amounts = [_amount(rng) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.4:
            amounts = tuple(amounts)
        b.emit(rng.choice(cards), "make_purchases", (amounts,))
    else:
        b.emit(rng.choice(cards), "pay_balance", (_amount(rng),))


def _amount(rng):
    roll = rng.random()
    if roll < 0.10:
        return -rng.randint(1, 3) * 1.0  # ValueError path
    if roll < 0.30:
        return float(rng.randint(4, 12) * 100)  # often over the line
    return float(rng.randint(1, 90))


def _emit_linkedlist(b, state, rng, total):
    if rng.random() < 0.55:
        base = rng.choice(state.nodes)
        state.nodes.append(
            b.emit(base, "next_node", kind="remote", iface="node")
        )
    else:
        b.emit(rng.choice(state.nodes), "get_value")


def _emit_fileserver(b, state, rng, total):
    roll = rng.random()
    if roll < 0.22:
        known = rng.random() < 0.7
        name = rng.choice(FS_KNOWN if known else FS_UNKNOWN)
        state.files.append(
            b.emit(state.root, "get_file", (name,), kind="remote",
                   iface="file")
        )
    elif roll < 0.30 and b.seq + 2 <= total:
        cursor = b.emit(state.root, "list_files", kind="cursor", iface="file")
        for method in rng.sample(
            _FS_SUB_METHODS, rng.randint(1, min(3, total - b.seq))
        ):
            b.emit(cursor, method, cursor=cursor)
    elif state.files:
        target = rng.choice(state.files)
        method = rng.choice(
            ("get_name", "length", "read_contents", "last_modified",
             "is_directory", "delete")
        )
        b.emit(target, method)
    else:
        b.emit(state.root,
               rng.choice(("get_name", "last_modified", "length")))


def _emit_noop(b, state, rng, total):
    b.emit(state.root, "noop")


_EMITTERS = {
    "bank": _emit_bank,
    "linkedlist": _emit_linkedlist,
    "fileserver": _emit_fileserver,
    "noop": _emit_noop,
}
