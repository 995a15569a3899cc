"""Codec microbenchmark lane: the wire hot path, measured in isolation.

Times encode / decode / roundtrip of the live zero-copy codec against
the frozen pre-optimization codec (``_codec_baseline``) over four
payload families that mirror what actually crosses the wire:

- **noop_args** — a flushed noop batch's argument records (many tiny
  tuples): the smallest real messages, per-value overhead dominated;
- **bank_batch** — mixed bank-workload records (strings, floats,
  nested lists/dicts, small byte blobs): the typical RPC shape;
- **fileserver_blob** — one large ``bytes`` payload plus metadata:
  memcpy-bound by design, the codec's floor (expected near 1x — the
  acceptance bar is 3 of 4 families for exactly this reason);
- **deep_plan** — deeply nested plan-shaped structures with
  :class:`~repro.wire.plans.ParamSlot` markers: recursion-heavy.

Results land in ``benchmarks/results/BENCH_codec.json``, a run artifact
(the CI ``codec-bench-smoke`` job uploads it on every push).

Besides timing, this module is the codec's **differential gate**: the
optimized encoder must produce byte-for-byte the output of the frozen
baseline, and both decoders must agree, over every family payload and
over a seeded fuzz-shaped corpus covering every wire tag and the
registered dataclasses a flush carries (``CODEC_DIFF_SEED``, default 0
— the CI check).

The default ``BENCH_SCALE=smoke`` takes fewer reps and records without
a bar; the ≥2x speedup bar — meaningless on shared noisy hardware —
holds at ``BENCH_SCALE=full``.  Byte-equality is enforced at every
scale.
"""

from __future__ import annotations

import os
import platform
import time

import pytest
from conftest import SCALE, record_results

from _codec_baseline import baseline_decode, baseline_encode
from repro.core.recording import ArgRef, BatchResponse, InvocationData
from repro.rmi.protocol import CallRequest
from repro.wire import decode, encode
from repro.wire.plans import ParamSlot
from repro.wire.refs import RemoteRef

ITERS = {"full": 1200, "smoke": 120}[SCALE]
BLOB_ITERS = {"full": 400, "smoke": 60}[SCALE]
REPS = {"full": 5, "smoke": 3}[SCALE]

#: Combined encode+decode speedup each counting family must show.
SPEEDUP_BAR = 2.0
#: Families (of 4) that must clear the bar; the blob family is
#: memcpy-bound and exempt by design.
FAMILIES_REQUIRED = 3


# -- payload families ----------------------------------------------------


def family_noop_args():
    """Argument records of a 32-call noop batch flush."""
    return [(i, "do_nothing", (), {}) for i in range(32)]


def family_bank_batch():
    """Mixed bank-workload records: strings, floats, nesting, blobs."""
    return [
        (
            "account",
            i,
            ["alice", "bob", "carol"][i % 3 :],
            {"amount": float(i) * 1.5, "memo": f"txn-{i % 8}"},
            b"signature" * 3,
        )
        for i in range(50)
    ]


def family_fileserver_blob():
    """One large contents payload plus metadata (memcpy-bound)."""
    return {
        "name": "file03.dat",
        "size": 65536,
        "contents": b"\x5a" * 65536,
        "restricted": False,
    }


def family_deep_plan():
    """Plan-shaped records under deep container nesting."""

    def step(i):
        return (
            i,
            "make_purchases",
            ((ParamSlot(i % 7), "desc", {"q": [i, None]}),),
            {"limit": float(i)},
            "value",
            -1,
        )

    value = [step(i) for i in range(24)]
    for _ in range(10):
        value = {"plan": value, "meta": ("v1", 9)}
    return value


FAMILIES = {
    "noop_args": (family_noop_args, ITERS),
    "bank_batch": (family_bank_batch, ITERS),
    "fileserver_blob": (family_fileserver_blob, BLOB_ITERS),
    "deep_plan": (family_deep_plan, ITERS),
}


# -- fuzz-shaped differential corpus -------------------------------------


def random_wire_value(rng, depth=0):
    """One random value covering the full wire vocabulary, fuzz-style."""
    scalar = depth >= 4 or rng.random() < 0.55
    if scalar:
        kind = rng.randrange(9)
        if kind == 0:
            return None
        if kind == 1:
            return rng.random() < 0.5
        if kind == 2:
            return rng.randrange(-(2**70), 2**70)
        if kind == 3:
            return rng.randrange(-1000, 1000)
        if kind == 4:
            return rng.uniform(-1e9, 1e9)
        if kind == 5:
            return "".join(
                rng.choice("abcdefgh-éλ中") for _ in range(rng.randrange(12))
            )
        if kind == 6:
            return bytes(rng.randrange(256) for _ in range(rng.randrange(20)))
        if kind == 7:
            return RemoteRef(
                f"sim://host{rng.randrange(4)}:1",
                rng.randrange(100),
                ("pkg.Iface",) * rng.randrange(3),
            )
        return ParamSlot(rng.randrange(16))
    kind = rng.randrange(5)
    count = rng.randrange(5)
    items = [random_wire_value(rng, depth + 1) for _ in range(count)]
    if kind == 0:
        return items
    if kind == 1:
        return tuple(items)
    if kind == 2:
        return {
            str(i): item for i, item in enumerate(items)
        }
    # Sets need hashable members: degrade to scalars.
    members = {rng.randrange(1000) for _ in range(count)}
    return frozenset(members) if kind == 3 else members


def registered_wire_values(rng):
    """One of each registered dataclass a batch flush carries, around
    random leaves: the decoder's object path and the encoder's
    per-class handlers."""
    op = InvocationData(
        seq=rng.randrange(1, 100),
        target=ArgRef(rng.randrange(8), rng.randrange(-1, 8)),
        method="get_name",
        args=(random_wire_value(rng, 2), ArgRef(1)),
        kwargs={"limit": random_wire_value(rng, 3)},
        returns_kind=rng.choice(("value", "remote", "cursor")),
        cursor_seq=rng.choice((-1, 1)),
    )
    return [
        op.target,
        op,
        CallRequest(rng.randrange(100), "__invoke_batch__",
                    args=((op,), -1, False), call_id="c" * 36),
        BatchResponse(
            results={op.seq: random_wire_value(rng, 2)},
            cursor_lengths={1: 2},
            cursor_results={2: [random_wire_value(rng, 3), None]},
            not_executed=(rng.randrange(1, 100),),
            session_id=rng.randrange(-1, 10),
        ),
    ]


def differential_corpus(seed: int, count: int = 400):
    import random

    rng = random.Random(seed)
    corpus = [random_wire_value(rng) for _ in range(count)]
    for _ in range(max(1, count // 20)):
        corpus.extend(registered_wire_values(rng))
    return corpus


# -- measurement ---------------------------------------------------------


def _timed(fn, arg, iters):
    """CPU seconds for *iters* calls (scheduler steal excluded)."""
    t0 = time.process_time()
    for _ in range(iters):
        fn(arg)
    return time.process_time() - t0


def _best_pair(fn_old, fn_new, arg, iters):
    """Best-of-reps for both codecs, reps interleaved.

    Alternating old/new inside each rep (rather than timing one block
    after the other) decorrelates the ratio from machine-load drift;
    process_time + a disabled GC remove the other noise sources.
    """
    import gc

    best_old = best_new = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPS):
            best_old = min(best_old, _timed(fn_old, arg, iters))
            best_new = min(best_new, _timed(fn_new, arg, iters))
    finally:
        if was_enabled:
            gc.enable()
    return best_old / iters, best_new / iters


def measure_family(value, iters):
    wire_old = baseline_encode(value)
    wire_new = encode(value)
    assert wire_new == wire_old, "optimized encoder changed the wire format"
    assert decode(wire_old) == baseline_decode(wire_new)
    enc_old, enc_new = _best_pair(baseline_encode, encode, value, iters)
    dec_old, dec_new = _best_pair(baseline_decode, decode, wire_old, iters)
    return {
        "bytes": len(wire_old),
        "baseline_us": {
            "encode": round(enc_old * 1e6, 2),
            "decode": round(dec_old * 1e6, 2),
            "roundtrip": round((enc_old + dec_old) * 1e6, 2),
        },
        "optimized_us": {
            "encode": round(enc_new * 1e6, 2),
            "decode": round(dec_new * 1e6, 2),
            "roundtrip": round((enc_new + dec_new) * 1e6, 2),
        },
        "speedup": {
            "encode": round(enc_old / enc_new, 2),
            "decode": round(dec_old / dec_new, 2),
            "roundtrip": round((enc_old + dec_old) / (enc_new + dec_new), 2),
        },
    }


# -- tests ---------------------------------------------------------------


class TestDifferential:
    """Byte-level equivalence with the frozen pre-optimization codec."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_family_bytes_identical(self, name):
        value = FAMILIES[name][0]()
        assert encode(value) == baseline_encode(value)

    def test_fuzz_corpus_zero_divergence(self):
        seed = int(os.environ.get("CODEC_DIFF_SEED", "0"))
        divergences = 0
        for value in differential_corpus(seed):
            wire_new = encode(value)
            wire_old = baseline_encode(value)
            if wire_new != wire_old:
                divergences += 1
                continue
            if decode(wire_old) != baseline_decode(wire_new):
                divergences += 1
        assert divergences == 0, (
            f"{divergences} divergences against the pre-optimization codec "
            f"(seed {seed})"
        )


@pytest.mark.slow
class TestCodecMicro:
    """Wall-clock codec lane; writes BENCH_codec.json."""

    def test_speedup_and_record(self, results_dir):
        families = {}
        for name, (builder, iters) in FAMILIES.items():
            families[name] = measure_family(builder(), iters)
        over_bar = sorted(
            name
            for name, result in families.items()
            if result["speedup"]["roundtrip"] >= SPEEDUP_BAR
        )
        record = {
            "benchmark": "codec micro (encode/decode/roundtrip vs frozen baseline)",
            "scale": SCALE,
            "iterations": {"default": ITERS, "blob": BLOB_ITERS, "reps": REPS},
            "python": platform.python_version(),
            "machine": platform.machine(),
            "speedup_bar": SPEEDUP_BAR,
            "families_required": FAMILIES_REQUIRED,
            "families_over_bar": over_bar,
            "families": families,
        }
        record_results("BENCH_codec.json", record)
        print()
        print(f"codec micro ({SCALE}):")
        for name, result in families.items():
            spd = result["speedup"]
            print(
                f"  {name:16s} enc {spd['encode']:5.2f}x  "
                f"dec {spd['decode']:5.2f}x  rt {spd['roundtrip']:5.2f}x"
            )
        if SCALE == "full":
            assert len(over_bar) >= FAMILIES_REQUIRED, (
                f"only {over_bar} cleared {SPEEDUP_BAR}x "
                f"(need {FAMILIES_REQUIRED} of {len(families)}): {families}"
            )
