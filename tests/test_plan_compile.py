"""Plan compilation: lifting, content hashing, and binding."""

from collections import OrderedDict, namedtuple

import pytest

from repro.core.policies import (
    AbortPolicy,
    ContinuePolicy,
    CustomPolicy,
    ExceptionAction,
)
from repro.core.recording import ArgRef, InvocationData
from repro.plan import BatchPlan, compile_plan, plan_hash
from repro.plan.model import shape_key
from repro.rmi.exceptions import PlanError
from repro.wire import ParamSlot, decode, encode
from repro.wire.refs import RemoteRef

from tests.support import Point


def inv(seq, method="m", args=(), kwargs=None, target_seq=0, **extra):
    return InvocationData(
        seq=seq,
        target=ArgRef(target_seq),
        method=method,
        args=args,
        kwargs=kwargs or {},
        **extra,
    )


class TestLifting:
    def test_values_become_slots_in_recording_order(self):
        plan, params = compile_plan(
            (inv(1, args=("a", 7)), inv(2, args=(3.5,))), AbortPolicy()
        )
        assert params == ("a", 7, 3.5)
        assert plan.param_count == 3
        assert plan.ops[0].args == (ParamSlot(0), ParamSlot(1))
        assert plan.ops[1].args == (ParamSlot(2),)

    def test_arg_refs_stay_literal(self):
        plan, params = compile_plan(
            (inv(1), inv(2, args=(ArgRef(1), "x"), target_seq=1)), AbortPolicy()
        )
        assert params == ("x",)
        assert plan.ops[1].args == (ArgRef(1), ParamSlot(0))
        assert plan.ops[1].target == ArgRef(1)

    def test_container_geometry_survives_and_dict_keys_stay_literal(self):
        plan, params = compile_plan(
            (inv(1, args=([1, 2], ("a",)), kwargs={"opts": {"depth": 3}}),),
            AbortPolicy(),
        )
        assert params == (1, 2, "a", 3)
        assert plan.ops[0].args == ([ParamSlot(0), ParamSlot(1)], (ParamSlot(2),))
        assert plan.ops[0].kwargs == {"opts": {"depth": ParamSlot(3)}}

    def test_remote_refs_and_serializables_are_lifted(self):
        ref = RemoteRef("sim://other:1", 3, ("Iface",))
        point = Point(1, 2)
        plan, params = compile_plan((inv(1, args=(ref, point)),), AbortPolicy())
        assert params == (ref, point)
        assert plan.ops[0].args == (ParamSlot(0), ParamSlot(1))


class TestHashing:
    def test_same_shape_different_values_share_a_hash(self):
        a, _ = compile_plan((inv(1, args=("alice", 1)),), AbortPolicy())
        b, _ = compile_plan((inv(1, args=("bob", 99)),), AbortPolicy())
        assert plan_hash(a) == plan_hash(b)

    def test_method_shape_and_policy_change_the_hash(self):
        base, _ = compile_plan((inv(1, args=("x",)),), AbortPolicy())
        other_method, _ = compile_plan((inv(1, method="n", args=("x",)),), AbortPolicy())
        other_shape, _ = compile_plan((inv(1, args=(["x"],)),), AbortPolicy())
        other_policy, _ = compile_plan((inv(1, args=("x",)),), ContinuePolicy())
        digests = {
            plan_hash(base),
            plan_hash(other_method),
            plan_hash(other_shape),
            plan_hash(other_policy),
        }
        assert len(digests) == 4

    def test_set_arguments_hash_identically_across_hash_seeds(self):
        """Slot assignment inside set arguments must follow the encoder's
        canonical order, not hash order — otherwise the same recording
        produces different digests in different processes and cross-client
        plan sharing silently never happens."""
        import subprocess
        import sys

        script = (
            "from repro.core.policies import AbortPolicy\n"
            "from repro.core.recording import ArgRef, InvocationData\n"
            "from repro.plan import compile_plan, plan_hash\n"
            "inv = InvocationData(seq=1, target=ArgRef(0), method='m',\n"
            "    args=({('alpha', 'beta'), ('gamma',)},))\n"
            "plan, _ = compile_plan((inv,), AbortPolicy())\n"
            "print(plan_hash(plan))\n"
        )
        digests = set()
        for seed in ("1", "2", "77"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
                cwd=str(__import__("pathlib").Path(__file__).parent.parent),
            )
            assert result.returncode == 0, result.stderr
            digests.add(result.stdout.strip())
        assert len(digests) == 1, digests

    def test_hash_survives_a_wire_round_trip(self):
        plan, _ = compile_plan(
            (inv(1, args=("x", [1, {2}]), kwargs={"k": 5}), inv(2)), AbortPolicy()
        )
        decoded = decode(encode(plan))
        assert isinstance(decoded, BatchPlan)
        assert plan_hash(decoded) == plan_hash(plan)


class TestBinding:
    def test_bind_restores_the_original_invocations(self):
        original = (
            inv(1, args=("a", [1, 2]), kwargs={"k": 3}),
            inv(2, args=(ArgRef(1),), target_seq=1),
        )
        plan, params = compile_plan(original, AbortPolicy())
        assert plan.bind(params) == original

    def test_bind_with_fresh_values(self):
        plan, _ = compile_plan((inv(1, args=("a", 1)),), AbortPolicy())
        bound = plan.bind(("b", 2))
        assert bound[0].args == ("b", 2)

    def test_bind_arity_mismatch_raises(self):
        plan, params = compile_plan((inv(1, args=("a",)),), AbortPolicy())
        with pytest.raises(PlanError):
            plan.bind(params + ("extra",))
        with pytest.raises(PlanError):
            plan.bind(())

    def test_validate_slots_rejects_out_of_range_indices(self):
        bogus = BatchPlan(
            ops=(inv(1, args=(ParamSlot(5),)),), policy=AbortPolicy(), param_count=1
        )
        with pytest.raises(PlanError):
            bogus.validate_slots()

    def test_well_formed_plan_passes_slot_validation(self):
        plan, _ = compile_plan((inv(1, args=("a",), kwargs={"k": 2}),), AbortPolicy())
        plan.validate_slots()


# -- the shape key: at least as fine as the plan ---------------------------

Pair = namedtuple("Pair", "left right")


def _derive(invocations, policy):
    """``(memo key, digest)`` of one flush: the key the client memo files
    it under, next to the digest its install derives."""
    digest = plan_hash(compile_plan(invocations, policy)[0])
    return shape_key(invocations, policy)[0], digest


def _arg_pair(left, right, **extra):
    """Two one-op recordings that differ only in the argument tuple."""
    yield (inv(1, args=left, **extra),), AbortPolicy()
    yield (inv(1, args=right, **extra),), AbortPolicy()


def _mutated_policy():
    policy = CustomPolicy()
    yield (inv(1, args=("x",)),), policy
    policy.set_action("ValueError", ExceptionAction.BREAK, method="m")
    yield (inv(1, args=("x",)),), policy


def _set_built_in_two_orders():
    first, second = set(), set()
    for word in ("pear", "apple", "fig"):
        first.add(word)
    for word in ("fig", "pear", "apple"):
        second.add(word)
    return _arg_pair((first,), (second,))


#: (row, recording pair as a generator, same plan?).  A generator so the
#: policy row can mutate its policy between the two recordings, as a
#: client does between two flushes.
KEY_ORACLE = [
    ("values only", lambda: _arg_pair(("a", 1), ("b", 2)), True),
    ("leaf types are elided", lambda: _arg_pair((b"a",), (1.5,)), True),
    ("dict keys 1 / True", lambda: _arg_pair(({1: "x"},), ({True: "x"},)),
     False),
    ("dict keys 1 / 1.0", lambda: _arg_pair(({1: "x"},), ({1.0: "x"},)),
     False),
    ("dict keys True / 1.0",
     lambda: _arg_pair(({True: "x"},), ({1.0: "x"},)), False),
    ("dict keys 1 / '1'", lambda: _arg_pair(({1: "x"},), ({"1": "x"},)),
     False),
    ("list / tuple", lambda: _arg_pair(([1, 2],), ((1, 2),)), False),
    ("set / frozenset",
     lambda: _arg_pair(({1, 2},), (frozenset({1, 2}),)), False),
    ("empty / non-empty nested list", lambda: _arg_pair(([[]],), ([[1]],)),
     False),
    ("empty / non-empty nested dict",
     lambda: _arg_pair(({"k": {}},), ({"k": {"a": 1}},)), False),
    ("set element order", _set_built_in_two_orders, True),
    ("set values", lambda: _arg_pair(({1, 2},), ({7, 9},)), True),
    ("ArgRef / literal leaf",
     lambda: _arg_pair((ArgRef(0),), (5,)), False),
    ("ArgRef / element ArgRef",
     lambda: _arg_pair((ArgRef(0),), (ArgRef(0, 2),)), False),
    ("method", lambda: iter([
        ((inv(1, method="m"),), AbortPolicy()),
        ((inv(1, method="n"),), AbortPolicy()),
    ]), False),
    ("target", lambda: iter([
        ((inv(1), inv(2, target_seq=1)), AbortPolicy()),
        ((inv(1), inv(2, target_seq=0)), AbortPolicy()),
    ]), False),
    ("seq", lambda: iter([
        ((inv(1),), AbortPolicy()),
        ((inv(2),), AbortPolicy()),
    ]), False),
    ("op count", lambda: iter([
        ((inv(1),), AbortPolicy()),
        ((inv(1), inv(2)), AbortPolicy()),
    ]), False),
    ("cursor_seq", lambda: iter([
        ((inv(1), inv(2, target_seq=1, cursor_seq=1)), AbortPolicy()),
        ((inv(1), inv(2, target_seq=1)), AbortPolicy()),
    ]), False),
    ("returns_kind", lambda: iter([
        ((inv(1, returns_kind="remote"),), AbortPolicy()),
        ((inv(1),), AbortPolicy()),
    ]), False),
    ("kwargs order", lambda: iter([
        ((inv(1, kwargs={"a": 1, "b": 2}),), AbortPolicy()),
        ((inv(1, kwargs={"b": 2, "a": 1}),), AbortPolicy()),
    ]), False),
    ("dict keys 0.0 / -0.0",
     lambda: _arg_pair(({0.0: "x"},), ({-0.0: "x"},)), False),
    ("dict keys (1,) / (True,)",
     lambda: _arg_pair(({(1,): "x"},), ({(True,): "x"},)), False),
    ("dict keys b'a' / 'a'",
     lambda: _arg_pair(({b"a": "x"},), ({"a": "x"},)), False),
    ("float dict key, values differ",
     lambda: _arg_pair(({1.0: "x"},), ({1.0: "y"},)), True),
    ("namedtuple argument",
     lambda: _arg_pair((Pair(1, 2),), (Pair(3, 4),)), True),
    ("namedtuple / plain tuple",
     lambda: _arg_pair((Pair(1, 2),), ((1, 2),)), True),
    ("OrderedDict argument", lambda: _arg_pair(
        (OrderedDict(a=1, b=2),), (OrderedDict(b=1, a=2),)), False),
    ("CustomPolicy mutated between flushes", _mutated_policy, False),
]


class TestShapeKeyOracle:
    @pytest.mark.parametrize("row, recordings, same_plan", KEY_ORACLE,
                             ids=[row for row, _, _ in KEY_ORACLE])
    def test_keys_are_equal_exactly_when_plans_are(self, row, recordings,
                                                   same_plan):
        (key_a, digest_a), (key_b, digest_b) = [
            _derive(invocations, policy)
            for invocations, policy in recordings()
        ]
        assert (digest_a == digest_b) is same_plan, row
        assert (key_a == key_b) is same_plan, row

    @pytest.mark.parametrize("row, recordings, _same", KEY_ORACLE,
                             ids=[row for row, _, _ in KEY_ORACLE])
    def test_gathered_params_are_compile_plans(self, row, recordings, _same):
        for invocations, policy in recordings():
            _key, params = shape_key(invocations, policy)
            assert params == compile_plan(invocations, policy)[1], row

    @pytest.mark.parametrize("args", [
        (Pair(1, 2),), (OrderedDict(a=1),), ({1.0: "x"},), ({(1,): "x"},),
        ([Pair(1, 2)],),
    ], ids=["namedtuple", "OrderedDict", "float key", "tuple key",
            "nested namedtuple"])
    def test_every_recording_gets_a_key(self, args):
        """Whatever the recording holds, the walk keys it and gathers
        compile_plan's params."""
        recording = (inv(1, args=args),)
        key, params = shape_key(recording, AbortPolicy())
        hash(key)  # the client memo files it in a dict
        assert params == compile_plan(recording, AbortPolicy())[1]
