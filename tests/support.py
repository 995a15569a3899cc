"""Shared remote interfaces and implementations for the test suite.

Defined at module level so ``typing.get_type_hints`` resolves forward
references and the interface registry has stable qualified names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

from repro.net import FaultSchedule, FaultyNetwork
from repro.rmi import RemoteInterface, RemoteObject, RetryPolicy, RMIClient
from repro.wire.registry import register_exception, serializable

#: One attempt per call, and a redial on the next call.  A scripted
#: ``drop-request`` severs the connection as a real socket would, and a
#: client without a retry policy never reconnects, so a test that calls
#: again after an injected fault takes this policy.
ONE_ATTEMPT = RetryPolicy(max_attempts=1)


def chaos_client(network, address, events, retry=None):
    """An RMI client on *network* whose request exchanges meet the
    scripted fault *events* in order (``None`` delivers cleanly; the
    lookup is usually the first exchange)."""
    return RMIClient(
        FaultyNetwork(network, FaultSchedule.scripted(events)), address,
        retry=retry,
    )


def wait_until(predicate, timeout=10.0):
    """Bounded poll: true as soon as *predicate* holds, false on timeout."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


@register_exception
class BoomError(Exception):
    """Deliberate application failure used across the tests."""


@serializable
@dataclass(frozen=True)
class Point:
    """A serializable value object."""

    x: int
    y: int


class Counter(RemoteInterface):
    """A tiny stateful service."""

    def increment(self, amount: int) -> int: ...

    def current(self) -> int: ...

    def boom(self, message: str) -> None: ...

    def flaky(self, fail_times: int) -> int: ...


class CounterImpl(RemoteObject, Counter):
    def __init__(self):
        self.value = 0
        self._flaky_calls = 0

    def increment(self, amount: int) -> int:
        if not isinstance(amount, int):
            raise TypeError(f"amount must be int, got {type(amount).__name__}")
        self.value += amount
        return self.value

    def current(self) -> int:
        return self.value

    def boom(self, message: str) -> None:
        raise BoomError(message)

    def flaky(self, fail_times: int) -> int:
        """Fails the first *fail_times* invocations, then succeeds."""
        self._flaky_calls += 1
        if self._flaky_calls <= fail_times:
            raise BoomError(f"flaky failure #{self._flaky_calls}")
        return self._flaky_calls


def make_sneaky_counter():
    """A counter of a fresh class (so its dispatch table starts cold)
    with three methods no remote call may reach: an undeclared public
    one, a private one, and one only ``Item`` declares.  Returns the
    object and the list a reached method would append its name to."""
    reached = []

    class Sneaky(CounterImpl):
        def backdoor(self):
            reached.append("backdoor")

        def _private(self):
            reached.append("_private")

        def name(self):
            reached.append("name")

    return Sneaky(), reached


class Item(RemoteInterface):
    """Element type for cursor tests."""

    def name(self) -> str: ...

    def score(self) -> int: ...

    def touch(self) -> int: ...

    def maybe_fail(self) -> str: ...

    def partner(self) -> "Item": ...


class Container(RemoteInterface):
    """Aggregate exposing items singly and in bulk."""

    def get_item(self, name: str) -> Item: ...

    def all_items(self) -> List[Item]: ...

    def item_count(self) -> int: ...

    def adopt(self, item: Item) -> str: ...

    def compare(self, left: Item, right: Item) -> bool: ...


class ItemImpl(RemoteObject, Item):
    def __init__(self, name: str, score: int, failing: bool = False,
                 partner: "ItemImpl" = None):
        self._name = name
        self._score = score
        self._failing = failing
        self._partner = partner
        self.touches = 0

    def name(self) -> str:
        return self._name

    def score(self) -> int:
        return self._score

    def touch(self) -> int:
        self.touches += 1
        return self.touches

    def maybe_fail(self) -> str:
        if self._failing:
            raise BoomError(f"{self._name} fails")
        return f"{self._name} ok"

    def partner(self) -> "Item":
        if self._partner is None:
            raise LookupError(f"{self._name} has no partner")
        return self._partner


class ContainerImpl(RemoteObject, Container):
    def __init__(self, items=None):
        self.items = list(items) if items is not None else []
        self.adopted = []

    def get_item(self, name: str) -> Item:
        for item in self.items:
            if item._name == name:
                return item
        raise KeyError(name)

    def all_items(self) -> List[Item]:
        return list(self.items)

    def item_count(self) -> int:
        return len(self.items)

    def adopt(self, item: Item) -> str:
        self.adopted.append(item)
        return getattr(item, "_name", "stub")

    def compare(self, left: Item, right: Item) -> bool:
        """Identity check used by the §4.4 reference-identity tests."""
        return left is right


def make_container(scores=(3, 1, 4, 1, 5), failing_names=()) -> ContainerImpl:
    items = [
        ItemImpl(f"item{i}", score, failing=f"item{i}" in failing_names)
        for i, score in enumerate(scores)
    ]
    for i, item in enumerate(items):
        item._partner = items[(i + 1) % len(items)]
    return ContainerImpl(items)


class IdentityService(RemoteInterface):
    """The RemoteIdentityI example of §4.4."""

    def create(self) -> Counter: ...

    def use(self, counter: Counter) -> bool: ...

    def poke(self, counter: Counter) -> int: ...


class IdentityServiceImpl(RemoteObject, IdentityService):
    def __init__(self):
        self.remote_obj = None
        self.last_was_identical = None

    def create(self) -> Counter:
        self.remote_obj = CounterImpl()
        return self.remote_obj

    def use(self, counter: Counter) -> bool:
        self.last_was_identical = counter is self.remote_obj
        return self.last_was_identical

    def poke(self, counter: Counter) -> int:
        """Call through the argument — surfaces stale-reference failures."""
        return counter.current()
