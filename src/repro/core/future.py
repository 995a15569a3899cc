"""Futures: placeholders for batched results (paper §2, §3.2).

A batched method that would return a plain value returns a
:class:`Future` instead.  The future is unusable until the batch is
flushed; afterwards ``get()`` either returns the value or re-raises the
exception the value depends on.

Futures created inside a *cursor* sub-batch are special: their value is
re-assigned on every ``next()`` of the cursor (paper §4.3: "in the case
of futures created within a cursor, the future values may change on each
iteration of the loop").
"""

from __future__ import annotations

from repro.core.errors import FutureNotReadyError

_PENDING = "pending"
_READY = "ready"
_FAILED = "failed"


class Future:
    """Placeholder for one batched result."""

    __slots__ = ("_seq", "_state", "_value", "_exception")

    def __init__(self, seq: int):
        self._seq = seq
        self._state = _PENDING
        self._value = None
        self._exception = None

    @property
    def seq(self) -> int:
        """Sequence number of the invocation that produces this value."""
        return self._seq

    def get(self):
        """The batched result.

        Raises :class:`FutureNotReadyError` before flush; re-raises the
        recorded exception (the method's own, or the first exception this
        value transitively depends on) after a failed execution.
        """
        if self._state == _PENDING:
            raise FutureNotReadyError(
                f"future #{self._seq} read before its batch was flushed"
            )
        if self._state == _FAILED:
            raise self._exception
        return self._value

    def is_done(self) -> bool:
        """Whether the batch execution reached a verdict for this future."""
        return self._state != _PENDING

    def is_failed(self) -> bool:
        """Whether ``get()`` would raise."""
        return self._state == _FAILED

    def exception(self):
        """The stored exception, or None (does not raise)."""
        return self._exception if self._state == _FAILED else None

    # -- assignment by the recorder (not public API) --------------------

    def _assign(self, value) -> None:
        self._state = _READY
        self._value = value
        self._exception = None

    def _fail(self, exception: BaseException) -> None:
        if not isinstance(exception, BaseException):
            raise TypeError(f"not an exception: {exception!r}")
        self._state = _FAILED
        self._value = None
        self._exception = exception

    def __repr__(self):
        if self._state == _READY:
            return f"<Future #{self._seq} = {self._value!r}>"
        if self._state == _FAILED:
            return f"<Future #{self._seq} ! {type(self._exception).__name__}>"
        return f"<Future #{self._seq} pending>"
