"""Array cursors: batched bulk operations over collections (paper §3.4).

A remote method whose return annotation is a sequence of a remote
interface (``list[File]``) yields a :class:`CursorProxy` when batched.
Before flush the cursor stands for *an arbitrary element* — every
operation recorded on it (its sub-batch) is replayed by the server for
each element of the array.  After flush the cursor becomes an iterator:
each ``next()`` re-points the sub-batch's futures at the following
element's results.

In chained batches the flushed cursor addresses its *current* element
(§3.5), so ``cursor.delete()`` inside the iteration loop of a follow-up
batch applies to exactly the element just inspected.
"""

from __future__ import annotations

from repro.core import proxy as proxy_module
from repro.core.errors import BatchAbortedError, BatchStateError, CursorStateError
from repro.core.proxy import BatchProxy


class CursorProxy(BatchProxy):
    """Batch proxy over every element of a server-side array."""

    def __init__(self, recorder, seq, specs):
        # A cursor owns its own sub-batch: ops on it repeat per element.
        super().__init__(recorder, seq, specs, cursor_owner=self)
        self._sub_seqs = []
        self._sub_futures = {}
        self._sub_proxies = {}
        self._sub_closed = False
        self._flushed = False
        self._length = None
        self._index = -1
        self._values = {}
        self._exceptions = {}
        self._abort_error = None

    # -- iteration (post-flush) ------------------------------------------

    def next(self) -> bool:
        """Advance to the next element, repopulating sub-batch futures.

        Returns False once the array is exhausted (paper §3.4).
        """
        if self._failure is not None:
            raise self._failure
        if not self._flushed:
            raise BatchStateError("next() before the cursor's batch was flushed")
        if self._index >= self._length:
            return False
        self._index += 1
        if self._index >= self._length:
            return False
        index = self._index
        for seq, future in self._sub_futures.items():
            exc = self._exceptions.get(seq, {}).get(index)
            if exc is not None:
                future._fail(exc)
                continue
            values = self._values.get(seq)
            if values is not None and index < len(values):
                future._assign(values[index])
            else:
                aborted = BatchAbortedError(
                    "the batch stopped before computing this element"
                )
                aborted.__cause__ = self._abort_error
                future._fail(aborted)
        return True

    def __iter__(self):
        """Pythonic sugar over ``next()``: yields the element index."""
        while self.next():
            yield self._index

    # -- bookkeeping driven by the recorder --------------------------------

    def _register_future(self, seq, future):
        self._sub_seqs.append(seq)
        self._sub_futures[seq] = future

    def _register_proxy(self, seq, proxy):
        self._sub_seqs.append(seq)
        self._sub_proxies[seq] = proxy

    def _apply_response(self, response, first_error, failure):
        """Take in the flush's outcome for this cursor.

        A cursor that failed fails everything recorded on it with the
        same exception (§3.3: re-raise what this object depends on):
        its sub-batch's futures from ``get()`` and proxies from ``ok()``.
        """
        self._flushed = True
        self._index = -1
        self._abort_error = first_error
        if failure is not None:
            self._failure = failure
            self._length = 0
            for future in self._sub_futures.values():
                future._fail(failure)
            for proxy in self._sub_proxies.values():
                proxy._resolved = True
                proxy._failure = failure
            return
        self._length = response.cursor_lengths.get(self._seq, 0)
        for seq in self._sub_futures:
            self._values[seq] = self._recorder.unmarshal_values(
                response.cursor_results.get(seq, ()))
        for seq in self._sub_seqs:
            per_element = response.cursor_exceptions.get(seq)
            if per_element:
                self._exceptions[seq] = dict(per_element)
        for proxy in self._sub_proxies.values():
            proxy._resolved = True

    def _require_index(self) -> int:
        """The element a chained-batch operation applies to."""
        if not self._flushed:
            raise CursorStateError(
                "cursor element operations need a flushed cursor"
            )
        if self._index < 0:
            raise CursorStateError(
                "no current element: call next() before operating on the "
                "cursor in a chained batch"
            )
        if self._index >= self._length:
            raise CursorStateError("cursor iteration is exhausted")
        return self._index

    def _element_exception(self, sub_seq, index):
        """Exception recorded for one sub-op on one element, if any."""
        return self._exceptions.get(sub_seq, {}).get(index)

    def __repr__(self):
        if self._flushed:
            return (
                f"<CursorProxy #{self._seq} element {self._index}/"
                f"{self._length}>"
            )
        return f"<CursorProxy #{self._seq} recording>"


proxy_module.CursorProxy = CursorProxy


def cursor_length(cursor: CursorProxy) -> int:
    """Number of array elements behind a flushed cursor.

    A module-level function rather than a property: every public
    attribute of a proxy would shadow a remote method of the same name
    (e.g. ``RemoteFile.length()``), and only ``flush``,
    ``flush_and_continue``, ``ok`` and ``next`` are reserved.
    """
    if not isinstance(cursor, CursorProxy):
        raise TypeError(f"not a cursor: {cursor!r}")
    if not cursor._flushed:
        raise BatchStateError("cursor length is unknown before flush")
    return cursor._length


def cursor_index(cursor: CursorProxy) -> int:
    """Current element index of a cursor (-1 before the first ``next()``)."""
    if not isinstance(cursor, CursorProxy):
        raise TypeError(f"not a cursor: {cursor!r}")
    return cursor._index
