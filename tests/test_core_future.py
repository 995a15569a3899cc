"""Unit tests for futures."""

import pytest

from repro.core.errors import FutureNotReadyError
from repro.core.future import Future


class TestLifecycle:
    def test_get_before_flush_raises(self):
        with pytest.raises(FutureNotReadyError):
            Future(1).get()

    def test_assign_then_get(self):
        future = Future(1)
        future._assign(42)
        assert future.get() == 42

    def test_assign_none_is_a_value(self):
        future = Future(1)
        future._assign(None)
        assert future.get() is None
        assert future.is_done()

    def test_fail_then_get_raises_stored_exception(self):
        future = Future(1)
        future._fail(ValueError("bad"))
        with pytest.raises(ValueError, match="bad"):
            future.get()

    def test_fail_requires_exception(self):
        with pytest.raises(TypeError):
            Future(1)._fail("not an exception")

    def test_get_raises_repeatedly(self):
        future = Future(1)
        future._fail(ValueError("bad"))
        for _ in range(2):
            with pytest.raises(ValueError):
                future.get()


class TestIntrospection:
    def test_is_done_states(self):
        future = Future(1)
        assert not future.is_done()
        future._assign(1)
        assert future.is_done() and not future.is_failed()

    def test_is_failed(self):
        future = Future(1)
        future._fail(KeyError("k"))
        assert future.is_failed()

    def test_exception_accessor_does_not_raise(self):
        future = Future(1)
        assert future.exception() is None
        exc = KeyError("k")
        future._fail(exc)
        assert future.exception() is exc

    def test_seq(self):
        assert Future(7).seq == 7

    def test_reassignment_for_cursor_iteration(self):
        """Cursor futures change value on every next() (§4.3)."""
        future = Future(1)
        future._assign("a")
        future._assign("b")
        assert future.get() == "b"
        future._fail(ValueError("x"))
        future._assign("c")
        assert future.get() == "c"

    def test_repr_states(self):
        future = Future(3)
        assert "pending" in repr(future)
        future._assign(1)
        assert "= 1" in repr(future)
        future._fail(ValueError())
        assert "ValueError" in repr(future)
