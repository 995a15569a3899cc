"""Tests for batch introspection (describe/summary)."""

import pytest

from repro.core import batch_summary, create_batch, describe_batch
from repro.core.explain import BatchSummary
from repro.net.conditions import WIRELESS


class TestDescribe:
    def test_empty_batch(self, env):
        batch = create_batch(env.client.lookup("counter"))
        text = describe_batch(batch)
        assert "no invocations recorded" in text
        assert "AbortPolicy" in text

    def test_lists_each_invocation(self, env):
        batch = create_batch(env.client.lookup("container"))
        item = batch.get_item("item0")
        item.score()
        text = describe_batch(batch)
        assert "#1 <- root.get_item('item0') [remote]" in text
        assert "#2 <- #1.score() [value]" in text

    def test_marks_cursor_membership(self, env):
        batch = create_batch(env.client.lookup("container"))
        cursor = batch.all_items()
        cursor.name()
        text = describe_batch(batch)
        assert "[cursor]" in text
        assert "{cursor #1}" in text

    def test_kwargs_and_long_args_truncated(self, env):
        batch = create_batch(env.client.lookup("counter"))
        batch.increment(amount=5)
        text = describe_batch(batch)
        assert "amount=5" in text
        batch2 = create_batch(env.client.lookup("container"))
        batch2.get_item("x" * 100)
        assert "..." in describe_batch(batch2)

    def test_segment_count_after_chaining(self, env):
        batch = create_batch(env.client.lookup("counter"))
        batch.increment(1)
        batch.flush_and_continue()
        assert "1 segment(s) flushed" in describe_batch(batch)

    def test_rejects_non_proxy(self):
        with pytest.raises(TypeError):
            describe_batch("nope")


class TestSummary:
    def test_counts(self, env):
        batch = create_batch(env.client.lookup("container"))
        cursor = batch.all_items()
        cursor.name()
        batch.item_count()
        summary = batch_summary(batch)
        assert isinstance(summary, BatchSummary)
        assert summary.pending_invocations == 3
        assert summary.cursors == 1
        assert summary.chained_segments_flushed == 0
        assert not summary.session_open

    def test_session_flag(self, env):
        batch = create_batch(env.client.lookup("counter"))
        batch.increment(1)
        batch.flush_and_continue()
        assert batch_summary(batch).session_open

    def test_predicted_speedup_grows_with_size(self, env):
        batch = create_batch(env.client.lookup("counter"))
        batch.current()
        small = batch_summary(batch).predicted_speedup
        for _ in range(9):
            batch.current()
        large = batch_summary(batch).predicted_speedup
        assert large > small

    def test_wireless_predicts_bigger_speedup(self, env):
        batch = create_batch(env.client.lookup("counter"))
        for _ in range(5):
            batch.current()
        lan = batch_summary(batch).predicted_speedup
        wireless = batch_summary(batch, conditions=WIRELESS).predicted_speedup
        assert wireless > lan

    def test_empty_batch_summary(self, env):
        batch = create_batch(env.client.lookup("counter"))
        summary = batch_summary(batch)
        assert summary.pending_invocations == 0
        assert summary.predicted_rmi_ms == 0.0
