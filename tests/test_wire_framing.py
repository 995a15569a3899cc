"""Unit tests for length-prefixed framing."""

import io
import socket

import pytest

from repro.wire import (
    DecodeError,
    FrameBuffer,
    FrameReceiver,
    FrameTooLargeError,
    frame_views,
    write_frame,
)
from repro.wire.framing import MAX_FRAME_SIZE


def frame(payload: bytes) -> bytes:
    """One contiguous frame: the scatter list of ``frame_views`` joined."""
    return b"".join(frame_views(payload))


class TestFrame:
    """What :func:`write_frame` sends over a real socket pair,
    :class:`FrameReceiver` — the one blocking reader — reads back; its
    failures carry the wording the transports' errors quote."""

    @pytest.fixture
    def pair(self):
        writer, reader = socket.socketpair()
        yield writer, reader
        writer.close()
        reader.close()

    def test_roundtrip(self, pair):
        writer, reader = pair
        write_frame(writer, b"hello")
        assert FrameReceiver().receive(reader) == b"hello"

    def test_empty_payload(self, pair):
        writer, reader = pair
        write_frame(writer, b"")
        write_frame(writer, b"next")
        receiver = FrameReceiver()
        assert len(receiver.receive(reader)) == 0
        assert receiver.receive(reader) == b"next"

    def test_multiple_frames_sequentially(self, pair):
        writer, reader = pair
        write_frame(writer, b"one")
        write_frame(writer, b"two")
        receiver = FrameReceiver()
        first = bytes(receiver.receive(reader))  # detached: outlives the next
        assert (first, receiver.receive(reader)) == (b"one", b"two")

    def test_clean_eof_returns_empty(self, pair):
        writer, reader = pair
        writer.close()
        assert FrameReceiver().receive(reader) == b""

    def test_eof_mid_header(self, pair):
        writer, reader = pair
        writer.sendall(b"\x00\x00")
        writer.close()
        with pytest.raises(DecodeError,
                           match=r"closed mid-frame \(2/4 bytes read\)"):
            FrameReceiver().receive(reader)

    def test_eof_mid_payload(self, pair):
        writer, reader = pair
        writer.sendall(frame(b"hello")[:-2])
        writer.close()
        with pytest.raises(DecodeError,
                           match=r"closed mid-frame \(3/5 bytes read\)"):
            FrameReceiver().receive(reader)

    def test_oversize_prefix_rejected(self, pair):
        writer, reader = pair
        writer.sendall((MAX_FRAME_SIZE + 1).to_bytes(4, "big"))
        with pytest.raises(FrameTooLargeError, match="exceeds limit") as info:
            FrameReceiver().receive(reader)
        assert info.value.size == MAX_FRAME_SIZE + 1

    def test_frame_too_large_to_send(self):
        with pytest.raises(FrameTooLargeError):
            frame(b"x" * (MAX_FRAME_SIZE + 1))


class TestFrameBuffer:
    def test_incremental_reassembly(self):
        buf = FrameBuffer()
        data = frame(b"abcdef")
        collected = []
        for i in range(len(data)):
            buf.feed(data[i : i + 1])
            collected.extend(buf.frames())
        assert collected == [b"abcdef"]

    def test_multiple_frames_one_feed(self):
        buf = FrameBuffer()
        buf.feed(frame(b"a") + frame(b"bb") + frame(b"ccc"))
        assert list(buf.frames()) == [b"a", b"bb", b"ccc"]

    def test_pending_bytes(self):
        buf = FrameBuffer()
        buf.feed(frame(b"abc")[:4])
        list(buf.frames())
        assert buf.pending_bytes() == 4

    def test_oversize_in_buffer(self):
        buf = FrameBuffer()
        buf.feed((MAX_FRAME_SIZE + 1).to_bytes(4, "big"))
        with pytest.raises(FrameTooLargeError):
            list(buf.frames())

    def test_oversize_prefix_rejected_after_the_frames_before_it(self):
        buf = FrameBuffer()
        buf.feed(frame(b"ok") + (MAX_FRAME_SIZE + 1).to_bytes(4, "big"))
        frames = buf.frames()
        assert next(frames) == b"ok"
        with pytest.raises(FrameTooLargeError):
            next(frames)

    def test_large_frame_in_small_chunks_costs_its_size_once(
            self, monkeypatch):
        """An 8 MiB frame fed in 4 KiB chunks: the bytes copied while
        reassembling are counted, not timed.  A parser that re-glues its
        buffer on every feed copies ~8 GiB here; this one joins what the
        frame needs once (plus the first chunk, to read the header)."""
        from repro.wire import framing

        size, chunk = 8 * 1024 * 1024, 4096
        joined = []

        def counting_join(chunks):
            data = b"".join(chunks)
            joined.append(len(data))
            return data

        monkeypatch.setattr(framing, "_join", counting_join)
        payload = bytes(range(256)) * (size // 256)
        wire = frame(payload) + frame(b"tail")
        buf = FrameBuffer()
        out = []
        feeds = 0
        for start in range(0, len(wire), chunk):
            buf.feed(wire[start:start + chunk])
            feeds += 1
            out.extend(buf.frames())
        assert out == [payload, b"tail"]
        assert feeds > 2000
        assert len(joined) == 2          # not one join per feed
        assert sum(joined) <= len(wire) + chunk
        assert buf.pending_bytes() == 0

    def test_consumer_may_stop_early_and_resume(self):
        buf = FrameBuffer()
        buf.feed(frame(b"a") + frame(b"bb") + frame(b"ccc")[:5])
        assert next(buf.frames()) == b"a"      # abandon the generator
        assert buf.pending_bytes() == 6 + 5
        buf.feed(frame(b"ccc")[5:])
        assert list(buf.frames()) == [b"bb", b"ccc"]
        assert buf.pending_bytes() == 0

    def test_frames_are_bytes_whatever_was_fed(self):
        buf = FrameBuffer()
        buf.feed(bytearray(frame(b"abc")))
        buf.feed(memoryview(frame(b"de")))
        frames = list(buf.frames())
        assert frames == [b"abc", b"de"]
        assert all(type(f) is bytes for f in frames)

    @pytest.mark.parametrize("fed, got_expected", [
        (frame(b"abcdef")[:2], "2/4"),      # inside the length prefix
        (frame(b"abcdef")[:7], "7/10"),     # inside the body
    ])
    def test_eof_inside_a_frame(self, fed, got_expected):
        buf = FrameBuffer()
        buf.feed(fed)
        assert list(buf.frames()) == []
        with pytest.raises(DecodeError, match=f"closed mid-frame .{got_expected}"):
            buf.eof()

    def test_eof_at_a_frame_boundary_is_clean(self):
        buf = FrameBuffer()
        buf.eof()
        buf.feed(frame(b"abc"))
        assert list(buf.frames()) == [b"abc"]
        buf.eof()


class ChunkySocket:
    """recv_into() in deliberately awkward chunk sizes; sendmsg-capable."""

    def __init__(self, data, chunk=3, sendmsg_budget=None):
        self._stream = io.BytesIO(data)
        self._chunk = chunk
        self.sent = bytearray()
        #: None = unlimited; an int caps bytes accepted per sendmsg call
        #: so short-write handling gets exercised.
        self._sendmsg_budget = sendmsg_budget

    def recv_into(self, view):
        data = self._stream.read(min(len(view), self._chunk))
        view[: len(data)] = data
        return len(data)

    def sendmsg(self, buffers):
        flat = b"".join(bytes(b) for b in buffers)
        if self._sendmsg_budget is not None:
            flat = flat[: self._sendmsg_budget]
        self.sent += flat
        return len(flat)

    def sendall(self, data):
        self.sent += bytes(data)


class SendallOnlySocket:
    """No sendmsg attribute at all (exotic platform / test double)."""

    def __init__(self):
        self.sent = bytearray()

    def sendall(self, data):
        self.sent += bytes(data)


class TestFrameViews:
    def test_views_join_to_frame(self):
        header, body = frame_views(b"hello")
        assert header + body == b"\x00\x00\x00\x05hello"

    def test_payload_not_copied(self):
        payload = b"payload"
        _, body = frame_views(payload)
        assert body is payload

    def test_oversize_rejected(self):
        with pytest.raises(FrameTooLargeError):
            frame_views(bytearray(MAX_FRAME_SIZE + 1))


class TestWriteFrame:
    def test_sendmsg_path(self):
        from repro.wire import write_frame

        sock = ChunkySocket(b"")
        write_frame(sock, b"hello")
        assert bytes(sock.sent) == frame(b"hello")

    def test_short_write_mid_header(self):
        from repro.wire import write_frame

        sock = ChunkySocket(b"", sendmsg_budget=2)
        write_frame(sock, b"hello")
        assert bytes(sock.sent) == frame(b"hello")

    def test_short_write_mid_payload(self):
        from repro.wire import write_frame

        sock = ChunkySocket(b"", sendmsg_budget=6)
        write_frame(sock, b"hello")
        assert bytes(sock.sent) == frame(b"hello")

    def test_sendall_fallback(self):
        from repro.wire import write_frame

        sock = SendallOnlySocket()
        write_frame(sock, b"hello")
        assert bytes(sock.sent) == frame(b"hello")

    def test_memoryview_payload(self):
        from repro.wire import write_frame

        sock = ChunkySocket(b"")
        write_frame(sock, memoryview(b"hello"))
        assert bytes(sock.sent) == frame(b"hello")

    def test_oversize_rejected_before_sending(self):
        from repro.wire import write_frame

        sock = ChunkySocket(b"")
        with pytest.raises(FrameTooLargeError):
            write_frame(sock, bytearray(MAX_FRAME_SIZE + 1))
        assert not sock.sent


class TestFrameReceiver:
    def test_roundtrip(self):
        from repro.wire import FrameReceiver

        receiver = FrameReceiver()
        view = receiver.receive(ChunkySocket(frame(b"hello")))
        assert bytes(view) == b"hello"

    def test_sequential_frames_reuse_buffer(self):
        from repro.wire import FrameReceiver

        receiver = FrameReceiver()
        sock = ChunkySocket(frame(b"one") + frame(b"three"))
        first = receiver.receive(sock)
        assert bytes(first) == b"one"
        second = receiver.receive(sock)
        assert bytes(second) == b"three"
        # The documented hazard: the first view now reads rewritten
        # bytes — callers must detach anything they keep.
        assert bytes(first) == b"thr"[: len(first)]

    def test_clean_eof_returns_empty_bytes(self):
        from repro.wire import FrameReceiver

        assert FrameReceiver().receive(ChunkySocket(b"")) == b""

    def test_eof_mid_header_raises(self):
        from repro.wire import FrameReceiver

        with pytest.raises(DecodeError):
            FrameReceiver().receive(ChunkySocket(b"\x00\x00"))

    def test_eof_mid_payload_raises(self):
        from repro.wire import FrameReceiver

        with pytest.raises(DecodeError):
            FrameReceiver().receive(ChunkySocket(frame(b"hello")[:-2]))

    def test_oversize_prefix_rejected(self):
        from repro.wire import FrameReceiver

        bad = (MAX_FRAME_SIZE + 1).to_bytes(4, "big")
        with pytest.raises(FrameTooLargeError):
            FrameReceiver().receive(ChunkySocket(bad))

    def test_buffer_grows_by_replacement(self):
        from repro.wire import FrameReceiver

        receiver = FrameReceiver(initial_capacity=4)
        sock = ChunkySocket(frame(b"z" * 100), chunk=33)
        small = receiver.receive(ChunkySocket(frame(b"ab")))
        assert bytes(small) == b"ab"
        big = receiver.receive(sock)
        assert bytes(big) == b"z" * 100
        assert receiver.capacity >= 100
        # The old, smaller buffer was replaced, not resized: the view
        # of the small frame still reads its original backing store.
        assert len(small) == 2

    def test_buffer_shrinks_after_an_oversized_frame(self):
        """Regression: one big frame used to pin its grown buffer for
        the connection's lifetime; the next initial-capacity-sized
        frame must swap it back to the starting capacity."""
        from repro.wire import FrameReceiver

        receiver = FrameReceiver(initial_capacity=16)
        big = receiver.receive(ChunkySocket(frame(b"B" * 1000), chunk=97))
        assert bytes(big) == b"B" * 1000
        assert receiver.capacity >= 1000
        small = receiver.receive(ChunkySocket(frame(b"hi")))
        assert bytes(small) == b"hi"
        assert receiver.capacity == 16
        # View safety held through the turnover: shrink happened by
        # replacement, so the big frame's view still reads its own
        # (retired) backing store, not rewritten bytes.
        assert bytes(big) == b"B" * 1000

    def test_sustained_big_frames_keep_the_grown_buffer(self):
        """The shrink must not thrash a workload that is legitimately
        all large frames: only a small frame triggers the swap."""
        from repro.wire import FrameReceiver

        receiver = FrameReceiver(initial_capacity=16)
        receiver.receive(ChunkySocket(frame(b"x" * 500)))
        grown = receiver.capacity
        assert grown >= 500
        receiver.receive(ChunkySocket(frame(b"y" * 400)))
        assert receiver.capacity == grown  # still big, still reused

    def test_empty_frame_payload(self):
        from repro.wire import FrameReceiver

        view = FrameReceiver().receive(ChunkySocket(frame(b"")))
        assert len(view) == 0

    def test_decode_straight_from_receiver_view(self):
        from repro.wire import FrameReceiver, decode, encode

        wire = encode({"k": [1, "two"], "blob": b"xyz"})
        receiver = FrameReceiver()
        view = receiver.receive(ChunkySocket(frame(wire), chunk=7))
        assert decode(view) == {"k": [1, "two"], "blob": b"xyz"}
