"""Length-prefixed message framing for stream transports.

TCP delivers a byte stream; the RMI protocol exchanges discrete messages.
Frames are ``u32 length`` + payload.  A maximum frame size guards both
sides against a corrupt or hostile length prefix.

**Zero-copy pipeline.**  The hot paths never glue header and payload
into a fresh buffer:

- :func:`frame_views` hands back the ``(header, payload)`` scatter list;
- :func:`write_frame` pushes that list through ``socket.sendmsg`` —
  scatter-gather I/O, no concatenation (falling back to ``sendall``
  where ``sendmsg`` does not exist);
- :class:`FrameReceiver` — the one blocking reader — reads frames with
  ``recv_into`` into one reusable per-connection buffer and yields
  ``memoryview`` windows of it, so the decoder can run straight off the
  receive buffer;
- :class:`FrameBuffer` reassembles frames from the chunks an
  ``asyncio.Protocol`` is fed — the non-blocking reader.
"""

from __future__ import annotations

import struct

from repro.wire.errors import DecodeError

_u32 = struct.Struct(">I")
_join = b"".join

#: Upper bound on a single message.  Large enough for the file-server
#: macro benchmark payloads (hundreds of KB), small enough to reject
#: garbage prefixes immediately.
MAX_FRAME_SIZE = 64 * 1024 * 1024


class FrameTooLargeError(DecodeError):
    """A frame length prefix exceeded :data:`MAX_FRAME_SIZE`."""

    def __init__(self, size):
        self.size = size
        super().__init__(f"frame of {size} bytes exceeds limit {MAX_FRAME_SIZE}")


def frame_views(payload):
    """The ``(header, payload)`` scatter list for one frame.

    No copy of *payload* is made; pass the pair to ``sendmsg`` /
    ``writelines`` (or join it for a contiguous frame).
    """
    size = len(payload)
    if size > MAX_FRAME_SIZE:
        raise FrameTooLargeError(size)
    return _u32.pack(size), payload


def write_frame(sock, payload) -> None:
    """Send one framed message with scatter-gather I/O.

    ``sendmsg([header, payload])`` hands the kernel both pieces in one
    syscall without building a contiguous copy.  Short writes are
    finished with ``sendall`` over a zero-copy view of the remainder.
    """
    header, body = frame_views(payload)
    sendmsg = getattr(sock, "sendmsg", None)
    if sendmsg is None:  # fake/test sockets and exotic platforms
        sock.sendall(header)
        sock.sendall(body)
        return
    sent = sendmsg((header, body))
    total = 4 + len(body)
    if sent >= total:
        return
    # Short write: finish from the first unsent byte, copy-free.
    if sent < 4:
        sock.sendall(header[sent:])
        sock.sendall(body)
    else:
        sock.sendall(memoryview(body)[sent - 4 :])


class FrameReceiver:
    """Reads frames into one reusable buffer with ``recv_into``.

    One receiver per connection.  :meth:`receive` returns a
    ``memoryview`` window of the internal buffer — **valid only until
    the next** :meth:`receive` **call** — or ``b""`` on clean EOF at a
    frame boundary.  Callers that must keep the payload past the next
    frame take their own ``bytes(view)`` copy; callers that decode
    immediately (the server loop) run zero-copy.

    The buffer grows *and shrinks* by replacement (never in-place
    resize), so a view of the previous frame can still be alive when
    the buffer turns over without tripping ``BufferError``.  After an
    oversized frame, the next frame that fits the initial capacity
    swaps the grown buffer for a fresh initial-sized one — a single
    64KB blob no longer pins a large buffer for the connection's
    remaining lifetime, while a sustained run of large frames keeps its
    grown buffer (no per-frame reallocation).
    """

    #: Starting payload-buffer capacity; covers typical RMI messages.
    INITIAL_CAPACITY = 8192

    def __init__(self, initial_capacity: int = INITIAL_CAPACITY):
        self._initial = max(1, initial_capacity)
        self._buf = bytearray(self._initial)
        self._header = bytearray(4)

    @property
    def capacity(self) -> int:
        """Current size of the reusable payload buffer."""
        return len(self._buf)

    def receive(self, sock):
        """Read one frame; view of the payload, or ``b""`` on clean EOF."""
        if not self._fill(sock, self._header, 4, allow_eof=True):
            return b""
        (length,) = _u32.unpack(self._header)
        if length > MAX_FRAME_SIZE:
            raise FrameTooLargeError(length)
        if length > len(self._buf):
            # Replace, don't resize: outstanding views keep the old
            # buffer alive and untouched.
            new_size = len(self._buf)
            while new_size < length:
                new_size *= 2
            self._buf = bytearray(new_size)
        elif length <= self._initial < len(self._buf):
            # Shrink back after an oversized frame, also by replacement:
            # the previous frame's view (if the caller still holds one)
            # keeps the big buffer alive exactly as long as it needs it,
            # and the connection stops retaining it beyond that.
            self._buf = bytearray(self._initial)
        self._fill(sock, self._buf, length, allow_eof=False)
        return memoryview(self._buf)[:length]

    @staticmethod
    def _fill(sock, buf, count, allow_eof):
        """recv_into *buf* until *count* bytes arrived; False on clean EOF."""
        if not count:
            return True
        view = memoryview(buf)
        got = 0
        while got < count:
            read = sock.recv_into(view[got:count])
            if read == 0:
                if allow_eof and got == 0:
                    return False
                raise DecodeError(
                    f"connection closed mid-frame ({got}/{count} bytes read)"
                )
            got += read
        return True


class FrameBuffer:
    """Incremental frame reassembly for non-blocking or chunked input.

    Feed arbitrary byte chunks with :meth:`feed`; complete frames pop out
    of :meth:`frames`.  Chunks are kept by reference and joined once the
    bytes the next frame needs have all arrived, so a frame that arrives
    in N chunks costs O(size), not O(N * size); each payload is copied
    out of the joined bytes exactly once.  The length prefix is checked
    against :data:`MAX_FRAME_SIZE` as soon as its four bytes are in —
    before any of the body is accepted as a frame.
    """

    def __init__(self):
        self._chunks = []  # unconsumed input, oldest first
        self._skip = 0     # bytes of _chunks[0] already handed out
        self._have = 0     # unconsumed bytes buffered
        self._need = 4     # unconsumed bytes the next parse step requires

    def feed(self, data: bytes):
        """Append received bytes to the reassembly buffer."""
        self._chunks.append(data)
        self._have += len(data)

    def frames(self):
        """Yield every complete frame currently buffered.

        The buffer is consistent before each yield, so a consumer may
        stop iterating early and come back for the rest later.
        """
        if self._have < self._need:
            return
        if self._skip:
            self._chunks[0] = self._chunks[0][self._skip:]
        data = _join(self._chunks)
        self._chunks = [data]
        self._skip = pos = 0
        end = len(data)
        while end - pos >= 4:
            (length,) = _u32.unpack_from(data, pos)
            if length > MAX_FRAME_SIZE:
                raise FrameTooLargeError(length)
            self._need = 4 + length
            if end - pos < self._need:
                return
            start = pos + 4
            self._skip = pos = start + length
            self._have -= self._need
            self._need = 4
            yield data[start:pos]

    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return self._have

    def eof(self) -> None:
        """The input ended: raise :class:`DecodeError` if it ended inside
        a frame (the wording :class:`FrameReceiver` uses)."""
        if self._have:
            raise DecodeError(
                f"connection closed mid-frame ({self._have}/{self._need} "
                "bytes read)"
            )
