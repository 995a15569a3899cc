"""Wire details of the asyncio transport.

The asyncio runtime speaks the *same* length-prefixed framing and
``CallRequest``/``CallResponse`` payloads as the threaded TCP transport.
What it adds is a **correlation envelope** so many requests can be in
flight on one connection and complete out of order:

- The client sends :data:`MAGIC` as its very first frame.  The asyncio
  listener answers :data:`MAGIC_ACK`, and every later frame in either
  direction is enveloped: ``u64 request-id`` + payload, responses
  carrying the id of the request they answer.
- This is the only wire mode.  The listener drops a connection whose
  first frame is not MAGIC; the client fails its connect, naming the
  handshake, when the answer is not the ack.  A threaded peer on the
  other end is a typed failure, not a hang.

MAGIC is not a valid TLV encoding of any protocol message, so it can
never collide with a real first request.

Both ends are ``asyncio.Protocol`` objects whose ``data_received`` feeds
the shared reassembler, :class:`repro.wire.framing.FrameBuffer`.
"""

from __future__ import annotations

import struct

from repro.wire.errors import DecodeError
from repro.wire.framing import MAX_FRAME_SIZE, FrameTooLargeError

#: Hello frame opening the correlation envelope (not a decodable message).
MAGIC = b"\xabrepro/aio/1\n"

#: The listener's acceptance of the correlation envelope.
MAGIC_ACK = b"\xabrepro/aio/1 ok\n"

_u32 = struct.Struct(">I")
_u64 = struct.Struct(">Q")

#: Size of the request-id prefix inside an enveloped frame.
ENVELOPE_BYTES = _u64.size


def framed_envelope_views(request_id: int, payload):
    """The ``(frame header, envelope, payload)`` scatter list for one
    enveloped frame — feed it to ``transport.writelines`` so the caller
    glues neither the envelope nor the frame into a staging buffer."""
    size = ENVELOPE_BYTES + len(payload)
    if size > MAX_FRAME_SIZE:
        raise FrameTooLargeError(size)
    return _u32.pack(size), _u64.pack(request_id), payload


def split_envelope(frame_body: bytes):
    """Split an enveloped frame into ``(request_id, payload)``."""
    if len(frame_body) < ENVELOPE_BYTES:
        raise DecodeError(
            f"enveloped frame of {len(frame_body)} bytes is shorter than "
            f"its {ENVELOPE_BYTES}-byte envelope"
        )
    (request_id,) = _u64.unpack_from(frame_body)
    return request_id, frame_body[ENVELOPE_BYTES:]
