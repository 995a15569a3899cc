"""Wire details of the pipelined asyncio transport.

The asyncio runtime speaks the *same* length-prefixed framing and
``CallRequest``/``CallResponse`` payloads as the threaded TCP transport.
What it adds is an optional, negotiated **correlation envelope** so many
requests can be in flight on one connection and complete out of order:

- A client that wants pipelining sends :data:`MAGIC` as its very first
  frame.  An asyncio listener answers :data:`MAGIC_ACK` and both sides
  switch to enveloped frames: ``u64 request-id`` + payload, responses
  carrying the id of the request they answer.
- Any other first frame is served in **sequential mode** — one request,
  one in-order response, no envelope — which is exactly the legacy
  protocol, so plain :class:`~repro.net.tcp.TcpChannel` clients work
  against an asyncio listener unchanged.
- Symmetrically, a legacy listener answers the MAGIC frame with an
  ordinary (error) response instead of the ack; the asyncio client
  detects the missing ack and falls back to sequential mode on the same
  connection.

MAGIC is not a valid TLV encoding of any protocol message, so it can
never collide with a real first request.

Both ends are ``asyncio.Protocol`` objects whose ``data_received`` feeds
the shared reassembler, :class:`repro.wire.framing.FrameBuffer`.
"""

from __future__ import annotations

import struct

from repro.wire.errors import DecodeError
from repro.wire.framing import MAX_FRAME_SIZE, FrameTooLargeError

#: Hello frame requesting the pipelined envelope (not a decodable message).
MAGIC = b"\xabrepro/aio/1\n"

#: The listener's acceptance of the pipelined envelope.
MAGIC_ACK = b"\xabrepro/aio/1 ok\n"

_u32 = struct.Struct(">I")
_u64 = struct.Struct(">Q")

#: Size of the request-id prefix inside an enveloped frame.
ENVELOPE_BYTES = _u64.size


def pack_envelope(request_id: int, payload: bytes) -> bytes:
    """Prefix *payload* with its correlation id (contiguous copy)."""
    return _u64.pack(request_id) + payload


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
            f"pipelined frame of {len(frame_body)} bytes is shorter than "
            f"its {ENVELOPE_BYTES}-byte envelope"
        )
    (request_id,) = _u64.unpack_from(frame_body)
    return request_id, frame_body[ENVELOPE_BYTES:]
