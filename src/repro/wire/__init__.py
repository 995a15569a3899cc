"""Wire format: the serialization substrate under the RMI layer.

Public surface:

- :func:`encode` / :func:`decode` — one value to/from bytes
- :func:`encode_many` / :func:`decode_many` — packed sequences
- :func:`encode_framed` — one value to a frame-prefixed buffer, in place
- :class:`BufferPool` — reusable message buffers (see :data:`GLOBAL_POOL`)
- :func:`serializable` — register a class for pass-by-copy
- :func:`register_exception` — register an exception for faithful transfer
- :class:`RemoteRef` — the wire-native remote reference
- :class:`ParamSlot` — the wire-native plan parameter placeholder
- :func:`frame_views` / :func:`write_frame` / :class:`FrameReceiver` /
  :class:`FrameBuffer` — stream framing (scatter-gather on the hot paths)
"""

from repro.wire.buffers import GLOBAL_POOL, BufferPool
from repro.wire.decoder import Decoder, decode, decode_many
from repro.wire.encoder import (
    Encoder,
    canonical_set_order,
    encode,
    encode_framed,
    encode_many,
)
from repro.wire.errors import (
    DecodeError,
    EncodeError,
    TruncatedError,
    UnknownTagError,
    UnregisteredClassError,
    WireError,
)
from repro.wire.framing import (
    FrameBuffer,
    FrameReceiver,
    FrameTooLargeError,
    frame_views,
    write_frame,
)
from repro.wire.plans import ParamSlot
from repro.wire.refs import RemoteRef
from repro.wire.registry import (
    register_exception,
    registered_classes,
    registered_exceptions,
    serializable,
)

__all__ = [
    "BufferPool",
    "Decoder",
    "DecodeError",
    "Encoder",
    "EncodeError",
    "FrameBuffer",
    "FrameReceiver",
    "FrameTooLargeError",
    "GLOBAL_POOL",
    "ParamSlot",
    "RemoteRef",
    "TruncatedError",
    "UnknownTagError",
    "UnregisteredClassError",
    "WireError",
    "canonical_set_order",
    "decode",
    "decode_many",
    "encode",
    "encode_framed",
    "encode_many",
    "frame_views",
    "register_exception",
    "registered_classes",
    "registered_exceptions",
    "serializable",
    "write_frame",
]
