"""Wire format: the serialization substrate under the RMI layer.

Public surface:

- :func:`encode` / :func:`decode` — one value to/from bytes, the codec's
  only entry points
- :mod:`repro.wire.registry`'s ``serializable`` (a class passes by copy)
  and ``register_exception`` (an exception transfers faithfully)
- :class:`RemoteRef` — the wire-native remote reference
- :class:`ParamSlot` — the wire-native plan parameter placeholder
- :func:`frame_views` / :func:`write_frame` / :class:`FrameReceiver` /
  :class:`FrameBuffer` — stream framing (sends are scatter-gather)
"""

from repro.wire.decoder import decode
from repro.wire.encoder import canonical_set_order, encode
from repro.wire.errors import (
    DecodeError,
    EncodeError,
    TruncatedError,
    UnknownTagError,
    UnregisteredClassError,
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

__all__ = [
    "DecodeError",
    "EncodeError",
    "FrameBuffer",
    "FrameReceiver",
    "FrameTooLargeError",
    "ParamSlot",
    "RemoteRef",
    "TruncatedError",
    "UnknownTagError",
    "UnregisteredClassError",
    "canonical_set_order",
    "decode",
    "encode",
    "frame_views",
    "write_frame",
]
