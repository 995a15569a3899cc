"""BRMI: explicit batching for distributed objects (the paper's core).

Public surface:

- :func:`create_batch` / :class:`BRMI` — wrap a stub in a batch proxy
- :class:`Future` — placeholder results
- :class:`BatchProxy` / :class:`CursorProxy` — recorded-call proxies
- policies — :class:`AbortPolicy`, :class:`ContinuePolicy`,
  :class:`CustomPolicy`, :class:`ExceptionAction`
- :mod:`repro.core.interfaces` — the ``rmic -batch`` analogue
"""

from repro.core.cursor import CursorProxy, cursor_index, cursor_length
from repro.core.errors import (
    BatchAbortedError,
    BatchClosedError,
    BatchDependencyError,
    BatchError,
    BatchStateError,
    CursorInterleavingError,
    CursorStateError,
    FutureNotReadyError,
    NotInBatchError,
    SessionExpiredError,
    UnsupportedBatchOperationError,
)
from repro.core.executor import BatchExecutor
from repro.core.future import Future
from repro.core.interfaces import (
    BatchInterfaceSpec,
    BatchMethodSpec,
    derive_batch_interfaces,
    derive_batch_spec,
    generate_batch_interface_source,
    method_translation_table,
)
from repro.core.policies import (
    MAX_REPEATS,
    MAX_RESTARTS,
    AbortPolicy,
    ContinuePolicy,
    CustomPolicy,
    ExceptionAction,
    default_policy,
)
from repro.core.proxy import BRMI, BatchProxy, BatchRecorder, create_batch
from repro.core.recording import ArgRef, BatchResponse, InvocationData
from repro.core.session import SessionStore
from repro.core.explain import BatchSummary, batch_summary, describe_batch

__all__ = [
    "AbortPolicy",
    "ArgRef",
    "BatchAbortedError",
    "BatchClosedError",
    "BatchDependencyError",
    "BatchError",
    "BatchExecutor",
    "BatchInterfaceSpec",
    "BatchMethodSpec",
    "BatchProxy",
    "BatchRecorder",
    "BatchResponse",
    "BatchStateError",
    "BatchSummary",
    "batch_summary",
    "describe_batch",
    "BRMI",
    "ContinuePolicy",
    "CursorInterleavingError",
    "CursorProxy",
    "CursorStateError",
    "cursor_index",
    "cursor_length",
    "CustomPolicy",
    "default_policy",
    "derive_batch_interfaces",
    "derive_batch_spec",
    "ExceptionAction",
    "Future",
    "FutureNotReadyError",
    "generate_batch_interface_source",
    "InvocationData",
    "MAX_REPEATS",
    "MAX_RESTARTS",
    "method_translation_table",
    "NotInBatchError",
    "SessionExpiredError",
    "SessionStore",
    "UnsupportedBatchOperationError",
    "create_batch",
]
