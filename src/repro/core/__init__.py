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
from repro.core.interfaces import generate_batch_interface_source
from repro.core.policies import (
    MAX_REPEATS,
    AbortPolicy,
    ContinuePolicy,
    CustomPolicy,
    ExceptionAction,
)
from repro.core.proxy import BRMI, BatchProxy, create_batch
from repro.core.explain import batch_summary, describe_batch

__all__ = [
    "AbortPolicy",
    "BatchAbortedError",
    "BatchClosedError",
    "BatchDependencyError",
    "BatchError",
    "BatchExecutor",
    "BatchProxy",
    "BatchStateError",
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
    "ExceptionAction",
    "Future",
    "FutureNotReadyError",
    "generate_batch_interface_source",
    "MAX_REPEATS",
    "NotInBatchError",
    "SessionExpiredError",
    "UnsupportedBatchOperationError",
    "create_batch",
]
