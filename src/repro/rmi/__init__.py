"""RMI substrate: the distributed-object middleware under BRMI."""

from repro.rmi.client import RMIClient
from repro.rmi.dispatch import DedupWindow, RMICore
from repro.rmi.exceptions import (
    AlreadyBoundError,
    CommunicationError,
    MarshalError,
    NoSuchMethodError,
    NoSuchObjectError,
    NotBoundError,
    RemoteError,
    ServerBusyError,
)
from repro.rmi.protocol import INVOKE_BATCH, CallRequest, CallResponse
from repro.rmi.retry import RETRYABLE_ERRORS, RetryPolicy
from repro.rmi.remote import RemoteInterface, RemoteObject, remote_method
from repro.rmi.server import RMIServer
from repro.rmi.stub import Stub

__all__ = [
    "AlreadyBoundError",
    "CallRequest",
    "CallResponse",
    "CommunicationError",
    "DedupWindow",
    "INVOKE_BATCH",
    "MarshalError",
    "NoSuchMethodError",
    "NoSuchObjectError",
    "NotBoundError",
    "RETRYABLE_ERRORS",
    "RetryPolicy",
    "RemoteError",
    "RemoteInterface",
    "RemoteObject",
    "RMIClient",
    "RMICore",
    "RMIServer",
    "ServerBusyError",
    "Stub",
    "remote_method",
]
